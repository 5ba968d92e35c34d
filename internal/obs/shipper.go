package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"leaksig/internal/resilience"
)

// Event is one structured ops-plane record: a leak verdict, a signature
// publish, a retirement convergence, a reload — whatever the daemons
// decide is worth shipping. Fields are omitted when empty so the NDJSON
// stays compact.
type Event struct {
	Time    time.Time `json:"ts"`
	Type    string    `json:"type"`              // verdict | publish | retire | reload | ...
	Node    string    `json:"node,omitempty"`    // emitting daemon, e.g. "leakstream"
	Tenant  string    `json:"tenant,omitempty"`  // traffic population
	Set     string    `json:"set,omitempty"`     // signature set name ("" = default, omitted)
	Version int64     `json:"version,omitempty"` // signature-set version involved
	App     string    `json:"app,omitempty"`
	Host    string    `json:"host,omitempty"`
	Matched []int     `json:"matched,omitempty"` // signature IDs, for verdict events
	Trace   string    `json:"trace,omitempty"`   // cross-process trace ID, when sampled
	Detail  string    `json:"detail,omitempty"`
}

// ShipperConfig parameterizes a Shipper. Exactly one of URL and Sink
// must be set.
type ShipperConfig struct {
	// URL is the HTTP endpoint batches POST to as
	// application/x-ndjson. Ignored when Sink is set.
	URL string

	// Token, when non-empty, is sent as `Authorization: Bearer <token>`
	// on every upload.
	Token string

	// Sink, when non-nil, replaces the HTTP uploader: it receives one
	// encoded NDJSON batch per flush and reports delivery. It runs on the
	// shipper's flush goroutine; a Sink that blocks forever wedges
	// delivery but NEVER the producers — Ship keeps accepting (and,
	// past the buffer bound, counting drops).
	Sink func(ctx context.Context, batch []byte) error

	// HTTPClient, when non-nil, replaces the URL sink's internal client
	// — the slot chaos harnesses use to inject faults into the upload
	// path. Ignored when Sink is set.
	HTTPClient *http.Client
}

// shipTuning is the shipper's buffer bound and flush and retry
// schedule. NewShipper uses defaultShipTuning; tests pass a faster one
// to newShipper.
type shipTuning struct {
	// bufferEvents bounds the in-memory ring; producers shipping into a
	// full ring drop the NEW record and count it — the logtail posture:
	// never stall the pipeline for the log.
	bufferEvents int
	// flushEvents buffered records trigger a flush, and bound a batch;
	// flushInterval flushes partial batches.
	flushEvents   int
	flushInterval time.Duration
	// retryMin and retryMax bound the jittered exponential backoff
	// between failed delivery attempts; maxAttempts bounds attempts per
	// batch before the batch is abandoned and counted as delivery drops.
	retryMin, retryMax time.Duration
	maxAttempts        int
	// uploadTimeout bounds one delivery attempt, and Close's final pass
	// over everything still buffered.
	uploadTimeout time.Duration
}

var defaultShipTuning = shipTuning{
	bufferEvents:  4096,
	flushEvents:   256,
	flushInterval: 2 * time.Second,
	retryMin:      500 * time.Millisecond,
	retryMax:      30 * time.Second,
	maxAttempts:   5,
	uploadTimeout: 10 * time.Second,
}

// shipperStats is a point-in-time view of the shipper's accounting.
type shipperStats struct {
	Shipped        uint64 `json:"shipped"`         // records delivered to the sink
	DroppedBuffer  uint64 `json:"dropped_buffer"`  // records dropped: ring full
	DroppedUpload  uint64 `json:"dropped_upload"`  // records dropped: batch abandoned
	UploadFailures uint64 `json:"upload_failures"` // failed delivery attempts
	Batches        uint64 `json:"batches"`         // batches delivered
	Buffered       int    `json:"buffered"`        // records currently in the ring
}

// Shipper batches records into NDJSON, one JSON line each, and ships
// them to a consumer without ever blocking its producers: the buffer is
// a bounded ring whose overflow increments a drop counter instead of
// stalling the caller, flushing happens on size or interval off the
// producing goroutine, and failed uploads retry with exponential backoff
// while the ring keeps absorbing (and, at the bound, dropping) new
// records — the buffered-upload/backpressure idiom of tailscale's
// logtail. It is the one way a daemon sends records out: ops-plane
// Events to -events-url, and the misses leakstream and flowproxy ship to
// a learner.
// Construct with NewShipper; all methods are safe for concurrent use.
type Shipper[T any] struct {
	cfg  ShipperConfig
	tune shipTuning

	mu     sync.Mutex
	buf    []T // bounded ring, FIFO via slice shift at take time
	wake   chan struct{}
	closed bool

	shipped        counter
	droppedBuffer  counter
	droppedUpload  counter
	uploadFailures counter
	batches        counter

	flushSec *histogram // delivery attempt duration, seconds
	retry    *resilience.Backoff
	stop     chan struct{}
	done     chan struct{}
}

// NewShipper starts a shipper of T records. The flush goroutine begins
// immediately.
func NewShipper[T any](cfg ShipperConfig) *Shipper[T] {
	return newShipper[T](cfg, defaultShipTuning)
}

// newShipper is NewShipper with the tuning given. The flush goroutine
// reads tune as soon as it starts, so a test changes it here, never
// on the returned shipper.
func newShipper[T any](cfg ShipperConfig, tune shipTuning) *Shipper[T] {
	if cfg.Sink == nil {
		cfg.Sink = httpSink(cfg.URL, cfg.Token, tune.uploadTimeout, cfg.HTTPClient)
	}
	s := &Shipper[T]{
		cfg:      cfg,
		tune:     tune,
		buf:      make([]T, 0, tune.bufferEvents),
		wake:     make(chan struct{}, 1),
		flushSec: newHistogram(expBuckets(0.001, 4, 8)), // 1ms .. ~16s
		retry:    resilience.NewBackoff(tune.retryMin, tune.retryMax, 0),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.run()
	return s
}

// httpSink POSTs one NDJSON batch per call.
func httpSink(url, token string, timeout time.Duration, hc *http.Client) func(context.Context, []byte) error {
	if hc == nil {
		hc = &http.Client{Timeout: timeout}
	}
	return func(ctx context.Context, batch []byte) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(batch))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			return fmt.Errorf("obs: upload status %s", resp.Status)
		}
		return nil
	}
}

// Ship offers one record, written as it is. It never blocks: when the
// ring is full the record is dropped and counted, and Ship reports
// false. A pointer record is encoded on the flush goroutine, so its
// producer must not change it afterwards.
func (s *Shipper[T]) Ship(rec T) bool {
	s.mu.Lock()
	if s.closed || len(s.buf) >= s.tune.bufferEvents {
		s.mu.Unlock()
		s.droppedBuffer.Inc()
		return false
	}
	s.buf = append(s.buf, rec)
	n := len(s.buf)
	s.mu.Unlock()
	if n >= s.tune.flushEvents {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// take removes up to flushEvents records from the head of the ring.
func (s *Shipper[T]) take() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.buf)
	if n == 0 {
		return nil
	}
	if n > s.tune.flushEvents {
		n = s.tune.flushEvents
	}
	batch := make([]T, n)
	copy(batch, s.buf)
	rest := copy(s.buf, s.buf[n:])
	s.buf = s.buf[:rest]
	return batch
}

// run is the flush loop: wait for a size trigger, the interval, or Close,
// then deliver whatever is buffered, retrying each batch with backoff.
func (s *Shipper[T]) run() {
	defer close(s.done)
	t := time.NewTicker(s.tune.flushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			// Final best-effort flush: one attempt per remaining batch, no
			// retries, and one uploadTimeout for the whole pass — Close
			// must not hang on a dead consumer, however much is buffered.
			ctx, cancel := context.WithTimeout(context.Background(), s.tune.uploadTimeout)
			for batch := s.take(); len(batch) > 0; batch = s.take() {
				s.deliver(ctx, batch, 1)
			}
			cancel()
			return
		case <-s.wake:
		case <-t.C:
		}
		// Once Close has begun, what is left is the final pass's.
		for !s.stopping() {
			batch := s.take()
			if len(batch) == 0 {
				break
			}
			s.deliver(context.Background(), batch, s.tune.maxAttempts)
		}
	}
}

// stopping reports whether Close has begun.
func (s *Shipper[T]) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// deliver encodes one batch as NDJSON and ships it with up to attempts
// tries, each bounded by uploadTimeout and all by ctx. An abandoned
// batch is counted as upload drops — explicit loss accounting rather
// than unbounded buffering.
func (s *Shipper[T]) deliver(ctx context.Context, batch []T, attempts int) {
	if ctx.Err() != nil {
		s.droppedUpload.Add(uint64(len(batch)))
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range batch {
		enc.Encode(&batch[i])
	}
	for attempt := 1; ; attempt++ {
		ctx, cancel := context.WithTimeout(ctx, s.tune.uploadTimeout)
		begin := time.Now()
		err := s.cfg.Sink(ctx, buf.Bytes())
		s.flushSec.Observe(time.Since(begin).Seconds())
		cancel()
		if err == nil {
			s.shipped.Add(uint64(len(batch)))
			s.batches.Inc()
			return
		}
		s.uploadFailures.Inc()
		if attempt >= attempts {
			s.droppedUpload.Add(uint64(len(batch)))
			return
		}
		select {
		case <-s.stop:
			// Closing: abandon the retry loop, count the loss.
			s.droppedUpload.Add(uint64(len(batch)))
			return
		case <-time.After(s.retry.Delay(attempt - 1)):
		}
	}
}

// Counts reports the records delivered, the records dropped for either
// reason, and the failed delivery attempts.
func (s *Shipper[T]) Counts() (shipped, dropped, failed uint64) {
	return s.shipped.Value(), s.droppedBuffer.Value() + s.droppedUpload.Value(), s.uploadFailures.Value()
}

// stats returns the shipper's accounting counters.
func (s *Shipper[T]) stats() shipperStats {
	s.mu.Lock()
	buffered := len(s.buf)
	s.mu.Unlock()
	return shipperStats{
		Shipped:        s.shipped.Value(),
		DroppedBuffer:  s.droppedBuffer.Value(),
		DroppedUpload:  s.droppedUpload.Value(),
		UploadFailures: s.uploadFailures.Value(),
		Batches:        s.batches.Value(),
		Buffered:       buffered,
	}
}

// ShipperCollector reports one shipper's accounting under the
// leaksig_shipper_* families, its samples labelled stream, so loss is as
// scrapeable as volume and every shipper of a daemon (the ops-plane
// events, the misses shipped to the learner) shares one family set.
func ShipperCollector[T any](stream string, s *Shipper[T]) Collector {
	sl := label("stream", stream)
	return CollectorFunc(func(m *MetricWriter) {
		st := s.stats()
		m.Counter("leaksig_shipper_shipped_total", "Records delivered, by stream.", float64(st.Shipped), sl)
		m.Counter("leaksig_shipper_dropped_total", "Records dropped, by stream and reason (buffer overflow vs abandoned upload).", float64(st.DroppedBuffer), sl, label("reason", "buffer_full"))
		m.Counter("leaksig_shipper_dropped_total", "Records dropped, by stream and reason (buffer overflow vs abandoned upload).", float64(st.DroppedUpload), sl, label("reason", "upload_abandoned"))
		m.Counter("leaksig_shipper_upload_failures_total", "Failed upload attempts, by stream (each retried batch attempt counts once).", float64(st.UploadFailures), sl)
		m.Counter("leaksig_shipper_batches_total", "Batches delivered, by stream.", float64(st.Batches), sl)
		m.Gauge("leaksig_shipper_buffered", "Records currently waiting in the ship buffer, by stream.", float64(st.Buffered), sl)
		s.flushSec.Write(m, "leaksig_shipper_flush_seconds", "Batch delivery attempt duration, by stream.", sl)
	})
}

// Close stops the flush loop after one final best-effort delivery pass,
// which takes at most uploadTimeout after any attempt already in flight;
// what it cannot deliver in that time is counted as dropped. Records
// shipped after Close are dropped and counted. Close is idempotent.
func (s *Shipper[T]) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
}
