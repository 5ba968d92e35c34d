package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// collectSink records delivered batches.
type collectSink struct {
	mu      sync.Mutex
	batches [][]byte
}

func (c *collectSink) sink(_ context.Context, batch []byte) error {
	c.mu.Lock()
	c.batches = append(c.batches, append([]byte(nil), batch...))
	c.mu.Unlock()
	return nil
}

func (c *collectSink) events(t *testing.T) []Event {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, b := range c.batches {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			out = append(out, ev)
		}
	}
	return out
}

func TestShipperDeliversNDJSON(t *testing.T) {
	var cs collectSink
	tune := defaultShipTuning
	tune.flushEvents, tune.flushInterval = 4, 10*time.Millisecond
	s := newShipper[Event](ShipperConfig{Sink: cs.sink}, tune)
	ts := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		if !s.Ship(Event{Time: ts, Type: "verdict", Node: "testd", Tenant: "app.a", Matched: []int{i}}) {
			t.Fatalf("Ship %d rejected", i)
		}
	}
	s.Close()

	evs := cs.events(t)
	if len(evs) != 10 {
		t.Fatalf("delivered %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if want := (Event{Time: ts, Type: "verdict", Node: "testd", Tenant: "app.a", Matched: []int{i}}); !reflect.DeepEqual(ev, want) {
			t.Fatalf("event %d = %+v, want it written as shipped: %+v", i, ev, want)
		}
	}
	st := s.stats()
	if st.Shipped != 10 || st.DroppedBuffer != 0 || st.DroppedUpload != 0 {
		t.Fatalf("stats = %+v, want 10 shipped and no drops", st)
	}
}

// TestShipperNeverBlocksOnStalledSink is the ops-plane invariant: with
// the consumer wedged, producers keep shipping at full speed, overflow
// is dropped and counted, and nothing deadlocks. Run under -race in CI.
func TestShipperNeverBlocksOnStalledSink(t *testing.T) {
	release := make(chan struct{})
	var delivered sync.WaitGroup
	delivered.Add(1)
	var once sync.Once
	tune := defaultShipTuning
	tune.bufferEvents, tune.flushEvents, tune.flushInterval, tune.maxAttempts = 64, 8, time.Millisecond, 1
	s := newShipper[Event](ShipperConfig{
		Sink: func(ctx context.Context, _ []byte) error {
			once.Do(delivered.Done)
			<-release // wedged until the test releases it
			return nil
		},
	}, tune)
	// LIFO: release the sink first, then Close can drain.
	defer s.Close()
	defer close(release)

	// Concurrent producers hammer the shipper while the sink is wedged.
	const producers, perProducer = 8, 200
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.Ship(Event{Type: "verdict", Tenant: "t", Version: int64(p*perProducer + i)})
			}
		}(p)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("producers took %v with a stalled sink; Ship must not block", elapsed)
	}

	delivered.Wait() // the wedged delivery is in flight — the buffer bound is now hard
	st := s.stats()
	total := st.Shipped + st.DroppedBuffer + st.DroppedUpload + uint64(st.Buffered)
	// The in-flight batch (taken from the ring, not yet counted anywhere)
	// accounts for at most flushEvents of slack.
	if want := uint64(producers * perProducer); total > want || total+8 < want {
		t.Fatalf("accounting leak: shipped=%d dropBuf=%d dropUp=%d buffered=%d, want ~%d total",
			st.Shipped, st.DroppedBuffer, st.DroppedUpload, st.Buffered, want)
	}
	if st.DroppedBuffer == 0 {
		t.Fatal("expected buffer-overflow drops with a stalled sink and 1600 events into a 64-event ring")
	}
	if st.Buffered > 64 {
		t.Fatalf("buffered=%d exceeds the 64-event bound", st.Buffered)
	}
}

func TestShipperRetriesThenDrops(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	tune := defaultShipTuning
	tune.flushEvents, tune.flushInterval = 1, time.Millisecond
	tune.retryMin, tune.retryMax, tune.maxAttempts = time.Millisecond, 2*time.Millisecond, 3
	s := newShipper[Event](ShipperConfig{
		Sink: func(context.Context, []byte) error {
			mu.Lock()
			attempts++
			mu.Unlock()
			return context.DeadlineExceeded
		},
	}, tune)
	s.Ship(Event{Type: "publish"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.stats()
		if st.DroppedUpload == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never abandoned: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	mu.Lock()
	defer mu.Unlock()
	if attempts < 3 {
		t.Fatalf("sink saw %d attempts, want >= 3 (maxAttempts)", attempts)
	}
	if st := s.stats(); st.UploadFailures < 3 {
		t.Fatalf("upload failures = %d, want >= 3", st.UploadFailures)
	}
}

// TestShipperFlushesPendingOnClose: events below the size trigger and
// ahead of the interval must still reach the sink when the shipper is
// closed — SIGTERM must not silently abandon the tail of the stream.
func TestShipperFlushesPendingOnClose(t *testing.T) {
	var cs collectSink
	tune := defaultShipTuning
	tune.flushInterval = time.Hour // never fires; 5 events never reach flushEvents
	s := newShipper[Event](ShipperConfig{Sink: cs.sink}, tune)
	for i := 0; i < 5; i++ {
		s.Ship(Event{Type: "verdict", Version: int64(i)})
	}
	s.Close()
	if evs := cs.events(t); len(evs) != 5 {
		t.Fatalf("final flush delivered %d events, want 5", len(evs))
	}
	if st := s.stats(); st.Shipped != 5 || st.DroppedUpload != 0 || st.Buffered != 0 {
		t.Fatalf("stats after close = %+v, want 5 shipped, nothing dropped or buffered", st)
	}
}

// TestShipperCountsFinalFlushFailureAsDropped: when the sink is dead at
// shutdown, the final single-attempt flush gives up and the loss is
// visible in dropped_upload rather than vanishing.
func TestShipperCountsFinalFlushFailureAsDropped(t *testing.T) {
	tune := defaultShipTuning
	tune.flushInterval = time.Hour
	s := newShipper[Event](ShipperConfig{
		Sink: func(context.Context, []byte) error {
			return context.DeadlineExceeded
		},
	}, tune)
	for i := 0; i < 7; i++ {
		s.Ship(Event{Type: "verdict", Version: int64(i)})
	}
	s.Close()
	st := s.stats()
	if st.DroppedUpload != 7 {
		t.Fatalf("dropped_upload = %d after failed final flush, want 7 (stats %+v)", st.DroppedUpload, st)
	}
	if st.Shipped != 0 || st.Buffered != 0 {
		t.Fatalf("stats after failed final flush = %+v, want nothing shipped or buffered", st)
	}
}

// TestShipperCloseIsBoundedInTotal: against a sink that answers nothing
// until its context ends, with a full ring and one batch already in
// flight, Close waits out that attempt and then gives the whole final
// pass one uploadTimeout — not one per batch — and every record ends up
// counted as shipped or dropped.
func TestShipperCloseIsBoundedInTotal(t *testing.T) {
	tune := defaultShipTuning
	tune.flushInterval, tune.uploadTimeout = time.Hour, 300*time.Millisecond
	entered := make(chan struct{}, 1)
	s := newShipper[Event](ShipperConfig{
		Sink: func(ctx context.Context, _ []byte) error {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return ctx.Err()
		},
	}, tune)
	for i := 0; i < tune.bufferEvents; i++ {
		s.Ship(Event{Type: "verdict", Version: int64(i)})
	}
	<-entered
	start := time.Now()
	s.Close()
	// The in-flight attempt, then the final pass: 2 × uploadTimeout, and
	// half of one more for scheduling. One attempt per buffered batch
	// would take 16.
	if elapsed, limit := time.Since(start), 5*tune.uploadTimeout/2; elapsed > limit {
		t.Fatalf("Close took %v against a silent sink, want under %v", elapsed, limit)
	}
	st := s.stats()
	if total := st.Shipped + st.DroppedBuffer + st.DroppedUpload; total != uint64(tune.bufferEvents) || st.Buffered != 0 {
		t.Fatalf("stats after Close = %+v: %d of %d records counted", st, total, tune.bufferEvents)
	}
	if st.DroppedUpload == 0 {
		t.Fatalf("stats after Close = %+v, want the abandoned batches in dropped_upload", st)
	}
}

func TestShipperCollectFamilies(t *testing.T) {
	var cs collectSink
	tune := defaultShipTuning
	tune.flushInterval = time.Millisecond
	s := newShipper[Event](ShipperConfig{Sink: cs.sink}, tune)
	s.Ship(Event{Type: "x"})
	s.Close()
	reg := NewRegistry()
	reg.Register(ShipperCollector("events", s))
	out := reg.expose()
	for _, fam := range []string{
		`leaksig_shipper_shipped_total{stream="events"}`,
		`leaksig_shipper_dropped_total{stream="events",reason="buffer_full"}`,
		`leaksig_shipper_dropped_total{stream="events",reason="upload_abandoned"}`,
		`leaksig_shipper_buffered{stream="events"}`,
		`leaksig_shipper_flush_seconds_count{stream="events"}`,
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("scrape missing %s:\n%s", fam, out)
		}
	}
}
