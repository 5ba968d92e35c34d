package main

// The three workloads that drive real child daemons over loopback HTTP.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leaksig/internal/signature"
)

func writeSet(path string, set *signature.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := set.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// packetPath is the set-up ingest-stream and vet-sync share: the full
// trace, the paper-size signature set, the sampled reference, and one
// leakstream child with a single shard.
type packetPath struct {
	tr   *trace
	set  *signature.Set
	ref  *reference
	ls   *child
	addr string
}

func (pp *packetPath) setup(d *dirs, seed int64, onLine func([]byte), extraArgs ...string) error {
	if err := d.buildDaemons(); err != nil {
		return err
	}
	pp.tr = genTrace(seed)
	pp.set = pp.tr.paperSet(seed)
	pp.ref = buildReference(pp.set, pp.tr.packets)
	sigs := filepath.Join(d.tmp, "paper.json")
	if err := writeSet(sigs, pp.set); err != nil {
		return err
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	pp.addr = addr
	pinProcess(&cpus.generator)
	args := append([]string{"-shards", "1", "-sigs", sigs, "-listen", addr}, extraArgs...)
	pp.ls, err = startChild(d, "leakstream", "leakstream", args, onLine)
	if err != nil {
		return err
	}
	if err := waitReady(addr); err != nil {
		return fmt.Errorf("%v\n%s", err, pp.ls.stderrTail())
	}
	return nil
}

func (pp *packetPath) teardown() {
	pinProcess(&cpus.all)
	if pp.ls != nil {
		pp.ls.stop()
		pp.ls = nil
	}
}

// --- ingest-stream ----------------------------------------------------------

const linesPerBody = 500

// inflight is one posted body whose verdict lines are still arriving.
type inflight struct {
	start     time.Time
	remaining int
	seen      [(linesPerBody + 63) / 64]uint64
}

// ingestStream is a closed loop on two keep-alive connections: each
// sender posts the next 500-line body as soon as its previous POST is
// answered, while a third goroutine reads verdict lines off the child's
// stdout and accounts for every id.
type ingestStream struct {
	d    *dirs
	seed int64
	packetPath
	bodies []*body
	heads  [][]byte

	// extraArgs are appended to the child's command line (the traced run
	// turns on the daemon's own stage instrument). sampleStats polls the
	// child's /stats at 10 Hz while the workload runs.
	extraArgs   []string
	sampleStats bool

	mu       sync.Mutex
	tl       tally
	pending  map[int64]*inflight // by body instance
	turn     []float64           // body turnaround, ms, measured window only
	from, to time.Time           // measured window
	windows  []int64             // verdict lines per second of the window
}

func (w *ingestStream) setup() error {
	if err := w.packetPath.setup(w.d, w.seed, w.onVerdict, w.extraArgs...); err != nil {
		return err
	}
	w.bodies = ndjsonBodies(w.tr.packets, linesPerBody)
	w.heads = make([][]byte, len(w.bodies))
	for i, b := range w.bodies {
		w.heads[i] = postHeader("/ingest", "", len(b.buf))
	}
	w.pending = map[int64]*inflight{}
	return nil
}

func (w *ingestStream) teardown() { w.packetPath.teardown() }

// onVerdict runs on the stdout reader goroutine, once per verdict line.
func (w *ingestStream) onVerdict(line []byte) {
	now := time.Now()
	id := scanInt(line, idPrefix)
	leak := scanLeak(line)
	w.mu.Lock()
	defer w.mu.Unlock()
	if id < idBase || leak < 0 {
		w.tl.fail("unparseable verdict line %q", line)
		return
	}
	n := int64(len(w.tr.packets))
	rel := id - idBase
	idx := int(rel % n)
	inst := rel/n*int64(len(w.bodies)) + int64(idx/linesPerBody)
	f := w.pending[inst]
	bit := idx % linesPerBody
	if f == nil || f.seen[bit/64]&(1<<(bit%64)) != 0 {
		w.tl.fail("verdict for id %d is duplicated or was never sent", id)
		return
	}
	f.seen[bit/64] |= 1 << (bit % 64)
	if w.ref.checked(idx) && (leak == 1) != w.ref.leak[idx] {
		w.tl.fail("id %d: leak=%v, reference says %v", id, leak == 1, w.ref.leak[idx])
	}
	if !now.Before(w.from) && now.Before(w.to) {
		w.windows[int(now.Sub(w.from)/time.Second)]++
	}
	if f.remaining--; f.remaining == 0 {
		if !f.start.Before(w.from) && now.Before(w.to) {
			w.turn = append(w.turn, ms(now.Sub(f.start)))
		}
		delete(w.pending, inst)
	}
}

func (w *ingestStream) run(warm, measure time.Duration) (*outcome, error) {
	start := time.Now()
	w.mu.Lock()
	w.from, w.to = start.Add(warm), start.Add(warm+measure)
	w.windows = make([]int64, int(measure/time.Second))
	w.mu.Unlock()

	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	var cpu0, cpu1 float64
	var sent0, sent1 int64
	var sentTotal atomic.Int64
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dial(w.addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.close()
			n, nb := int64(len(w.tr.packets)), int64(len(w.bodies))
			for time.Now().Before(w.to) {
				k := next.Add(1) - 1
				b := w.bodies[k%nb]
				b.setIDs(idBase + k/nb*n)
				w.mu.Lock()
				w.pending[k] = &inflight{start: time.Now(), remaining: len(b.lines)}
				w.tl.attempted += int64(len(b.lines))
				w.mu.Unlock()
				status, resp, err := c.post(w.heads[k%nb], b.buf)
				if err != nil {
					errs <- err
					return
				}
				accepted := scanInt(resp, `"accepted":`)
				if status != 200 || accepted != int64(len(b.lines)) {
					w.mu.Lock()
					w.tl.fail("POST /ingest: status %d, %s", status, bytes.TrimSpace(resp))
					w.mu.Unlock()
				}
				sentTotal.Add(int64(len(b.lines)))
			}
		}()
	}
	var samples statsSamples
	stopStats := make(chan struct{})
	if w.sampleStats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples.poll(w.addr, stopStats)
		}()
	}
	time.Sleep(time.Until(w.from))
	cpu0, sent0 = w.ls.cpuSeconds(), sentTotal.Load()
	time.Sleep(time.Until(w.to))
	cpu1, sent1 = w.ls.cpuSeconds(), sentTotal.Load()
	close(stopStats)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, fmt.Errorf("%v\n%s", err, w.ls.stderrTail())
	default:
	}
	// Every accepted id must come back: wait for the tail to drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		left := len(w.pending)
		w.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			w.mu.Lock()
			for inst, f := range w.pending {
				w.tl.failed += int64(f.remaining) - 1
				w.tl.fail("body instance %d: %d verdicts never arrived", inst, f.remaining)
			}
			w.mu.Unlock()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	out := &outcome{tally: w.tl, e2e: metrics{}, info: metrics{}}
	perSec := make([]float64, len(w.windows))
	for i, n := range w.windows {
		perSec[i] = float64(n)
	}
	pps := median(perSec)
	turn := sorted(w.turn)
	rss := hwmMB(w.ls.cmd.Process.Pid)
	out.e2e.set("throughput", pps, "1/s")
	out.e2e.set("latency_p50_ms", quantile(turn, 0.5), "ms")
	out.e2e.set("peak_rss_mb", rss, "MB")
	out.info.set("ingest_pps", pps, "1/s")
	out.info.set("ingest_rss_mb", rss, "MB")
	tv, tp := tail(turn)
	out.info.set("ingest.body_turnaround_tail_ms", tv, "ms")
	out.info.set("ingest.body_turnaround_tail_pct", tp, "%")
	out.info.set("ingest.body_turnaround_samples", float64(len(turn)), "count")
	if sent1 > sent0 {
		out.info.set("leakstream.cpu_us_per_pkt", (cpu1-cpu0)*1e6/float64(sent1-sent0), "us")
	}
	samples.report(out.info)
	return out, nil
}

// statsSamples is what the traced run reads off the child's own /stats
// and /metrics while ingest-stream runs.
type statsSamples struct {
	dropped, queueMax, limited float64
	batch                      []float64
}

func (s *statsSamples) poll(addr string, stop <-chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			if b, err := httpGet(addr, "/metrics"); err == nil {
				s.limited = promSum(b, "leaksig_intake_limited_total")
			}
			return
		case <-t.C:
			b, err := httpGet(addr, "/stats")
			if err != nil {
				continue
			}
			var snap struct {
				Dropped                 uint64
				QueueDepth, BatchTarget int
			}
			if json.Unmarshal(b, &snap) == nil {
				s.dropped = float64(snap.Dropped)
				s.queueMax = max(s.queueMax, float64(snap.QueueDepth))
				s.batch = append(s.batch, float64(snap.BatchTarget))
			}
		}
	}
}

func (s *statsSamples) report(m metrics) {
	if len(s.batch) == 0 {
		return
	}
	m.set("engine.dropped", s.dropped, "count")
	m.set("engine.queue_depth_max", s.queueMax, "count")
	m.set("engine.batch_target", median(s.batch), "count")
	m.set("obs.limited", s.limited, "count")
}

// promSum adds every sample of one family in a Prometheus text page.
func promSum(page []byte, family string) float64 {
	var sum float64
	for _, line := range bytes.Split(page, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(family)) || len(line) == len(family) {
			continue
		}
		if c := line[len(family)]; c != ' ' && c != '{' {
			continue
		}
		if i := bytes.LastIndexByte(line, ' '); i >= 0 {
			v, _ := strconv.ParseFloat(string(line[i+1:]), 64)
			sum += v
		}
	}
	return sum
}

// --- vet-sync ---------------------------------------------------------------

const (
	vetRate     = 1000 // requests per second, open loop
	vetRequests = 4096 // distinct one-packet requests cycled through
)

// vetSync is an open loop at a fixed 1,000 requests per second over two
// keep-alive connections: one-packet POST /match, each timed from the
// instant it was due, so a stall charges the requests queued behind it.
type vetSync struct {
	d    *dirs
	seed int64
	packetPath
	reqs   [][]byte // head+body of each request
	ids    []int64
	expect []bool
}

func (w *vetSync) setup() error {
	if err := w.packetPath.setup(w.d, w.seed, nil); err != nil {
		return err
	}
	w.buildRequests()
	return nil
}

// buildRequests serialises one request per reference-checked packet, so
// every response is verified.
func (w *vetSync) buildRequests() {
	w.reqs, w.ids, w.expect = nil, nil, nil
	for i := 0; i < len(w.tr.packets) && len(w.reqs) < vetRequests; i += refStride {
		p := w.tr.packets[i]
		line, err := json.Marshal(p)
		if err != nil {
			panic(err) // Packet has no unmarshalable field
		}
		line = append(line, '\n')
		w.reqs = append(w.reqs, append(postHeader("/match", "", len(line)), line...))
		w.ids = append(w.ids, p.ID)
		w.expect = append(w.expect, w.ref.leak[i])
	}
}

func (w *vetSync) teardown() { w.packetPath.teardown() }

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake (EINTR) only makes the request early by less than it was late before
	}
}

type vetSample struct{ fromDue, fromSend, late float64 } // microseconds

func (w *vetSync) run(warm, measure time.Duration) (*outcome, error) {
	t0 := time.Now().Add(20 * time.Millisecond)
	from, to := t0.Add(warm), t0.Add(warm+measure)
	interval := time.Second / vetRate
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	tallies := make([]tally, 2)
	samples := make([][]vetSample, 2)
	lastDones := make([]time.Time, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// time.Sleep wakes through the netpoller, whose timeout has
			// millisecond resolution; an open loop at one request per
			// millisecond needs better, so each sender owns its thread,
			// sleeps in nanosleep(2) and talks over a blocking socket.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			hc, err := dialBlocking(w.addr)
			if err != nil {
				errs <- err
				return
			}
			defer hc.close()
			tl := &tallies[c]
			for k := c; ; k += 2 {
				due := t0.Add(time.Duration(k) * interval)
				if !due.Before(to) {
					return
				}
				sleepUntil(due)
				r := k % len(w.reqs)
				sent := time.Now()
				status, resp, err := hc.roundTrip(w.reqs[r])
				done := time.Now()
				if err != nil {
					errs <- err
					return
				}
				tl.attempted++
				switch {
				case status != 200:
					tl.fail("POST /match: status %d", status)
				case scanInt(resp, idPrefix) != w.ids[r]:
					tl.fail("POST /match id %d: answered %q", w.ids[r], bytes.TrimSpace(resp))
				case (scanLeak(resp) == 1) != w.expect[r]:
					tl.fail("id %d: leak=%v, reference says %v", w.ids[r], scanLeak(resp) == 1, w.expect[r])
				}
				if !due.Before(from) {
					samples[c] = append(samples[c], vetSample{us(done.Sub(due)), us(done.Sub(sent)), us(sent.Sub(due))})
					lastDones[c] = done
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, fmt.Errorf("%v\n%s", err, w.ls.stderrTail())
	default:
	}
	out := &outcome{e2e: metrics{}, info: metrics{}}
	var fromDue, fromSend, late []float64
	for c := range samples {
		out.attempted += tallies[c].attempted
		out.failed += tallies[c].failed
		out.notes = append(out.notes, tallies[c].notes...)
		for _, s := range samples[c] {
			fromDue = append(fromDue, s.fromDue)
			fromSend = append(fromSend, s.fromSend)
			late = append(late, s.late)
		}
	}
	fromDue, fromSend, late = sorted(fromDue), sorted(fromSend), sorted(late)
	lastDone := lastDones[0]
	if lastDones[1].After(lastDone) {
		lastDone = lastDones[1]
	}
	rss := hwmMB(w.ls.cmd.Process.Pid)
	out.e2e.set("throughput", float64(len(fromDue))/lastDone.Sub(from).Seconds(), "1/s")
	out.e2e.set("latency_p50_ms", quantile(fromDue, 0.5)/1000, "ms")
	out.e2e.set("peak_rss_mb", rss, "MB")
	out.info.set("vet_p50_us", quantile(fromDue, 0.5), "us")
	out.info.set("vet_p99_us", quantile(fromDue, 0.99), "us")
	out.info.set("vet_p999_us", quantile(fromDue, 0.999), "us")
	out.info.set("vet.samples", float64(len(fromDue)), "count")
	out.info.set("vet.service_p50_us", quantile(fromSend, 0.5), "us")
	out.info.set("vet.lateness_p50_us", quantile(late, 0.5), "us")
	out.info.set("vet.lateness_p99_us", quantile(late, 0.99), "us")
	return out, nil
}

// --- reload-churn -----------------------------------------------------------

const (
	churnTenants   = 8
	churnBodyLines = 50
	churnRate      = 2000 // background packets per second
)

// reloadChurn measures the path a signature travels after generation:
// publish -> journal -> long poll -> fetch -> compile x tenants -> live.
// One publisher posts a fresh 1,000-signature set to a real sigserver
// and then polls each of eight pool tenants of a real leakstream with a
// one-packet probe until all of them answer with the new version.
type reloadChurn struct {
	d    *dirs
	seed int64

	sets   []churnSet
	probes [][]byte // per tenant: head+body of the probe request
	bg     []*body

	ss, ls         *child
	ssAddr, lsAddr string
	lines          atomic.Int64
}

func tenantName(i int) string { return "tenant-" + strconv.Itoa(i) }

func (w *reloadChurn) setup() error {
	if err := w.d.buildDaemons(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	w.sets = churnSets(rng, 96)
	tr := genTrace(w.seed)
	w.bg = ndjsonBodies(tr.packets[:churnBodyLines*64], churnBodyLines)
	probe, err := json.Marshal(probePacket())
	if err != nil {
		return err
	}
	probe = append(probe, '\n')
	w.probes = nil
	for t := 0; t < churnTenants; t++ {
		w.probes = append(w.probes, append(postHeader("/match", tenantName(t), len(probe)), probe...))
	}
	w.lines.Store(0)

	initial := filepath.Join(w.d.tmp, "initial.json")
	if err := writeSet(initial, synthSet(rng, 1000, "mixed", false)); err != nil {
		return err
	}
	journal := filepath.Join(w.d.tmp, "publish.journal")
	os.Remove(journal)
	pinProcess(&cpus.generator)
	if w.ssAddr, err = freeAddr(); err != nil {
		return err
	}
	w.ss, err = startChild(w.d, "sigserver", "sigserver",
		[]string{"-addr", w.ssAddr, "-sigs", initial, "-journal", journal, "-journal-fsync", "always"}, nil)
	if err != nil {
		return err
	}
	if err := waitReady(w.ssAddr); err != nil {
		return fmt.Errorf("%v\n%s", err, w.ss.stderrTail())
	}
	if w.lsAddr, err = freeAddr(); err != nil {
		return err
	}
	w.ls, err = startChild(w.d, "leakstream-pool", "leakstream",
		[]string{"-pool", "-shards", "1", "-server", "http://" + w.ssAddr, "-listen", w.lsAddr},
		func([]byte) { w.lines.Add(1) })
	if err != nil {
		return err
	}
	if err := waitReady(w.lsAddr); err != nil {
		return fmt.Errorf("%v\n%s", err, w.ls.stderrTail())
	}
	// Bring the eight tenants to life; the background traffic keeps them so.
	c, err := dial(w.lsAddr)
	if err != nil {
		return err
	}
	defer c.close()
	for t := 0; t < churnTenants; t++ {
		if status, resp, err := c.post(w.probes[t], nil); err != nil || status != 200 {
			return fmt.Errorf("creating %s: status %d, %v, %s", tenantName(t), status, err, resp)
		}
	}
	return nil
}

func (w *reloadChurn) teardown() {
	pinProcess(&cpus.all)
	for _, c := range []**child{&w.ls, &w.ss} {
		if *c != nil {
			(*c).stop()
			*c = nil
		}
	}
}

// poolReloads reads the pool-wide applied-reload count from /stats.
func poolReloads(addr string) (float64, error) {
	b, err := httpGet(addr, "/stats")
	if err != nil {
		return 0, err
	}
	var snap struct{ Aggregate struct{ Reloads int64 } }
	if err := json.Unmarshal(b, &snap); err != nil {
		return 0, err
	}
	return float64(snap.Aggregate.Reloads), nil
}

func (w *reloadChurn) run(warm, measure time.Duration) (*outcome, error) {
	start := time.Now()
	from, to := start.Add(warm), start.Add(warm+measure)
	out := &outcome{e2e: metrics{}, info: metrics{}}

	// Background traffic: one body of 50 packets every 25 ms, tenants in
	// rotation. Its verdict lines are drained and counted, not checked:
	// which set decided each one depends on publish timing.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bgErr error
	var bgSent int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := dial(w.lsAddr)
		if err != nil {
			bgErr = err
			return
		}
		defer c.close()
		every := time.Second * churnBodyLines / churnRate
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(time.Until(start.Add(time.Duration(k) * every)))
			b := w.bg[k%len(w.bg)].buf
			status, resp, err := c.post(postHeader("/ingest", tenantName(k%churnTenants), len(b)), b)
			if err != nil || status != 200 || scanInt(resp, `"rejected":`) != 0 {
				bgErr = fmt.Errorf("background /ingest: status %d, %v, %s", status, err, resp)
				return
			}
			bgSent += churnBodyLines
		}
	}()

	pub, err := dial(w.ssAddr)
	if err != nil {
		return nil, err
	}
	defer pub.close()
	probe, err := dial(w.lsAddr)
	if err != nil {
		return nil, err
	}
	defer probe.close()

	reloads0, err := poolReloads(w.lsAddr)
	if err != nil {
		return nil, err
	}
	var lat []float64
	var firstStart, lastDone time.Time
	lastVersion := make([]int64, churnTenants)
	publishes := 0
	for k := 0; time.Now().Before(to); k++ {
		set := &w.sets[k%len(w.sets)]
		head := postHeader("/publish", "", len(set.body))
		t0 := time.Now()
		status, resp, err := pub.post(head, set.body)
		if err != nil {
			return nil, fmt.Errorf("POST /publish: %v\n%s", err, w.ss.stderrTail())
		}
		out.attempted++
		version := scanInt(resp, "")
		if status != 200 || version < 0 {
			out.fail("POST /publish: status %d, %s", status, bytes.TrimSpace(resp))
			continue
		}
		publishes++
		live := 0
		var isLive [churnTenants]bool
		deadline := t0.Add(30 * time.Second)
		for live < churnTenants {
			for t := 0; t < churnTenants; t++ {
				if isLive[t] {
					continue
				}
				status, resp, err := probe.post(w.probes[t], nil)
				if err != nil {
					return nil, fmt.Errorf("probe /match: %v\n%s", err, w.ls.stderrTail())
				}
				v := scanInt(resp, `"version":`)
				switch {
				case status != 200 || v < 0:
					out.fail("probe %s: status %d, %s", tenantName(t), status, bytes.TrimSpace(resp))
					isLive[t] = true
					live++
					continue
				case v < lastVersion[t]:
					out.fail("%s went back from version %d to %d", tenantName(t), lastVersion[t], v)
				case v == version:
					isLive[t] = true
					live++
				}
				lastVersion[t] = max(lastVersion[t], v)
			}
			if live < churnTenants {
				if time.Now().After(deadline) {
					out.fail("version %d not live on %d tenants after 30s", version, churnTenants-live)
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		if done := time.Now(); !t0.Before(from) && done.Before(to) {
			lat = append(lat, ms(done.Sub(t0)))
			if firstStart.IsZero() {
				firstStart = t0
			}
			lastDone = done
		}
		// The verdict is checked on a second probe, off the clock: the
		// daemon's /match reads the matched IDs and the version in two
		// steps, so the one answer that first shows a new version may carry
		// the previous set's verdict.
		for t := 0; t < churnTenants; t++ {
			status, resp, err := probe.post(w.probes[t], nil)
			if err != nil {
				return nil, fmt.Errorf("probe /match: %v\n%s", err, w.ls.stderrTail())
			}
			if v := scanInt(resp, `"version":`); status != 200 || v != version || (scanLeak(resp) == 1) != set.probeLeak {
				out.fail("%s after publish %d: status %d, %s; reference says leak=%v", tenantName(t), version, status, bytes.TrimSpace(resp), set.probeLeak)
			}
		}
	}
	reloads1, err := poolReloads(w.lsAddr)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if bgErr != nil {
		return nil, fmt.Errorf("%v\n%s", bgErr, w.ls.stderrTail())
	}
	// Every background packet accepted must have produced a verdict line.
	for deadline := time.Now().Add(5 * time.Second); w.lines.Load() < bgSent && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	out.attempted += bgSent
	if got := w.lines.Load(); got != bgSent {
		out.fail("background traffic: %d packets accepted, %d verdict lines", bgSent, got)
	}

	lat = sorted(lat)
	rss := hwmMB(w.ls.cmd.Process.Pid) + hwmMB(w.ss.cmd.Process.Pid)
	p50 := quantile(lat, 0.5)
	out.e2e.set("throughput", float64(len(lat))/lastDone.Sub(firstStart).Seconds(), "1/s")
	out.e2e.set("latency_p50_ms", p50, "ms")
	out.e2e.set("peak_rss_mb", rss, "MB")
	out.info.set("publish_to_live_p50_ms", p50, "ms")
	tv, tp := tail(lat)
	out.info.set("publish_to_live_tail_ms", tv, "ms")
	out.info.set("publish_to_live_tail_pct", tp, "%")
	out.info.set("publish_to_live_samples", float64(len(lat)), "count")
	if publishes > 0 {
		out.info.set("engine.compiles_per_publish", (reloads1-reloads0)/float64(publishes), "count")
	}
	return out, nil
}
