package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// freeAddr reserves a loopback port and releases it for the daemon
// under test to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// writeSet writes set as a signature file for -sigs and returns its path.
func writeSet(t *testing.T, set *signature.Set) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sigs.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := set.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// awaitBody polls url until it answers 200 with want.
func awaitBody(t *testing.T, url, want string) {
	t.Helper()
	var last string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(url)
		if err != nil {
			last = err.Error()
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if last = fmt.Sprintf("%d %s", resp.StatusCode, b); resp.StatusCode == 200 && string(b) == want {
			return
		}
	}
	t.Fatalf("%s never answered %q; last: %s", url, want, last)
}

// TestLeakstreamShutdownMidIngest cancels a listening, learning,
// event-shipping leakstream while two clients are still posting, and
// checks the shutdown order's promises: Run returns nil; every packet an
// /ingest answer acknowledged has its verdict line; every miss among
// them reached the learner's /observe exactly once, whether its batch
// left before the cancel or in the learn shipper's final pass, and no
// leak did; and the event shipper's last batch — the leak verdicts of
// the final drain — reached the event consumer.
func TestLeakstreamShutdownMidIngest(t *testing.T) {
	captureLog(t)

	srv := sigserver.New()
	srv.Publish("", &signature.Set{Signatures: []*signature.Signature{{ID: 1, Tokens: []string{"udid=f3a9c1d2"}}}})
	server := httptest.NewServer(srv.HandlerWithPublish(""))
	defer server.Close()

	var mu sync.Mutex
	var events []obs.Event
	consumer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		sc := bufio.NewScanner(r.Body)
		for sc.Scan() {
			var ev obs.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Errorf("event line %q: %v", sc.Bytes(), err)
			}
			events = append(events, ev)
		}
	}))
	defer consumer.Close()

	observed := map[int64]int{} // packet id -> deliveries to /observe
	learner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/observe" {
			t.Errorf("learner got %s %s, want POST /observe", r.Method, r.URL.Path)
		}
		_, _, err := httpmodel.ReadNDJSON(r.Body, func(p *httpmodel.Packet) error {
			mu.Lock()
			observed[p.ID]++
			mu.Unlock()
			return nil
		}, func(line int, err error) {
			t.Errorf("learner rejected line %d: %v", line, err)
		})
		if err != nil {
			t.Errorf("reading a shipped batch: %v", err)
		}
	}))
	defer learner.Close()

	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- Leakstream{
			Server: server.URL, Listen: addr, Shards: 2, Poll: time.Second,
			Affinity: "host", TenantBy: "app", RatePolicy: "drop", MaxTenants: 1024,
			Ops: Ops{Learn: learner.URL, EventsURL: consumer.URL},
		}.Run(ctx, strings.NewReader(""), &stdout)
	}()
	base := "http://" + addr
	awaitBody(t, base+"/readyz", "ready")

	// Two clients post 100-packet bodies back to back until the listener
	// goes away; one packet in ten leaks. acked collects the ids of every
	// body whose POST was answered: those, the daemon owes a verdict.
	const perBody = 100
	var acked []int64
	var ackedMu sync.Mutex
	firstAcks := make(chan struct{}, 64)
	var posters sync.WaitGroup
	for c := 0; c < 2; c++ {
		posters.Add(1)
		go func(c int) {
			defer posters.Done()
			for b := 0; ; b++ {
				first := int64(c)*1_000_000 + int64(b)*perBody
				var body bytes.Buffer
				enc := json.NewEncoder(&body)
				for i := int64(0); i < perBody; i++ {
					path := fmt.Sprintf("/t?n=%d", first+i)
					if i%10 == 0 {
						path += "&udid=f3a9c1d2"
					}
					enc.Encode(httpmodel.Get("ads.example", path).ID(first + i).App("com.a").Build())
				}
				resp, err := http.Post(base+"/ingest", "application/x-ndjson", &body)
				if err != nil {
					return
				}
				answer, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if want := fmt.Sprintf(`{"accepted":%d,"rejected":0}`+"\n", perBody); string(answer) != want {
					t.Errorf("/ingest answered %q, want %q", answer, want)
					return
				}
				ackedMu.Lock()
				for i := int64(0); i < perBody; i++ {
					acked = append(acked, first+i)
				}
				ackedMu.Unlock()
				select {
				case firstAcks <- struct{}{}:
				default:
				}
			}
		}(c)
	}
	for i := 0; i < 6; i++ {
		<-firstAcks
	}
	cancel() // mid-ingest: both clients are still posting
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v, want nil", err)
	}
	posters.Wait()

	verdicts := map[int64]bool{}
	leaks := 0
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		var l verdictLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("verdict line %q: %v", sc.Bytes(), err)
		}
		if verdicts[l.ID] {
			t.Fatalf("packet %d got two verdict lines", l.ID)
		}
		verdicts[l.ID] = true
		if l.Leak {
			leaks++
		}
	}
	if len(acked) < 6*perBody {
		t.Fatalf("only %d packets acknowledged before shutdown", len(acked))
	}
	for _, id := range acked {
		if !verdicts[id] {
			t.Fatalf("packet %d was accepted by /ingest but has no verdict line (%d accepted, %d verdicts)", id, len(acked), len(verdicts))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range acked {
		leak := id%perBody%10 == 0
		if n := observed[id]; leak && n != 0 || !leak && n != 1 {
			t.Fatalf("packet %d (leak %v) reached the learner %d times (%d accepted, %d observed)", id, leak, n, len(acked), len(observed))
		}
	}
	for id, n := range observed {
		if n != 1 || id%perBody%10 == 0 {
			t.Fatalf("packet %d reached the learner %d times; only misses may, and once", id, n)
		}
	}
	shipped := 0
	for _, ev := range events {
		if ev.Type == "verdict" {
			shipped++
		}
	}
	if leaks == 0 || shipped != leaks {
		t.Fatalf("%d leak verdicts written, %d verdict events reached the consumer: the final batch was lost", leaks, shipped)
	}
}

// stallWriter is a stdout that blocks every write until release is
// closed, and then takes 2 ms per write: a verdict consumer that stalls
// the engine's shards in their sink, then drains them slowly.
type stallWriter struct {
	entered chan struct{} // closed by the first write
	release chan struct{}
	once    sync.Once
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *stallWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	time.Sleep(2 * time.Millisecond)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(b)
}

// TestLeakstreamDrainsRingsBeforeTheLearnShipperCloses cancels a
// learning leakstream whose shards are stalled on a blocked stdout, so
// its ring still holds every packet acknowledged after the stall; stdout
// unblocks only once the listener is gone. Every miss among the
// acknowledged packets must still reach the learner's /observe exactly
// once: the engine's drain has to run before the learn shipper's final
// pass, not after it.
func TestLeakstreamDrainsRingsBeforeTheLearnShipperCloses(t *testing.T) {
	captureLog(t)
	sigs := writeSet(t, &signature.Set{Signatures: []*signature.Signature{{ID: 1, Tokens: []string{"udid=f3a9c1d2"}}}})
	var mu sync.Mutex
	observed := map[int64]int{} // packet id -> deliveries to /observe
	learner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpmodel.ReadNDJSON(r.Body, func(p *httpmodel.Packet) error {
			mu.Lock()
			observed[p.ID]++
			mu.Unlock()
			return nil
		}, func(line int, err error) {
			t.Errorf("learner rejected line %d: %v", line, err)
		})
	}))
	defer learner.Close()

	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout := &stallWriter{entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- Leakstream{
			Sigs: sigs, Listen: addr, Shards: 1, Queue: 4096,
			Affinity: "host", TenantBy: "app", RatePolicy: "drop", MaxTenants: 1024,
			Ops: Ops{Learn: learner.URL},
		}.Run(ctx, strings.NewReader(""), stdout)
	}()
	base := "http://" + addr
	awaitBody(t, base+"/readyz", "ready")

	// One packet in ten leaks.
	const perBody = 100
	var acked []int64
	post := func(b int) {
		t.Helper()
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for i := range int64(perBody) {
			id := int64(b)*perBody + i
			path := fmt.Sprintf("/t?n=%d", id)
			if i%10 == 0 {
				path += "&udid=f3a9c1d2"
			}
			enc.Encode(httpmodel.Get("ads.example", path).ID(id).App("com.a").Build())
		}
		resp, err := http.Post(base+"/ingest", "application/x-ndjson", &body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		for i := range int64(perBody) {
			acked = append(acked, int64(b)*perBody+i)
		}
	}
	post(0)
	<-stdout.entered // the verdict flusher holds the writer: the shard stalls at its next drain
	for b := 1; b <= 8; b++ {
		post(b)
	}
	var stats struct{ QueueDepth int }
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.QueueDepth < perBody {
		t.Fatalf("only %d packets queued at cancel; the check needs the ring full", stats.QueueDepth)
	}

	cancel()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := http.Get(base + "/healthz"); err != nil {
			break // the listener is down: Run is past serve
		}
		if time.Now().After(deadline) {
			t.Fatal("the listener outlived the cancel")
		}
	}
	time.Sleep(50 * time.Millisecond) // ample time for any close that comes before the drain
	close(stdout.release)
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v, want nil", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, id := range acked {
		leak := id%10 == 0
		if n := observed[id]; leak && n != 0 || !leak && n != 1 {
			t.Fatalf("packet %d (leak %v) reached the learner %d times; a miss must once, a leak never (%d acknowledged, %d observed)",
				id, leak, n, len(acked), len(observed))
		}
	}
}

// TestPipeModeReturnsOnCancel holds a pipe-mode daemon's stdin open —
// a read that never returns — and cancels: Run must come back on its
// own, having drained what it had read into verdicts (leakstream) or a
// final epoch (siggend), instead of waiting for an EOF that is not
// coming.
func TestPipeModeReturnsOnCancel(t *testing.T) {
	packet, err := json.Marshal(httpmodel.Get("ads.example", "/t?x=1").ID(1).App("com.a").Build())
	if err != nil {
		t.Fatal(err)
	}
	daemons := map[string]func(context.Context, io.Reader, io.Writer) error{
		"leakstream": Leakstream{Shards: 1, Affinity: "host", TenantBy: "app", RatePolicy: "drop"}.Run,
		"siggend":    Siggend{TenantBy: "app", Interval: time.Hour}.Run,
	}
	for name, run := range daemons {
		t.Run(name, func(t *testing.T) {
			logged := captureLog(t)
			stdin, feed := io.Pipe()
			defer feed.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var stdout bytes.Buffer
			done := make(chan error, 1)
			go func() { done <- run(ctx, stdin, &stdout) }()
			if _, err := feed.Write(append(packet, '\n')); err != nil {
				t.Fatal(err)
			}
			// A pipe write returns when a read has taken it, and the intake
			// reads again only after handing on every line it holds: once
			// this second write returns, the packet has been accepted.
			if _, err := feed.Write([]byte("\n")); err != nil {
				t.Fatal(err)
			}
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Run returned %v, want nil", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run did not return after cancel with stdin still open")
			}
			switch name {
			case "leakstream":
				if got := stdout.String(); !strings.Contains(got, `"id":1,`) {
					t.Fatalf("the packet read before cancel has no verdict line; stdout: %q", got)
				}
			case "siggend":
				if !strings.Contains(logged.String(), "final epoch") {
					t.Fatalf("no final epoch ran on cancel; log:\n%s", logged)
				}
			}
		})
	}
}
