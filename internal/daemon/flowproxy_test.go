package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// TestFlowproxyShipsEveryMissToTheLearner runs the proxy with -learn
// pointed at a stand-in siggend intake and proxies requests that match
// the set and requests that do not, in two rounds: the first is waited
// out until the learner has it, the second is still buffered when the
// context is cancelled. Every unmatched request must reach POST /observe
// exactly once, as an NDJSON line the intake accepts, with a trace ID
// and the bearer token; no matched request may; and the forwarded
// counter must equal what was delivered.
func TestFlowproxyShipsEveryMissToTheLearner(t *testing.T) {
	captureLog(t)
	const token = "s3cret"

	sigs := writeSet(t, &signature.Set{Signatures: []*signature.Signature{{ID: 1, Tokens: []string{"udid=f3a9c1d2"}}}})

	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer upstream.Close()

	var mu sync.Mutex
	seen := map[string]int{} // request path -> deliveries
	learner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/observe" {
			t.Errorf("learner got %s %s, want POST /observe", r.Method, r.URL.Path)
		}
		if got := r.Header.Get("Authorization"); got != "Bearer "+token {
			t.Errorf("learner got Authorization %q, want the bearer token", got)
		}
		_, _, err := httpmodel.ReadNDJSON(r.Body, func(p *httpmodel.Packet) error {
			if p.Trace == "" {
				t.Errorf("forwarded miss %s carries no trace ID", p.Path)
			}
			mu.Lock()
			seen[p.Path]++
			mu.Unlock()
			return nil
		}, func(line int, err error) {
			t.Errorf("learner rejected line %d: %v", line, err)
		})
		if err != nil {
			t.Errorf("reading a forwarded batch: %v", err)
		}
	}))
	defer learner.Close()
	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, c := range seen {
			n += c
		}
		return n
	}

	addr, debug := freeAddr(t), freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Flowproxy{
			Addr: addr, Sigs: sigs, Policy: "block",
			Ops: Ops{Learn: learner.URL, LearnToken: token, DebugAddr: debug, TraceSample: 1},
		}.Run(ctx, nil, io.Discard)
	}()
	proxyURL, _ := url.Parse("http://" + addr)
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	get := func(path string) (int, error) {
		resp, err := client.Get(upstream.URL + path)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	// The first matched request doubles as the wait for the listener.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		code, err := get("/t?n=-1&udid=f3a9c1d2")
		if err == nil {
			if code != http.StatusUnavailableForLegalReasons {
				t.Fatalf("matched request answered %d, want 451", code)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy never answered: %v", err)
		}
	}
	proxyRound := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if code, err := get(fmt.Sprintf("/t?n=%d", i)); err != nil || code != http.StatusOK {
				t.Fatalf("unmatched request %d: %d %v, want 200", i, code, err)
			}
			if i%3 == 0 {
				if code, err := get(fmt.Sprintf("/t?n=%d&udid=f3a9c1d2", i)); err != nil || code != http.StatusUnavailableForLegalReasons {
					t.Fatalf("matched request %d: %d %v, want 451", i, code, err)
				}
			}
		}
	}

	// The counter moves once the learner has answered, so it is read
	// until it has the whole first round, and must then equal what the
	// learner received.
	scrapeForwarded := func() string {
		resp, err := http.Get("http://" + debug + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), `leaksig_shipper_shipped_total{stream="learn"} `); ok {
				return v
			}
		}
		return ""
	}
	const first, total = 30, 50
	proxyRound(0, first)
	for deadline := time.Now().Add(10 * time.Second); scrapeForwarded() != fmt.Sprint(first); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf(`leaksig_shipper_shipped_total{stream="learn"} = %q, want %d; the learner received %d`, scrapeForwarded(), first, delivered())
		}
	}
	if n := delivered(); n != first {
		t.Fatalf(`leaksig_shipper_shipped_total{stream="learn"} = %d, but the learner received %d`, first, n)
	}
	var stats struct {
		LearnSent    uint64 `json:"learn_sent"`
		LearnDropped uint64 `json:"learn_dropped"`
	}
	resp, err := http.Get("http://" + debug + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.LearnSent != first || stats.LearnDropped != 0 {
		t.Fatalf("/stats = %+v (%v), want learn_sent %d and nothing dropped", stats, err, first)
	}

	// The second round is cancelled while it most likely still sits in
	// the buffer (the shipper flushes every two seconds), so Close's
	// final pass is what delivers it.
	proxyRound(first, total)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want nil", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return after cancel")
	}

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < total; i++ {
		if n := seen[fmt.Sprintf("/t?n=%d", i)]; n != 1 {
			t.Errorf("unmatched request %d reached the learner %d times, want once", i, n)
		}
	}
	for path := range seen {
		if strings.Contains(path, "udid=") {
			t.Errorf("matched request %s was forwarded to the learner", path)
		}
	}
	if len(seen) != total {
		t.Errorf("learner saw %d distinct paths, want the %d unmatched ones", len(seen), total)
	}
}
