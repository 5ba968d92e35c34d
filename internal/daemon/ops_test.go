package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"leaksig/internal/eval"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

// TestOpsSurfaceOfEveryDaemon runs each of the four daemons with the
// same Ops — an event consumer, its bearer token and a debug listener —
// and drives it until it has something to ship: sigserver its -sigs seed
// publish, siggend a publish into a sigserver, leakstream a leak
// verdict, flowproxy a blocked request. The debug listener must serve
// /metrics with the events stream's shipper families, and every upload
// the consumer receives must carry the token and, by the time Run has
// returned, the event.
func TestOpsSurfaceOfEveryDaemon(t *testing.T) {
	sigs := writeSet(t, &signature.Set{Signatures: []*signature.Signature{{ID: 1, Tokens: []string{"udid=f3a9c1d2"}}}})
	leak := httpmodel.Get("ads.example", "/t?udid=f3a9c1d2").ID(1).App("com.a").Build()
	cases := []struct {
		daemon string
		want   string // the event type the drive ships
		// setup returns the daemon's Run with ops filled in, and what
		// drives it once its debug listener is up.
		setup func(t *testing.T, ops Ops) (run func(context.Context, io.Reader, io.Writer) error, drive func())
	}{
		{"sigserver", "publish", func(t *testing.T, ops Ops) (func(context.Context, io.Reader, io.Writer) error, func()) {
			return Sigserver{Addr: freeAddr(t), Sigs: sigs, Ops: ops}.Run, func() {}
		}},
		{"siggend", "publish", func(t *testing.T, ops Ops) (func(context.Context, io.Reader, io.Writer) error, func()) {
			c := siggendDefaults()
			c.Listen, c.TenantBy, c.MinCluster, c.Interval, c.Ops = freeAddr(t), "none", 2, time.Hour, ops
			_, c.Server = newSigserver(t)
			misses := eval.NewEnv(trafficgen.Config{Seed: 3, NumApps: 40, TotalPackets: 2000}).SampleSuspicious(3, 240)
			return c.Run, func() {
				// Run's final epoch publishes what this body carried.
				awaitBody(t, "http://"+c.Listen+"/healthz", "ok")
				resp, err := http.Post("http://"+c.Listen+"/observe", "application/x-ndjson", bytes.NewReader(ndjson(t, misses)))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
		}},
		{"leakstream", "verdict", func(t *testing.T, ops Ops) (func(context.Context, io.Reader, io.Writer) error, func()) {
			c := Leakstream{
				Sigs: sigs, Listen: freeAddr(t), Shards: 1,
				Affinity: "host", TenantBy: "app", RatePolicy: "drop", MaxTenants: 1024, Ops: ops,
			}
			return c.Run, func() {
				awaitBody(t, "http://"+c.Listen+"/healthz", "ok")
				resp, err := http.Post("http://"+c.Listen+"/ingest", "application/x-ndjson", bytes.NewReader(ndjson(t, []*httpmodel.Packet{leak})))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
		}},
		{"flowproxy", "decision", func(t *testing.T, ops Ops) (func(context.Context, io.Reader, io.Writer) error, func()) {
			c := Flowproxy{Addr: freeAddr(t), Sigs: sigs, Policy: "block", Ops: ops}
			return c.Run, func() {
				proxy, _ := url.Parse("http://" + c.Addr)
				client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxy)}}
				resp, err := client.Get("http://ads.example/t?udid=f3a9c1d2")
				for deadline := time.Now().Add(10 * time.Second); err != nil && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
					resp, err = client.Get("http://ads.example/t?udid=f3a9c1d2") // the proxy may not listen yet
				}
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusUnavailableForLegalReasons {
					t.Fatalf("leaking request answered %d, want 451", resp.StatusCode)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.daemon, func(t *testing.T) {
			captureLog(t)
			var mu sync.Mutex
			var auths, types []string
			consumer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				defer mu.Unlock()
				auths = append(auths, r.Header.Get("Authorization"))
				sc := bufio.NewScanner(r.Body)
				for sc.Scan() {
					var ev obs.Event
					if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
						t.Errorf("event line %q: %v", sc.Bytes(), err)
					}
					types = append(types, ev.Type)
				}
			}))
			defer consumer.Close()

			debug := freeAddr(t)
			run, drive := tc.setup(t, Ops{EventsURL: consumer.URL, EventsToken: "t", DebugAddr: debug})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- run(ctx, strings.NewReader(""), io.Discard) }()
			const family = `leaksig_shipper_shipped_total{stream="events"}`
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if resp, err := http.Get("http://" + debug + "/metrics"); err == nil {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK && strings.Contains(string(body), family) {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("the debug listener on %s never served /metrics with %s", debug, family)
				}
			}
			drive()
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("Run returned %v, want nil", err)
			}

			mu.Lock()
			defer mu.Unlock()
			if len(auths) == 0 {
				t.Fatal("the event consumer received no upload")
			}
			for _, a := range auths {
				if a != "Bearer t" {
					t.Fatalf("an event upload carried Authorization %q, want %q", a, "Bearer t")
				}
			}
			if !slices.Contains(types, tc.want) {
				t.Fatalf("the consumer received events %v, want a %q event", types, tc.want)
			}
		})
	}
}
