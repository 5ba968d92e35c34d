package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"leaksig/internal/android"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/sensitive"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

// lockedBuffer is a log destination a test may read while daemon
// goroutines still write to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// captureLog redirects the daemon log into a buffer for one test.
func captureLog(t *testing.T) *lockedBuffer {
	t.Helper()
	buf := &lockedBuffer{}
	log.SetOutput(buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return buf
}

// newTestStream is a single-engine leakstream with an empty signature
// set and no intake limit, as its HTTP handler sees it, the limiter
// registered for /metrics as Run registers it.
func newTestStream(t *testing.T) *stream {
	t.Helper()
	ops, err := newOps("leakstream", Ops{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	limiter := obs.NewRateLimiter(obs.RateLimiterConfig{})
	ops.reg.Register(limiter)
	eng := engine.New(&signature.Set{}, engine.Config{Shards: 1})
	t.Cleanup(eng.Close)
	return &stream{
		ops:     ops,
		be:      &engineBackend{eng: eng},
		limiter: limiter,
		keyFn:   tenantKeyFn("app"),
	}
}

// hostileBody is an NDJSON body whose lines each carry one of the
// device's identifiers where an error message is tempted to quote it:
// as the method, in the query of a path with no leading slash, in a line
// cut off mid-value, as the destination address of an otherwise
// well-formed line (ipaddr's parse error quotes its input), and under a
// key the schema does not know (a line only encoding/json decodes).
// Lines 1, 3, 7 and 9 are good packets; 2, 4, 5 and 8 must be rejected;
// 6 is blank.
func hostileBody(t *testing.T) (body string, oracle *sensitive.Oracle) {
	t.Helper()
	dev := android.NewDevice(rand.New(rand.NewSource(7)), android.Carriers()[0])
	line := func(p *httpmodel.Packet) string {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	good := func(id int64) string {
		return line(httpmodel.Get("ads.example", "/t?x=1").ID(id).App("com.a").Build())
	}
	badMethod := httpmodel.Get("ads.example", "/t").ID(2).Build()
	badMethod.Method = dev.IMSI
	badPath := httpmodel.Get("ads.example", "/t").ID(4).Build()
	badPath.Path = "track?imei=" + dev.IMEI
	whole := line(httpmodel.Get("ads.example", "/t?aid="+dev.AndroidID).ID(5).Build())
	truncated := whole[:strings.Index(whole, dev.AndroidID)+len(dev.AndroidID)]
	imeiAddr := strings.Replace(good(8), `"dst_ip":"0.0.0.0"`, `"dst_ip":"`+dev.IMEI+`"`, 1)
	unknownKey := strings.TrimSuffix(good(9), "}") + `,"android_id":"` + dev.AndroidID + `"}`
	if imeiAddr == good(8) || !strings.Contains(unknownKey, dev.AndroidID) {
		t.Fatal("hostileBody: the packet JSON changed shape; the hostile lines carry no identifier")
	}
	return strings.Join([]string{
		good(1), line(badMethod), good(3), line(badPath), truncated, "", good(7), imeiAddr, unknownKey,
	}, "\n") + "\n", sensitive.NewOracle(dev)
}

func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// lineNumbers extracts the N of every "line N" in s, in order.
func lineNumbers(s string) []int {
	var out []int
	for _, m := range regexp.MustCompile(`line (\d+)`).FindAllStringSubmatch(s, -1) {
		n, _ := strconv.Atoi(m[1])
		out = append(out, n)
	}
	return out
}

// TestIngestAndMatchRejectTheSameLines posts one body of good, invalid,
// malformed and blank lines to both intake endpoints: they go through
// one intake, so they must agree on which lines are packets.
func TestIngestAndMatchRejectTheSameLines(t *testing.T) {
	logged := captureLog(t)
	h := newTestStream(t).handler()
	body, _ := hostileBody(t)
	wantRejected := []int{2, 4, 5, 8}

	ingest := post(h, "/ingest", body)
	if got, want := ingest.Body.String(), `{"accepted":4,"rejected":4}`+"\n"; got != want {
		t.Fatalf("/ingest answered %q, want %q", got, want)
	}
	if got := lineNumbers(logged.String()); !reflect.DeepEqual(got, wantRejected) {
		t.Fatalf("/ingest logged rejections of lines %v, want %v\n%s", got, wantRejected, logged)
	}

	var verdictIDs []int64
	var errorLines []int
	for _, l := range strings.Split(strings.TrimSpace(post(h, "/match", body).Body.String()), "\n") {
		var answer struct {
			ID    int64  `json:"id"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(l), &answer); err != nil {
			t.Fatalf("/match line %q: %v", l, err)
		}
		if answer.Error != "" {
			errorLines = append(errorLines, lineNumbers(answer.Error)...)
		} else {
			verdictIDs = append(verdictIDs, answer.ID)
		}
	}
	if !reflect.DeepEqual(errorLines, wantRejected) {
		t.Fatalf("/match answered in-band errors for lines %v, want %v", errorLines, wantRejected)
	}
	if want := []int64{1, 3, 7, 9}; !reflect.DeepEqual(verdictIDs, want) {
		t.Fatalf("/match answered verdicts for ids %v, want %v", verdictIDs, want)
	}
}

// TestIntakeNeverRepeatsPacketValues is the telemetry-hygiene guard: a
// leak detector must not write the identifiers it hunts into its own
// log or its error answers, and a rejected line is exactly where an
// error message is tempted to quote them — on the schema decoder's fast
// path and on its encoding/json fallback alike.
func TestIntakeNeverRepeatsPacketValues(t *testing.T) {
	logged := captureLog(t)
	h := newTestStream(t).handler()
	body, oracle := hostileBody(t)
	if len(oracle.ScanBytes([]byte(body))) == 0 {
		t.Fatal("the hostile body carries no sensitive value; the test would pass vacuously")
	}
	said := fmt.Sprint(post(h, "/ingest", body).Body, post(h, "/match", body).Body, logged)
	if kinds := oracle.ScanBytes([]byte(said)); len(kinds) > 0 {
		t.Fatalf("the intake repeated sensitive values %v in its log or answers:\n%s", kinds, said)
	}
	if !strings.Contains(said, "unsupported method") || !strings.Contains(said, "bad path") || !strings.Contains(said, "malformed JSON") {
		t.Fatalf("rejections should still say which check failed:\n%s", said)
	}
}

// TestIngestBodyAllocatesNoLineBuffer pins what one /ingest request costs
// beyond its packets: the scanner buffer comes from a pool, so a 500-line
// body allocates its decoded packets and little else. A megabyte line
// buffer allocated and zeroed per request would alone exceed the budget.
func TestIngestBodyAllocatesNoLineBuffer(t *testing.T) {
	const budget = 256 << 10
	ps := trafficgen.Generate(trafficgen.Config{Seed: 3, NumApps: 40, TotalPackets: 600}).Capture.Packets[:500]
	var body bytes.Buffer
	for _, p := range ps {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(append(b, '\n'))
	}
	h := newTestStream(t).handler()
	ingest := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body.Bytes())))
		if !strings.Contains(rec.Body.String(), `"accepted":500,`) {
			t.Fatalf("/ingest answered %q, want 500 accepted", rec.Body.String())
		}
	}
	ingest() // warm the buffer pool and the engine
	const requests = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		ingest()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%d bytes allocated per 500-line /ingest request (%d body bytes)", perRequest, body.Len())
	if perRequest >= budget {
		t.Fatalf("a 500-line /ingest request allocates %d bytes, budget %d", perRequest, budget)
	}
}

// TestIntakeChurnIsBounded posts /ingest bodies carrying k and then 8k
// distinct values of one client-supplied field — the tenant key (app)
// or the trace ID — at default flags. Neither may grow the daemon: the
// /metrics series count stays flat and the live heap grows by less than
// churnHeapBound between the two marks.
func TestIntakeChurnIsBounded(t *testing.T) {
	const (
		k              = 4096
		linesPerBody   = 512
		churnHeapBound = 512 << 10
	)
	for _, axis := range []struct {
		name   string
		packet func(i int) *httpmodel.Packet
	}{
		{"tenant", func(i int) *httpmodel.Packet {
			return httpmodel.Get("ads.example", "/t").ID(int64(i)).App(fmt.Sprintf("com.churn%d", i)).Build()
		}},
		{"trace", func(i int) *httpmodel.Packet {
			p := httpmodel.Get("ads.example", "/t").ID(int64(i)).App("com.churn").Build()
			p.Trace = fmt.Sprintf("%016x", i+1)
			return p
		}},
	} {
		t.Run(axis.name, func(t *testing.T) {
			s := newTestStream(t)
			h := s.handler()
			next := 0
			ingestUpTo := func(n int) {
				for next < n {
					var body bytes.Buffer
					for end := min(next+linesPerBody, n); next < end; next++ {
						b, err := json.Marshal(axis.packet(next))
						if err != nil {
							t.Fatal(err)
						}
						body.Write(append(b, '\n'))
					}
					if rec := post(h, "/ingest", body.String()); !strings.Contains(rec.Body.String(), `"rejected":0}`) {
						t.Fatalf("/ingest answered %q", rec.Body.String())
					}
				}
			}
			measure := func() (heap uint64, series int) {
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					if m := aggregate(s.be); m.Processed == uint64(next) {
						break
					} else if time.Now().After(deadline) {
						t.Fatalf("engine processed %d of %d packets", m.Processed, next)
					}
				}
				runtime.GC() // twice: the first only moves sync.Pool contents to the victim cache
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				for _, line := range strings.Split(rec.Body.String(), "\n") {
					if line != "" && !strings.HasPrefix(line, "#") {
						series++
					}
				}
				return ms.HeapInuse, series
			}
			ingestUpTo(k)
			heapK, seriesK := measure()
			ingestUpTo(8 * k)
			heap8K, series8K := measure()
			t.Logf("k=%d: heap %d B, %d series; 8k: heap %d B (%+d), %d series",
				k, heapK, seriesK, heap8K, int64(heap8K)-int64(heapK), series8K)
			if series8K != seriesK {
				t.Errorf("/metrics went from %d series at %d distinct values to %d at %d", seriesK, k, series8K, 8*k)
			}
			if heap8K > heapK+churnHeapBound {
				t.Errorf("live heap grew %d B between %d and %d distinct values, bound %d", heap8K-heapK, k, 8*k, churnHeapBound)
			}
		})
	}
}
