package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/signature"
)

// TestVerdictSinkSurvivesArenaReuse feeds the daemon's verdict sink two
// drains the way a shard worker does — the second one overwriting the
// verdict slice and the matched-ID arena of the first — and checks that
// what left the process is intact: the NDJSON lines (encoded during the
// call) and the shipped leak events (kept by the shipper past the call,
// so their Matched must have been copied).
func TestVerdictSinkSurvivesArenaReuse(t *testing.T) {
	var out bytes.Buffer
	vw := newVerdictWriter(&out)
	var mu sync.Mutex
	var shipped []obs.Event
	shipper := obs.NewShipper[obs.Event](obs.ShipperConfig{
		Sink: func(_ context.Context, batch []byte) error {
			mu.Lock()
			defer mu.Unlock()
			sc := bufio.NewScanner(bytes.NewReader(batch))
			for sc.Scan() {
				var ev obs.Event
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					return err
				}
				shipped = append(shipped, ev)
			}
			return nil
		},
	})
	sink := vw.sink("tenant-a", &opsPlane{node: "leakstream", shipper: shipper}).Bind(0, 1)

	pkt := func(id int64) *httpmodel.Packet {
		return &httpmodel.Packet{ID: id, App: "com.a", Host: "ads.example", Trace: "t-1"}
	}
	arena := []int{3, 9, 4}
	vs := []engine.Verdict{
		{Packet: pkt(1), Matched: arena[0:2:2], Version: 5},
		{Packet: pkt(2), Version: 5},
		{Packet: pkt(3), Matched: arena[2:3:3], Version: 5},
	}
	sink.Batch(vs)
	// The next drain: same arena, same verdict slice, new contents.
	arena[0], arena[1], arena[2] = 7, -1, -1
	vs[0] = engine.Verdict{Packet: pkt(4), Matched: arena[0:1:1], Version: 6}
	vs[1], vs[2] = engine.Verdict{}, engine.Verdict{}
	sink.Batch(vs[:1])
	vw.flush()
	shipper.Close() // final flush delivers everything buffered

	wantLines := []verdictLine{
		{ID: 1, App: "com.a", Tenant: "tenant-a", Host: "ads.example", Leak: true, Matched: []int{3, 9}, Version: 5, Trace: "t-1"},
		{ID: 2, App: "com.a", Tenant: "tenant-a", Host: "ads.example", Version: 5, Trace: "t-1"},
		{ID: 3, App: "com.a", Tenant: "tenant-a", Host: "ads.example", Leak: true, Matched: []int{4}, Version: 5, Trace: "t-1"},
		{ID: 4, App: "com.a", Tenant: "tenant-a", Host: "ads.example", Leak: true, Matched: []int{7}, Version: 6, Trace: "t-1"},
	}
	var gotLines []verdictLine
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var l verdictLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("verdict line %q: %v", sc.Bytes(), err)
		}
		gotLines = append(gotLines, l)
	}
	if !reflect.DeepEqual(gotLines, wantLines) {
		t.Fatalf("verdict lines\n got %+v\nwant %+v", gotLines, wantLines)
	}

	mu.Lock()
	defer mu.Unlock()
	var gotMatched [][]int
	for _, ev := range shipped {
		if ev.Type != "verdict" || ev.Tenant != "tenant-a" || ev.Node != "leakstream" || ev.Trace != "t-1" || ev.Time.IsZero() {
			t.Fatalf("unexpected shipped event %+v", ev)
		}
		gotMatched = append(gotMatched, ev.Matched)
	}
	if want := [][]int{{3, 9}, {4}, {7}}; !reflect.DeepEqual(gotMatched, want) {
		t.Fatalf("shipped leak events carry matched %v, want %v (clean verdicts are not shipped)", gotMatched, want)
	}
}

// TestMatchVerdictNeverMixesGenerations hammers each backend's match —
// the call behind POST /match — while the signature set flips between
// one that flags the probe (odd versions) and one that does not (even
// versions). Every answer must be a pair some single generation could
// have produced: leak exactly when the reported version is odd.
func TestMatchVerdictNeverMixesGenerations(t *testing.T) {
	setFor := func(version int64) *signature.Set {
		token := "no-such-token"
		if version%2 == 1 {
			token = "udid=f3a9c1d2"
		}
		return &signature.Set{Version: version, Signatures: []*signature.Signature{{ID: 1, Tokens: []string{token}}}}
	}
	probe := &httpmodel.Packet{ID: 1, App: "com.a", Host: "ads.example", Method: "GET", Path: "/t?udid=f3a9c1d2", Proto: "HTTP/1.1"}
	backends := map[string]backend{
		"engine": &engineBackend{eng: engine.New(setFor(0), engine.Config{Shards: 1})},
		"pool":   newPoolBackend(setFor(0), engine.PoolConfig{Engine: engine.Config{Shards: 1}}, "app"),
	}
	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			defer be.close()
			be.match("", probe) // pool: bring the probe's tenant to life so reloads reach it
			var done atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done.Load() {
						if v := be.match("", probe); v.Leak() != (v.Version%2 == 1) {
							t.Errorf("leak=%v under version %d: matched ids and version come from different generations", v.Leak(), v.Version)
							return
						}
					}
				}()
			}
			for version := int64(1); version <= 400 && !t.Failed(); version++ {
				be.install("", setFor(version))
				runtime.Gosched()
			}
			done.Store(true)
			wg.Wait()
		})
	}
}

// TestEngineInstallIsLiveOnReturn pins what the single-engine daemon's
// install promises its callers — the reload_apply stage timing, /readyz,
// the "installed" log line and the shipped reload event: when install
// returns, the set it was handed is the one matching traffic, even a
// 10,000-signature set whose compile takes a while.
func TestEngineInstallIsLiveOnReturn(t *testing.T) {
	sigs := make([]*signature.Signature, 10000)
	for i := range sigs {
		sigs[i] = &signature.Signature{ID: i, Tokens: []string{fmt.Sprintf("install-%05d=", i), "v="}}
	}
	set := &signature.Set{Version: 7, Signatures: sigs}
	be := &engineBackend{eng: engine.New(nil, engine.Config{Shards: 1})}
	defer be.close()
	be.install("", set)
	if got := be.eng.Version(); got != set.Version {
		t.Fatalf("install returned with version %d live, want %d", got, set.Version)
	}
}

// TestAppendVerdictMatchesEncoder is the verdict encoder's differential:
// appendVerdict and appendError write exactly the bytes json.Encoder
// wrote for the same line — HTML escapes, U+2028/U+2029, invalid UTF-8,
// control bytes, omitted empty fields, negative ids.
func TestAppendVerdictMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "com.", "<", ">", "&", "\"", "\\", "\x00", "\x1f", "\n", "\r", "\t", "\b", "\f",
		"\u2028", "\u2029", "\u007f", "é", "日本", "😀", "\xff", "\xe2\x82", " "}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(5); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	int64s := func() int64 { return []int64{0, 1, -1, rng.Int63(), -rng.Int63(), -1 << 63}[rng.Intn(6)] }
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := 0; i < 5000; i++ {
		v := verdictLine{
			ID: int64s(), App: str(), Tenant: str(), Host: str(), Leak: rng.Intn(2) == 0,
			Version: int64s(), LatencyUS: int64s(), Trace: str(),
		}
		switch rng.Intn(3) {
		case 0:
			v.Matched = []int{}
		case 1:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				v.Matched = append(v.Matched, int(int64s()))
			}
		}
		want.Reset()
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		if got := appendVerdict(nil, &v); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendVerdict(%#v)\n got %s\nwant %s", v, got, want.Bytes())
		}
		msg := str()
		want.Reset()
		if err := enc.Encode(map[string]string{"error": msg}); err != nil {
			t.Fatal(err)
		}
		if got := appendError(nil, msg); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendError(%q)\n got %s\nwant %s", msg, got, want.Bytes())
		}
	}
}

// TestVerdictDrainAllocatesNothing pins the verdict sink's steady state:
// once its line buffer has held a drain, encoding and writing the next
// drain allocates nothing, so a later change cannot quietly go back to
// reflection.
func TestVerdictDrainAllocatesNothing(t *testing.T) {
	vw := newVerdictWriter(io.Discard)
	sink := vw.sink("tenant-a", &opsPlane{}).Bind(0, 1)
	vs := make([]engine.Verdict, 64)
	for i := range vs {
		vs[i] = engine.Verdict{
			Packet:  &httpmodel.Packet{ID: int64(i), App: "com.a", Host: "ads.example", Trace: "t-1"},
			Version: 3,
		}
		if i%4 == 0 {
			vs[i].Matched = []int{i, i + 1}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { sink.Batch(vs) }); allocs != 0 {
		t.Fatalf("one drain of %d verdicts allocated %.1f times; want 0", len(vs), allocs)
	}
}
