package engine_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"leaksig/internal/detect"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
)

// probe is one consumer of the engine's delivery under test: how it is
// wired into a Config, and what it must have seen once the engine closed.
type probe struct {
	sink       engine.Sink          // nil for the OnVerdict probe
	perVerdict func(engine.Verdict) // Config.OnVerdict; set only by that probe
	check      func(t *testing.T)
}

// TestDeliveryParity streams one packet sequence through every way a
// consumer can attach to the engine — OnVerdict, CallbackSink,
// BatchCallbackSink, CountSink, siggen's miss sink, and a TeeSink of all
// of them — and holds each to the same reference: detect.Engine's answer
// per packet, under the set's version, at the packet's submission order.
// The per-verdict consumers keep every verdict, uncopied, until after
// Close, so a Matched slice still aliasing the worker's arena (reused
// here every four packets) would show as a wrong ID.
func TestDeliveryParity(t *testing.T) {
	set := &signature.Set{Version: 7, Signatures: []*signature.Signature{
		{ID: 10, Tokens: []string{"udid=f3a9c1d2"}},
		{ID: 20, Tokens: []string{"imei=3539180512"}},
		{ID: 30, Tokens: []string{"udid=", "carrier=docomo"}},
	}}
	payloads := []string{
		"zone=1", "udid=f3a9c1d2", "imei=3539180512&zone=2",
		"udid=f3a9c1d2&carrier=docomo", "carrier=docomo", "udid=f3a9c1d2&imei=3539180512",
	}
	const n = 600
	packets := make([]*httpmodel.Packet, n)
	want := make([][]int, n)
	ref := detect.NewEngine(set)
	var leaks uint64
	for i := range packets {
		packets[i] = &httpmodel.Packet{
			ID: int64(i), Host: fmt.Sprintf("h%d.example.com", i%11),
			Method: "GET", Path: "/track?" + payloads[i%len(payloads)], Proto: "HTTP/1.1",
		}
		want[i] = ref.MatchPacket(packets[i])
		if len(want[i]) > 0 {
			leaks++
		}
	}

	// verdicts returns a recorder of single verdicts and its check. The
	// recorder stores a verdict as handed over, unless the consumer got it
	// from a borrowed batch: then it copies Matched, as the contract asks.
	verdicts := func(borrowed bool) (func(engine.Verdict), func(*testing.T)) {
		var mu sync.Mutex
		got := make(map[uint64]engine.Verdict, n)
		record := func(v engine.Verdict) {
			if borrowed {
				v.Matched = append([]int(nil), v.Matched...)
			}
			mu.Lock()
			got[v.Seq] = v
			mu.Unlock()
		}
		check := func(t *testing.T) {
			if len(got) != n {
				t.Fatalf("saw %d distinct verdicts, want %d", len(got), n)
			}
			for seq, v := range got {
				if v.Packet != packets[seq] {
					t.Fatalf("seq %d carries packet %d", seq, v.Packet.ID)
				}
				if len(v.Matched) != len(want[seq]) || (len(want[seq]) > 0 && !reflect.DeepEqual(v.Matched, want[seq])) {
					t.Fatalf("seq %d: matched %v, reference %v", seq, v.Matched, want[seq])
				}
				if v.Version != set.Version {
					t.Fatalf("seq %d: version %d, want %d", seq, v.Version, set.Version)
				}
			}
		}
		return record, check
	}
	hook := func() probe {
		record, check := verdicts(false)
		return probe{perVerdict: record, check: check}
	}
	callback := func() probe {
		record, check := verdicts(false)
		return probe{sink: engine.CallbackSink(record), check: check}
	}
	batch := func() probe {
		record, check := verdicts(true)
		return probe{check: check, sink: engine.BatchCallbackSink(func(vs []engine.Verdict) {
			for _, v := range vs {
				record(v)
			}
		})}
	}
	count := func() probe {
		sink := engine.NewCountSink()
		return probe{sink: sink, check: func(t *testing.T) {
			if p, l := sink.Totals(); p != n || l != leaks {
				t.Fatalf("totals (%d, %d), want (%d, %d)", p, l, n, leaks)
			}
		}}
	}
	miss := func() probe {
		svc := siggen.NewService(siggen.Config{IntakeDepth: n})
		return probe{sink: svc.MissSink(nil), check: func(t *testing.T) {
			defer svc.Close()
			st := svc.Stats()
			if st.Observed != n-leaks || st.SinkDropped != 0 {
				t.Fatalf("learner observed %d misses (%d dropped), want %d", st.Observed, st.SinkDropped, n-leaks)
			}
		}}
	}

	cases := []struct {
		name   string
		probes []func() probe
	}{
		{"OnVerdict", []func() probe{hook}},
		{"CallbackSink", []func() probe{callback}},
		{"BatchCallbackSink", []func() probe{batch}},
		{"CountSink", []func() probe{count}},
		{"missSink", []func() probe{miss}},
		{"TeeSink of all", []func() probe{hook, callback, batch, count, miss}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A four-packet queue caps every drain at four packets, so each
			// worker reuses its arena dozens of times over the stream.
			cfg := engine.Config{Shards: 2, QueueDepth: 4}
			var sinks []engine.Sink
			var checks []func(*testing.T)
			for _, mk := range c.probes {
				p := mk()
				if p.perVerdict != nil {
					cfg.OnVerdict = p.perVerdict
				}
				sinks = append(sinks, p.sink)
				checks = append(checks, p.check)
			}
			cfg.Sink = engine.TeeSink(sinks...)
			e := engine.New(set, cfg)
			for _, p := range packets {
				if err := e.Submit(p); err != nil {
					t.Fatal(err)
				}
			}
			e.Close()
			if m := e.Metrics(); m.Processed != n || m.Matched != leaks {
				t.Fatalf("metrics (%d, %d), want (%d, %d)", m.Processed, m.Matched, n, leaks)
			}
			for _, check := range checks {
				check(t)
			}
		})
	}
}
