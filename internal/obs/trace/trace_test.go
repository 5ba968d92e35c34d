package trace

import (
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	if sp := tr.Start(); sp != nil {
		t.Fatal("nil tracer started a span")
	}
	if id := tr.StartID(); id != "" {
		t.Fatalf("nil tracer StartID = %q", id)
	}
	if sp := tr.Adopt("deadbeefdeadbeef"); sp != nil {
		t.Fatal("nil tracer adopted a span")
	}
	tr.Observe(StageDistill, time.Millisecond)
	if snap := tr.Snapshot(); snap != nil {
		t.Fatal("nil tracer snapshot non-nil")
	}

	var sp *Span
	sp.Stamp(StageIngest)
	sp.Hold()
	sp.Finish()
	if sp.ID() != "" {
		t.Fatal("nil span has an ID")
	}
}

func TestHeadSampling(t *testing.T) {
	tr := NewTracer(4)
	var sampled int
	for i := 0; i < 400; i++ {
		if sp := tr.Start(); sp != nil {
			sampled++
			sp.Finish()
		}
	}
	if sampled != 100 {
		t.Fatalf("sample-every-4 over 400 starts: got %d spans, want 100", sampled)
	}
	st := tr.Stats()
	if st.Started != 100 || st.Finished != 100 {
		t.Fatalf("stats = %+v, want started=finished=100", st)
	}

	off := NewTracer(0)
	for i := 0; i < 100; i++ {
		if sp := off.Start(); sp != nil {
			t.Fatal("sample=0 tracer started a span")
		}
	}
	// Adoption ignores the local sampling rate: the head decision was
	// made upstream.
	if sp := off.Adopt("00000000000000aa"); sp == nil {
		t.Fatal("sample=0 tracer refused to adopt")
	} else {
		sp.Finish()
	}
}

func TestSpanStampsFeedStageHistograms(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.Start()
	if sp == nil {
		t.Fatal("sample=1 did not sample")
	}
	id := sp.ID()
	if len(id) != 16 {
		t.Fatalf("trace ID %q not 16 hex digits", id)
	}
	sp.Stamp(StageIngest)
	sp.Stamp(StageEnqueue)
	sp.Stamp(StageMatch)
	sp.Finish()

	snap := tr.Snapshot()
	byStage := map[string]StageSnapshot{}
	for _, s := range snap {
		byStage[s.Stage] = s
	}
	// Ingest has no predecessor stamp → no delta; enqueue and match each
	// record one.
	if got := byStage["ingest"].Count; got != 0 {
		t.Fatalf("ingest count = %d, want 0 (origin stage has no delta)", got)
	}
	if got := byStage["enqueue"].Count; got != 1 {
		t.Fatalf("enqueue count = %d, want 1", got)
	}
	if got := byStage["match"].Count; got != 1 {
		t.Fatalf("match count = %d, want 1", got)
	}
	// Skipped stages stay empty.
	if got := byStage["rate_limit"].Count; got != 0 {
		t.Fatalf("rate_limit count = %d, want 0", got)
	}
}

func TestHoldKeepsSpanAliveAcrossGoroutines(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.Start()
	sp.Stamp(StageIngest)
	sp.Hold()

	done := make(chan struct{})
	go func() {
		sp.Stamp(StageReservoir)
		sp.Finish()
		close(done)
	}()
	sp.Finish()
	<-done

	if st := tr.Stats(); st.Finished != 1 {
		t.Fatalf("finished = %d, want exactly 1 flush for a held span", st.Finished)
	}
}

func TestObserveFeedsEpochStages(t *testing.T) {
	tr := NewTracer(1)
	tr.Observe(StageDistill, 5*time.Millisecond)
	tr.Observe(StagePublish, 2*time.Millisecond)
	tr.Observe(StageReloadApply, time.Millisecond)
	tr.Observe(StageDistill, -time.Second) // negative: dropped

	for _, s := range tr.Snapshot() {
		switch s.Stage {
		case "distill", "publish", "reload_apply":
			if s.Count != 1 {
				t.Fatalf("%s count = %d, want 1", s.Stage, s.Count)
			}
			if s.SumSeconds <= 0 {
				t.Fatalf("%s sum = %v, want > 0", s.Stage, s.SumSeconds)
			}
		}
	}
}

func TestTraceIDsDistinctAndStable(t *testing.T) {
	tr := NewTracer(1)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		sp := tr.Start()
		id := sp.ID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
		sp.Finish()
	}
	if got := formatID(0); got != "0000000000000000" {
		t.Fatalf("formatID(0) = %q", got)
	}
	if got := formatID(0xdeadbeef); got != "00000000deadbeef" {
		t.Fatalf("formatID(0xdeadbeef) = %q", got)
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := tr.Start()
				sp.Stamp(StageIngest)
				sp.Stamp(StageMatch)
				sp.Finish()
			}
		}()
	}
	wg.Wait()
	st := tr.Stats()
	if st.Started != 2000 || st.Finished != 2000 {
		t.Fatalf("stats = %+v, want 2000 started and finished", st)
	}
}

func TestFlightRecordAndDump(t *testing.T) {
	f := NewFlight(2, 8)
	f.Record(FlightEvent{Kind: KindReloadIssue, Shard: -1, Value: 3})
	f.Record(FlightEvent{Kind: KindSinkStall, Shard: 0, Value: 16})
	f.Record(FlightEvent{Kind: KindSinkStall, Shard: 1, Value: 32})

	dump := f.Dump()
	if len(dump) != 3 {
		t.Fatalf("dump holds %d events, want 3", len(dump))
	}
	for i := 1; i < len(dump); i++ {
		if dump[i].TimeNs < dump[i-1].TimeNs {
			t.Fatal("dump not time-sorted")
		}
	}
	st := f.Stats()
	if st.Recorded != 3 || st.Held != 3 {
		t.Fatalf("stats = %+v, want recorded=held=3", st)
	}
}

func TestFlightRingOverwritesOldest(t *testing.T) {
	f := NewFlight(0, 4)
	for i := 0; i < 10; i++ {
		f.Record(FlightEvent{Kind: KindDrop, Shard: -1, Value: int64(i)})
	}
	dump := f.Dump()
	if len(dump) != 4 {
		t.Fatalf("ring holds %d, want 4", len(dump))
	}
	if dump[0].Value != 6 || dump[3].Value != 9 {
		t.Fatalf("ring kept values %d..%d, want 6..9", dump[0].Value, dump[3].Value)
	}
}

func TestFlightDropBurstTrigger(t *testing.T) {
	f := NewFlight(1, 512)
	var mu sync.Mutex
	var reasons []string
	f.SetTrigger(func(reason string, ev FlightEvent) {
		mu.Lock()
		reasons = append(reasons, reason)
		mu.Unlock()
	})
	for i := 0; i < int(flightBurstThresh)+16; i++ {
		f.RecordDrop(0, "")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != 1 || reasons[0] != "drop_burst" {
		t.Fatalf("trigger fired %v, want exactly one drop_burst", reasons)
	}
	// The burst event itself landed in the ring.
	var bursts int
	for _, ev := range f.Dump() {
		if ev.Kind == KindDropBurst {
			bursts++
		}
	}
	if bursts != 1 {
		t.Fatalf("dump holds %d drop_burst events, want 1", bursts)
	}
}

func TestFlightTriggerRateLimit(t *testing.T) {
	f := NewFlight(0, 8)
	var fired int
	var mu sync.Mutex
	f.SetTrigger(func(string, FlightEvent) { mu.Lock(); fired++; mu.Unlock() })
	for i := 0; i < 5; i++ {
		f.Trigger("sink_stall", FlightEvent{Kind: KindSinkStall, Shard: -1})
	}
	mu.Lock()
	defer mu.Unlock()
	if fired != 1 {
		t.Fatalf("trigger fired %d times inside one rate window, want 1", fired)
	}
	if st := f.Stats(); st.Throttled != 4 {
		t.Fatalf("throttled = %d, want 4", st.Throttled)
	}
}

func TestNilFlightIsInert(t *testing.T) {
	var f *Flight
	f.Record(FlightEvent{Kind: KindDrop})
	f.RecordDrop(0, "")
	f.Trigger("x", FlightEvent{})
	f.SetTrigger(func(string, FlightEvent) {})
	if d := f.Dump(); d != nil {
		t.Fatal("nil flight dumped events")
	}
	if st := f.Stats(); st.Recorded != 0 {
		t.Fatal("nil flight recorded")
	}
}
