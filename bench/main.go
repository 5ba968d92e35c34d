// Command bench is the repository's benchmark: one harness for the path
// a packet travels (HTTP/NDJSON ingest -> rate limit -> ring -> automaton
// -> sink -> verdict line) and the path a signature travels (miss ->
// reservoir -> cluster -> distill -> publish -> journal -> watch ->
// compile -> live), measured end to end and, with -trace 1, layer by
// layer. See README.md in this directory.
//
//	bash bench/run.sh -seed 1                       every workload, end to end
//	bash bench/run.sh -seed 1 -trace 1              the per-layer run
//	bash bench/run.sh -seed 1 -repeats 5            interleaved repeats with spread
//	bash bench/run.sh --workload vet-sync --seed 3 --seconds 8 --trace 0
//
// With -workload the last line of standard output is the one-object
// result BENCHMARK.json describes; everything else goes to standard
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

var workloadNames = []string{"ingest-stream", "vet-sync", "reload-churn", "learn-epoch", "match-replay"}

// setupRounds is how many times a run sets a workload up; setup_s is the
// median, so one cold build or page-cache miss does not decide it.
const setupRounds = 3

// tally counts checked operations and keeps the first few failure notes.
type tally struct {
	attempted, failed int64
	notes             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// outcome is what one workload run reports.
type outcome struct {
	tally
	e2e  metrics // throughput, latency_p50_ms, peak_rss_mb; the runner adds setup_s
	info metrics // the same numbers under their workload's own names, plus tails and counts
}

type workload interface {
	// setup generates the inputs from the seed and brings the system
	// under test to ready.
	setup() error
	// run measures for measure after a warm-up that is not counted.
	run(warm, measure time.Duration) (*outcome, error)
	// teardown stops everything setup started. Safe after a failed setup.
	teardown()
}

func newWorkload(name string, d *dirs, seed int64) workload {
	switch name {
	case "ingest-stream":
		return &ingestStream{d: d, seed: seed}
	case "vet-sync":
		return &vetSync{d: d, seed: seed}
	case "reload-churn":
		return &reloadChurn{d: d, seed: seed}
	case "learn-epoch":
		return &learnEpoch{seed: seed}
	case "match-replay":
		return &matchReplay{seed: seed}
	}
	return nil
}

func warmup(measure time.Duration) time.Duration {
	return min(max(measure/4, time.Second), 3*time.Second)
}

// runWorkload sets the workload up setupRounds times (timing each, keeping
// the last), measures once, and tears down.
func runWorkload(name string, d *dirs, seed int64, measure time.Duration) (*outcome, error) {
	w := newWorkload(name, d, seed)
	defer w.teardown()
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		if r > 0 {
			w.teardown()
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	out, err := w.run(warmup(measure), measure)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out.e2e.set("setup_s", median(setups), "s")
	return out, nil
}

// result is the driver-facing object: exactly these four keys.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func host(seed int64, measure time.Duration) hostFacts {
	return hostFacts{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, int(measure / time.Second)}
}

type workloadReport struct {
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Notes     []string `json:"failure_notes,omitempty"`
	Metrics   metrics  `json:"metrics"`
	Info      metrics  `json:"info,omitempty"`
}

type spread struct {
	Median        float64 `json:"median"`
	Q1            float64 `json:"q1"`
	Q3            float64 `json:"q3"`
	RangeOverMed  float64 `json:"max_minus_min_over_median"`
	IQROverMedian float64 `json:"iqr_over_median"`
	Unit          string  `json:"unit"`
}

type report struct {
	Host      hostFacts                    `json:"host"`
	Workloads map[string]*workloadReport   `json:"workloads,omitempty"`
	Repeats   map[string]map[string]spread `json:"repeats,omitempty"`
	Layers    *workloadReport              `json:"layers,omitempty"`
}

func toReport(o *outcome) *workloadReport {
	return &workloadReport{Attempted: o.attempted, Failed: o.failed, Notes: o.notes, Metrics: o.e2e, Info: o.info}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	runCleanup()
	os.Exit(1)
}

func main() {
	var (
		wl      = flag.String("workload", "", "run one workload and print the driver result line (default: all five)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", 20, "measured seconds per workload (warm-up comes on top)")
		traced  = flag.Int("trace", 0, "1: the per-layer run (spans owned by the benchmark); 0: end to end")
		repeats = flag.Int("repeats", 1, "run the workloads this many times, interleaved, and print the spread")
		corrupt = flag.Bool("corrupt-reference", false, "flip one reference verdict, to show the check fails the run")
	)
	flag.Parse()
	if *wl != "" && newWorkload(*wl, nil, 0) == nil {
		fatal(fmt.Errorf("unknown workload %q (want one of %v)", *wl, workloadNames))
	}
	if *seconds < 1 || *repeats < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("-seconds and -repeats must be at least 1, -trace 0 or 1"))
	}
	corruptReference = *corrupt

	d, err := findDirs()
	if err != nil {
		fatal(err)
	}
	cleanup.tmp = d.tmp
	defer runCleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		fatal(fmt.Errorf("interrupted"))
	}()

	measure := time.Duration(*seconds) * time.Second
	rep := report{Host: host(*seed, measure)}
	var last *outcome
	if *traced == 1 {
		if last, err = runLayers(d, *seed, measure); err != nil {
			fatal(err)
		}
		rep.Layers = toReport(last)
	} else {
		names := workloadNames
		if *wl != "" {
			names = []string{*wl}
		}
		rep.Workloads = map[string]*workloadReport{}
		samples := map[string]map[string][]float64{}
		for r := 0; r < *repeats; r++ {
			for _, name := range names {
				if last, err = runWorkload(name, d, *seed, measure); err != nil {
					fatal(err)
				}
				rep.Workloads[name] = toReport(last)
				if samples[name] == nil {
					samples[name] = map[string][]float64{}
				}
				for k, m := range last.e2e {
					samples[name][k] = append(samples[name][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: %s round %d: attempted=%d failed=%d\n", name, r+1, last.attempted, last.failed)
			}
		}
		if *repeats > 1 {
			rep.Repeats = spreads(samples, last.e2e)
		}
	}

	if *wl != "" {
		// The driver's form: the report on standard error, the result as
		// the last line of standard output.
		json.NewEncoder(os.Stderr).Encode(rep)
		for _, n := range last.notes {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", n)
		}
		b, err := json.Marshal(result{Correct: last.failed == 0, Attempted: max(last.attempted, 1), Failed: last.failed, Metrics: last.e2e})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	for _, w := range rep.Workloads {
		if w.Failed > 0 {
			runCleanup()
			os.Exit(2)
		}
	}
	if rep.Layers != nil && rep.Layers.Failed > 0 {
		runCleanup()
		os.Exit(2)
	}
}

// spreads summarises the interleaved repeats of every end-to-end metric.
func spreads(samples map[string]map[string][]float64, units metrics) map[string]map[string]spread {
	out := map[string]map[string]spread{}
	for name, byMetric := range samples {
		out[name] = map[string]spread{}
		for k, xs := range byMetric {
			s := sorted(xs)
			med, q1, q3 := quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)
			out[name][k] = spread{med, q1, q3, (s[len(s)-1] - s[0]) / med, (q3 - q1) / med, units[k].Unit}
		}
	}
	return out
}
