package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T, root string) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func checkMetrics(t *testing.T, what string, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name, m := range got {
		if !nameRE.MatchString(name) || m.Unit == "" {
			t.Errorf("%s: metric %q (unit %q) is not a well-formed name with a unit", what, name, m.Unit)
		}
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

// TestSmoke runs every workload for about a second, and the traced run
// once, and holds their output to the schema BENCHMARK.json declares, so
// the harness keeps compiling and its names stay stable.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real daemons")
	}
	d, err := findDirs()
	if err != nil {
		t.Fatal(err)
	}
	cleanup.tmp = d.tmp
	defer runCleanup()
	bj := readBenchmarkJSON(t, d.root)

	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bj.Workloads), len(workloadNames))
	}
	e2e := map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
		out, err := runWorkload(workloadNames[i], d, 1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || out.attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, out.attempted, out.failed, out.notes)
		}
		checkMetrics(t, w.Name, out.e2e, e2e)
		for name, m := range out.e2e {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, name, m.Value)
			}
		}
	}

	layers := map[string]string{}
	for _, m := range bj.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(layers) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the harness %d", len(layers), len(layerMetrics))
	}
	out, err := runLayers(d, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Errorf("traced run: failed %d: %v", out.failed, out.notes)
	}
	checkMetrics(t, "traced run", out.e2e, layers)
}

// TestReferenceCheckFails shows the reference check is live: with one
// reference verdict flipped, the run must count a failure.
func TestReferenceCheckFails(t *testing.T) {
	corruptReference = true
	defer func() { corruptReference = false }()
	w := &matchReplay{seed: 1}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	var tl tally
	w.pass(&tl)
	if tl.failed == 0 {
		t.Fatal("a flipped reference verdict went unnoticed")
	}
}
