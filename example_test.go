package leaksig_test

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"leaksig"
)

// Example is README.md's library quickstart; TestReadmeQuickstartIsExample
// keeps the README's code block a verbatim excerpt of this function.
func Example() {
	ds := leaksig.SyntheticDataset(1, 200, 15000) // calibrated synthetic capture
	sigs := leaksig.GenerateSignatures(ds.SuspiciousPackets()[:200], leaksig.Config{})
	verdicts := leaksig.Detect(sigs, ds.Packets)                 // offline, one bool per packet
	res := leaksig.Evaluate(sigs, ds.Packets, ds.Sensitive, 200) // the paper's TP/FN/FP (§V-B)

	var leaks atomic.Int64
	eng := leaksig.NewStreamEngine(sigs, leaksig.StreamConfig{ // streaming
		OnVerdict: func(v leaksig.StreamVerdict) {
			if v.Leak() {
				leaks.Add(1)
			}
		},
	})
	pool := leaksig.NewPool(sigs, leaksig.PoolConfig{}) // multi-tenant streaming

	for _, p := range ds.Packets {
		eng.Submit(p)
		pool.Submit(p.App, p)
	}
	eng.Close()
	pool.Flush()
	pooled := pool.Metrics().Aggregate.Matched
	pool.Close()

	offline := 0
	for _, leak := range verdicts {
		if leak {
			offline++
		}
	}
	fmt.Println("streaming agrees with offline:", leaks.Load() == int64(offline))
	fmt.Println("pool agrees with offline:", pooled == uint64(offline))
	fmt.Println("detects most leaks:", res.TruePositiveRate > 0.5)
	// Output:
	// streaming agrees with offline: true
	// pool agrees with offline: true
	// detects most leaks: true
}

// TestReadmeQuickstartIsExample fails when README.md's "Library
// quickstart" code block is not, line for line, a run of Example's body.
func TestReadmeQuickstartIsExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "## Library quickstart\n")
	_, block, _ := strings.Cut(section, "```go\n")
	block, _, ok := strings.Cut(block, "```\n")
	if !ok {
		t.Fatal("README.md has no Library quickstart go block")
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(src), "func Example() {\n")
	body = strings.ReplaceAll(body, "\n\t", "\n")
	if !strings.Contains("\n"+strings.TrimPrefix(body, "\t"), "\n"+block) {
		t.Fatalf("README.md's Library quickstart is not an excerpt of Example:\n%s", block)
	}
}
