// Package eval regenerates every table and figure of the paper's
// evaluation from the synthetic dataset:
//
//	Table I   — applications per dangerous permission combination
//	Table II  — packets and applications per HTTP host destination
//	Table III — packets/applications/destinations per sensitive-info kind
//	Figure 2  — cumulative distribution of destinations per application
//	Figure 4  — TP/FN/FP detection rates as the signature-generation
//	            sample N sweeps 100..500
//
// Each experiment returns structured rows consumed by tests, by the root
// benchmarks, and by cmd/leakeval's renderer.
package eval

import (
	"fmt"
	"math/rand"

	"leaksig/internal/android"
	"leaksig/internal/capture"
	"leaksig/internal/core"
	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/sensitive"
	"leaksig/internal/signature"
	"leaksig/internal/stats"
	"leaksig/internal/trafficgen"
)

// Env bundles one generated dataset with its ground-truth labelling, shared
// by all experiments.
type Env struct {
	Dataset    *trafficgen.Dataset
	Oracle     *sensitive.Oracle
	Sensitive  []bool       // per packet of Dataset.Capture
	Suspicious *capture.Set // packets with sensitive information (§V-A)
	Normal     *capture.Set // the rest
}

// NewEnv generates a dataset and labels it with the payload check.
func NewEnv(cfg trafficgen.Config) *Env {
	ds := trafficgen.Generate(cfg)
	oracle := sensitive.NewOracle(ds.Device)
	labels := make([]bool, ds.Capture.Len())
	susp, norm := &capture.Set{}, &capture.Set{}
	for i, p := range ds.Capture.Packets {
		if oracle.IsSensitive(p) {
			labels[i] = true
			susp.Append(p)
		} else {
			norm.Append(p)
		}
	}
	return &Env{
		Dataset:    ds,
		Oracle:     oracle,
		Sensitive:  labels,
		Suspicious: susp,
		Normal:     norm,
	}
}

// --- Table I ---------------------------------------------------------------

// TableIRow is one permission-combination row.
type TableIRow struct {
	Combo android.Combo
	Apps  int
}

// TableI tabulates applications per dangerous permission combination. Rows
// follow the paper's order; a final OTHER row collects off-table combos.
func (e *Env) TableI() []TableIRow {
	counts := make(map[android.Combo]int)
	for _, a := range e.Dataset.Apps {
		counts[a.Manifest.DangerousCombo()]++
	}
	order := []android.Combo{
		android.ComboInternetOnly,
		android.ComboInternetPhone,
		android.ComboInternetLocationPhone,
		android.ComboInternetLocation,
		android.ComboInternetLocationPhoneContacts,
		android.ComboOther,
	}
	rows := make([]TableIRow, 0, len(order))
	for _, c := range order {
		rows = append(rows, TableIRow{Combo: c, Apps: counts[c]})
	}
	return rows
}

// --- Table II --------------------------------------------------------------

// TableIIRow is one destination row.
type TableIIRow struct {
	Host    string
	Packets int
	Apps    int
}

// TableII returns the top destinations by application count, mirroring the
// paper's Table II (which lists 26 rows). topN <= 0 selects 26.
func (e *Env) TableII(topN int) []TableIIRow {
	if topN <= 0 {
		topN = 26
	}
	pkts := stats.NewFreq[string]()
	apps := make(map[string]map[string]bool)
	for _, p := range e.Dataset.Capture.Packets {
		pkts.Add(p.Host)
		m := apps[p.Host]
		if m == nil {
			m = make(map[string]bool)
			apps[p.Host] = m
		}
		m[p.App] = true
	}
	appFreq := stats.NewFreq[string]()
	for h, m := range apps {
		appFreq.AddN(h, len(m))
	}
	pairs := appFreq.SortedByCount(func(a, b string) bool { return a < b })
	if len(pairs) > topN {
		pairs = pairs[:topN]
	}
	rows := make([]TableIIRow, len(pairs))
	for i, pr := range pairs {
		rows[i] = TableIIRow{Host: pr.Key, Packets: pkts[pr.Key], Apps: pr.Count}
	}
	return rows
}

// --- Table III -------------------------------------------------------------

// TableIIIRow is one sensitive-information row.
type TableIIIRow struct {
	Kind    sensitive.Kind
	Packets int
	Apps    int
	Hosts   int
}

// TableIII tabulates, per identifier kind, the packets carrying it and the
// distinct applications and destinations involved.
func (e *Env) TableIII() []TableIIIRow {
	type acc struct {
		pkts  int
		apps  map[string]bool
		hosts map[string]bool
	}
	accs := make([]acc, sensitive.NumKinds)
	for i := range accs {
		accs[i] = acc{apps: make(map[string]bool), hosts: make(map[string]bool)}
	}
	for _, p := range e.Dataset.Capture.Packets {
		for _, k := range e.Oracle.Scan(p) {
			accs[k].pkts++
			accs[k].apps[p.App] = true
			accs[k].hosts[p.Host] = true
		}
	}
	rows := make([]TableIIIRow, sensitive.NumKinds)
	for i := range rows {
		rows[i] = TableIIIRow{
			Kind:    sensitive.Kind(i),
			Packets: accs[i].pkts,
			Apps:    len(accs[i].apps),
			Hosts:   len(accs[i].hosts),
		}
	}
	return rows
}

// --- Figure 2 --------------------------------------------------------------

// Figure2Result summarizes the per-application destination distribution.
type Figure2Result struct {
	Points    []stats.Point // empirical CDF steps
	Mean      float64
	Max       int
	FracOne   float64 // fraction with exactly 1 destination (paper: 7%)
	FracLE10  float64 // paper: 74%
	FracLE16  float64 // paper: 90%
	TotalApps int
}

// Figure2 computes the destination CDF.
func (e *Env) Figure2() Figure2Result {
	perApp := make(map[string]map[string]bool)
	for _, p := range e.Dataset.Capture.Packets {
		m := perApp[p.App]
		if m == nil {
			m = make(map[string]bool)
			perApp[p.App] = m
		}
		m[p.Host] = true
	}
	var xs []int
	for _, m := range perApp {
		xs = append(xs, len(m))
	}
	cdf := stats.NewCDF(xs)
	sum := stats.Summarize(xs)
	return Figure2Result{
		Points:    cdf.Points(),
		Mean:      sum.Mean,
		Max:       sum.Max,
		FracOne:   cdf.FractionAtMost(1),
		FracLE10:  cdf.FractionAtMost(10),
		FracLE16:  cdf.FractionAtMost(16),
		TotalApps: sum.Count,
	}
}

// --- Figure 4 --------------------------------------------------------------

// Figure4Point is one sweep point of the detection experiment.
type Figure4Point struct {
	N          int
	Signatures int
	Result     detect.Result
	TP, FN, FP float64 // percentages
}

// Figure4Config parameterizes the sweep.
type Figure4Config struct {
	// Ns are the sample sizes; nil selects the paper's 100..500 step 100.
	Ns []int
	// SampleSeed seeds the random draw of the N suspicious packets.
	SampleSeed int64
	// Repeats averages the rates over this many independent sample draws
	// per N (default 1, the paper's single draw). Averaging smooths the
	// step effects of rarely-sampled module families.
	Repeats int
	// Pipeline configures distance/clustering/signatures; the zero value is
	// the repository default (see core.Config).
	Pipeline core.Config
}

// Figure4 runs the paper's detection experiment: for each N, sample N
// suspicious packets, cluster them, generate signatures, apply them to the
// full dataset, and score with the paper's equations.
func (e *Env) Figure4(cfg Figure4Config) []Figure4Point {
	ns := cfg.Ns
	if ns == nil {
		ns = []int{100, 200, 300, 400, 500}
	}
	reps := cfg.Repeats
	if reps < 1 {
		reps = 1
	}
	pl := core.NewPipeline(cfg.Pipeline)
	out := make([]Figure4Point, 0, len(ns))
	for _, n := range ns {
		var pt Figure4Point
		pt.N = n
		for r := 0; r < reps; r++ {
			rng := rand.New(rand.NewSource(cfg.SampleSeed + int64(n) + int64(r)*7919))
			sample := e.Suspicious.Sample(rng, n)
			set := pl.GenerateSignatures(sample.Packets)
			eng := core.NewDetector(set)
			res := detect.Evaluate(eng, e.Dataset.Capture, e.Sensitive, sample.Len())
			pt.Signatures += set.Len()
			pt.Result = res // last repeat's raw counts, for inspection
			pt.TP += res.TruePositiveRate * 100
			pt.FN += res.FalseNegativeRate * 100
			pt.FP += res.FalsePositiveRate * 100
		}
		pt.Signatures /= reps
		pt.TP /= float64(reps)
		pt.FN /= float64(reps)
		pt.FP /= float64(reps)
		out = append(out, pt)
	}
	return out
}

// --- Signature-type comparison (extension) ----------------------------------

// SignatureTypeRow is one row of the signature-class comparison: the
// paper's conjunction signatures against the probabilistic and ordered
// variants it names as future work (§VI).
type SignatureTypeRow struct {
	Type       string
	Signatures int // or vocabulary size for the Bayes model
	TP, FN, FP float64
}

// CompareSignatureTypes runs the detection experiment at one N for all
// three signature classes over the same sample and benign calibration set.
// The conjunction and token-subsequence rows are scored through
// detect.Engine, the matcher that ships.
func (e *Env) CompareSignatureTypes(n int, sampleSeed int64, pcfg core.Config) []SignatureTypeRow {
	sample, conj, subseq, bayes := e.signatureClasses(n, sampleSeed, pcfg)
	rows := make([]SignatureTypeRow, 0, 3)
	score := func(name string, m detect.Matcher, count int) {
		res := detect.EvaluateMatcher(m, e.Dataset.Capture, e.Sensitive, sample.Len())
		rows = append(rows, SignatureTypeRow{
			Type:       name,
			Signatures: count,
			TP:         res.TruePositiveRate * 100,
			FN:         res.FalseNegativeRate * 100,
			FP:         res.FalsePositiveRate * 100,
		})
	}
	score("conjunction", detect.NewEngine(conj), conj.Len())
	score("token-subsequence", detect.NewEngine(subseq), subseq.Len())
	score("bayes", bayes, bayes.NumTokens())
	return rows
}

// signatureClasses draws the comparison's sample and benign calibration
// set, clusters the sample, and generates each class from the clusters.
func (e *Env) signatureClasses(n int, sampleSeed int64, pcfg core.Config) (sample *capture.Set, conj, subseq *signature.Set, bayes *signature.BayesSignature) {
	rng := rand.New(rand.NewSource(sampleSeed))
	sample = e.Suspicious.Sample(rng, n)
	benign := e.Normal.Sample(rng, 500)

	pl := core.NewPipeline(pcfg)
	_, clusters := pl.Cluster(sample.Packets)

	conj = signature.Generate(clusters, signature.Options{MinClusterSize: 2})
	subseq = signature.GenerateSubsequence(clusters, signature.Options{MinClusterSize: 2})
	bayes = signature.GenerateBayes(clusters, benign.Packets, signature.BayesOptions{})
	return sample, conj, subseq, bayes
}

// SampleSuspicious draws n suspicious packets with the given seed — the
// §V-A sampling step, exposed for tools and examples.
func (e *Env) SampleSuspicious(seed int64, n int) []*httpmodel.Packet {
	rng := rand.New(rand.NewSource(seed))
	return e.Suspicious.Sample(rng, n).Packets
}

// Describe returns a one-paragraph dataset summary.
func (e *Env) Describe() string {
	return fmt.Sprintf("dataset: %d apps, %d packets (%d suspicious / %d normal), %d destinations",
		len(e.Dataset.Apps), e.Dataset.Capture.Len(),
		e.Suspicious.Len(), e.Normal.Len(), len(e.Dataset.Capture.Hosts()))
}
