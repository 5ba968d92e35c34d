// Package leaksig reproduces "Signature Generation for Sensitive
// Information Leakage in Android Applications" (Kuzuno & Tonami, ICDE
// Workshops 2013): clustering HTTP packets by a combined destination +
// content distance and deriving conjunction signatures that detect
// transmissions of device identifiers, without modifying the Android
// framework.
//
// The package is a thin facade over the implementation packages:
//
//	internal/distance   — the packet distance (§IV-B/C)
//	internal/cluster    — group-average hierarchical clustering (§IV-D)
//	internal/signature  — conjunction signature generation (§IV-E)
//	internal/detect     — the batch matching engine and the paper's TP/FN/FP
//	internal/engine     — the sharded streaming engine with hot reload
//	internal/trafficgen — the calibrated synthetic dataset (§III, §V-A)
//	internal/eval       — every table and figure of the evaluation
//	internal/siggen     — online incremental signature generation
//	internal/sigserver  — signature distribution (Figure 3a)
//	internal/flowcontrol— the on-device vetting proxy (Figure 3b)
//	internal/obs        — the ops plane: Prometheus exposition, event
//	                      shipping, per-tenant intake accounting
//	internal/durable    — crash safety: publish journal, learner
//	                      checkpoints, last-known-good signature cache
//	internal/resilience — jittered backoff + circuit breakers for every
//	                      HTTP write path
//	internal/faultinject— deterministic seedable chaos injection for
//	                      failure drills
//
// The facade names only what README.md's library quickstart and the
// examples use; everything else (sinks, the online learner, metrics,
// tracing) is reached through the daemons in cmd/.
//
// Detection comes in two modes. The offline mode (Detect, Evaluate)
// scores a fully materialized capture — the paper's evaluation posture.
// The streaming mode (NewStreamEngine, NewPool) is the deployment
// posture: a long-running sharded service consuming live packets, whose
// signature set a sigserver publish hot-swaps mid-stream without a
// restart or a dropped packet; cmd/leakstream is its daemon form.
//
// Example (the README quickstart) shows the calls end to end.
package leaksig

import (
	"leaksig/internal/capture"
	"leaksig/internal/core"
	"leaksig/internal/detect"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/sensitive"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

// Packet is one captured HTTP request (see internal/httpmodel).
type Packet = httpmodel.Packet

// Config parameterizes the clustering and signature-generation pipeline;
// the zero value reproduces the paper's setup.
type Config = core.Config

// SignatureSet is a generated conjunction signature set.
type SignatureSet = signature.Set

// Result carries the paper's evaluation counts and rates.
type Result = detect.Result

// GenerateSignatures clusters the (suspicious) packets under cfg and emits
// one conjunction signature per cluster (§IV).
func GenerateSignatures(packets []*Packet, cfg Config) *SignatureSet {
	return core.NewPipeline(cfg).GenerateSignatures(packets)
}

// Detect applies the signature set to every packet and returns one verdict
// per packet, in order.
func Detect(set *SignatureSet, packets []*Packet) []bool {
	eng := detect.NewEngine(set)
	return eng.MatchSet(capture.New(packets))
}

// Evaluate scores a signature set against ground-truth labels using the
// paper's TP/FN/FP equations (§V-B). n is the training-sample size.
func Evaluate(set *SignatureSet, packets []*Packet, sensitiveLabels []bool, n int) Result {
	eng := detect.NewEngine(set)
	return detect.Evaluate(eng, capture.New(packets), sensitiveLabels, n)
}

// StreamEngine is the sharded streaming detector (see internal/engine).
type StreamEngine = engine.Engine

// StreamConfig parameterizes the streaming engine; the zero value selects
// sensible defaults.
type StreamConfig = engine.Config

// StreamVerdict is the outcome of matching one streamed packet, as
// StreamConfig.OnVerdict receives it.
type StreamVerdict = engine.Verdict

// NewStreamEngine starts a streaming detection engine over the signature
// set. Packets enter through Submit, each verdict reaches
// StreamConfig.OnVerdict, and Reload hot-swaps the signature set
// mid-stream without dropping a packet, returning once the new set is
// live.
func NewStreamEngine(set *SignatureSet, cfg StreamConfig) *StreamEngine {
	return engine.New(set, cfg)
}

// Pool is the multi-tenant streaming layer: one engine per tenant key
// (app package, device cohort, destination host) sharing a global shard
// budget, with lazy creation, idle eviction, and pool-wide aggregated
// metrics (see internal/engine).
type Pool = engine.Pool

// PoolConfig parameterizes NewPool; the zero value selects sensible
// defaults.
type PoolConfig = engine.PoolConfig

// NewPool starts an empty multi-tenant pool whose tenants begin life on
// the signature set (nil for empty). Route packets with Pool.Submit, pin
// per-tenant sets with Pool.ReloadTenant, and roll the shared default
// with Pool.Reload.
func NewPool(set *SignatureSet, cfg PoolConfig) *Pool {
	return engine.NewPool(set, cfg)
}

// Dataset is a synthetic capture with its ground truth.
type Dataset struct {
	Packets   []*Packet
	Sensitive []bool // ground-truth label per packet (the payload check)
}

// SyntheticDataset fabricates a dataset calibrated to the paper's
// measurement (1,188 apps / 107,859 packets at full scale). numApps and
// totalPackets of 0 select the paper's values; seed fixes every random
// choice.
func SyntheticDataset(seed int64, numApps, totalPackets int) *Dataset {
	ds := trafficgen.Generate(trafficgen.Config{
		Seed:         seed,
		NumApps:      numApps,
		TotalPackets: totalPackets,
	})
	oracle := sensitive.NewOracle(ds.Device)
	labels := make([]bool, ds.Capture.Len())
	for i, p := range ds.Capture.Packets {
		labels[i] = oracle.IsSensitive(p)
	}
	return &Dataset{Packets: ds.Capture.Packets, Sensitive: labels}
}

// SuspiciousPackets returns the packets the payload check labels sensitive.
func (d *Dataset) SuspiciousPackets() []*Packet {
	var out []*Packet
	for i, p := range d.Packets {
		if d.Sensitive[i] {
			out = append(out, p)
		}
	}
	return out
}
