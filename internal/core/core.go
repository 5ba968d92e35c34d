// Package core wires the paper's method end to end (§IV, Figure 3a):
// compute pairwise HTTP packet distances, cluster hierarchically, cut the
// dendrogram, and generate one conjunction signature per cluster. It is the
// programmatic API the command-line tools, the examples, and the evaluation
// harness all share.
package core

import (
	"leaksig/internal/cluster"
	"leaksig/internal/detect"
	"leaksig/internal/distance"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// Config parameterizes the pipeline. The zero value reproduces the paper's
// configuration (normalized packet distance, group-average linkage) with
// this repository's default cut and token settings.
type Config struct {
	// Distance configures the packet metric (§IV-B/C).
	Distance distance.Config

	// Linkage selects the cluster criterion; the paper uses group average
	// (§IV-D), the default.
	Linkage cluster.Linkage

	// CutFraction positions the flat-clustering threshold as a fraction of
	// the metric's maximum value. Defaults to 0.22.
	CutFraction float64

	// Signature configures token extraction and filtering (§IV-E).
	Signature signature.Options
}

func (c Config) withDefaults() Config {
	if c.CutFraction == 0 {
		c.CutFraction = 0.22
	}
	if c.Signature.MinClusterSize == 0 {
		// Singleton clusters yield signatures frozen to one packet's
		// volatile parameters; skipping them is the repository default
		// (set MinClusterSize to 1 to reproduce the paper's every-cluster
		// procedure — the ablation bench compares both).
		c.Signature.MinClusterSize = 2
	}
	return c
}

// Pipeline executes the clustering and signature-generation stages.
type Pipeline struct {
	cfg    Config
	metric *distance.Metric
}

// NewPipeline builds a pipeline from cfg.
func NewPipeline(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	return &Pipeline{cfg: cfg, metric: distance.New(cfg.Distance)}
}

// cutThreshold returns the absolute dendrogram cut height.
func (pl *Pipeline) cutThreshold() float64 {
	return pl.cfg.CutFraction * pl.metric.MaxValue()
}

// Cluster computes the full distance matrix over the packets, agglomerates,
// and returns the dendrogram together with the flat clusters at the
// configured threshold (as packet groups).
func (pl *Pipeline) Cluster(packets []*httpmodel.Packet) (*cluster.Dendrogram, [][]*httpmodel.Packet) {
	mx := distance.NewMatrix(pl.metric, packets)
	dend := cluster.Agglomerate(mx, pl.cfg.Linkage)
	idxClusters := dend.CutDistance(pl.cutThreshold())
	groups := make([][]*httpmodel.Packet, len(idxClusters))
	for i, idxs := range idxClusters {
		g := make([]*httpmodel.Packet, len(idxs))
		for j, k := range idxs {
			g[j] = packets[k]
		}
		groups[i] = g
	}
	return dend, groups
}

// GenerateSignatures runs Cluster followed by signature generation and
// stamps the training size with the sample count.
func (pl *Pipeline) GenerateSignatures(packets []*httpmodel.Packet) *signature.Set {
	_, groups := pl.Cluster(packets)
	set := signature.Generate(groups, pl.cfg.Signature)
	set.TrainingSize = len(packets)
	return set
}

// NewDetector compiles a signature set into a matching engine.
func NewDetector(set *signature.Set) *detect.Engine {
	return detect.NewEngine(set)
}
