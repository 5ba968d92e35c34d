package siggen

import (
	"cmp"
	"math/rand"
	"slices"

	"leaksig/internal/cluster"
	"leaksig/internal/distance"
	"leaksig/internal/httpmodel"
)

// ClusterConfig tunes the incremental clusterer. The zero value selects
// the defaults noted on each field.
type ClusterConfig struct {
	// Distance configures the packet metric (§IV-B/C) used for both the
	// arrival assignment and the epoch compaction.
	Distance distance.Config

	// JoinFraction positions the assignment threshold as a fraction of
	// the metric's maximum value, mirroring core.Config.CutFraction so an
	// online cluster corresponds to a flat cut of the offline dendrogram
	// at the same height. Default 0.22.
	JoinFraction float64

	// MaxClusters bounds the live cluster count; an arrival farther than
	// the join threshold from every medoid when the table is full is
	// dropped (and counted). Default 64.
	MaxClusters int

	// MaxMembers bounds each cluster's member list; past it, new arrivals
	// overwrite the oldest member ring-buffer style, so a long-lived
	// cluster tracks its population's recent shape. Default 64.
	MaxMembers int

	// ElectSample caps both the candidate and reference sets of the
	// medoid election (the member minimizing summed distance to a sample
	// of its peers), keeping elections O(ElectSample²) instead of
	// O(members²). Default 16.
	ElectSample int

	// StaleEpochs drops clusters that saw no arrival for this many
	// compaction epochs — the forgetting half of "rolling". Default 8.
	StaleEpochs int
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.JoinFraction == 0 {
		c.JoinFraction = 0.22
	}
	if c.MaxClusters <= 0 {
		c.MaxClusters = 64
	}
	if c.MaxMembers <= 0 {
		c.MaxMembers = 64
	}
	if c.ElectSample <= 0 {
		c.ElectSample = 16
	}
	if c.StaleEpochs <= 0 {
		c.StaleEpochs = 8
	}
	return c
}

// member is one clustered packet with the tenant it was sampled from, so
// a cluster's tenant mix is always derivable from its current window —
// a population that drifts from tenant A to tenant B sheds A's tag as
// A's packets age out of the ring.
type member struct {
	p      *httpmodel.Packet
	tenant string
	prof   *distance.Profile // nil until the member is first compared
}

// rolling is one live cluster: a bounded member window around an elected
// medoid, with a stable identity that signature provenance hangs off.
type rolling struct {
	id        uint64 // stable identity; survives compaction, retired on prune
	members   []*member
	next      int     // ring cursor once members is full
	medoid    *member // may have left the ring since its election
	lastEpoch int     // compaction epoch of the most recent arrival
}

// add appends the member, overwriting the oldest once the window is full.
func (r *rolling) add(m *member, maxMembers int) {
	if len(r.members) < maxMembers {
		r.members = append(r.members, m)
		return
	}
	r.members[r.next] = m
	r.next = (r.next + 1) % len(r.members)
}

// tenants counts the current window's members per tenant label.
func (r *rolling) tenants() map[string]int {
	out := make(map[string]int, 4)
	for _, m := range r.members {
		out[m.tenant]++
	}
	return out
}

// Clusterer maintains rolling clusters over an unbounded packet stream —
// the online counterpart of cluster.Agglomerate. Arrivals are assigned to
// the nearest medoid when it lies within the join threshold (updating
// that cluster in place) and seed a new cluster otherwise; Compact runs
// periodically, re-electing medoids, merging clusters whose medoids
// agglomerate below the threshold (reusing the offline nearest-neighbor
// chain over the medoid matrix), and pruning clusters gone stale. Not
// safe for concurrent use; the siggen Service serializes access.
type Clusterer struct {
	cfg    ClusterConfig
	metric *distance.Metric
	joinAt float64
	rng    *rand.Rand

	clusters []*rolling
	epoch    int
	nextID   uint64

	order []near // ObserveTenant's candidate buffer, reused across arrivals

	observed  uint64
	rejected  uint64 // arrivals dropped: table full and nothing close enough
	distances uint64 // full dpkt evaluations against medoids on arrival
	pruned    uint64 // medoids an arrival skipped on the destination bound
}

// near is one live medoid an arrival may join: the cluster index and
// the destination lower bound on the arrival's distance to its medoid.
type near struct {
	bound float64
	i     int
}

// NewClusterer builds an empty clusterer. seed fixes the medoid-election
// sampling so runs are reproducible.
func NewClusterer(cfg ClusterConfig, seed int64) *Clusterer {
	cfg = cfg.withDefaults()
	m := distance.New(cfg.Distance)
	return &Clusterer{
		cfg:    cfg,
		metric: m,
		joinAt: cfg.JoinFraction * m.MaxValue(),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Observe assigns one unattributed packet — ObserveTenant with the empty
// tenant label.
func (c *Clusterer) Observe(p *httpmodel.Packet) bool {
	return c.ObserveTenant(p, "")
}

// ObserveTenant assigns one packet sampled from tenant: join the nearest
// cluster within the threshold, else seed a new cluster, else (table
// full) drop. It reports whether the packet was retained. The tenant
// label rides on the member so every cluster knows the tenant mix of its
// current window — the provenance per-tenant signature sets distill from.
//
// The choice is the nearest medoid, the lowest cluster index among equal
// distances, as a scan of every medoid would make it; but only medoids
// the destination term cannot rule out are compared in full. The term
// w_dst·ddst costs no compression and lower-bounds dpkt
// (distance.Metric.LowerBound), so a medoid whose bound exceeds the join
// threshold can never be joined, and one whose bound exceeds the best
// distance found so far (or equals it from a higher index) can never be
// chosen. Survivors are visited in ascending bound order, so the best
// distance tightens early. Ad traffic clusters by destination, which is
// what makes the bound rule out nearly every foreign medoid.
func (c *Clusterer) ObserveTenant(p *httpmodel.Packet, tenant string) bool {
	c.observed++
	order := c.order[:0]
	for i, cl := range c.clusters {
		if b := c.metric.LowerBound(p, cl.medoid.p); b <= c.joinAt {
			order = append(order, near{bound: b, i: i})
		}
	}
	slices.SortFunc(order, func(a, b near) int {
		if o := cmp.Compare(a.bound, b.bound); o != 0 {
			return o
		}
		return a.i - b.i
	})
	c.order = order

	var prof *distance.Profile // the arrival's, built on its first comparison
	best, bestD, evaluated := -1, 0.0, 0
	for _, o := range order {
		if best >= 0 {
			if o.bound > bestD {
				break // every later bound is at least as large
			}
			if o.bound == bestD && o.i > best {
				continue
			}
		}
		if prof == nil {
			prof = c.metric.Profile(p)
		}
		d := c.metric.PacketFrom(o.bound, prof, c.profile(c.clusters[o.i].medoid))
		evaluated++
		if best == -1 || d < bestD || (d == bestD && o.i < best) {
			best, bestD = o.i, d
		}
	}
	c.distances += uint64(evaluated)
	c.pruned += uint64(len(c.clusters) - evaluated)

	if best >= 0 && bestD <= c.joinAt {
		cl := c.clusters[best]
		cl.add(&member{p: p, tenant: tenant, prof: prof}, c.cfg.MaxMembers)
		cl.lastEpoch = c.epoch
		return true
	}
	if len(c.clusters) < c.cfg.MaxClusters {
		c.nextID++
		m := &member{p: p, tenant: tenant, prof: prof}
		c.clusters = append(c.clusters, &rolling{
			id:        c.nextID,
			members:   []*member{m},
			medoid:    m,
			lastEpoch: c.epoch,
		})
		return true
	}
	c.rejected++
	return false
}

// profile returns m's profile, building it on first use. Nothing else
// memoizes compressed lengths, so the learner's compression memory is
// bounded by the members it holds: O(MaxClusters × MaxMembers).
func (c *Clusterer) profile(m *member) *distance.Profile {
	if m.prof == nil {
		m.prof = c.metric.Profile(m.p)
	}
	return m.prof
}

// electMedoid picks the member minimizing summed distance to a sampled
// reference set, over a sampled candidate set.
func (c *Clusterer) electMedoid(r *rolling) {
	n := len(r.members)
	if n <= 2 {
		r.medoid = r.members[0]
		return
	}
	candidates := c.sampleMembers(r, c.cfg.ElectSample)
	refs := c.sampleMembers(r, c.cfg.ElectSample)
	best, bestSum := r.medoid, -1.0
	for _, cand := range candidates {
		sum := 0.0
		for _, ref := range refs {
			// A packet observed twice is two members; neither counts
			// against the other.
			if ref.p != cand.p {
				sum += c.metric.ProfilePacket(c.profile(cand), c.profile(ref))
			}
		}
		if bestSum < 0 || sum < bestSum {
			best, bestSum = cand, sum
		}
	}
	r.medoid = best
}

// sampleMembers returns up to k distinct members, all of them (the
// window itself, not a copy) when the cluster is small.
func (c *Clusterer) sampleMembers(r *rolling, k int) []*member {
	n := len(r.members)
	if n <= k {
		return r.members
	}
	idx := c.rng.Perm(n)[:k]
	out := make([]*member, k)
	for i, j := range idx {
		out[i] = r.members[j]
	}
	return out
}

// CompactStats reports what one compaction epoch did. Retired and
// MergedInto carry the cluster-identity changes signature provenance
// needs: a published signature whose source clusters all appear in
// Retired (after following MergedInto renames) has lost its population
// and is due for drift retirement.
type CompactStats struct {
	Epoch      int     // epoch number just completed
	Clusters   int     // live clusters after compaction
	Members    int     // total members after compaction
	Merged     int     // clusters folded into a neighbor
	Pruned     int     // stale clusters dropped
	Silhouette float64 // silhouette of the medoid clustering (0 when degenerate)

	Retired    []uint64          // IDs of clusters pruned as stale this epoch
	MergedInto map[uint64]uint64 // folded cluster ID → surviving cluster ID
}

// Compact advances the epoch: prune stale clusters, re-elect every
// medoid, then agglomerate the medoids (group-average, the paper's
// criterion) and merge clusters whose medoids sit below the join
// threshold. The returned silhouette scores the post-merge medoid
// partition and feeds the Service's publish quality gate.
func (c *Clusterer) Compact() CompactStats {
	c.epoch++
	st := CompactStats{Epoch: c.epoch}

	// Prune clusters that saw nothing for StaleEpochs epochs.
	kept := c.clusters[:0]
	for _, cl := range c.clusters {
		if c.epoch-cl.lastEpoch > c.cfg.StaleEpochs {
			st.Pruned++
			st.Retired = append(st.Retired, cl.id)
			continue
		}
		kept = append(kept, cl)
	}
	c.clusters = kept

	for _, cl := range c.clusters {
		c.electMedoid(cl)
	}

	// Merge: offline agglomeration over the medoids, cut at the same
	// threshold arrivals join under, so two clusters the online
	// assignment split (arrival order artifacts) re-fuse here.
	if len(c.clusters) >= 2 {
		// Profiles are built here, before the matrix fans out over
		// goroutines that only read them.
		medoids := make([]*distance.Profile, len(c.clusters))
		for i, cl := range c.clusters {
			medoids[i] = c.profile(cl.medoid)
		}
		mx := distance.NewProfileMatrix(c.metric, medoids)
		dend := cluster.Agglomerate(mx, cluster.GroupAverage)
		groups := dend.CutDistance(c.joinAt)
		merged := make([]*rolling, 0, len(groups))
		for _, g := range groups {
			dst := c.clusters[g[0]]
			for _, idx := range g[1:] {
				src := c.clusters[idx]
				for _, m := range src.members {
					dst.add(m, c.cfg.MaxMembers)
				}
				if src.lastEpoch > dst.lastEpoch {
					dst.lastEpoch = src.lastEpoch
				}
				if st.MergedInto == nil {
					st.MergedInto = make(map[uint64]uint64)
				}
				st.MergedInto[src.id] = dst.id
				st.Merged++
			}
			if len(g) > 1 {
				c.electMedoid(dst)
			}
			merged = append(merged, dst)
		}
		c.clusters = merged
		st.Silhouette = cluster.Silhouette(mx, groups)
	}

	st.Clusters = len(c.clusters)
	for _, cl := range c.clusters {
		st.Members += len(cl.members)
	}
	return st
}

// group is one live cluster's distillable view: its stable identity, the
// member packets of its current window, and the tenant mix of those
// members — the unit per-tenant signature sets are built from.
type group struct {
	ID      uint64
	Packets []*httpmodel.Packet
	Tenants map[string]int
}

// taggedGroups returns every cluster holding at least minSize packets as
// a Group with provenance. The packet slices are fresh copies of the
// member windows; the clusterer keeps no alias into them.
func (c *Clusterer) taggedGroups(minSize int) []group {
	if minSize < 1 {
		minSize = 1
	}
	var out []group
	for _, cl := range c.clusters {
		if len(cl.members) < minSize {
			continue
		}
		pkts := make([]*httpmodel.Packet, len(cl.members))
		for i, m := range cl.members {
			pkts[i] = m.p
		}
		out = append(out, group{ID: cl.id, Packets: pkts, Tenants: cl.tenants()})
	}
	return out
}

// Groups returns the member packet lists of every cluster holding at
// least minSize packets — the provenance-free form kept for callers that
// only need the paper's cluster → signature input shape.
func (c *Clusterer) Groups(minSize int) [][]*httpmodel.Packet {
	tagged := c.taggedGroups(minSize)
	out := make([][]*httpmodel.Packet, len(tagged))
	for i, g := range tagged {
		out[i] = g.Packets
	}
	return out
}

// Len returns the live cluster count.
func (c *Clusterer) Len() int { return len(c.clusters) }

// members returns the total packets held across clusters.
func (c *Clusterer) members() int {
	n := 0
	for _, cl := range c.clusters {
		n += len(cl.members)
	}
	return n
}

// rejectedCount returns how many arrivals were dropped because the cluster
// table was full and no medoid was within the join threshold.
func (c *Clusterer) rejectedCount() uint64 { return c.rejected }

// Distances returns how many full dpkt evaluations arrivals paid against
// medoids.
func (c *Clusterer) Distances() uint64 { return c.distances }

// Pruned returns how many medoids arrivals skipped on the destination
// bound alone. Distances + Pruned sums live clusters over arrivals, so
// Pruned / (Distances + Pruned) is the assignment's prune rate.
func (c *Clusterer) Pruned() uint64 { return c.pruned }
