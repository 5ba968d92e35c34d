package siggen

import (
	"math/rand"

	"leaksig/internal/cluster"
	"leaksig/internal/distance"
	"leaksig/internal/httpmodel"
)

// refRolling is one cluster of the reference clusterer.
type refRolling struct {
	id        uint64
	members   []member
	next      int
	medoid    *httpmodel.Packet
	lastEpoch int
}

func (r *refRolling) add(m member, maxMembers int) {
	if len(r.members) < maxMembers {
		r.members = append(r.members, m)
		return
	}
	r.members[r.next] = m
	r.next = (r.next + 1) % len(r.members)
}

// exhaustiveClusterer is the rolling clusterer without pruning or
// profiles: every arrival pays a full metric.Packet against every live
// medoid, and elections and the medoid matrix go through metric.Packet,
// which compresses both fields of every pair afresh. Clusterer used to
// be exactly this; it now exists only as the differential reference the
// pruned one is tested against. It draws the election rng exactly as
// Clusterer does, so equal seeds sample equal members.
type exhaustiveClusterer struct {
	cfg    ClusterConfig
	metric *distance.Metric
	joinAt float64
	rng    *rand.Rand

	clusters []*refRolling
	epoch    int
	nextID   uint64
	rejected uint64
}

func newExhaustive(cfg ClusterConfig, seed int64) *exhaustiveClusterer {
	cfg = cfg.withDefaults()
	m := distance.New(cfg.Distance)
	return &exhaustiveClusterer{
		cfg:    cfg,
		metric: m,
		joinAt: cfg.JoinFraction * m.MaxValue(),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func (c *exhaustiveClusterer) ObserveTenant(p *httpmodel.Packet, tenant string) bool {
	best, bestD := -1, 0.0
	for i, cl := range c.clusters {
		d := c.metric.Packet(p, cl.medoid)
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	if best >= 0 && bestD <= c.joinAt {
		cl := c.clusters[best]
		cl.add(member{p: p, tenant: tenant}, c.cfg.MaxMembers)
		cl.lastEpoch = c.epoch
		return true
	}
	if len(c.clusters) < c.cfg.MaxClusters {
		c.nextID++
		c.clusters = append(c.clusters, &refRolling{
			id:        c.nextID,
			members:   []member{{p: p, tenant: tenant}},
			medoid:    p,
			lastEpoch: c.epoch,
		})
		return true
	}
	c.rejected++
	return false
}

func (c *exhaustiveClusterer) electMedoid(r *refRolling) {
	n := len(r.members)
	if n <= 2 {
		r.medoid = r.members[0].p
		return
	}
	candidates := c.sampleMembers(r, c.cfg.ElectSample)
	refs := c.sampleMembers(r, c.cfg.ElectSample)
	best, bestSum := r.medoid, -1.0
	for _, cand := range candidates {
		sum := 0.0
		for _, ref := range refs {
			if ref != cand {
				sum += c.metric.Packet(cand, ref)
			}
		}
		if bestSum < 0 || sum < bestSum {
			best, bestSum = cand, sum
		}
	}
	r.medoid = best
}

func (c *exhaustiveClusterer) sampleMembers(r *refRolling, k int) []*httpmodel.Packet {
	n := len(r.members)
	if n <= k {
		out := make([]*httpmodel.Packet, n)
		for i, m := range r.members {
			out[i] = m.p
		}
		return out
	}
	idx := c.rng.Perm(n)[:k]
	out := make([]*httpmodel.Packet, k)
	for i, j := range idx {
		out[i] = r.members[j].p
	}
	return out
}

func (c *exhaustiveClusterer) Compact() CompactStats {
	c.epoch++
	st := CompactStats{Epoch: c.epoch}
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
	if len(c.clusters) >= 2 {
		medoids := make([]*httpmodel.Packet, len(c.clusters))
		for i, cl := range c.clusters {
			medoids[i] = cl.medoid
		}
		mx := distance.NewMatrix(c.metric, medoids)
		dend := cluster.Agglomerate(mx, cluster.GroupAverage)
		groups := dend.CutDistance(c.joinAt)
		merged := make([]*refRolling, 0, len(groups))
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

func (c *exhaustiveClusterer) taggedGroups(minSize int) []group {
	if minSize < 1 {
		minSize = 1
	}
	var out []group
	for _, cl := range c.clusters {
		if len(cl.members) < minSize {
			continue
		}
		pkts := make([]*httpmodel.Packet, len(cl.members))
		tenants := make(map[string]int, 4)
		for i, m := range cl.members {
			pkts[i] = m.p
			tenants[m.tenant]++
		}
		out = append(out, group{ID: cl.id, Packets: pkts, Tenants: tenants})
	}
	return out
}
