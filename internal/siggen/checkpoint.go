package siggen

import (
	"encoding/json"

	"leaksig/internal/durable"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// ckptFormat versions the learner checkpoint; a mismatch is treated as
// "no checkpoint" (the learner re-learns), never a boot failure.
const ckptFormat = 1

// ckptSample is one reservoir sample at rest. Packets serialize through
// their wire JSON; trace spans (runtime-only) are dropped, so restored
// packets re-enter the pipeline traceless — nil-span-safe everywhere.
type ckptSample struct {
	Tenant string            `json:"tenant"`
	Packet *httpmodel.Packet `json:"packet"`
}

// ckptCluster is one rolling cluster at rest. The medoid is serialized
// as its own packet: the live medoid pointer may reference a member the
// ring has since evicted, so an index into Members cannot represent it.
type ckptCluster struct {
	ID        uint64            `json:"id"`
	Members   []ckptSample      `json:"members"`
	Next      int               `json:"next"`
	Medoid    *httpmodel.Packet `json:"medoid"`
	LastEpoch int               `json:"last_epoch"`
}

// ckptCatalogEntry is one published-catalog entry at rest.
type ckptCatalogEntry struct {
	Sig     *signature.Signature `json:"sig"`
	Sources map[uint64]int       `json:"sources"`
	Tenants map[string]int       `json:"tenants"`
	Traces  []string             `json:"traces,omitempty"`
}

// ckptPub is one name's delivery state at rest.
type ckptPub struct {
	LastVersion     int64          `json:"last_version"`
	LastFingerprint string         `json:"last_fingerprint"`
	Pending         *signature.Set `json:"pending,omitempty"`
	PendingFP       string         `json:"pending_fp,omitempty"`
}

// ckptState is the learner's full durable state: everything retirement
// bookkeeping and version continuity need to survive a restart. RNG
// state is deliberately absent — math/rand streams are not serializable,
// so a restored service reseeds from Config.Seed; sampling remains
// deterministic per process, just not across the restart boundary.
type ckptState struct {
	Format int `json:"format"`

	Reservoirs map[string][]ckptSample `json:"reservoirs,omitempty"`
	Overflow   []ckptSample            `json:"overflow,omitempty"`

	ClusterEpoch  int           `json:"cluster_epoch"`
	ClusterNextID uint64        `json:"cluster_next_id"`
	Clusters      []ckptCluster `json:"clusters,omitempty"`

	Catalog map[string]ckptCatalogEntry `json:"catalog,omitempty"`
	Pubs    map[string]ckptPub          `json:"pubs,omitempty"`
}

// saveCheckpointLocked compacts the checkpoint journal to one record,
// the learner's state: temp file, sync, rename, directory sync, so a
// crash mid-save leaves the previous checkpoint whole. The snapshot and
// the write both hold s.mu, so it runs on epoch cadence and at Close,
// never per packet. A save that fails, or finds no journal open, counts
// in CheckpointErrors. Callers hold s.mu.
func (s *Service) saveCheckpointLocked() {
	if s.ckpt == nil {
		s.ckptErrors.Add(1)
		return
	}
	state := ckptState{
		Format:        ckptFormat,
		ClusterEpoch:  s.clusterer.epoch,
		ClusterNextID: s.clusterer.nextID,
	}
	if len(s.reservoirs) > 0 {
		state.Reservoirs = make(map[string][]ckptSample, len(s.reservoirs))
		for tenant, r := range s.reservoirs {
			state.Reservoirs[tenant] = samplesOut(r.buf)
		}
	}
	state.Overflow = samplesOut(s.overflow.buf)
	for _, cl := range s.clusterer.clusters {
		members := make([]ckptSample, len(cl.members))
		for i, m := range cl.members {
			members[i] = ckptSample{Tenant: m.tenant, Packet: m.p}
		}
		state.Clusters = append(state.Clusters, ckptCluster{
			ID: cl.id, Members: members, Next: cl.next,
			Medoid: cl.medoid.p, LastEpoch: cl.lastEpoch,
		})
	}
	if len(s.catalog) > 0 {
		state.Catalog = make(map[string]ckptCatalogEntry, len(s.catalog))
		for key, ps := range s.catalog {
			state.Catalog[key] = ckptCatalogEntry{
				Sig: ps.sig, Sources: ps.sources, Tenants: ps.tenants, Traces: ps.traces,
			}
		}
	}
	if len(s.pubs) > 0 {
		state.Pubs = make(map[string]ckptPub, len(s.pubs))
		for name, pub := range s.pubs {
			state.Pubs[name] = ckptPub{
				LastVersion:     pub.lastVersion,
				LastFingerprint: pub.lastFingerprint,
				Pending:         pub.pending,
				PendingFP:       pub.pendingFP,
			}
		}
	}
	payload, err := json.Marshal(state)
	if err == nil {
		err = s.ckpt.Compact([][]byte{payload})
	}
	if err != nil {
		s.ckptErrors.Add(1)
		return
	}
	s.ckptSaves.Add(1)
}

func samplesOut(buf []sample) []ckptSample {
	if len(buf) == 0 {
		return nil
	}
	out := make([]ckptSample, len(buf))
	for i, smp := range buf {
		out[i] = ckptSample{Tenant: smp.tenant, Packet: smp.p}
	}
	return out
}

// openCheckpoint opens the checkpoint journal at path and restores the
// learner's state from its last intact record, before NewService starts
// the owner goroutine. A journal that cannot be opened counts in
// CheckpointErrors, and the learner runs without one; an empty journal,
// or a last record that does not decode or carries another format,
// restores nothing. Either way the learner starts fresh and says nothing
// beyond Stats: re-learning beats refusing to boot.
func (s *Service) openCheckpoint(path string) {
	var last []byte
	j, err := durable.Open(path, durable.JournalConfig{Replay: func(p []byte) error {
		last = append(last[:0], p...)
		return nil
	}})
	if err != nil {
		s.ckptErrors.Add(1)
		return
	}
	s.ckpt = j
	var state ckptState
	if json.Unmarshal(last, &state) != nil || state.Format != ckptFormat {
		return
	}

	restored := 0
	for tenant, samples := range state.Reservoirs {
		if len(s.reservoirs) >= s.cfg.MaxTenantReservoirs {
			break
		}
		r := newReservoir(s.cfg.ReservoirSize)
		r.buf = samplesIn(samples, s.cfg.ReservoirSize)
		r.seen = uint64(len(r.buf))
		s.reservoirs[tenant] = r
		restored += len(r.buf)
	}
	s.overflow.buf = samplesIn(state.Overflow, s.cfg.ReservoirSize)
	s.overflow.seen = uint64(len(s.overflow.buf))
	restored += len(s.overflow.buf)
	// Restored samples count as new: the next timed epoch clusters them
	// instead of waiting for fresh traffic to clear MinNewSamples.
	s.newSamples += restored

	c := s.clusterer
	c.epoch = state.ClusterEpoch
	c.nextID = state.ClusterNextID
	c.clusters = c.clusters[:0]
	for _, ck := range state.Clusters {
		if len(ck.Members) == 0 || ck.Medoid == nil {
			continue
		}
		members := make([]*member, len(ck.Members))
		for i, m := range ck.Members {
			if m.Packet == nil {
				m.Packet = &httpmodel.Packet{}
			}
			members[i] = &member{p: m.Packet, tenant: m.Tenant}
		}
		next := ck.Next
		if next < 0 || next >= len(members) {
			next = 0
		}
		if ck.ID > c.nextID {
			c.nextID = ck.ID
		}
		c.clusters = append(c.clusters, &rolling{
			id: ck.ID, members: members, next: next,
			medoid: &member{p: ck.Medoid}, lastEpoch: ck.LastEpoch,
		})
	}

	for key, e := range state.Catalog {
		if e.Sig == nil {
			continue
		}
		s.catalog[key] = &publishedSig{
			sig: e.Sig, sources: e.Sources, tenants: e.Tenants, traces: e.Traces,
		}
	}
	for name, p := range state.Pubs {
		s.pubs[name] = &pubState{
			lastVersion:     p.LastVersion,
			lastFingerprint: p.LastFingerprint,
			pending:         p.Pending,
			pendingFP:       p.PendingFP,
		}
	}
	s.ckptRestored.Store(true)
}

func samplesIn(in []ckptSample, capacity int) []sample {
	if len(in) > capacity {
		in = in[:capacity]
	}
	out := make([]sample, 0, capacity)
	for _, smp := range in {
		if smp.Packet == nil {
			continue
		}
		out = append(out, sample{tenant: smp.Tenant, p: smp.Packet})
	}
	return out
}
