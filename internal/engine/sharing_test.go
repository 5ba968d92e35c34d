package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/reference"
	"leaksig/internal/signature"
)

// TestPoolSharedGenerationSchedule is the guard on compile sharing: one
// compiled generation now serves every unpinned tenant, which is a new
// way to answer a tenant from the wrong set. A seeded schedule of
// pool-wide reloads, per-tenant pins, evictions and first-use creations
// runs over 8 unpinned and 2 pinned tenants; the sets overlap in token
// text (tokens that are prefixes and infixes of each other), mix
// conjunction and subsequence signatures, and number similar signatures
// differently, so a verdict from the wrong set shows as a wrong ID even
// when the same packets leak; every set also holds a conjunction token
// that spans a field boundary of two cookie probes. After every step every tenant must answer
// each probe exactly as reference.Match does on the set that tenant
// is supposed to be on, at that set's version.
func TestPoolSharedGenerationSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	vocab := []string{"udid=", "udid=f3a9", "f3a9", "f3a9c1d2", "imei=35", "=35", "zone=1", "sess"}
	hosts := []string{"a.ads.example", "track.example", "cdn.other"}
	suffixes := []string{"", "", "ads.example", "example", "absent.example"}

	var version int64
	newSet := func() *signature.Set {
		version++
		set := &signature.Set{Version: version}
		ids := rng.Perm(20)
		for i := 0; i < 3+rng.Intn(4); i++ {
			sig := &signature.Signature{ID: ids[i], ClusterSize: 2, HostSuffix: suffixes[rng.Intn(len(suffixes))]}
			for k := 0; k < 1+rng.Intn(3); k++ {
				sig.Tokens = append(sig.Tokens, vocab[rng.Intn(len(vocab))])
			}
			if rng.Intn(3) == 0 {
				sig.Kind = signature.KindSubsequence
			}
			set.Signatures = append(set.Signatures, sig)
		}
		// A conjunction token spanning the request line into the
		// cookie, which the cookie probes below start with: it must
		// never match.
		set.Signatures = append(set.Signatures, &signature.Signature{
			ID: ids[len(set.Signatures)], ClusterSize: 2, Tokens: []string{"HTTP/1.1\nsess"}})
		return set
	}
	var probes []*httpmodel.Packet
	for i := 0; i < 12; i++ {
		payload := ""
		for k := 0; k < rng.Intn(4); k++ {
			payload += vocab[rng.Intn(len(vocab))] + "&"
		}
		probes = append(probes, pkt(int64(i), hosts[rng.Intn(len(hosts))], payload))
	}
	for i, cookie := range []string{"sess=1", "sess=2; udid=f3a9c1d2"} {
		pk := pkt(int64(len(probes)), hosts[i], "zone=1&")
		pk.Headers = []httpmodel.Header{{Name: "Cookie", Value: cookie}}
		probes = append(probes, pk)
	}

	unpinned := []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7"}
	pinned := []string{"p0", "p1"}
	all := append(append([]string{}, unpinned...), pinned...)

	// The model: which set each tenant is supposed to be on.
	def := newSet()
	pins := map[string]*signature.Set{}
	p := NewPool(def, PoolConfig{Engine: Config{Shards: 1}})
	defer p.Close()
	for _, k := range pinned {
		pins[k] = newSet()
		p.ReloadTenant(k, pins[k])
	}
	liveGeneration := func(key string) *detect.Engine {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return p.tenants[key].eng.set.Load().eng
	}
	check := func(step int, op string) {
		t.Helper()
		for _, key := range all { // first use (re)creates an evicted tenant
			want := def
			if pin, ok := pins[key]; ok {
				want = pin
			}
			for _, pk := range probes {
				v := p.Tenant(key).Vet(pk)
				if ref := reference.Match(want, pk); v.Version != want.Version || !slices.Equal(v.Matched, ref) {
					t.Fatalf("step %d (%s): tenant %s answers %v at version %d for %q on %s; its set (version %d) says %v",
						step, op, key, v.Matched, v.Version, pk.Path, pk.Host, want.Version, ref)
				}
			}
		}
	}
	check(0, "start")

	for step := 1; step <= 150; step++ {
		var op string
		switch r := rng.Intn(10); {
		case r < 4:
			op = "Reload"
			before := p.Metrics().Aggregate
			def = newSet()
			p.Reload(def)
			after := p.Metrics().Aggregate
			if c, r := after.Compiles-before.Compiles, after.Reloads-before.Reloads; c != 1 || r != int64(len(unpinned)) {
				t.Fatalf("step %d: Pool.Reload over %d unpinned tenants cost %d compiles and %d installs, want 1 and %d",
					step, len(unpinned), c, r, len(unpinned))
			}
			shared := liveGeneration(unpinned[0])
			for _, k := range unpinned[1:] {
				if liveGeneration(k) != shared {
					t.Fatalf("step %d: unpinned tenants %s and %s hold different compiled generations after Pool.Reload", step, unpinned[0], k)
				}
			}
			for _, k := range pinned {
				if liveGeneration(k) == shared {
					t.Fatalf("step %d: pinned tenant %s shares the pool's default generation", step, k)
				}
			}
		case r < 6:
			key := pinned[rng.Intn(len(pinned))]
			op = "ReloadTenant " + key
			pins[key] = newSet()
			p.ReloadTenant(key, pins[key])
		case r < 9:
			key := all[rng.Intn(len(all))]
			op = "Evict " + key
			p.evict(key)
		default:
			// Evict two at once, so the check's first use recreates one
			// while the other is still absent.
			op = fmt.Sprintf("Evict %s+%s", unpinned[step%8], pinned[step%2])
			p.evict(unpinned[step%8])
			p.evict(pinned[step%2])
		}
		check(step, op)
	}
}
