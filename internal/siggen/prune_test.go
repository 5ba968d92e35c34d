package siggen

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"leaksig/internal/distance"
	"leaksig/internal/eval"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

// arrival is one miss as the clusterer sees it.
type arrival struct {
	p      *httpmodel.Packet
	tenant string
}

// adFamily fabricates n requests of one ad module, the shape the
// learn-epoch benchmark streams: the module's own host, address block,
// path and constant parameters (its id and the device identifier it
// leaks), differing per request only in noise. Every third request
// carries a cookie. Modules share nothing but the HTTP framing.
func adFamily(rng *rand.Rand, fam, n int) []*httpmodel.Packet {
	word := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	host := fmt.Sprintf("%s%03d.%s-%s.example.net", word(3), fam, word(6), word(4))
	ip := ipaddr.FromOctets(byte(11+rng.Intn(200)), byte(rng.Intn(256)), byte(fam>>8), byte(fam))
	path := "/" + word(6) + "/" + word(8)
	module, device := fmt.Sprintf("%016x", rng.Uint64()), fmt.Sprintf("%08x", rng.Uint32())
	out := make([]*httpmodel.Packet, n)
	for i := range out {
		b := httpmodel.Get(host, path).Dest(ip, 80).
			Query("mod", module).Query("udid", device).
			Query("seq", fmt.Sprintf("%06d", i)).Query("r", fmt.Sprintf("%08x", rng.Uint32()))
		if i%3 == 0 {
			b = b.Cookie("sid=" + word(12))
		}
		out[i] = b.Build()
	}
	return out
}

// familyStream interleaves fresh ad families with revisits of older ones
// (the last quarter of a random earlier family), spread over four tenants.
func familyStream(seed int64, families, per int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	var seen [][]*httpmodel.Packet
	for f := 0; f < families; f++ {
		fam := adFamily(rng, f, per)
		seen = append(seen, fam)
		tenant := fmt.Sprintf("tenant-%d", f%4)
		for _, p := range fam[:per*3/4] {
			out = append(out, arrival{p, tenant})
		}
		if f > 0 {
			old := rng.Intn(f)
			for _, p := range seen[old][per*3/4:] {
				out = append(out, arrival{p, fmt.Sprintf("tenant-%d", old%4)})
			}
		}
	}
	return out
}

// gradedStream fabricates n misses whose destinations sit at graded
// distances from each other (hosts a few edits apart, addresses in one
// /16, two ports) and whose request lines come from a few long templates
// with a short random tail, chosen independently of the destination.
// Unlike ad families, several medoids survive the join threshold on the
// bound alone, and a medoid with a close destination but a foreign
// template often loses to one further away that shares the template:
// the bound order disagrees with the distance order.
func gradedStream(seed int64, n int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	prefixes := []string{"ads", "adx", "ad", "trk", "track"}
	domains := []string{"net1.example", "net2.example", "netw.example"}
	templates := make([]string, 4)
	for i := range templates {
		templates[i] = fmt.Sprintf("/%x/%x/%x?", rng.Uint64(), rng.Uint64(), rng.Uint32())
	}
	out := make([]arrival, n)
	for i := range out {
		host := prefixes[rng.Intn(len(prefixes))] + "." + domains[rng.Intn(len(domains))]
		port := uint16(80)
		if rng.Intn(4) == 0 {
			port = 8080
		}
		path := templates[rng.Intn(len(templates))] + fmt.Sprintf("n=%d", rng.Intn(100))
		b := httpmodel.Get(host, path).Dest(ipaddr.FromOctets(10, 1, byte(rng.Intn(4)), byte(rng.Intn(256))), port)
		if rng.Intn(3) == 0 {
			b = b.Cookie(fmt.Sprintf("sid=%x", rng.Intn(16)))
		}
		out[i] = arrival{b.Build(), fmt.Sprintf("tenant-%d", i%3)}
	}
	return out
}

// suspiciousStream draws n suspicious packets from a small synthetic
// capture: the paper-shaped traffic the offline tests cluster.
func suspiciousStream(n int) []arrival {
	env := eval.NewEnv(trafficgen.Config{Seed: 1, NumApps: 120, TotalPackets: 6000})
	out := make([]arrival, 0, n)
	for _, p := range env.SampleSuspicious(3, n) {
		out = append(out, arrival{p, p.App})
	}
	return out
}

// checkSameClusters fails unless c holds exactly ref's clusters: IDs,
// medoid packets, member packets and tenants in ring order, ring cursors,
// epochs and the rejection count.
func checkSameClusters(t testing.TB, at string, c *Clusterer, ref *exhaustiveClusterer) {
	t.Helper()
	if len(c.clusters) != len(ref.clusters) || c.rejected != ref.rejected || c.nextID != ref.nextID || c.epoch != ref.epoch {
		t.Fatalf("%s: %d clusters, %d rejected, next ID %d, epoch %d; reference %d, %d, %d, %d", at,
			len(c.clusters), c.rejected, c.nextID, c.epoch, len(ref.clusters), ref.rejected, ref.nextID, ref.epoch)
	}
	for i, cl := range c.clusters {
		r := ref.clusters[i]
		if cl.id != r.id || cl.medoid.p != r.medoid || cl.next != r.next || cl.lastEpoch != r.lastEpoch || len(cl.members) != len(r.members) {
			t.Fatalf("%s: cluster %d is {id %d, medoid %p, next %d, epoch %d, %d members}; reference {%d, %p, %d, %d, %d}", at, i,
				cl.id, cl.medoid.p, cl.next, cl.lastEpoch, len(cl.members), r.id, r.medoid, r.next, r.lastEpoch, len(r.members))
		}
		for j, m := range cl.members {
			if m.p != r.members[j].p || m.tenant != r.members[j].tenant {
				t.Fatalf("%s: cluster %d member %d differs from the reference", at, cl.id, j)
			}
		}
	}
}

// checkSameGroups compares two taggedGroups results by packet identity.
func checkSameGroups(t testing.TB, at string, got, want []group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, reference %d", at, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || len(g.Packets) != len(w.Packets) || !reflect.DeepEqual(g.Tenants, w.Tenants) {
			t.Fatalf("%s: group %d is {%d, %d packets, %v}; reference {%d, %d, %v}", at, i,
				g.ID, len(g.Packets), g.Tenants, w.ID, len(w.Packets), w.Tenants)
		}
		for j := range g.Packets {
			if g.Packets[j] != w.Packets[j] {
				t.Fatalf("%s: group %d packet %d differs from the reference", at, g.ID, j)
			}
		}
	}
}

// lockstep feeds stream to a pruned Clusterer and the exhaustive
// reference, compacting both every `every` arrivals (and once at the
// end), and fails at the first step where they differ: the join
// decision, any cluster's identity, medoid or members, a CompactStats
// (merges and silhouette included), or the distillable groups. It
// returns the pruned clusterer for its counters.
func lockstep(t testing.TB, cfg ClusterConfig, stream []arrival, every int) *Clusterer {
	t.Helper()
	c := NewClusterer(cfg, 7)
	ref := newExhaustive(cfg, 7)
	compact := func(at string) {
		got, want := c.Compact(), ref.Compact()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Compact = %+v; reference %+v", at, got, want)
		}
		checkSameClusters(t, at, c, ref)
		checkSameGroups(t, at, c.taggedGroups(2), ref.taggedGroups(2))
	}
	for i, a := range stream {
		at := fmt.Sprintf("arrival %d", i)
		if got, want := c.ObserveTenant(a.p, a.tenant), ref.ObserveTenant(a.p, a.tenant); got != want {
			t.Fatalf("%s: retained = %v; reference %v", at, got, want)
		}
		checkSameClusters(t, at, c, ref)
		if every > 0 && (i+1)%every == 0 {
			compact(fmt.Sprintf("compaction after %s", at))
		}
	}
	compact("final compaction")
	if c.Distances()+c.Pruned() == 0 && len(stream) > 1 {
		t.Fatal("no medoid was ever considered")
	}
	return c
}

// TestObserveMatchesExhaustiveScan pins the pruned assignment, the
// profile-based elections and the profile medoid matrix to the
// exhaustive clusterer they replaced, step by step.
func TestObserveMatchesExhaustiveScan(t *testing.T) {
	small := ClusterConfig{MaxClusters: 12, MaxMembers: 12, ElectSample: 6, StaleEpochs: 2}
	families := familyStream(11, 14, 32)

	t.Run("families", func(t *testing.T) {
		c := lockstep(t, small, families, 64)
		// The bound must actually bite on destination-clustered traffic,
		// or this test compares two exhaustive scans.
		if c.Pruned() <= c.Distances() {
			t.Fatalf("pruned %d medoids for %d distances; the bound barely fired", c.Pruned(), c.Distances())
		}
	})
	t.Run("families/table-full", func(t *testing.T) {
		cfg := small
		cfg.MaxClusters = 3
		if c := lockstep(t, cfg, families, 80); c.rejectedCount() == 0 {
			t.Fatal("a 3-cluster table never rejected; the reject path went untested")
		}
	})
	t.Run("graded-destinations", func(t *testing.T) {
		lockstep(t, ClusterConfig{MaxClusters: 24, MaxMembers: 8, ElectSample: 4, JoinFraction: 0.12}, gradedStream(9, 200), 50)
	})
	t.Run("suspicious", func(t *testing.T) {
		lockstep(t, small, suspiciousStream(240), 60)
	})
	t.Run("duplicate-pointers", func(t *testing.T) {
		// The same packets arrive again and again, and copies with equal
		// content: an election samples one packet as several members,
		// which must not count against each other, and a copy ties its
		// original's distances exactly.
		rng := rand.New(rand.NewSource(5))
		var stream []arrival
		base := append(adFamily(rng, 1, 6), adFamily(rng, 2, 6)...)
		for round := 0; round < 4; round++ {
			for i, p := range base {
				stream = append(stream, arrival{p, "dup"})
				q := *p
				stream = append(stream, arrival{&q, fmt.Sprintf("copy-%d", i%2)})
			}
		}
		lockstep(t, ClusterConfig{MaxClusters: 6, MaxMembers: 8, ElectSample: 4}, stream, 16)
	})
	t.Run("literal-mode", func(t *testing.T) {
		cfg := small
		cfg.Distance.Mode = distance.ModeLiteral
		lockstep(t, cfg, families[:150], 50)
	})
	t.Run("no-destination-term", func(t *testing.T) {
		cfg := small
		cfg.Distance.DestinationWeight = -1
		c := lockstep(t, cfg, families[:120], 40)
		// With w_dst = 0 every bound is 0: nothing clears the join
		// threshold on the bound alone and nothing is skipped unless an
		// exact zero distance was already found.
		if c.Pruned() != 0 {
			t.Fatalf("pruned %d medoids on an all-zero bound", c.Pruned())
		}
	})
}

// TestProfilePacketIsMetricPacket checks the profile path against
// Metric.Packet bit for bit on random pairs, empty fields included.
func TestProfilePacketIsMetricPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ps []*httpmodel.Packet
	for f := 0; f < 4; f++ {
		ps = append(ps, adFamily(rng, f, 5)...)
	}
	ps = append(ps,
		httpmodel.Post("form.example", "/submit").Dest(ipaddr.FromOctets(10, 0, 0, 1), 443).
			Form("imei", "358240051111110", "lat", "35.6").Build(),
		httpmodel.Post("form.example", "/submit").Dest(ipaddr.FromOctets(10, 0, 0, 2), 443).
			Cookie("a=b").BodyString("x").Build(),
		&httpmodel.Packet{}, // every content field empty
	)
	for _, mode := range []distance.Mode{distance.ModeNormalized, distance.ModeLiteral} {
		for _, wd := range []float64{0, -1, 0.5} {
			cfg := distance.Config{Mode: mode, DestinationWeight: wd, ContentWeight: 1.5}
			m := distance.New(cfg)
			c := NewClusterer(ClusterConfig{Distance: cfg}, 1)
			profs := make([]*distance.Profile, len(ps))
			for i, p := range ps {
				profs[i] = c.metric.Profile(p)
			}
			for i := 0; i < 200; i++ {
				x, y := rng.Intn(len(ps)), rng.Intn(len(ps))
				want := m.Packet(ps[x], ps[y])
				bound := c.metric.LowerBound(ps[x], ps[y])
				if got := c.metric.PacketFrom(bound, profs[x], profs[y]); got != want {
					t.Fatalf("%v w_dst=%v pair (%d,%d): profile distance %v, Metric.Packet %v", mode, wd, x, y, got, want)
				}
				if got := c.metric.ProfilePacket(profs[x], profs[y]); got != want {
					t.Fatalf("%v w_dst=%v pair (%d,%d): ProfilePacket %v, Metric.Packet %v", mode, wd, x, y, got, want)
				}
				if bound > want {
					t.Fatalf("%v w_dst=%v pair (%d,%d): bound %v above distance %v", mode, wd, x, y, bound, want)
				}
			}
		}
	}
}

// TestServiceMatchesExhaustive runs two services on the same misses for
// eight epochs, one clustering with the pruned Clusterer and one with
// the exhaustive reference, and requires every set they publish to carry
// the same fingerprint.
func TestServiceMatchesExhaustive(t *testing.T) {
	stream := familyStream(23, 24, 24)
	// One private reservoir, the rest overflow: both services then
	// cluster in arrival order.
	got, want := publishedOver(t, stream, 1, false), publishedOver(t, stream, 1, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("published sets differ from the reference:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
	nonEmpty := 0
	for _, s := range got {
		if !strings.HasPrefix(s, "--") && !strings.HasSuffix(s, "=") {
			nonEmpty++
		}
	}
	if nonEmpty < 8 {
		t.Fatalf("only %d non-empty publishes in eight epochs; the check compares too little:\n%s", nonEmpty, strings.Join(got, "\n"))
	}
}

// TestTenantReservoirsDrainInKeyOrder keys the paper-shaped suspicious
// traffic by app, so every epoch feeds the order-sensitive clusterer
// eight private tenant reservoirs and the overflow in turn: fresh
// services on the same misses must still publish the same sets, however
// the map holding the reservoirs iterates. Drained in map order, ten of
// ten runs published other sets than the first.
func TestTenantReservoirsDrainInKeyOrder(t *testing.T) {
	stream := suspiciousStream(480)
	want := publishedOver(t, stream, 8, false)
	for run := 1; run <= 4; run++ {
		if got := publishedOver(t, stream, 8, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d published other sets than run 0:\n got %s\nwant %s", run, strings.Join(got, "\n     "), strings.Join(want, "\n     "))
		}
	}
}

// publishedOver runs one fresh tenant-sets service, with reservoirs
// private tenant reservoirs (the pruned clusterer, or the exhaustive
// reference), over stream in eight epochs and returns every set it
// publishes as name=fingerprint, each epoch closed by a marker line.
func publishedOver(t *testing.T, stream []arrival, reservoirs int, reference bool) []string {
	t.Helper()
	var published []string
	svc := NewService(Config{
		Cluster:             ClusterConfig{MaxClusters: 16, MaxMembers: 16, ElectSample: 6, StaleEpochs: 2},
		TenantSets:          true,
		MaxTenantReservoirs: reservoirs,
		OnPublish: func(name string, set *signature.Set) {
			published = append(published, name+"="+setFingerprint(set))
		},
	})
	defer svc.Close()
	if reference {
		svc.mu.Lock()
		svc.stage = newExhaustive(svc.cfg.Cluster, svc.cfg.Seed)
		svc.mu.Unlock()
	}
	per := len(stream) / 8
	for epoch := 0; epoch < 8; epoch++ {
		for _, a := range stream[epoch*per : (epoch+1)*per] {
			if !svc.Observe(a.tenant, a.p) {
				t.Fatal("intake dropped a miss")
			}
		}
		if _, err := svc.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		published = append(published, fmt.Sprintf("-- epoch %d", epoch))
	}
	return published
}

// TestLearnerMemoryBounded streams 5×10⁴ misses, every one with its own
// request line and destination, through a clusterer with the default
// table bounds, and requires the live heap to stay flat between the 10⁴
// mark and the end: the learner keeps compressed lengths on the members
// it holds, not in a memo keyed by every line it has seen. The memo the
// clusterer once used (a C(x) cache behind the default metric) grew by
// 4.9 MB over the same stretch of this stream, one entry per miss; this
// learner grows by about 1 KB.
func TestLearnerMemoryBounded(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("streams 5×10⁴ misses through the compressor on one goroutine")
	}
	const (
		total     = 50_000
		mark      = 10_000
		perFamily = 250 // misses per ad module before the next one starts
		epoch     = 1_000
		maxGrowth = 1 << 20
	)
	c := NewClusterer(ClusterConfig{ElectSample: 4, StaleEpochs: 2}, 1)
	heap := func() uint64 {
		// Twice: the first collection only moves the compressor pool's
		// 700 KB compression states to its victim cache.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	rng := rand.New(rand.NewSource(1))
	var atMark uint64
	var domain, module string
	for i := 0; i < total; i++ {
		fam, seq := i/perFamily, i%perFamily
		if seq == 0 {
			domain = fmt.Sprintf("%08x.example.net", rng.Uint32())
			module = fmt.Sprintf("sdk=%016x&udid=%016x", rng.Uint64(), rng.Uint64())
		}
		p := httpmodel.Get(fmt.Sprintf("n%03d.%s", seq, domain),
			fmt.Sprintf("/m%04d/ad/fetch?%s&seq=%06d&r=%08x", fam, module, i, rng.Uint32())).
			Dest(ipaddr.FromOctets(byte(11+fam%200), byte(fam>>8), byte(fam), byte(seq)), 80).Build()
		c.Observe(p)
		if (i+1)%epoch == 0 {
			c.Compact()
		}
		if i+1 == mark {
			atMark = heap()
		}
	}
	end := heap()
	growth := int64(end) - int64(atMark)
	t.Logf("heap %d KB at %d misses, %d KB at %d; %d clusters, %d members, %d distances, %d pruned",
		atMark>>10, mark, end>>10, total, c.Len(), c.members(), c.Distances(), c.Pruned())
	if growth > maxGrowth {
		t.Fatalf("learner heap grew %d KB between %d and %d misses, bound %d KB", growth>>10, mark, total, maxGrowth>>10)
	}
	if c.Distances() < total/2 {
		t.Fatalf("only %d full distances over %d misses: the stream no longer exercises member profiles", c.Distances(), total)
	}
}

// FuzzObserveVsExhaustive compares the pruned assignment with the
// exhaustive reference on fuzzed hosts, addresses, ports, request lines
// and cookies. Each byte of order picks one packet's host, line and
// cookie from the newline-separated vocabularies and its address and
// port from addrs, so small inputs produce many near-ties.
func FuzzObserveVsExhaustive(f *testing.F) {
	f.Add("ads.example\nads.example.net\ncdn.example", "/a?x=1\n/a?x=2\n/b", "\nsid=1", []byte{10, 0, 0, 1, 0, 80, 10, 0, 0, 2, 1, 187}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 9, 33, 65, 200})
	f.Add("x\nx\ny", "/\n/\n/", "", []byte{1, 2, 3, 4, 5, 6}, []byte{0, 0, 0, 0, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, hosts, lines, cookies string, addrs, order []byte) {
		if len(order) > 48 || len(hosts)+len(lines)+len(cookies) > 2048 || len(addrs) < 6 {
			return
		}
		hs, ls, cs := strings.Split(hosts, "\n"), strings.Split(lines, "\n"), strings.Split(cookies, "\n")
		stream := make([]arrival, len(order))
		for i, b := range order {
			k := int(b)
			a := addrs[(k*6)%(len(addrs)-5):]
			p := &httpmodel.Packet{
				Method: "GET", Proto: "HTTP/1.1",
				Host:    hs[k%len(hs)],
				Path:    ls[(k/3)%len(ls)],
				DstIP:   ipaddr.FromOctets(a[0], a[1], a[2], a[3]),
				DstPort: uint16(a[4])<<8 | uint16(a[5]),
			}
			if c := cs[(k/7)%len(cs)]; c != "" {
				p.Headers = []httpmodel.Header{{Name: "Cookie", Value: c}}
			}
			stream[i] = arrival{p, fmt.Sprintf("t%d", k%3)}
		}
		lockstep(t, ClusterConfig{MaxClusters: 5, MaxMembers: 6, ElectSample: 4, StaleEpochs: 1}, stream, 12)
	})
}
