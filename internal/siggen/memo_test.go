package siggen

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
)

// windowChange is one group that kept its ID from one epoch to the next
// while its member window changed.
type windowChange struct {
	epoch int
	id    uint64
	// cause is "merge" when Compact folded another cluster into it,
	// "eviction" when its window was already full (so an arrival
	// overwrote a member), and "growth" otherwise.
	cause string
	// retokened reports that the new window's tokens differ from the
	// old one's: a memo that handed out the old tokens would be wrong.
	retokened bool
}

// memoEpochs clusters each epoch's misses with cfg and, after each
// compaction, distills the live groups twice: through one memo carried
// across the epochs, and through a fresh memo, as if every window were
// new. It fails unless both return the same candidates and stats. It
// returns the extractions each way took, and every window change.
func memoEpochs(t *testing.T, cfg ClusterConfig, epochs [][]arrival) (carried, fresh int, changes []windowChange) {
	t.Helper()
	var corpus []*httpmodel.Packet
	for i := 0; i < 100; i++ {
		corpus = append(corpus, benignPacket(i))
	}
	train, hold := splitBenign(corpus)
	opts := signature.Options{MinClusterSize: 3}

	c := NewClusterer(cfg, 1)
	memo := new(tokenMemo)
	last := map[uint64][]*httpmodel.Packet{}
	candidates := 0
	for epoch, misses := range epochs {
		for _, a := range misses {
			c.ObserveTenant(a.p, a.tenant)
		}
		cs := c.Compact()
		groups := c.taggedGroups(opts.MinClusterSize)
		before := map[uint64][]string{}
		for id, e := range memo.cur {
			before[id] = e.tokens
		}

		got, gotSt := distill(memo, groups, train, hold, nil, opts, 0.01)
		once := new(tokenMemo)
		want, wantSt := distill(once, groups, train, hold, nil, opts, 0.01)
		fresh += once.extracted
		if !reflect.DeepEqual(got, want) || gotSt != wantSt {
			t.Fatalf("epoch %d: distill through the carried memo differs from a fresh extraction:\n got %+v %s\nwant %+v %s",
				epoch, gotSt, describe(got), wantSt, describe(want))
		}
		candidates += len(got)

		merged := map[uint64]bool{}
		for _, dst := range cs.MergedInto {
			merged[dst] = true
		}
		now := map[uint64][]*httpmodel.Packet{}
		for _, g := range groups {
			now[g.ID] = g.Packets
			old, ok := last[g.ID]
			if !ok || slices.Equal(old, g.Packets) {
				continue
			}
			cause := "growth"
			switch {
			case merged[g.ID]:
				cause = "merge"
			case len(old) == cfg.MaxMembers:
				cause = "eviction"
			}
			changes = append(changes, windowChange{epoch, g.ID, cause,
				!slices.Equal(before[g.ID], memo.cur[g.ID].tokens)})
		}
		last = now
	}
	if candidates == 0 {
		t.Fatal("no epoch distilled a candidate; the comparison covers nothing")
	}
	return memo.extracted, fresh, changes
}

// inEpochs deals stream into n epochs of equal length.
func inEpochs(stream []arrival, n int) [][]arrival {
	per := len(stream) / n
	out := make([][]arrival, n)
	for i := range out {
		out[i] = stream[i*per : (i+1)*per]
	}
	return out
}

// mergingModule returns two epochs of one ad module's misses that the
// clusterer first keeps apart and then merges. Epoch 1 seeds cluster A
// with requests to port 8080 that carry an extra parameter, and cluster
// B with plain requests to port 80: the port and the parameter together
// put them past the join threshold. Epoch 2 sends port-80 requests that
// carry the parameter. They join B, B's re-elected medoid moves within
// the threshold of A's, and Compact folds B into A. A gets no arrival of
// its own, so only the merge changes its window, and its tokens lose the
// parameter.
func mergingModule() [][]arrival {
	const ext = "9d1e7c3b5a08f2e46b3c9a1d70e58f2b4c6a9e1d3f5b7c08a2e4d6f8091b3c5e"
	miss := func(i int, port uint16, withExt bool) arrival {
		b := httpmodel.Get("ads.merge-net.example", "/sdk/v2/fetch").
			Dest(ipaddr.FromOctets(10, 9, 8, 7), port).
			Query("mod", "5f0c2a9e71d3b846").Query("udid", "e1b7a3c95d20f468")
		if withExt {
			b = b.Query("ext", ext)
		}
		return arrival{b.Query("seq", fmt.Sprintf("%04d", i)).Build(), "tenant-0"}
	}
	var first, second []arrival
	for i := 0; i < 3; i++ {
		first = append(first, miss(i, 8080, true))
	}
	for i := 3; i < 6; i++ {
		first = append(first, miss(i, 80, false))
	}
	for i := 6; i < 11; i++ {
		second = append(second, miss(i, 80, true))
	}
	return [][]arrival{first, second}
}

// describe renders candidates with their provenance for a failure
// message.
func describe(cands []candidate) string {
	s := ""
	for _, c := range cands {
		s += fmt.Sprintf("\n  %s sources=%v tenants=%v", c.sig, c.sources, c.tenants)
	}
	return s
}

// TestDistillMemoMatchesFreshExtraction runs twelve epochs of several ad
// family streams and requires distill through the memo the epochs carry
// to return what distill returns extracting every window afresh, while
// extracting fewer windows.
func TestDistillMemoMatchesFreshExtraction(t *testing.T) {
	for _, seed := range []int64{3, 11, 23, 41} {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			cfg := ClusterConfig{MaxClusters: 16, MaxMembers: 16, ElectSample: 6, StaleEpochs: 2}
			carried, fresh, _ := memoEpochs(t, cfg, inEpochs(familyStream(seed, 24, 24), 12))
			t.Logf("%d extractions through the memo, %d fresh", carried, fresh)
			if carried >= fresh {
				t.Fatalf("the memo saved nothing: %d extractions, %d fresh", carried, fresh)
			}
		})
	}
}

// TestDistillMemoReextractsChangedWindows covers clusters that keep their
// ID while their window changes: by eviction past MaxMembers, and by a
// Compact merge. Each stream must produce such a change whose tokens
// differ from the old window's, and distill must still match a fresh
// extraction; a memo keyed on the cluster ID alone fails here.
func TestDistillMemoReextractsChangedWindows(t *testing.T) {
	cases := []struct {
		cause  string
		cfg    ClusterConfig
		epochs [][]arrival
	}{
		{"eviction", ClusterConfig{MaxClusters: 16, MaxMembers: 4, ElectSample: 4, StaleEpochs: 2}, inEpochs(familyStream(7, 24, 24), 12)},
		{"merge", ClusterConfig{MaxClusters: 16, MaxMembers: 16, ElectSample: 6, StaleEpochs: 2}, mergingModule()},
	}
	for _, tc := range cases {
		t.Run(tc.cause, func(t *testing.T) {
			_, _, changes := memoEpochs(t, tc.cfg, tc.epochs)
			n := 0
			for _, ch := range changes {
				if ch.cause == tc.cause && ch.retokened {
					n++
				}
			}
			t.Logf("%d window changes, %d by %s with new tokens", len(changes), n, tc.cause)
			if n == 0 {
				t.Fatalf("no %s changed a window's tokens; the case covers nothing: %+v", tc.cause, changes)
			}
		})
	}
}

// BenchmarkDistillSteadyState times one epoch's distill in the learner's
// steady state: eight groups of sixteen ad-module misses, of which seven
// kept their window since the last epoch and one changed it (one member
// in, one out), against 250 benign packets for training and 250 held
// out. extractions/op counts the windows extracted rather than reused.
func BenchmarkDistillSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	groups := make([]group, 8)
	var windows [2][]*httpmodel.Packet
	for i := range groups {
		fam := adFamily(rng, i, 17)
		groups[i] = group{ID: uint64(i + 1), Packets: fam[:16], Tenants: map[string]int{"tenant-0": 16}}
		if i == 0 {
			windows = [2][]*httpmodel.Packet{fam[:16], fam[1:]}
		}
	}
	var corpus []*httpmodel.Packet
	for i := 0; i < 500; i++ {
		corpus = append(corpus, benignPacket(i))
	}
	train, hold := splitBenign(corpus)
	opts := signature.Options{MinClusterSize: 3}
	memo := new(tokenMemo)
	if cands, _ := distill(memo, groups, train, hold, nil, opts, 0.01); len(cands) == 0 {
		b.Fatal("no candidates: the benchmark distills nothing")
	}
	start, n := memo.extracted, 0
	b.ReportAllocs()
	for b.Loop() {
		n++
		groups[0].Packets = windows[n%2]
		distill(memo, groups, train, hold, nil, opts, 0.01)
	}
	b.ReportMetric(float64(memo.extracted-start)/float64(n), "extractions/op")
}
