package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// testMatrix is an in-memory DistanceMatrix.
type testMatrix struct {
	d [][]float64
}

func (m *testMatrix) N() int              { return len(m.d) }
func (m *testMatrix) At(i, j int) float64 { return m.d[i][j] }

func mat(d [][]float64) *testMatrix { return &testMatrix{d: d} }

func randomMatrix(rng *rand.Rand, n int) *testMatrix {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Distinct-ish values avoid tie ambiguity between algorithms.
			v := rng.Float64()*10 + float64(i*n+j)*1e-9
			d[i][j] = v
			d[j][i] = v
		}
	}
	return &testMatrix{d: d}
}

// naiveAgglomerate is the O(n^3) reference: repeatedly find the global
// minimum cluster pair and merge with Lance–Williams updates.
func naiveAgglomerate(dm DistanceMatrix, linkage Linkage) *Dendrogram {
	n := dm.N()
	d := &Dendrogram{NumLeaves: n}
	if n < 2 {
		return d
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			w[i][j] = dm.At(i, j)
		}
	}
	active := make([]bool, n)
	size := make([]int, n)
	node := make([]int, n)
	for i := range active {
		active[i] = true
		size[i] = 1
		node[i] = i
	}
	next := n
	for remaining := n; remaining > 1; remaining-- {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if w[i][j] < bd {
					bi, bj, bd = i, j, w[i][j]
				}
			}
		}
		na, nb := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			var dn float64
			switch linkage {
			case GroupAverage:
				dn = (na*w[bi][k] + nb*w[bj][k]) / (na + nb)
			case Single:
				dn = math.Min(w[bi][k], w[bj][k])
			case Complete:
				dn = math.Max(w[bi][k], w[bj][k])
			}
			w[bi][k], w[k][bi] = dn, dn
		}
		a, b := node[bi], node[bj]
		if a > b {
			a, b = b, a
		}
		size[bi] += size[bj]
		active[bj] = false
		d.Merges = append(d.Merges, Merge{A: a, B: b, Distance: bd, Size: size[bi]})
		node[bi] = next
		next++
	}
	return d
}

func TestAgglomerateTiny(t *testing.T) {
	// Three points on a line: 0 --1-- 1 ----4---- 2
	m := mat([][]float64{
		{0, 1, 5},
		{1, 0, 4},
		{5, 4, 0},
	})
	d := Agglomerate(m, GroupAverage)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) != 2 {
		t.Fatalf("merges = %d", len(d.Merges))
	}
	first := d.Merges[0]
	if first.A != 0 || first.B != 1 || first.Distance != 1 {
		t.Errorf("first merge = %+v", first)
	}
	second := d.Merges[1]
	// Group average of {0,1} to {2} is (5+4)/2 = 4.5.
	if second.Distance != 4.5 {
		t.Errorf("second merge distance = %v, want 4.5", second.Distance)
	}
	if second.Size != 3 {
		t.Errorf("root size = %d", second.Size)
	}
}

func TestLinkageCriteriaDiffer(t *testing.T) {
	m := mat([][]float64{
		{0, 1, 5},
		{1, 0, 3},
		{5, 3, 0},
	})
	ga := Agglomerate(m, GroupAverage).Merges[1].Distance
	sg := Agglomerate(m, Single).Merges[1].Distance
	cp := Agglomerate(m, Complete).Merges[1].Distance
	if sg != 3 {
		t.Errorf("single root = %v, want 3", sg)
	}
	if cp != 5 {
		t.Errorf("complete root = %v, want 5", cp)
	}
	if ga != 4 {
		t.Errorf("group-average root = %v, want 4", ga)
	}
}

// heights returns each merge's distance, in merge order.
func heights(d *Dendrogram) []float64 {
	out := make([]float64, len(d.Merges))
	for i, m := range d.Merges {
		out[i] = m.Distance
	}
	return out
}

func TestAgglomerateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, linkage := range []Linkage{GroupAverage, Single, Complete} {
		for trial := 0; trial < 25; trial++ {
			n := 2 + rng.Intn(30)
			m := randomMatrix(rng, n)
			got := Agglomerate(m, linkage)
			want := naiveAgglomerate(m, linkage)
			if err := got.Validate(); err != nil {
				t.Fatalf("%v n=%d: invalid dendrogram: %v", linkage, n, err)
			}
			gh := heights(got)
			wh := heights(want)
			sort.Float64s(gh)
			sort.Float64s(wh)
			for i := range gh {
				if math.Abs(gh[i]-wh[i]) > 1e-9 {
					t.Fatalf("%v n=%d: height[%d] = %v, naive %v", linkage, n, i, gh[i], wh[i])
				}
			}
			// Flat cuts must agree too. Cut strictly between adjacent merge
			// heights: thresholds exactly on a height are ambiguous under
			// floating-point accumulation-order differences.
			for _, q := range []float64{0.25, 0.5, 0.75} {
				i := int(q * float64(len(wh)))
				thr := wh[i]
				if i+1 < len(wh) {
					thr = (wh[i] + wh[i+1]) / 2
				} else {
					thr = wh[i] + 1
				}
				if !sameClustering(got.CutDistance(thr), want.CutDistance(thr)) {
					t.Fatalf("%v n=%d: cut@%v differs", linkage, n, thr)
				}
			}
		}
	}
}

func sameClustering(a, b [][]int) bool {
	key := func(cs [][]int) string {
		var parts []string
		for _, c := range cs {
			s := ""
			for _, x := range c {
				s += string(rune('A'+x%26)) + string(rune('0'+x/26))
			}
			parts = append(parts, s)
		}
		sort.Strings(parts)
		out := ""
		for _, p := range parts {
			out += p + "|"
		}
		return out
	}
	return key(a) == key(b)
}

func TestGroupAverageMonotone(t *testing.T) {
	// Group-average linkage is reducible, so NN-chain merge heights sorted
	// ascending must equal a valid monotone sequence (no inversions when
	// sorted); additionally CutCount(k) must nest as k decreases.
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, 40)
	d := Agglomerate(m, GroupAverage)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	prev := d.CutCount(40)
	if len(prev) != 40 {
		t.Fatalf("CutCount(40) = %d clusters", len(prev))
	}
	for k := 39; k >= 1; k-- {
		cur := d.CutCount(k)
		if len(cur) != k {
			t.Fatalf("CutCount(%d) = %d clusters", k, len(cur))
		}
		if !nests(cur, prev) {
			t.Fatalf("CutCount(%d) does not nest in CutCount(%d)", k, k+1)
		}
		prev = cur
	}
}

// nests reports whether every cluster of finer is contained in some cluster
// of coarser.
func nests(coarser, finer [][]int) bool {
	owner := make(map[int]int)
	for ci, c := range coarser {
		for _, x := range c {
			owner[x] = ci
		}
	}
	for _, f := range finer {
		first := owner[f[0]]
		for _, x := range f[1:] {
			if owner[x] != first {
				return false
			}
		}
	}
	return true
}

func TestCutDistanceExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 12)
	d := Agglomerate(m, GroupAverage)
	all := d.CutDistance(math.Inf(1))
	if len(all) != 1 || len(all[0]) != 12 {
		t.Errorf("cut at +inf = %v", all)
	}
	none := d.CutDistance(-1)
	if len(none) != 12 {
		t.Errorf("cut at -1 gives %d clusters", len(none))
	}
}

func TestCutCountClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 6)
	d := Agglomerate(m, GroupAverage)
	if got := d.CutCount(0); len(got) != 1 {
		t.Errorf("CutCount(0) = %d clusters", len(got))
	}
	if got := d.CutCount(100); len(got) != 6 {
		t.Errorf("CutCount(100) = %d clusters", len(got))
	}
}

func TestDegenerateInputs(t *testing.T) {
	empty := Agglomerate(mat(nil), GroupAverage)
	if err := empty.Validate(); err != nil {
		t.Error(err)
	}
	if got := empty.CutDistance(1); got != nil {
		t.Errorf("cut of empty = %v", got)
	}
	one := Agglomerate(mat([][]float64{{0}}), GroupAverage)
	if err := one.Validate(); err != nil {
		t.Error(err)
	}
	cs := one.CutDistance(0)
	if len(cs) != 1 || len(cs[0]) != 1 || cs[0][0] != 0 {
		t.Errorf("cut of singleton = %v", cs)
	}
}

func TestIdenticalPoints(t *testing.T) {
	// All-zero distances: everything merges at height 0.
	n := 5
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	dend := Agglomerate(mat(d), GroupAverage)
	if err := dend.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range dend.Merges {
		if m.Distance != 0 {
			t.Errorf("merge distance = %v, want 0", m.Distance)
		}
	}
	cs := dend.CutDistance(0)
	if len(cs) != 1 {
		t.Errorf("cut at 0 = %d clusters, want 1", len(cs))
	}
}

func TestValidateRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	good := Agglomerate(randomMatrix(rng, 8), GroupAverage)
	corrupt := []func(*Dendrogram){
		func(d *Dendrogram) { d.Merges = d.Merges[:len(d.Merges)-1] },
		func(d *Dendrogram) { d.Merges[0].A = d.Merges[0].B },
		func(d *Dendrogram) { d.Merges[0].A = 99 },
		func(d *Dendrogram) { d.Merges[len(d.Merges)-1].Size = 3 },
		func(d *Dendrogram) { d.Merges[1].A = d.Merges[0].A },
	}
	for i, f := range corrupt {
		c := &Dendrogram{NumLeaves: good.NumLeaves, Merges: append([]Merge(nil), good.Merges...)}
		f(c)
		if err := c.Validate(); err == nil {
			t.Errorf("corruption %d not detected", i)
		}
	}
}

func TestLinkageString(t *testing.T) {
	if GroupAverage.String() != "group-average" || Single.String() != "single" ||
		Complete.String() != "complete" || Linkage(9).String() != "unknown" {
		t.Error("linkage names")
	}
}

func TestTwoNaturalClustersRecovered(t *testing.T) {
	// Two well-separated blobs: leaves 0-3 mutually close, 4-7 mutually
	// close, inter-blob far. CutCount(2) must recover them exactly.
	n := 8
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var v float64
			if (i < 4) == (j < 4) {
				v = 0.1 + 0.05*rng.Float64()
			} else {
				v = 5 + rng.Float64()
			}
			d[i][j], d[j][i] = v, v
		}
	}
	dend := Agglomerate(mat(d), GroupAverage)
	cs := dend.CutCount(2)
	if len(cs) != 2 {
		t.Fatalf("clusters = %v", cs)
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	if !sameClustering(cs, want) {
		t.Errorf("clusters = %v, want %v", cs, want)
	}
}
