package cluster

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func twoBlobMatrix(rng *rand.Rand, n int) *testMatrix {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	half := n / 2
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var v float64
			if (i < half) == (j < half) {
				v = 0.1 + 0.05*rng.Float64()
			} else {
				v = 4 + rng.Float64()
			}
			d[i][j], d[j][i] = v, v
		}
	}
	return &testMatrix{d: d}
}

func TestSilhouetteSeparatesGoodFromBadCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := twoBlobMatrix(rng, 12)
	good := [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}}
	bad := [][]int{{0, 1, 2, 6, 7, 8}, {3, 4, 5, 9, 10, 11}}
	sg := Silhouette(m, good)
	sb := Silhouette(m, bad)
	if sg < 0.8 {
		t.Errorf("good cut silhouette = %v, want high", sg)
	}
	if sb >= sg {
		t.Errorf("bad cut silhouette %v >= good %v", sb, sg)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := twoBlobMatrix(rng, 6)
	if s := Silhouette(m, [][]int{{0, 1, 2, 3, 4, 5}}); s != 0 {
		t.Errorf("single cluster silhouette = %v", s)
	}
	if s := Silhouette(mat([][]float64{{0}}), [][]int{{0}}); s != 0 {
		t.Errorf("single point silhouette = %v", s)
	}
}

func TestSilhouetteSingletonsContributeZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := twoBlobMatrix(rng, 6)
	all := [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
	if s := Silhouette(m, all); s != 0 {
		t.Errorf("all-singleton silhouette = %v, want 0", s)
	}
}

func TestSilhouetteRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(12)
		m := randomMatrix(rng, n)
		d := Agglomerate(m, GroupAverage)
		for k := 2; k <= n; k++ {
			s := Silhouette(m, d.CutCount(k))
			if s < -1.0001 || s > 1.0001 {
				t.Fatalf("silhouette out of range: %v", s)
			}
		}
	}
}

func TestNewickBasic(t *testing.T) {
	m := mat([][]float64{
		{0, 1, 5},
		{1, 0, 4},
		{5, 4, 0},
	})
	d := Agglomerate(m, GroupAverage)
	nw := d.Newick(nil)
	if !strings.HasSuffix(nw, ";") {
		t.Fatalf("no terminator: %q", nw)
	}
	for _, leaf := range []string{"0", "1", "2"} {
		if !strings.Contains(nw, leaf) {
			t.Errorf("leaf %s missing from %q", leaf, nw)
		}
	}
	// Balanced parentheses.
	if strings.Count(nw, "(") != strings.Count(nw, ")") {
		t.Errorf("unbalanced: %q", nw)
	}
	// The first merge (0,1) at distance 1 must appear as a (0:..,1:..) group.
	if !strings.Contains(nw, "(0:1,1:1)") {
		t.Errorf("inner merge rendering: %q", nw)
	}
}

func TestNewickLabelsAndEscaping(t *testing.T) {
	m := mat([][]float64{
		{0, 1},
		{1, 0},
	})
	d := Agglomerate(m, GroupAverage)
	nw := d.Newick([]string{"admob.com", "host with space"})
	if !strings.Contains(nw, "admob.com") {
		t.Errorf("label missing: %q", nw)
	}
	if !strings.Contains(nw, "'host with space'") {
		t.Errorf("label not quoted: %q", nw)
	}
}

func TestNewickDegenerate(t *testing.T) {
	if got := (&Dendrogram{}).Newick(nil); got != ";" {
		t.Errorf("empty dendrogram = %q", got)
	}
	one := Agglomerate(mat([][]float64{{0}}), GroupAverage)
	if got := one.Newick(nil); got != "0;" {
		t.Errorf("single leaf = %q", got)
	}
	if got := one.Newick([]string{"leaf'name"}); !strings.Contains(got, "''") {
		t.Errorf("quote escaping = %q", got)
	}
}

func TestDendrogramJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := Agglomerate(randomMatrix(rng, 15), GroupAverage)
	var buf strings.Builder
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got dendrogramJSON
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got.NumLeaves != d.NumLeaves || len(got.Merges) != len(d.Merges) {
		t.Fatalf("round trip shape: %d/%d vs %d/%d",
			got.NumLeaves, len(got.Merges), d.NumLeaves, len(d.Merges))
	}
	for i := range d.Merges {
		if got.Merges[i] != d.Merges[i] {
			t.Fatalf("merge %d differs", i)
		}
	}
}
