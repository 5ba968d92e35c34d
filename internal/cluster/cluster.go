// Package cluster implements agglomerative hierarchical clustering over a
// precomputed distance matrix (§IV-D of the paper).
//
// The paper clusters with the group-average criterion: the distance between
// clusters Cx and Cy is the mean pairwise packet distance
//
//	dgroup(Cx, Cy) = (1/|Cx||Cy|) Σ Σ dpkt(px, py)
//
// and repeatedly merges the closest pair until one cluster remains,
// producing a dendrogram. This package implements that procedure with the
// nearest-neighbor-chain algorithm and Lance–Williams distance updates,
// which yields the exact group-average hierarchy in O(n²) time. Single and
// complete linkage are provided for the ablation benchmarks.
package cluster

import (
	"fmt"
	"sort"
)

// Linkage selects the cluster-distance criterion.
type Linkage int

// Supported linkage criteria. GroupAverage is the paper's choice (§IV-D).
const (
	GroupAverage Linkage = iota
	Single
	Complete
)

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case GroupAverage:
		return "group-average"
	case Single:
		return "single"
	case Complete:
		return "complete"
	default:
		return "unknown"
	}
}

// Merge records one agglomeration step. Node identifiers follow scipy
// convention: leaves are 0..n-1; the merge recorded at Merges[k] creates
// internal node n+k.
type Merge struct {
	A, B     int     // children (leaf or internal node ids), A < B
	Distance float64 // linkage distance at which the merge happened
	Size     int     // number of leaves under the new node
}

// Dendrogram is the full merge history of n leaves: exactly n-1 merges.
type Dendrogram struct {
	NumLeaves int
	Merges    []Merge
}

// DistanceMatrix is the read-only view the agglomerator needs.
type DistanceMatrix interface {
	N() int
	At(i, j int) float64
}

// Agglomerate builds the dendrogram of the n items of dm under the given
// linkage using the nearest-neighbor-chain algorithm. For n == 0 or 1 the
// dendrogram has no merges.
func Agglomerate(dm DistanceMatrix, linkage Linkage) *Dendrogram {
	n := dm.N()
	d := &Dendrogram{NumLeaves: n}
	if n < 2 {
		return d
	}
	// Working distance matrix, mutated by Lance–Williams updates.
	w := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := 0; i < n; i++ {
		w[i] = flat[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			w[i][j] = dm.At(i, j)
		}
	}
	active := make([]bool, n) // slot is a live cluster
	size := make([]int, n)    // leaves under slot
	node := make([]int, n)    // dendrogram node id of slot
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = 1
		node[i] = i
	}
	nextNode := n
	remaining := n
	chain := make([]int, 0, n)
	for remaining > 1 {
		if len(chain) == 0 {
			for i := 0; i < n; i++ {
				if active[i] {
					chain = append(chain, i)
					break
				}
			}
		}
		for {
			tip := chain[len(chain)-1]
			// Find the nearest active neighbor of tip; prefer the previous
			// chain element on ties so reciprocity is detected.
			prev := -1
			if len(chain) >= 2 {
				prev = chain[len(chain)-2]
			}
			nn, nnDist := -1, 0.0
			for j := 0; j < n; j++ {
				if j == tip || !active[j] {
					continue
				}
				dj := w[tip][j]
				if nn == -1 || dj < nnDist || (dj == nnDist && j == prev) {
					nn, nnDist = j, dj
				}
			}
			if nn == prev {
				// Reciprocal nearest neighbors: merge tip and prev.
				chain = chain[:len(chain)-2]
				a, b := prev, tip
				mergeInto(w, active, size, a, b, nnDist, linkage)
				na, nb := node[a], node[b]
				if na > nb {
					na, nb = nb, na
				}
				d.Merges = append(d.Merges, Merge{
					A:        na,
					B:        nb,
					Distance: nnDist,
					Size:     size[a],
				})
				node[a] = nextNode
				nextNode++
				remaining--
				break
			}
			chain = append(chain, nn)
		}
	}
	return d
}

// mergeInto merges slot b into slot a, updating w per Lance–Williams.
func mergeInto(w [][]float64, active []bool, size []int, a, b int, dab float64, linkage Linkage) {
	na, nb := float64(size[a]), float64(size[b])
	for k := range active {
		if !active[k] || k == a || k == b {
			continue
		}
		dak, dbk := w[a][k], w[b][k]
		var dnew float64
		switch linkage {
		case GroupAverage:
			dnew = (na*dak + nb*dbk) / (na + nb)
		case Single:
			dnew = dak
			if dbk < dnew {
				dnew = dbk
			}
		case Complete:
			dnew = dak
			if dbk > dnew {
				dnew = dbk
			}
		default:
			panic(fmt.Sprintf("cluster: unknown linkage %d", linkage))
		}
		w[a][k] = dnew
		w[k][a] = dnew
	}
	size[a] += size[b]
	active[b] = false
}

// CutDistance returns the flat clustering obtained by applying every merge
// with Distance <= threshold. Each cluster is a sorted slice of leaf
// indices; clusters are ordered by their smallest leaf.
func (d *Dendrogram) CutDistance(threshold float64) [][]int {
	apply := make([]bool, len(d.Merges))
	for i, m := range d.Merges {
		if m.Distance <= threshold {
			apply[i] = true
		}
	}
	return d.cut(apply)
}

// CutCount returns a flat clustering with exactly k clusters (or NumLeaves
// clusters if k exceeds it, or one cluster for k < 1), applying merges in
// ascending distance order.
func (d *Dendrogram) CutCount(k int) [][]int {
	n := d.NumLeaves
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// Sort merge indices by distance (stable in merge order for ties).
	idx := make([]int, len(d.Merges))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return d.Merges[idx[a]].Distance < d.Merges[idx[b]].Distance
	})
	apply := make([]bool, len(d.Merges))
	clusters := n
	for _, mi := range idx {
		if clusters <= k {
			break
		}
		apply[mi] = true
		clusters--
	}
	return d.cut(apply)
}

// cut materializes flat clusters from the subset of merges marked apply.
// A merge can only be applied if both children exist as current roots:
// merges referencing unapplied internal nodes are skipped, which matches
// cutting the tree by an antichain when apply is distance-monotone.
func (d *Dendrogram) cut(apply []bool) [][]int {
	n := d.NumLeaves
	if n == 0 {
		return nil
	}
	parent := make([]int, n+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	exists := make([]bool, n+len(d.Merges))
	for i := 0; i < n; i++ {
		exists[i] = true
	}
	for i, m := range d.Merges {
		id := n + i
		if !apply[i] || !exists[m.A] || !exists[m.B] {
			continue
		}
		ra, rb := find(m.A), find(m.B)
		parent[ra] = id
		parent[rb] = id
		exists[id] = true
	}
	groups := make(map[int][]int)
	for leaf := 0; leaf < n; leaf++ {
		r := find(leaf)
		groups[r] = append(groups[r], leaf)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Validate checks dendrogram invariants: n-1 merges, child ids in range and
// used at most once, sizes consistent. It is used by tests and by consumers
// loading dendrograms from untrusted sources.
func (d *Dendrogram) Validate() error {
	n := d.NumLeaves
	if n == 0 {
		if len(d.Merges) != 0 {
			return fmt.Errorf("cluster: %d merges with 0 leaves", len(d.Merges))
		}
		return nil
	}
	if len(d.Merges) != n-1 {
		return fmt.Errorf("cluster: %d merges for %d leaves, want %d", len(d.Merges), n, n-1)
	}
	used := make([]bool, n+len(d.Merges))
	sizes := make([]int, n+len(d.Merges))
	for i := 0; i < n; i++ {
		sizes[i] = 1
	}
	for i, m := range d.Merges {
		id := n + i
		if m.A < 0 || m.A >= id || m.B < 0 || m.B >= id {
			return fmt.Errorf("cluster: merge %d references invalid child (%d, %d)", i, m.A, m.B)
		}
		if m.A == m.B {
			return fmt.Errorf("cluster: merge %d merges node %d with itself", i, m.A)
		}
		if used[m.A] || used[m.B] {
			return fmt.Errorf("cluster: merge %d reuses a child", i)
		}
		used[m.A] = true
		used[m.B] = true
		sizes[id] = sizes[m.A] + sizes[m.B]
		if m.Size != sizes[id] {
			return fmt.Errorf("cluster: merge %d size %d, want %d", i, m.Size, sizes[id])
		}
	}
	if sizes[len(sizes)-1] != n {
		return fmt.Errorf("cluster: root covers %d leaves, want %d", sizes[len(sizes)-1], n)
	}
	return nil
}
