package cluster

// Clustering quality utilities: the silhouette coefficient for judging a
// flat cut (used by the threshold-selection example and ablation analysis)
// and Newick serialization of dendrograms for external visualization.

import (
	"fmt"
	"strings"
)

// Silhouette returns the mean silhouette coefficient of the flat clustering
// over the distance matrix, in [-1, 1]; higher is better. Leaves in
// singleton clusters contribute 0 (the standard convention). It returns 0
// for degenerate clusterings (fewer than 2 clusters or fewer than 2 points).
func Silhouette(dm DistanceMatrix, clusters [][]int) float64 {
	n := dm.N()
	if n < 2 || len(clusters) < 2 {
		return 0
	}
	owner := make([]int, n)
	for ci, c := range clusters {
		for _, x := range c {
			owner[x] = ci
		}
	}
	total := 0.0
	counted := 0
	for ci, c := range clusters {
		for _, x := range c {
			if len(c) == 1 {
				counted++
				continue // silhouette 0
			}
			// a(x): mean distance to own cluster.
			a := 0.0
			for _, y := range c {
				if y != x {
					a += dm.At(x, y)
				}
			}
			a /= float64(len(c) - 1)
			// b(x): smallest mean distance to another cluster.
			b := -1.0
			for cj, d := range clusters {
				if cj == ci || len(d) == 0 {
					continue
				}
				s := 0.0
				for _, y := range d {
					s += dm.At(x, y)
				}
				s /= float64(len(d))
				if b < 0 || s < b {
					b = s
				}
			}
			max := a
			if b > max {
				max = b
			}
			if max > 0 {
				total += (b - a) / max
			}
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// Newick serializes the dendrogram in Newick tree format with merge
// distances as branch annotations, e.g. "((0:0.1,1:0.1):0.5,2:0.5);".
// labels, when non-nil, names the leaves; otherwise leaf indices are used.
// An empty dendrogram yields ";" and a single leaf "0;".
func (d *Dendrogram) Newick(labels []string) string {
	n := d.NumLeaves
	if n == 0 {
		return ";"
	}
	name := func(leaf int) string {
		if labels != nil && leaf < len(labels) {
			return escapeNewick(labels[leaf])
		}
		return fmt.Sprintf("%d", leaf)
	}
	// Height of each node: leaves at 0, internal at merge distance.
	height := make([]float64, n+len(d.Merges))
	var render func(node int) string
	render = func(node int) string {
		if node < n {
			return name(node)
		}
		m := d.Merges[node-n]
		height[node] = m.Distance
		la := render(m.A)
		lb := render(m.B)
		branchA := m.Distance - height[m.A]
		branchB := m.Distance - height[m.B]
		if branchA < 0 {
			branchA = 0
		}
		if branchB < 0 {
			branchB = 0
		}
		return fmt.Sprintf("(%s:%.6g,%s:%.6g)", la, branchA, lb, branchB)
	}
	root := n + len(d.Merges) - 1
	if len(d.Merges) == 0 {
		return name(0) + ";"
	}
	return render(root) + ";"
}

// escapeNewick quotes labels containing Newick metacharacters.
func escapeNewick(s string) string {
	if strings.ContainsAny(s, "(),:;'[] \t") {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return s
}
