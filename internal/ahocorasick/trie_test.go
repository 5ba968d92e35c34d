package ahocorasick

// buildNode is one state of the reference trie.
type buildNode struct {
	next map[byte]int32
	fail int32
	out  []int32 // pattern indices ending at this node, fail-chain merged
}

// builder is the textbook map-based Aho–Corasick trie with scan-time
// failure chasing. Compile used to be lowered from it; it now exists
// only as the differential reference the flat construction is tested
// against. It numbers states in insertion order, Compile in BFS order;
// checkAgainstTrie maps one numbering to the other.
type builder struct {
	nodes    []buildNode
	patterns [][]byte
}

func newBuilder(patterns [][]byte) *builder {
	b := &builder{
		nodes:    make([]buildNode, 1, 16),
		patterns: patterns,
	}
	b.nodes[0].next = make(map[byte]int32)
	for i, p := range patterns {
		if len(p) == 0 {
			continue
		}
		cur := int32(0)
		for _, c := range p {
			nxt, ok := b.nodes[cur].next[c]
			if !ok {
				b.nodes = append(b.nodes, buildNode{next: make(map[byte]int32)})
				nxt = int32(len(b.nodes) - 1)
				b.nodes[cur].next[c] = nxt
			}
			cur = nxt
		}
		b.nodes[cur].out = append(b.nodes[cur].out, int32(i))
	}
	// BFS to assign failure links and merge outputs.
	queue := make([]int32, 0, len(b.nodes))
	for _, v := range b.nodes[0].next {
		b.nodes[v].fail = 0
		queue = append(queue, v)
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for c, v := range b.nodes[u].next {
			queue = append(queue, v)
			f := b.nodes[u].fail
			for {
				if nxt, ok := b.nodes[f].next[c]; ok && nxt != v {
					b.nodes[v].fail = nxt
					break
				}
				if f == 0 {
					b.nodes[v].fail = 0
					break
				}
				f = b.nodes[f].fail
			}
			b.nodes[v].out = append(b.nodes[v].out, b.nodes[b.nodes[v].fail].out...)
		}
	}
	return b
}

// step is the map-based walk with scan-time failure chasing.
func (b *builder) step(state int32, c byte) int32 {
	for {
		if nxt, ok := b.nodes[state].next[c]; ok {
			return nxt
		}
		if state == 0 {
			return 0
		}
		state = b.nodes[state].fail
	}
}

// occursInto marks every pattern occurring in text, starting from the
// root.
func (b *builder) occursInto(text []byte, seen []bool) {
	state := int32(0)
	for _, c := range text {
		state = b.step(state, c)
		for _, p := range b.nodes[state].out {
			seen[p] = true
		}
	}
}
