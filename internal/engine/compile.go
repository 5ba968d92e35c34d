package engine

import (
	"leaksig/internal/detect"
	"leaksig/internal/signature"
)

// compiledSet is one immutable, fully compiled generation of the signature
// set. The engine swaps whole generations through an atomic pointer; shard
// workers load the pointer once per batch, so a reload can never tear
// mid-batch and the hot path takes no lock.
//
// The detect.Engine inside is the expensive part and holds no per-packet
// state (that lives in each worker's detect.Scratch), so any number of
// engines may point at the same one: a Pool compiles its default set once
// and every unpinned tenant installs its own copy of this small wrapper —
// same eng, the tenant's own gen — around it.
type compiledSet struct {
	eng     *detect.Engine
	version int64
	sigs    int

	// gen is the reload ticket this generation was compiled under.
	// install applies generations strictly monotonically by gen, so a
	// slow compile can never clobber a newer set that a concurrent
	// reload installed first.
	gen uint64
}

// compile builds a generation from a signature set — including the dense
// Aho–Corasick automaton and the inverted token→signature index, built
// once per hot reload, off the hot path. The result carries no reload
// ticket yet (gen 0), which is what a new engine starts on. A nil set
// compiles to an empty generation that matches nothing, so the engine can
// start before the first sigserver fetch completes.
func compile(set *signature.Set) *compiledSet {
	if set == nil {
		set = &signature.Set{}
	}
	return &compiledSet{
		eng:     detect.NewEngine(set),
		version: set.Version,
		sigs:    set.Len(),
	}
}
