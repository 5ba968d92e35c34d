// Package capture stores and transports HTTP packet datasets.
//
// The paper's pipeline (Figure 3a) begins with "a separate server collects
// application traffic". Set is that collected trace: an ordered list of
// packets plus helpers for the operations the evaluation performs on it —
// filtering, random sampling of the signature-generation subset P ⊂ H
// (§IV-D), and splitting into suspicious/normal groups (§V-A).
//
// A capture file has one format: JSONL, one packet per line, in the same
// schema the daemons ingest as NDJSON, and httpmodel.ReadNDJSON is its one
// reader.
package capture

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"

	"leaksig/internal/httpmodel"
)

// Set is an ordered collection of captured packets.
type Set struct {
	Packets []*httpmodel.Packet
}

// New returns a Set over the given packets.
func New(ps []*httpmodel.Packet) *Set { return &Set{Packets: ps} }

// Len returns the number of packets.
func (s *Set) Len() int { return len(s.Packets) }

// Append adds packets to the set.
func (s *Set) Append(ps ...*httpmodel.Packet) { s.Packets = append(s.Packets, ps...) }

// Filter returns a new Set holding the packets for which keep returns true.
// Packets are shared, not copied.
func (s *Set) Filter(keep func(*httpmodel.Packet) bool) *Set {
	out := &Set{}
	for _, p := range s.Packets {
		if keep(p) {
			out.Packets = append(out.Packets, p)
		}
	}
	return out
}

// Sample returns n packets drawn uniformly without replacement, in stable
// order of their original position. If n >= Len, all packets are returned.
// This implements the paper's "selected N HTTP packets at random out of the
// suspicious group" (§V-A).
func (s *Set) Sample(rng *rand.Rand, n int) *Set {
	if n >= len(s.Packets) {
		out := make([]*httpmodel.Packet, len(s.Packets))
		copy(out, s.Packets)
		return &Set{Packets: out}
	}
	idx := rng.Perm(len(s.Packets))[:n]
	// Preserve capture order for determinism downstream.
	chosen := make(map[int]bool, n)
	for _, i := range idx {
		chosen[i] = true
	}
	out := make([]*httpmodel.Packet, 0, n)
	for i, p := range s.Packets {
		if chosen[i] {
			out = append(out, p)
		}
	}
	return &Set{Packets: out}
}

// Hosts returns the distinct destination hosts in first-seen order.
func (s *Set) Hosts() []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range s.Packets {
		if !seen[p.Host] {
			seen[p.Host] = true
			out = append(out, p.Host)
		}
	}
	return out
}

// WriteJSONL writes one JSON object per packet.
func (s *Set) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, p := range s.Packets {
		if err := enc.Encode(p); err != nil {
			return fmt.Errorf("capture: encoding packet %d: %w", p.ID, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a JSONL stream produced by WriteJSONL. Each line is
// decoded and validated by httpmodel.ReadNDJSON, and the first line it
// rejects refuses the whole stream: the error names that line's number and
// the class of failure, never a field's value.
func ReadJSONL(r io.Reader) (*Set, error) {
	s := &Set{}
	var refused error
	_, _, err := httpmodel.ReadNDJSON(r, func(p *httpmodel.Packet) error {
		s.Packets = append(s.Packets, p)
		return nil
	}, func(line int, err error) {
		if refused == nil {
			refused = fmt.Errorf("capture: line %d: %w", line, err)
		}
	})
	if refused != nil {
		return nil, refused
	}
	if err != nil {
		return nil, fmt.Errorf("capture: reading: %w", err)
	}
	return s, nil
}

// SaveJSONL writes the set to a file in JSONL format.
func (s *Set) SaveJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadJSONL reads a JSONL capture file.
func LoadJSONL(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}
