// Package whois implements the verification extension the paper sketches in
// §VI: "two HTTP packets may have close IP addresses but be owned [by]
// different organizations ... using a registration information process such
// as WHOIS could be helpful for the verification of IP addresses and domain
// names, which could be used to confirm the distances."
//
// The registry maps allocated address blocks to owning organizations (the
// synthetic universe publishes its allocation) and can confirm or refute
// the organizational assumption behind a small destination IP distance.
package whois

import (
	"fmt"
	"sort"
	"strings"

	"leaksig/internal/ipaddr"
)

// Record is one allocation: an organization and its address block.
type Record struct {
	Org   string
	Block ipaddr.Block
}

// Registry answers reverse lookups from addresses to allocations. It is
// immutable after construction and safe for concurrent use.
type Registry struct {
	records []Record // sorted by block base
}

// NewRegistry builds a registry from an organization → block map (the
// shape trafficgen.Universe.OrgBlocks returns).
func NewRegistry(orgBlocks map[string]ipaddr.Block) *Registry {
	recs := make([]Record, 0, len(orgBlocks))
	for org, b := range orgBlocks {
		recs = append(recs, Record{Org: org, Block: b})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Block.Base != recs[j].Block.Base {
			return recs[i].Block.Base < recs[j].Block.Base
		}
		return recs[i].Org < recs[j].Org
	})
	return &Registry{records: recs}
}

// Len returns the number of allocations.
func (r *Registry) Len() int { return len(r.records) }

// Lookup returns the allocation covering the address. When nested blocks
// cover the address the most specific (longest prefix) wins.
func (r *Registry) Lookup(a ipaddr.Addr) (Record, bool) {
	best := -1
	for i, rec := range r.records {
		if rec.Block.Contains(a) {
			if best < 0 || rec.Block.Bits > r.records[best].Block.Bits {
				best = i
			}
		}
	}
	if best < 0 {
		return Record{}, false
	}
	return r.records[best], true
}

// Verdict classifies an IP-closeness claim.
type Verdict int

// Verdicts. Confirmed: the shared prefix really reflects one organization.
// Refuted: close addresses, different owners (the §VI hazard). Unknown: at
// least one address has no allocation on record.
const (
	Confirmed Verdict = iota
	Refuted
	Unknown
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Confirmed:
		return "confirmed"
	case Refuted:
		return "refuted"
	default:
		return "unknown"
	}
}

// VerifyCloseness checks the organizational claim behind a destination IP
// distance: addresses sharing at least minPrefix leading bits are claimed
// organizationally related. The registry confirms or refutes the claim;
// pairs that do not share minPrefix bits are vacuously Confirmed (no claim
// is being made).
func (r *Registry) VerifyCloseness(a, b ipaddr.Addr, minPrefix int) Verdict {
	if ipaddr.CommonPrefixLen(a, b) < minPrefix {
		return Confirmed
	}
	ra, oka := r.Lookup(a)
	rb, okb := r.Lookup(b)
	if !oka || !okb {
		return Unknown
	}
	if ra.Org == rb.Org {
		return Confirmed
	}
	return Refuted
}

// MetricResolver adapts the registry to distance.Config.OrgResolver: it
// reports organizational identity when both addresses are on record. Close
// addresses with different owners then stop contributing to packet
// similarity — the verification step §VI proposes.
func (r *Registry) MetricResolver() func(a, b ipaddr.Addr) (same, known bool) {
	return func(a, b ipaddr.Addr) (bool, bool) {
		ra, oka := r.Lookup(a)
		rb, okb := r.Lookup(b)
		if !oka || !okb {
			return false, false
		}
		return ra.Org == rb.Org, true
	}
}

// Text renders the allocation for an address in classic WHOIS style.
func (r *Registry) Text(a ipaddr.Addr) string {
	rec, ok := r.Lookup(a)
	if !ok {
		return fmt.Sprintf("%% no match for %s\n", a)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "inetnum:  %s\n", rec.Block)
	fmt.Fprintf(&b, "netname:  %s\n", strings.ToUpper(strings.ReplaceAll(rec.Org, " ", "-")))
	fmt.Fprintf(&b, "descr:    %s\n", rec.Org)
	return b.String()
}
