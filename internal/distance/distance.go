// Package distance implements the paper's HTTP packet distance (§IV-B/C):
//
//	dpkt(px, py)    = ddst(px, py) + dheader(px, py)
//	ddst(px, py)    = dip + dport + dhost
//	dheader(px, py) = ncd(request-line) + ncd(cookie) + ncd(body)
//
// The destination terms as printed are internally inconsistent: dip =
// lmatch/32 and dport = match(port) score *identical* destinations highest,
// i.e. they are similarities, while dhost and the NCD terms are distances
// (0 for identical inputs). Summing them as printed pushes same-destination
// packets apart. This package offers both conventions:
//
//   - ModeLiteral follows the paper's formulas verbatim.
//   - ModeNormalized (default) flips the two similarity terms
//     (dip' = 1 − lmatch/32, dport' = 1 − match) so every component is a
//     distance in [0, 1] and packets to the same server cluster together —
//     the behaviour the paper's prose describes ("results sent to the same
//     server to be clustered together", §IV-A).
//
// The root package's BenchmarkAblationDistanceMode compares the two
// conventions end to end.
//
// The host term is the paper's
//
//	dhost(px, py) = ed(hostx, hosty) / max(len(hostx), len(hosty))
//
// where ed is the unit-cost Levenshtein edit distance: bit-parallel when
// the shorter string fits a machine word, a two-row dynamic program
// otherwise.
package distance

import (
	"runtime"
	"sync"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/ncd"
)

// Mode selects the destination-term convention.
type Mode int

// Modes. See the package comment.
const (
	ModeNormalized Mode = iota
	ModeLiteral
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNormalized:
		return "normalized"
	case ModeLiteral:
		return "literal"
	default:
		return "unknown"
	}
}

// Config parameterizes the metric. The zero value gives the repository
// defaults: normalized mode, DEFLATE NCD, unit weights.
type Config struct {
	Mode Mode

	// Compressor used for the NCD content terms. Nil selects
	// ncd.Default().
	Compressor ncd.Compressor

	// DestinationWeight and ContentWeight scale ddst and dheader in dpkt.
	// Zero values mean 1.0. Setting DestinationWeight to -1 disables the
	// destination term entirely (content-only ablation).
	DestinationWeight float64
	ContentWeight     float64

	// OrgResolver, when non-nil, implements the paper's §VI WHOIS
	// verification: for a pair of destination addresses it reports whether
	// they belong to one organization (and whether that is known at all).
	// When the resolver knows the answer, the IP term uses organizational
	// identity instead of the raw prefix length — close addresses owned by
	// different organizations stop looking related.
	OrgResolver func(a, b ipaddr.Addr) (same, known bool)
}

// Metric computes packet distances under one configuration. It is safe for
// concurrent use.
type Metric struct {
	mode    Mode
	comp    ncd.Compressor
	wDst    float64
	wHeader float64
	orgRes  func(a, b ipaddr.Addr) (same, known bool)

	// emptyLen is C("") under comp, computed once: most packets carry no
	// cookie and no body, and compressing "" per profile is not free.
	emptyLen func() int
}

// New builds a Metric from cfg.
func New(cfg Config) *Metric {
	comp := cfg.Compressor
	if comp == nil {
		comp = ncd.Default()
	}
	wd := cfg.DestinationWeight
	switch {
	case wd == 0:
		wd = 1
	case wd < 0:
		wd = 0
	}
	wh := cfg.ContentWeight
	if wh == 0 {
		wh = 1
	}
	return &Metric{
		mode: cfg.Mode, comp: comp, wDst: wd, wHeader: wh, orgRes: cfg.OrgResolver,
		emptyLen: sync.OnceValue(func() int { return comp.CompressedLen(nil) }),
	}
}

// Default returns the metric with repository-default configuration.
func Default() *Metric { return New(Config{}) }

// ipTerm returns dip for the two destination addresses. With an
// OrgResolver configured and a known answer, organizational identity
// replaces the prefix similarity (the §VI WHOIS verification).
func (m *Metric) ipTerm(a, b ipaddr.Addr) float64 {
	sim := float64(ipaddr.CommonPrefixLen(a, b)) / 32
	if m.orgRes != nil {
		if same, known := m.orgRes(a, b); known {
			if same {
				sim = 1
			} else {
				sim = 0
			}
		}
	}
	if m.mode == ModeLiteral {
		return sim
	}
	return 1 - sim
}

// portTerm returns dport for the two destination ports.
func (m *Metric) portTerm(a, b uint16) float64 {
	match := 0.0
	if a == b {
		match = 1.0
	}
	if m.mode == ModeLiteral {
		return match
	}
	return 1 - match
}

// hostTerm returns dhost: edit distance over the FQDNs normalized by the
// longer length. Both modes use the paper's formula (it is already a
// distance).
func (m *Metric) hostTerm(a, b string) float64 {
	return normalized(a, b)
}

// destination returns ddst(px, py) = dip + dport + dhost.
func (m *Metric) destination(px, py *httpmodel.Packet) float64 {
	return m.ipTerm(px.DstIP, py.DstIP) +
		m.portTerm(px.DstPort, py.DstPort) +
		m.hostTerm(px.Host, py.Host)
}

// content returns dheader(px, py): the sum of NCD over request-line,
// cookie, and message-body (§IV-C).
func (m *Metric) content(px, py *httpmodel.Packet) float64 {
	fx := px.ContentFields()
	fy := py.ContentFields()
	d := 0.0
	for i := 0; i < 3; i++ {
		d += ncd.Distance(m.comp, fx[i], fy[i])
	}
	return d
}

// Packet returns the full dpkt(px, py) = w_dst·ddst + w_hdr·dheader.
func (m *Metric) Packet(px, py *httpmodel.Packet) float64 {
	d := 0.0
	if m.wDst > 0 {
		d += m.wDst * m.destination(px, py)
	}
	if m.wHeader > 0 {
		d += m.wHeader * m.content(px, py)
	}
	return d
}

// LowerBound returns w_dst·ddst(px, py), the first term Packet adds up,
// computed exactly as Packet computes it. Every content term is an NCD
// clamped at 0 and a content weight only counts when positive, so
// LowerBound(px, py) ≤ Packet(px, py) holds in floating point too, and
// it costs no compression.
func (m *Metric) LowerBound(px, py *httpmodel.Packet) float64 {
	d := 0.0
	if m.wDst > 0 {
		d += m.wDst * m.destination(px, py)
	}
	return d
}

// Profile is one packet prepared for repeated comparison: its three
// content fields and their compressed lengths, so an NCD term against
// another profile costs one compression (of the concatenation) instead
// of three. A profile is immutable, safe for concurrent use, and valid
// only with the Metric that built it. It holds no shared cache: its
// memory goes when the profile does.
type Profile struct {
	p      *httpmodel.Packet
	fields [3][]byte
	lens   [3]int // C(fields[i])
}

// Profile builds p's profile: one compression per non-empty content
// field.
func (m *Metric) Profile(p *httpmodel.Packet) *Profile {
	pr := &Profile{p: p, fields: p.ContentFields()}
	for i, f := range pr.fields {
		if len(f) == 0 {
			pr.lens[i] = m.emptyLen()
		} else {
			pr.lens[i] = m.comp.CompressedLen(f)
		}
	}
	return pr
}

// PacketFrom returns Packet over the two profiles' packets bit for bit,
// given their LowerBound as bound: only the content terms are left to
// pay.
func (m *Metric) PacketFrom(bound float64, x, y *Profile) float64 {
	d := bound
	if m.wHeader > 0 {
		c := 0.0
		for i := range x.fields {
			c += ncd.DistanceLens(m.comp, x.fields[i], y.fields[i], x.lens[i], y.lens[i])
		}
		d += m.wHeader * c
	}
	return d
}

// ProfilePacket returns Packet over the two profiles' packets bit for
// bit.
func (m *Metric) ProfilePacket(x, y *Profile) float64 {
	return m.PacketFrom(m.LowerBound(x.p, y.p), x, y)
}

// MaxValue returns an upper bound of dpkt under this configuration, used to
// normalize dendrogram cut thresholds. Each of the six component terms lies
// in [0, 1] (NCD can marginally exceed 1; the bound is adequate for
// thresholding).
func (m *Metric) MaxValue() float64 {
	return 3*m.wDst + 3*m.wHeader
}

// Matrix is a symmetric pairwise distance matrix over n packets, stored as
// the condensed upper triangle.
type Matrix struct {
	n    int
	vals []float64 // len n*(n-1)/2
}

// NewMatrix computes all pairwise distances among packets using the
// metric, fanning work out over min(GOMAXPROCS, pairs) goroutines. Each
// packet is profiled once, so a pair pays only its concatenations'
// compressions; every entry is Packet's value bit for bit.
func NewMatrix(m *Metric, packets []*httpmodel.Packet) *Matrix {
	profs := make([]*Profile, len(packets))
	for i, p := range packets {
		profs[i] = m.Profile(p)
	}
	return NewProfileMatrix(m, profs)
}

// NewProfileMatrix is NewMatrix over profiles already built.
func NewProfileMatrix(m *Metric, profs []*Profile) *Matrix {
	return fill(len(profs), func(i, j int) float64 { return m.ProfilePacket(profs[i], profs[j]) })
}

// fill computes dist over every pair i < j of n items, fanning work out
// over min(GOMAXPROCS, pairs) goroutines.
func fill(n int, dist func(i, j int) float64) *Matrix {
	mx := &Matrix{n: n, vals: make([]float64, n*(n-1)/2)}
	if n < 2 {
		return mx
	}
	// Workers take whole rows: one channel handoff per row, not per pair.
	workers := runtime.GOMAXPROCS(0)
	if workers > n-1 {
		workers = n - 1
	}
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				for j := i + 1; j < n; j++ {
					mx.vals[condensedIndex(n, i, j)] = dist(i, j)
				}
			}
		}()
	}
	for i := 0; i < n-1; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()
	return mx
}

// condensedIndex maps (i, j) with i < j to the condensed triangle offset.
func condensedIndex(n, i, j int) int {
	// Offset of row i is sum_{k<i} (n-1-k) = i*(n-1) - i*(i-1)/2.
	return i*(n-1) - i*(i-1)/2 + (j - i - 1)
}

// N returns the matrix dimension.
func (mx *Matrix) N() int { return mx.n }

// At returns the distance between packets i and j. At(i, i) is 0.
func (mx *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return mx.vals[condensedIndex(mx.n, i, j)]
}
