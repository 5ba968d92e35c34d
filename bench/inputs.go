package main

// Seeded inputs. Everything the workloads feed the program is made here
// from the -seed value: the trafficgen trace, the signature sets, the
// pre-serialised NDJSON bodies and the reference verdicts. The daemons
// only ever see these generated bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"leaksig/internal/core"
	"leaksig/internal/eval"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

// idBase keeps every packet id at exactly ten digits, so a pre-serialised
// NDJSON line can be given a fresh id by overwriting digits in place.
const (
	idBase   = 1_000_000_000
	idDigits = 10
	idPrefix = `{"id":`
)

// refStride is the share of the trace whose verdicts are checked against
// the naive reference (every refStride-th packet). The reference is
// quadratic-ish (packets x signatures x fields), and set-up is repeated,
// so it is sampled; presence and duplication are checked for every id.
const refStride = 8

// trace is the generated capture with its ground-truth split.
type trace struct {
	env     *eval.Env
	packets []*httpmodel.Packet
}

func genTrace(seed int64) *trace {
	env := eval.NewEnv(trafficgen.Config{Seed: seed})
	ps := env.Dataset.Capture.Packets
	for i, p := range ps {
		p.ID = idBase + int64(i)
	}
	return &trace{env: env, packets: ps}
}

// paperSet is the paper's method at its N=300 operating point: sample
// 300 suspicious packets, cluster, generate conjunction signatures.
func (t *trace) paperSet(seed int64) *signature.Set {
	sample := t.env.SampleSuspicious(seed, 300)
	set := core.NewPipeline(core.Config{}).GenerateSignatures(sample)
	set.Version = 1
	return set
}

// token cuts a '\n'-free substring of length [8,24] out of src, or "".
func token(rng *rand.Rand, src []byte) string {
	if len(src) < 12 {
		return ""
	}
	n := 8 + rng.Intn(17)
	if n > len(src) {
		n = len(src)
	}
	off := rng.Intn(len(src) - n + 1)
	tok := src[off : off+n]
	if bytes.IndexByte(tok, '\n') >= 0 {
		return ""
	}
	return string(tok)
}

// kindedSigs derives n signatures of every published kind from trace
// content, so some of them fire on the replay: 60% host-constrained
// conjunctions, 20% ordered subsequences, 20% conjunctions with decode
// views. IDs start at firstID.
func kindedSigs(rng *rand.Rand, ps []*httpmodel.Packet, n, firstID int) []*signature.Signature {
	out := make([]*signature.Signature, 0, n)
	for len(out) < n {
		p := ps[rng.Intn(len(ps))]
		rl := []byte(p.RequestLine())
		a := token(rng, rl)
		if a == "" {
			continue
		}
		sig := &signature.Signature{ID: firstID + len(out), Tokens: []string{a}, ClusterSize: 2}
		switch k := len(out) % 5; {
		case k < 3:
			sig.HostSuffix = p.Host
			if b := token(rng, p.Body); b != "" {
				sig.Tokens = append(sig.Tokens, b)
			}
		case k == 3:
			// Two tokens in request-line order: cut the second from the
			// tail so the ordered walk can succeed on the source packet.
			half := len(rl) / 2
			a, b := token(rng, rl[:half]), token(rng, rl[half:])
			if a == "" || b == "" {
				continue
			}
			sig.Kind = signature.KindSubsequence
			sig.Tokens = []string{a, b}
		default:
			sig.Views = []string{"url", "base64"}
		}
		out = append(out, sig)
	}
	return out
}

// synthSet fabricates an n-signature set of fresh token text. mix selects
// the kinds: "mixed" is the reload-churn population (80% conjunction,
// 10% subsequence, 10% conjunction with decode views); "conjunction",
// "subsequence" and "views" make every signature that kind. withProbe
// replaces signature 0 with the one the probe packet matches.
func synthSet(rng *rand.Rand, n int, mix string, withProbe bool) *signature.Set {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789=&/_-."
	word := func() string {
		b := make([]byte, 8+rng.Intn(17))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	set := &signature.Set{TrainingSize: n}
	for i := 0; i < n; i++ {
		sig := &signature.Signature{ID: i, ClusterSize: 3, Tokens: []string{word(), word()}}
		kind := mix
		if mix == "mixed" {
			switch i % 10 {
			case 8:
				kind = "subsequence"
			case 9:
				kind = "views"
			}
		}
		switch kind {
		case "subsequence":
			sig.Kind = signature.KindSubsequence
			sig.Tokens = append(sig.Tokens, word())
		case "views":
			sig.Views = []string{"base64", "url"}
		default:
			if i%2 == 0 {
				sig.HostSuffix = "ads-" + word()[:6] + ".example.com"
			}
		}
		set.Signatures = append(set.Signatures, sig)
	}
	if withProbe {
		set.Signatures[0] = &signature.Signature{ID: 0, ClusterSize: 3, Tokens: []string{probeToken}}
	}
	return set
}

const probeToken = "bench-probe-token="

// churnSet is one pre-serialised set for the reload-churn publisher.
// Every set has fresh token text, so a cache keyed on set content cannot
// short-circuit a publish; sets at even index carry the probe signature
// and sets at odd index do not, so each publish flips the probe packet's
// verdict.
type churnSet struct {
	body      []byte // signature.Set JSON, version 0 (the server assigns the next)
	set       *signature.Set
	probeLeak bool
}

func encodeSet(set *signature.Set) []byte {
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		panic(err) // a Set of strings and ints always marshals
	}
	return buf.Bytes()
}

func churnSets(rng *rand.Rand, k int) []churnSet {
	out := make([]churnSet, k)
	for i := range out {
		set := synthSet(rng, 1000, "mixed", i%2 == 0)
		out[i] = churnSet{body: encodeSet(set), set: set, probeLeak: i%2 == 0}
	}
	return out
}

func probePacket() *httpmodel.Packet {
	return httpmodel.Get("probe.bench.example", "/p?"+probeToken+"1").
		ID(idBase).App("bench.probe").Dest(ipaddr.FromOctets(203, 0, 113, 9), 80).Build()
}

// family fabricates one ad-module population the learner has never seen.
// A module has its own host, address block, path, parameter names and
// constant values (the module id and the device identifier it leaks);
// its requests differ only in per-request noise. Modules share nothing
// but the HTTP framing, so each forms its own cluster. Every field has
// the same length in every module, so a learn cycle costs the same
// whichever module the seed drew: the learner's cost depends on content
// length through the compression distance, and that is not what the
// workload varies.
func family(rng *rand.Rand, fam, n int) []*httpmodel.Packet {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	host := fmt.Sprintf("%s%04d.%s-%s.example.net", word(3), fam%10000, word(6), word(4))
	ip := ipaddr.FromOctets(byte(11+rng.Intn(200)), byte(rng.Intn(256)), byte(fam>>8), byte(fam))
	path := "/" + word(6) + "/" + word(6) + "/" + word(8)
	constant := fmt.Sprintf("%s=%016x&%s=%s%08x", word(4), rng.Uint64(), word(4), word(6), rng.Uint32())
	noiseA, noiseB := word(3), word(3)
	app := "com." + word(6) + "." + word(6)
	out := make([]*httpmodel.Packet, n)
	for i := range out {
		query := fmt.Sprintf("%s&%s=%06d&%s=%08x", constant, noiseA, i, noiseB, rng.Uint32())
		out[i] = httpmodel.Get(host, path+"?"+query).
			ID(idBase+int64(i)).App(app).Dest(ip, 80).UserAgent("Dalvik/1.6.0").Build()
	}
	return out
}

// body is one pre-serialised NDJSON request body plus what is needed to
// re-id its lines in place and to check their verdicts.
type body struct {
	buf   []byte
	lines []int32 // offset of each line's first id digit
	first int     // trace index of the first line
}

// setIDs overwrites every line's id with base+index, in place.
func (b *body) setIDs(base int64) {
	for i, off := range b.lines {
		d := b.buf[off : off+idDigits]
		strconv.AppendInt(d[:0], base+int64(b.first+i), 10)
	}
}

// ndjsonBodies serialises the trace as bodies of per lines each.
func ndjsonBodies(ps []*httpmodel.Packet, per int) []*body {
	var out []*body
	for first := 0; first < len(ps); first += per {
		end := min(first+per, len(ps))
		b := &body{first: first}
		for _, p := range ps[first:end] {
			line, err := json.Marshal(p)
			if err != nil {
				panic(err) // Packet has no unmarshalable field
			}
			if !bytes.HasPrefix(line, []byte(idPrefix)) {
				panic("bench: packet JSON no longer starts with the id field")
			}
			b.lines = append(b.lines, int32(len(b.buf)+len(idPrefix)))
			b.buf = append(append(b.buf, line...), '\n')
		}
		out = append(out, b)
	}
	return out
}

// corruptReference makes buildReference flip one verdict, to show that
// the check fails the run (-corrupt-reference).
var corruptReference bool

// reference holds the naive matcher's verdict for the sampled packets.
type reference struct {
	leak []bool // by trace index; meaningful where index%refStride == 0
}

func (r *reference) checked(idx int) bool { return idx%refStride == 0 }

// buildReference runs the naive matcher over the sampled packets on two
// goroutines (nproc is 2).
func buildReference(set *signature.Set, ps []*httpmodel.Packet) *reference {
	ref := &reference{leak: make([]bool, len(ps))}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * refStride; i < len(ps); i += 2 * refStride {
				ref.leak[i] = naiveLeak(set, ps[i])
			}
		}(w)
	}
	wg.Wait()
	if corruptReference {
		ref.leak[0] = !ref.leak[0]
	}
	return ref
}
