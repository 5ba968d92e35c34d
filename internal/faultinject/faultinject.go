// Package faultinject is a deterministic chaos harness for the HTTP
// control plane. An Injector wraps a client's http.RoundTripper and
// injects faults — added latency, 5xx responses, connection resets,
// partial bodies, blackholes — drawn from
// a seeded PRNG, so a chaos run that found a bug replays bit-for-bit
// from the same seed.
//
// Wiring is spec-string driven so every daemon exposes it the same way:
// a -faults flag or the LEAKSIG_FAULTS environment variable holding e.g.
//
//	seed=7,reset=0.1,latency_p=0.1,latency=20ms
//
// A nil *Injector is inert and valid: Client returns its input
// unchanged, so call sites wrap unconditionally and pay nothing when
// chaos is off.
package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// errInjectedReset is the error surfaced for an injected connection
// reset on the client path.
var errInjectedReset = errors.New("faultinject: connection reset")

// errInjectedBlackhole is surfaced when a request is blackholed: it
// neither succeeds nor fails until the request context expires.
var errInjectedBlackhole = errors.New("faultinject: blackholed")

// config sets per-fault probabilities (each in [0,1], checked
// independently per request) and the deterministic seed.
type config struct {
	// Seed fixes the fault stream; 0 means seed from the current time
	// (still reproducible if the chosen seed is logged by the caller).
	Seed int64

	// LatencyP is the probability of delaying a request by Latency
	// before forwarding it. Latency defaults to 20ms when LatencyP > 0.
	LatencyP float64
	Latency  time.Duration

	// ErrorP is the probability of answering with a synthesized 503
	// instead of forwarding the request.
	ErrorP float64

	// ResetP is the probability of failing the request with
	// errInjectedReset, as a mid-flight connection teardown would.
	ResetP float64

	// PartialP is the probability of truncating the response body
	// halfway and ending it with an unexpected-EOF error.
	PartialP float64

	// BlackholeP is the probability of holding the request until its
	// context is canceled — the silent-drop failure mode.
	BlackholeP float64
}

// enabled reports whether any fault has a nonzero probability.
func (c config) enabled() bool {
	return c.LatencyP > 0 || c.ErrorP > 0 || c.ResetP > 0 || c.PartialP > 0 || c.BlackholeP > 0
}

// parse decodes a comma-separated spec like
// "seed=7,reset=0.1,latency_p=0.1,latency=20ms,error=0.05". Keys:
// seed, latency (duration), latency_p, error, reset, partial,
// blackhole. An empty spec returns a zero Config and no error.
func parse(spec string) (config, error) {
	var cfg config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: bad field %q (want key=value)", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "latency":
			cfg.Latency, err = time.ParseDuration(val)
		case "latency_p":
			cfg.LatencyP, err = parseProb(val)
		case "error":
			cfg.ErrorP, err = parseProb(val)
		case "reset":
			cfg.ResetP, err = parseProb(val)
		case "partial":
			cfg.PartialP, err = parseProb(val)
		case "blackhole":
			cfg.BlackholeP, err = parseProb(val)
		default:
			return cfg, fmt.Errorf("faultinject: unknown key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("faultinject: field %q: %w", field, err)
		}
	}
	if cfg.LatencyP > 0 && cfg.Latency == 0 {
		cfg.Latency = 20 * time.Millisecond
	}
	return cfg, nil
}

func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// fromEnv builds an Injector from the LEAKSIG_FAULTS spec variable; a
// FAULT_SEED variable, when set, overrides the spec's seed so smoke
// harnesses can pin determinism without rewriting the spec. Returns
// (nil, nil) when LEAKSIG_FAULTS is unset or empty.
func fromEnv() (*Injector, error) {
	spec := os.Getenv("LEAKSIG_FAULTS")
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	cfg, err := parse(spec)
	if err != nil {
		return nil, err
	}
	if s := os.Getenv("FAULT_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: FAULT_SEED: %w", err)
		}
		cfg.Seed = seed
	}
	return newInjector(cfg), nil
}

// FromFlag builds a daemon's Injector from its -faults flag value or,
// when that is empty, from the environment (see fromEnv). The error
// names which of the two was malformed.
func FromFlag(spec string) (*Injector, error) {
	if spec == "" {
		inj, err := fromEnv()
		if err != nil {
			return nil, fmt.Errorf("LEAKSIG_FAULTS: %w", err)
		}
		return inj, nil
	}
	cfg, err := parse(spec)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	return newInjector(cfg), nil
}

// Stats counts injected faults by kind.
type Stats struct {
	Requests   uint64 `json:"requests"`
	Latencies  uint64 `json:"latencies"`
	Errors5xx  uint64 `json:"errors_5xx"`
	Resets     uint64 `json:"resets"`
	Partials   uint64 `json:"partials"`
	Blackholes uint64 `json:"blackholes"`
}

// Injector injects faults per Config. A nil Injector is valid and
// injects nothing. Safe for concurrent use.
type Injector struct {
	cfg config

	mu  sync.Mutex
	rng *rand.Rand

	requests   atomic.Uint64
	latencies  atomic.Uint64
	errors5xx  atomic.Uint64
	resets     atomic.Uint64
	partials   atomic.Uint64
	blackholes atomic.Uint64
}

// newInjector returns an Injector for cfg, or nil when cfg injects nothing —
// so "chaos off" and "no injector" are the same cheap path.
func newInjector(cfg config) *Injector {
	if !cfg.enabled() {
		return nil
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// roll draws a uniform [0,1) variate from the seeded stream.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	f := in.rng.Float64()
	in.mu.Unlock()
	return f
}

// Stats returns fault counts so far. Nil-safe.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Requests:   in.requests.Load(),
		Latencies:  in.latencies.Load(),
		Errors5xx:  in.errors5xx.Load(),
		Resets:     in.resets.Load(),
		Partials:   in.partials.Load(),
		Blackholes: in.blackholes.Load(),
	}
}

// wrapTransport wraps base with fault injection. A nil Injector returns
// base unchanged (nil base meaning http.DefaultTransport is preserved
// for the caller to resolve).
func (in *Injector) wrapTransport(base http.RoundTripper) http.RoundTripper {
	if in == nil {
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base}
}

// Client wraps c (nil meaning a fresh default client) so its transport
// injects faults. Nil-safe: a nil Injector returns c unchanged.
func (in *Injector) Client(c *http.Client) *http.Client {
	if in == nil {
		return c
	}
	if c == nil {
		c = &http.Client{}
	}
	wrapped := *c
	wrapped.Transport = in.wrapTransport(c.Transport)
	return &wrapped
}

type transport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	in.requests.Add(1)
	cfg := in.cfg

	if cfg.BlackholeP > 0 && in.roll() < cfg.BlackholeP {
		in.blackholes.Add(1)
		<-req.Context().Done()
		return nil, fmt.Errorf("%w: %v", errInjectedBlackhole, req.Context().Err())
	}
	if cfg.LatencyP > 0 && in.roll() < cfg.LatencyP {
		in.latencies.Add(1)
		select {
		case <-time.After(cfg.Latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if cfg.ResetP > 0 && in.roll() < cfg.ResetP {
		in.resets.Add(1)
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: errInjectedReset}
	}
	if cfg.ErrorP > 0 && in.roll() < cfg.ErrorP {
		in.errors5xx.Add(1)
		body := "injected fault\n"
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}

	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if cfg.PartialP > 0 && in.roll() < cfg.PartialP {
		in.partials.Add(1)
		resp.Body = &partialBody{rc: resp.Body, remain: partialBudget(resp.ContentLength)}
		resp.ContentLength = -1
	}
	return resp, nil
}

// partialBudget picks how many body bytes to deliver before cutting the
// connection: half a known body, or a small fixed slice of a stream.
func partialBudget(contentLength int64) int64 {
	if contentLength > 1 {
		return contentLength / 2
	}
	return 64
}

// partialBody delivers remain bytes then fails with ErrUnexpectedEOF,
// mimicking a peer that died mid-response.
type partialBody struct {
	rc     io.ReadCloser
	remain int64
}

func (p *partialBody) Read(b []byte) (int, error) {
	if p.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(b)) > p.remain {
		b = b[:p.remain]
	}
	n, err := p.rc.Read(b)
	p.remain -= int64(n)
	if err == io.EOF {
		return n, io.EOF
	}
	if p.remain <= 0 && err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (p *partialBody) Close() error { return p.rc.Close() }

// String summarizes the active config for startup logs. Nil-safe.
func (in *Injector) String() string {
	if in == nil {
		return "faults off"
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "faults seed=%d", in.cfg.Seed)
	if in.cfg.LatencyP > 0 {
		fmt.Fprintf(&buf, " latency=%v@%.2g", in.cfg.Latency, in.cfg.LatencyP)
	}
	if in.cfg.ErrorP > 0 {
		fmt.Fprintf(&buf, " error=%.2g", in.cfg.ErrorP)
	}
	if in.cfg.ResetP > 0 {
		fmt.Fprintf(&buf, " reset=%.2g", in.cfg.ResetP)
	}
	if in.cfg.PartialP > 0 {
		fmt.Fprintf(&buf, " partial=%.2g", in.cfg.PartialP)
	}
	if in.cfg.BlackholeP > 0 {
		fmt.Fprintf(&buf, " blackhole=%.2g", in.cfg.BlackholeP)
	}
	return buf.String()
}
