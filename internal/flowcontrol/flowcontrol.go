// Package flowcontrol implements the on-device half of the paper's system
// (Figure 3b): "The information flow control application inspects network
// traffic using the Android API and detects sensitive information leakage
// using the ... server generated signatures. It does not require any
// special privileges."
//
// The reproduction realizes the interposition point as a local HTTP forward
// proxy — the same vantage an unprivileged Android 2.x application gets by
// registering itself as the APN proxy. Every outgoing request is converted
// to the packet model, matched against the current signature set, and
// subjected to a policy (allow / block / prompt); every decision lands in
// an audit log, giving the user exactly the per-transmission control the
// paper argues Android lacks (§III-A).
//
// Matching is delegated through the Backend interface: a batch
// detect.Engine for a static set, or a streaming engine.Engine whose
// sharded hot reload a sigserver watch drives. NewObservedBackend wraps
// either so the requests no signature matches also feed online signature
// generation.
package flowcontrol

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// Action is a policy outcome for one request.
type Action int

// Actions. Prompt defers to the policy's interactive callback; in headless
// deployments it degrades to Block.
const (
	Allow Action = iota
	Block
	Prompt
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Allow:
		return "allow"
	case Block:
		return "block"
	case Prompt:
		return "prompt"
	default:
		return "unknown"
	}
}

// Policy decides what to do with a request given the signatures it matched.
type Policy interface {
	Decide(p *httpmodel.Packet, matched []int) Action
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(p *httpmodel.Packet, matched []int) Action

// Decide implements Policy.
func (f PolicyFunc) Decide(p *httpmodel.Packet, matched []int) Action { return f(p, matched) }

// BlockMatched blocks any request matching at least one signature — the
// strictest default.
func BlockMatched() Policy {
	return PolicyFunc(func(_ *httpmodel.Packet, matched []int) Action {
		if len(matched) > 0 {
			return Block
		}
		return Allow
	})
}

// promptMatched asks the user about each matching request via confirm and
// allows everything else. A nil confirm blocks every match (headless).
func promptMatched(confirm func(p *httpmodel.Packet, matched []int) bool) Policy {
	return PolicyFunc(func(p *httpmodel.Packet, matched []int) Action {
		if len(matched) == 0 {
			return Allow
		}
		if confirm == nil {
			return Block
		}
		if confirm(p, matched) {
			return Allow
		}
		return Block
	})
}

// AuditEntry records one decision.
type AuditEntry struct {
	Time    time.Time
	Method  string
	Host    string
	Path    string
	Matched []int // signature IDs
	Action  Action
}

// Backend vets one packet and returns the IDs of the signatures it
// matches. *detect.Engine satisfies it directly; so does the streaming
// *engine.Engine via its synchronous MatchPacket, which gives the proxy
// the engine's sharded hot-reload semantics without a second reload path.
// Implementations must be safe for concurrent use.
type Backend interface {
	MatchPacket(p *httpmodel.Packet) []int
}

// auditCap bounds the audit log: the proxy keeps the newest auditCap
// decisions. A long-running proxy serves without end, and every entry
// holds a request path that may carry a device identifier.
const auditCap = 1024

// Proxy is the flow-control forward proxy.
type Proxy struct {
	backend   Backend
	policy    Policy
	transport http.RoundTripper

	mu        sync.Mutex
	audit     []AuditEntry // ring of at most auditCap entries
	auditNext int          // once the ring is full, the index of its oldest entry

	allowed atomic.Int64
	blocked atomic.Int64
}

// NewProxy builds a proxy enforcing the signature set with the policy.
// transport may be nil for http.DefaultTransport.
func NewProxy(set *signature.Set, policy Policy, transport http.RoundTripper) *Proxy {
	if set == nil {
		set = &signature.Set{}
	}
	return NewProxyWith(detect.NewEngine(set), policy, transport)
}

// NewProxyWith builds a proxy vetting requests through an arbitrary
// matcher backend — e.g. a streaming engine.Engine whose signature set a
// sigserver watch keeps current; the backend's own reload is the proxy's
// only hot-swap path. A nil backend installs an empty signature set.
func NewProxyWith(backend Backend, policy Policy, transport http.RoundTripper) *Proxy {
	if backend == nil {
		backend = detect.NewEngine(&signature.Set{})
	}
	if policy == nil {
		policy = BlockMatched()
	}
	if transport == nil {
		transport = http.DefaultTransport
	}
	return &Proxy{backend: backend, policy: policy, transport: transport}
}

// Stats returns how many requests were allowed and blocked.
func (p *Proxy) Stats() (allowed, blocked int64) {
	return p.allowed.Load(), p.blocked.Load()
}

// Audit returns a copy of the audit log, oldest first. The log holds the
// newest 1,024 decisions; older ones are dropped.
func (p *Proxy) Audit() []AuditEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]AuditEntry, 0, len(p.audit))
	out = append(out, p.audit[p.auditNext:]...)
	return append(out, p.audit[:p.auditNext]...)
}

func (p *Proxy) record(e AuditEntry) {
	p.mu.Lock()
	if len(p.audit) < auditCap {
		p.audit = append(p.audit, e)
	} else {
		p.audit[p.auditNext] = e
		p.auditNext = (p.auditNext + 1) % auditCap
	}
	p.mu.Unlock()
}

// packetFromRequest converts an outgoing proxied request into the packet
// model. The body is read and restored so the request can still be
// forwarded.
func packetFromRequest(r *http.Request) (*httpmodel.Packet, error) {
	pkt := &httpmodel.Packet{
		Method: r.Method,
		Proto:  "HTTP/1.1",
		Host:   r.Host,
	}
	if pkt.Host == "" {
		pkt.Host = r.URL.Host
	}
	if h, port, ok := strings.Cut(pkt.Host, ":"); ok {
		pkt.Host = h
		if n, err := strconv.Atoi(port); err == nil {
			pkt.DstPort = uint16(n)
		}
	} else if pkt.DstPort == 0 {
		pkt.DstPort = 80
	}
	pkt.Path = r.URL.RequestURI()
	for name, vals := range r.Header {
		for _, v := range vals {
			pkt.Headers = append(pkt.Headers, httpmodel.Header{Name: name, Value: v})
		}
	}
	if r.Body != nil && r.Body != http.NoBody {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			return nil, fmt.Errorf("flowcontrol: reading request body: %w", err)
		}
		r.Body.Close()
		pkt.Body = body
		r.Body = io.NopCloser(strings.NewReader(string(body)))
		r.ContentLength = int64(len(body))
	}
	return pkt, nil
}

// ServeHTTP implements the forward proxy: vet, then forward or refuse.
// Blocked requests receive 451 Unavailable For Legal Reasons with a
// description of the matched signatures.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodConnect {
		// HTTPS tunneling would blind the inspector; the paper's scope is
		// cleartext HTTP (§VI), so tunnels are refused.
		http.Error(w, "flowcontrol: CONNECT tunnels are not inspected", http.StatusNotImplemented)
		return
	}
	pkt, err := packetFromRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	matched := p.backend.MatchPacket(pkt)
	action := p.policy.Decide(pkt, matched)
	if action == Prompt {
		action = Block
	}
	p.record(AuditEntry{
		Time:    time.Now(),
		Method:  pkt.Method,
		Host:    pkt.Host,
		Path:    pkt.Path,
		Matched: matched,
		Action:  action,
	})
	if action == Block {
		p.blocked.Add(1)
		w.Header().Set("X-Leaksig-Matched", fmt.Sprint(matched))
		http.Error(w,
			fmt.Sprintf("leaksig: transmission blocked: matched signatures %v", matched),
			http.StatusUnavailableForLegalReasons)
		return
	}
	p.allowed.Add(1)
	p.forward(w, r)
}

func (p *Proxy) forward(w http.ResponseWriter, r *http.Request) {
	out := r.Clone(r.Context())
	out.RequestURI = "" // client requests must not carry RequestURI
	if out.URL.Scheme == "" {
		out.URL.Scheme = "http"
	}
	if out.URL.Host == "" {
		out.URL.Host = r.Host
	}
	resp, err := p.transport.RoundTrip(out)
	if err != nil {
		http.Error(w, fmt.Sprintf("flowcontrol: upstream: %v", err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for name, vals := range resp.Header {
		for _, v := range vals {
			w.Header().Add(name, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) // best effort; the client sees a truncated body on error
}
