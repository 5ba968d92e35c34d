// Package sigserver implements the signature distribution side of the
// paper's deployment (Figure 3a): "a separate server collects application
// traffic, clustering the data and generating signatures", and the
// on-device "information flow control application ... fetches signatures
// from the servers".
//
// Server publishes versioned signature sets over HTTP; Client fetches them
// with conditional requests so an unchanged set costs one cheap round trip.
// Publishes are observable in-process via OnPublish callbacks and over
// HTTP via the long-polling /wait endpoints, which Client.Watch uses so a
// streaming consumer learns of a new version within one round trip
// instead of a poll interval.
//
// A server built by Open journals its publishes (internal/durable): under
// one server-wide publish lock, Publish appends the {name, version, set}
// record, then installs the set, then wakes its watchers, and only then
// acks. A publish the journal cannot hold fails and changes nothing, so
// an acked publish is never lost to a restart, and no watcher ever sees a
// version the restarted server does not serve.
//
// Every set lives in one name-keyed table — one set per traffic
// population, the way the paper's per-module signatures isolate ad
// libraries — each with its own version sequence, strict-increase publish
// guard, and long-poll wait under /sets/{name}/.... The name "" is
// reserved for the default set: it always exists, and the root
// /signatures, /version, /wait and /publish paths are its aliases. A
// global catalog sequence (bumped by every publish to any set) backs
// GET /sets and GET /sets/wait, which Client.WatchSets uses to follow
// every population with one long poll instead of one per set.
package sigserver

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leaksig/internal/durable"
	"leaksig/internal/resilience"
	"leaksig/internal/signature"
)

// waitTimeoutMax caps how long one /wait request may hang before the
// server answers with the unchanged version and the client re-arms.
const waitTimeoutMax = 30 * time.Second

// maxNamedSets bounds how many named sets one server will hold — set
// names arrive from publishers (tenant keys, ultimately traffic fields),
// so the table must not grow without limit.
const maxNamedSets = 4096

// maxPublishBytes bounds a publish request body; a larger one is refused
// with 413. It is the publish journal's record bound, so a body over what
// the journal could hold is refused before it is decoded.
const maxPublishBytes = durable.MaxRecord

// maxFetchBytes bounds a GET /signatures body a Client reads. A server
// serves the indented form of a set whose compact form — the journal
// record — fits maxPublishBytes, and indentation adds at most 9 bytes
// (a newline and 8 spaces) to each value, the smallest of which, a
// one-byte token and its comma, takes 4: at most 3.25 times the compact
// form. A larger body — possible only from a server without a journal —
// is refused rather than buffered, and the watcher keeps its last set.
const maxFetchBytes = 4 * maxPublishBytes

// errBodyTooLarge refuses a body over its bound: 413 for a publish.
var errBodyTooLarge = errors.New("body too large")

// readBody reads all of r into one buffer: exactly size bytes when the
// sender declared the size (a Content-Length), else growing as the body
// arrives. A body over limit bytes — declared or read — is refused with
// errBodyTooLarge before more than limit+1 bytes are buffered.
func readBody(r io.Reader, size, limit int64) ([]byte, error) {
	if size > limit {
		return nil, errBodyTooLarge
	}
	if size < 0 {
		b, err := io.ReadAll(io.LimitReader(r, limit+1))
		if err == nil && int64(len(b)) > limit {
			err = errBodyTooLarge
		}
		return b, err
	}
	b := make([]byte, size)
	_, err := io.ReadFull(r, b)
	return b, err
}

// compactEvery is how many journal appends accumulate before the journal
// is compacted down to the latest record per name. Publishes supersede
// each other per name, so a long-lived journal would otherwise replay
// every historical version just to land on the last.
const compactEvery = 256

// ErrStaleVersion is returned by Publish (and surfaced over HTTP as 409
// Conflict) when a publish carries a version at or below the set's
// current one — the guard that stops stale or looping auto-publishers
// from rolling the fleet backwards.
var ErrStaleVersion = errors.New("sigserver: publish version not greater than current")

// errBadSetName rejects set names that cannot round-trip a URL path
// segment (empty, over 200 bytes, containing '/' or control bytes, or
// the path-cleaning hazards "." and "..").
var errBadSetName = errors.New("sigserver: invalid set name")

// errTooManySets rejects publishes that would create a named set past
// the server's table bound.
var errTooManySets = errors.New("sigserver: named set limit reached")

// errNotJournaled fails a publish whose record the journal could not
// append; over HTTP it is a 500, and the set's version is unchanged.
var errNotJournaled = errors.New("sigserver: publish not journaled")

// ValidSetName reports whether a publish may create a set called name:
// it must round-trip a URL path segment. "" is the reserved default set,
// which always exists and is never created. "." and ".." are rejected
// because ServeMux path cleaning folds them away before routing (a POST
// to /sets/../publish redirects to /publish and the redirected request
// loses its body) — and set names ultimately come from traffic fields, so
// a crafted Host of ".." must not wedge a publisher in a permanent retry
// loop. Publishers with attacker-influenced tenant keys should screen
// names with this before queueing a publish.
func ValidSetName(name string) bool {
	if name == "" || len(name) > 200 || name == "." || name == ".." {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7f || name[i] == '/' {
			return false
		}
	}
	return true
}

// setState is one distributable signature set with its own version
// sequence and change broadcast.
type setState struct {
	mu      sync.RWMutex
	set     *signature.Set
	version int64
	changed chan struct{} // closed and replaced on every publish

	publishes         atomic.Uint64
	publishesRejected atomic.Uint64
}

func newSetState() *setState {
	return &setState{set: &signature.Set{}, changed: make(chan struct{})}
}

// current returns the state's set and version.
func (st *setState) current() (*signature.Set, int64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.set, st.version
}

// read returns the version plus the change channel armed for the next
// publish — the long-poll primitives in one consistent snapshot.
func (st *setState) read() (int64, <-chan struct{}) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.version, st.changed
}

// Server holds the currently published signature sets, keyed by name. It
// is safe for concurrent use; the zero value is not usable, construct
// with New or Open.
type Server struct {
	// pubMu serializes publishes: each journals, installs and wakes under
	// it, and a compaction snapshots the sets and rewrites the journal
	// under it, so the journal's record order is the install order and no
	// append can fall between a compaction's snapshot and its rewrite.
	pubMu        sync.Mutex
	journal      *durable.Journal // nil: publishes live in memory only
	sinceCompact int              // journal appends since the last compaction

	// mu guards the set table and the callback list.
	mu        sync.RWMutex
	sets      map[string]*setState // "" (the default set) is present from New on
	onPublish []func(name string, version int64)

	// seq counts publishes to any set; /sets/wait long-polls it so one
	// watcher can follow every population with a single connection.
	seqMu      sync.Mutex
	seq        int64
	seqChanged chan struct{}
}

// New returns a server holding only the default set "", empty at
// version 0, whose publishes live in memory only.
func New() *Server {
	return &Server{
		sets:       map[string]*setState{"": newSetState()},
		seqChanged: make(chan struct{}),
	}
}

// lookup returns name's state, or nil for a name never published.
func (s *Server) lookup(name string) *setState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sets[name]
}

// create returns name's state, adding it on first publish subject to the
// name and table bounds. Callers hold s.pubMu, or replay before the
// server is shared, so no other create can race this one.
func (s *Server) create(name string) (*setState, error) {
	if st := s.lookup(name); st != nil {
		return st, nil
	}
	if !ValidSetName(name) {
		return nil, fmt.Errorf("%w: %q", errBadSetName, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sets) > maxNamedSets { // the default set does not count
		return nil, errTooManySets
	}
	st := newSetState()
	s.sets[name] = st
	return st, nil
}

// catalog returns the catalog sequence plus the channel closed at the
// next publish to any set.
func (s *Server) catalog() (int64, <-chan struct{}) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.seq, s.seqChanged
}

// Open returns a server whose publishes are journaled at path, synced
// per fsync. It first replays every intact record, installing each at its
// recorded version; a record at or below its set's version (a duplicate)
// or one that does not decode is skipped. Replayed records count as
// publishes: after Open, Stats().Seq is the number of records installed,
// and the journal's Stats().Recovered minus that is the number skipped.
// No OnPublish callback sees a replayed record. The caller syncs and
// closes the journal once the server takes no more publishes; a publish
// after that fails.
func Open(path string, fsync durable.FsyncPolicy) (*Server, *durable.Journal, error) {
	s := New()
	j, err := durable.Open(path, durable.JournalConfig{Fsync: fsync, Replay: s.replay})
	if err != nil {
		return nil, nil, err
	}
	s.journal = j
	return s, j, nil
}

// publishRecord is one journaled publish: which set, at what version,
// with what contents. The default set journals under its name, "".
type publishRecord struct {
	Name    string         `json:"name"`
	Version int64          `json:"version"`
	Set     *signature.Set `json:"set"`
}

// replay installs one journal record during Open.
func (s *Server) replay(payload []byte) error {
	var rec publishRecord
	if json.Unmarshal(payload, &rec) != nil || rec.Set == nil || rec.Version <= 0 {
		// An intact-CRC record that fails to decode is a version-skew
		// artifact, not corruption; skip it rather than refuse to boot.
		return nil
	}
	st, err := s.create(rec.Name)
	if err != nil {
		return fmt.Errorf("replay %q v%d: %w", rec.Name, rec.Version, err)
	}
	if _, cur := st.current(); rec.Version <= cur {
		return nil
	}
	rec.Set.Version = rec.Version
	s.install(st, rec.Set)
	return nil
}

// Publish installs set as name's current set, creating the name on its
// first publish. A zero set.Version auto-bumps the name's version; any
// other must strictly exceed it, or the publish is rejected with
// ErrStaleVersion (and counted) — writers stamp last-seen + 1, so two
// loops feeding one server cannot ping-pong the fleet between their
// generations. The set's Version field is overwritten with the accepted
// version.
//
// Under the server's publish lock, a journaled server appends the record
// first; if the append fails, so does the publish, and the version does
// not change. Then the set is installed and its watchers woken. Every
// OnPublish callback runs after the lock is released, before Publish
// returns.
func (s *Server) Publish(name string, set *signature.Set) (int64, error) {
	version, err := s.publish(name, set)
	if err != nil {
		return version, err
	}
	s.mu.RLock()
	cbs := s.onPublish
	s.mu.RUnlock()
	for _, fn := range cbs {
		fn(name, version)
	}
	return version, nil
}

// publish is Publish up to its callbacks, under s.pubMu: version check,
// journal, install, wake, and every compactEvery appends a compaction.
func (s *Server) publish(name string, set *signature.Set) (int64, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	st, err := s.create(name)
	if err != nil {
		return 0, err
	}
	_, cur := st.current()
	version := set.Version
	if version == 0 {
		version = cur + 1
	} else if version <= cur {
		st.publishesRejected.Add(1)
		return cur, fmt.Errorf("%w: got %d, current %d", ErrStaleVersion, version, cur)
	}
	prev := set.Version
	set.Version = version
	if s.journal == nil {
		s.install(st, set)
		return version, nil
	}
	payload, err := json.Marshal(publishRecord{Name: name, Version: version, Set: set})
	if err == nil {
		err = s.journal.Append(payload)
	}
	if err != nil {
		set.Version = prev
		return cur, fmt.Errorf("%w: %w", errNotJournaled, err)
	}
	s.install(st, set)
	if s.sinceCompact++; s.sinceCompact >= compactEvery {
		s.sinceCompact = 0
		s.compactLocked()
	}
	return version, nil
}

// install makes set, its Version already stamped, st's current set and
// wakes the set's watchers and the catalog's. Callers hold s.pubMu, or
// replay before the server is shared.
func (s *Server) install(st *setState, set *signature.Set) {
	st.mu.Lock()
	st.version = set.Version
	st.set = set
	notify := st.changed
	st.changed = make(chan struct{})
	st.mu.Unlock()
	st.publishes.Add(1)
	close(notify)

	s.seqMu.Lock()
	s.seq++
	seqNotify := s.seqChanged
	s.seqChanged = make(chan struct{})
	s.seqMu.Unlock()
	close(seqNotify)
}

// compactLocked rewrites the journal as one record per set at its
// current version. Callers hold s.pubMu, so the snapshot is exactly what
// the journal holds. A set that fails to encode abandons the compaction
// rather than drop the set from the rewrite.
func (s *Server) compactLocked() {
	names := s.setNames()
	records := make([][]byte, 0, len(names))
	for _, name := range names {
		set, v, _ := s.CurrentNamed(name)
		if v == 0 {
			continue
		}
		payload, err := json.Marshal(publishRecord{Name: name, Version: v, Set: set})
		if err != nil {
			return
		}
		records = append(records, payload)
	}
	s.journal.Compact(records)
}

// PublishSet is Publish to the default set "".
func (s *Server) PublishSet(set *signature.Set) (int64, error) { return s.Publish("", set) }

// Current returns the default set "" and its version.
func (s *Server) Current() (*signature.Set, int64) {
	set, v, _ := s.CurrentNamed("")
	return set, v
}

// CurrentNamed returns name's set, its version, and whether the name
// exists ("" always does). A name never published reads as an empty set
// at version 0 — the zero state every set starts in.
func (s *Server) CurrentNamed(name string) (*signature.Set, int64, bool) {
	st := s.lookup(name)
	if st == nil {
		return &signature.Set{}, 0, false
	}
	set, v := st.current()
	return set, v, true
}

// setNames returns every set's name, sorted; "" (the default set) is
// always first.
func (s *Server) setNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.sets))
	for name := range s.sets {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// setsSnapshot returns the catalog sequence plus every set's version. The
// sequence is read FIRST: a publish racing the snapshot then shows up in
// the versions (harmless early delivery) rather than only in the
// sequence (a watcher sleeping past it).
func (s *Server) setsSnapshot() (int64, map[string]int64) {
	seq, _ := s.catalog()
	s.mu.RLock()
	defer s.mu.RUnlock()
	versions := make(map[string]int64, len(s.sets))
	for name, st := range s.sets {
		_, versions[name] = st.current()
	}
	return seq, versions
}

// OnPublish registers a callback invoked with the set name and new
// version after every publish to any set (never for a set Open replays).
// Callbacks run synchronously on the publishing goroutine, after the set
// is journaled, installed and its watchers woken, and must not publish
// themselves.
func (s *Server) OnPublish(fn func(name string, version int64)) {
	s.mu.Lock()
	s.onPublish = append(s.onPublish, fn)
	s.mu.Unlock()
}

// NamedSetStats are one set's version and publish counters.
type NamedSetStats struct {
	Version           int64  `json:"version"`
	Signatures        int    `json:"signatures"`
	Publishes         uint64 `json:"publishes"`
	PublishesRejected uint64 `json:"publishes_rejected"`
}

// ServerStats are the server's lifetime publish counters and live state:
// the default set's at the top level, every other set under Sets, and
// Seq, the catalog sequence across all of them.
type ServerStats struct {
	Version           int64                    `json:"version"`
	Signatures        int                      `json:"signatures"`
	Publishes         uint64                   `json:"publishes"`
	PublishesRejected uint64                   `json:"publishes_rejected"`
	Seq               int64                    `json:"seq"`
	Sets              map[string]NamedSetStats `json:"sets,omitempty"`
}

func statsOf(st *setState) NamedSetStats {
	set, v := st.current()
	return NamedSetStats{
		Version:           v,
		Signatures:        set.Len(),
		Publishes:         st.publishes.Load(),
		PublishesRejected: st.publishesRejected.Load(),
	}
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	var out ServerStats
	out.Seq, _ = s.catalog()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, st := range s.sets {
		if name == "" {
			def := statsOf(st)
			out.Version, out.Signatures = def.Version, def.Signatures
			out.Publishes, out.PublishesRejected = def.Publishes, def.PublishesRejected
			continue
		}
		if out.Sets == nil {
			out.Sets = make(map[string]NamedSetStats, len(s.sets))
		}
		out.Sets[name] = statsOf(st)
	}
	return out
}

// setRoutes are the path prefixes every per-set endpoint is mounted
// under: the root aliases of the default set, and /sets/{name}. On the
// root routes r.PathValue("name") reads "", which names the default set.
var setRoutes = []string{"", "/sets/{name}"}

// Handler returns the HTTP API:
//
//	GET /sets/{name}/signatures — the set as JSON, ETag = version;
//	                              supports If-None-Match → 304
//	GET /sets/{name}/version    — the set's version as text
//	GET /sets/{name}/wait       — long-poll: ?v=N blocks until the version
//	                              exceeds N (or a timeout), then answers the
//	                              current version as text
//	GET /signatures, /version, /wait
//	                            — the same for the default set ""
//	GET /sets                   — catalog: {"seq":N,"sets":{name:version}},
//	                              the default set listed as ""
//	GET /sets/wait              — long-poll: ?s=N blocks until the catalog
//	                              sequence exceeds N (any set published)
//	GET /stats                  — publish counters as JSON, every set but
//	                              the default broken out under "sets"
//	GET /healthz                — liveness
//	GET /readyz                 — readiness: 503 until any set holds a
//	                              published (or replayed) version
//
// A name never published reads as an empty set at version 0. Handler is
// strictly read-only; use HandlerWithPublish to accept publishes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		json.NewEncoder(w).Encode(s.Stats())
	})
	for _, prefix := range setRoutes {
		mux.HandleFunc("GET "+prefix+"/signatures", func(w http.ResponseWriter, r *http.Request) {
			set, version, _ := s.CurrentNamed(r.PathValue("name"))
			writeSetJSON(w, r, set, version)
		})
		mux.HandleFunc("GET "+prefix+"/version", func(w http.ResponseWriter, r *http.Request) {
			_, version, _ := s.CurrentNamed(r.PathValue("name"))
			fmt.Fprintf(w, "%d", version)
		})
		mux.HandleFunc("GET "+prefix+"/wait", func(w http.ResponseWriter, r *http.Request) {
			name := r.PathValue("name")
			// A name never published waits on the catalog broadcast: its
			// first publish bumps the sequence, re-arming the check — so
			// watching a set that does not exist yet neither errors nor
			// allocates state.
			s.serveWait(w, r, "v", func() (int64, <-chan struct{}) {
				if st := s.lookup(name); st != nil {
					return st.read()
				}
				_, ch := s.catalog()
				return 0, ch
			})
		})
	}
	mux.HandleFunc("GET /sets", func(w http.ResponseWriter, r *http.Request) {
		seq, versions := s.setsSnapshot()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Seq  int64            `json:"seq"`
			Sets map[string]int64 `json:"sets"`
		}{Seq: seq, Sets: versions})
	})
	mux.HandleFunc("GET /sets/wait", func(w http.ResponseWriter, r *http.Request) {
		s.serveWait(w, r, "s", s.catalog)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// A distributor with nothing to distribute should not take
		// watcher traffic: cold nodes answer 503 until a seed load,
		// journal replay or first publish lands a version in some set.
		if seq, _ := s.catalog(); seq == 0 {
			http.Error(w, "no signature set yet", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready")
	})
	return mux
}

// TraceHeader carries a trace ID across the pipeline's HTTP hops: the
// publisher sets it from the set's first provenance trace, the server
// stores it into the set and echoes it on fetches, so a watcher's reload
// can adopt the trace of the miss that started the generation.
const TraceHeader = "X-Leaksig-Trace"

// writeSetJSON serves one signature set with the ETag/If-None-Match
// conditional-request contract.
func writeSetJSON(w http.ResponseWriter, r *http.Request, set *signature.Set, version int64) {
	etag := fmt.Sprintf("%q", strconv.FormatInt(version, 10))
	if len(set.Traces) > 0 {
		w.Header().Set(TraceHeader, set.Traces[0])
	}
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		http.Error(w, "encoding failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set("ETag", etag)
	w.Write(buf.Bytes())
}

// serveWait is the long-poll shared by the per-set waits and /sets/wait:
// block until read() exceeds the ?{param}= value (or a timeout), then
// answer the current value as text.
func (s *Server) serveWait(w http.ResponseWriter, r *http.Request, param string, read func() (int64, <-chan struct{})) {
	after := int64(0)
	if v := r.URL.Query().Get(param); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad "+param+" parameter", http.StatusBadRequest)
			return
		}
		after = n
	}
	timeout := waitTimeoutMax
	if t := r.URL.Query().Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil || d <= 0 {
			http.Error(w, "bad timeout parameter", http.StatusBadRequest)
			return
		}
		if d < timeout {
			timeout = d
		}
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		current, notify := read()
		if current > after {
			fmt.Fprintf(w, "%d", current)
			return
		}
		select {
		case <-notify:
			// Re-read: coalesced publishes may have advanced further.
		case <-deadline.C:
			fmt.Fprintf(w, "%d", current)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// HandlerWithPublish mounts Handler plus the write endpoints:
//
//	POST /sets/{name}/publish  — replace (or create) the named set
//	POST /publish              — the same for the default set ""
//
// Both route by the body's Version field: 0 auto-bumps, a non-zero
// Version must exceed the set's current one or the publish is rejected
// with 409 Conflict; the accepted version is answered as text. A body
// over maxPublishBytes is refused with 413, and a publish the server's
// journal could not append with 500.
//
// A non-empty token requires `Authorization: Bearer <token>` (compared
// in constant time); an empty token leaves the endpoints open, which is
// only safe behind loopback or an authenticating front. The endpoints are
// deliberately not part of Handler, so mounting the read-only API never
// exposes a write path by accident.
func (s *Server) HandlerWithPublish(token string) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	for _, prefix := range setRoutes {
		mux.HandleFunc("POST "+prefix+"/publish", func(w http.ResponseWriter, r *http.Request) {
			s.servePublish(w, r, token)
		})
	}
	return mux
}

func (s *Server) servePublish(w http.ResponseWriter, r *http.Request, token string) {
	if token != "" {
		if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+token)) != 1 {
			http.Error(w, "missing or wrong bearer token", http.StatusUnauthorized)
			return
		}
	}
	body, err := readBody(r.Body, r.ContentLength, maxPublishBytes)
	if errors.Is(err, errBodyTooLarge) {
		http.Error(w, fmt.Sprintf("bad signature set: over %d bytes", maxPublishBytes), http.StatusRequestEntityTooLarge)
		return
	}
	var set *signature.Set
	if err == nil {
		set, err = signature.DecodeJSON(body)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad signature set: %v", err), http.StatusBadRequest)
		return
	}
	// Reject unknown kinds and views here, at the wire boundary: a
	// typo'd kind accepted into the fleet would compile to a signature
	// that silently never matches.
	if err := set.Validate(); err != nil {
		http.Error(w, fmt.Sprintf("bad signature set: %v", err), http.StatusBadRequest)
		return
	}
	// A publisher that carries trace context only in the header (older
	// bodies, hand-rolled curl publishes) still gets provenance stored.
	if id := r.Header.Get(TraceHeader); id != "" && len(set.Traces) == 0 {
		set.Traces = []string{id}
	}
	v, err := s.Publish(r.PathValue("name"), set)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrStaleVersion):
			status = http.StatusConflict
		case errors.Is(err, errNotJournaled):
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}
	fmt.Fprintf(w, "%d", v)
}

// setCache is one set's conditional-fetch state inside a Client.
type setCache struct {
	etag   string
	cached *signature.Set
}

// Client fetches signature sets from a Server's HTTP API, each set cached
// independently for conditional requests.
type Client struct {
	base    string
	hc      *http.Client
	token   string
	breaker *resilience.Breaker

	jmu  sync.Mutex
	jrng *rand.Rand
	// sleep parks a watch loop between retries; tests replace it with a
	// fake clock so backoff behavior is assertable without real time.
	sleep func(ctx context.Context, d time.Duration) error

	mu     sync.Mutex
	caches map[string]*setCache // keyed by set name
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8700"). httpClient may be nil for http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:   base,
		hc:     httpClient,
		jrng:   rand.New(rand.NewSource(time.Now().UnixNano())),
		sleep:  sleepCtx,
		caches: make(map[string]*setCache),
	}
}

// SetToken installs the bearer token sent on Publish ("" sends none).
// Call before the first Publish; it is not synchronized with in-flight
// requests.
func (c *Client) SetToken(token string) { c.token = token }

// SetBreaker gates the publish path behind a circuit breaker: while it
// is open, Publish fails immediately with an error wrapping
// resilience.ErrOpen instead of dialing a dead server. Fetch and watch
// paths are NOT gated — serving stale signatures beats serving none, so
// reads keep probing. Call before concurrent use.
func (c *Client) SetBreaker(br *resilience.Breaker) { c.breaker = br }

// setRetrySeed fixes the watch-retry jitter stream — for tests that
// need reproducible retry timing. Call before concurrent use.
func (c *Client) setRetrySeed(seed int64) {
	c.jmu.Lock()
	c.jrng = rand.New(rand.NewSource(seed))
	c.jmu.Unlock()
}

// backoff parks a watch loop after a failed round trip for a jittered
// interval drawn uniformly from [d/2, d] (d <= 0 means 10s), and returns
// ctx's error once the watch should end. The jitter is the point:
// thousands of watchers that all lost the same restarted server would
// otherwise retry in lockstep forever, re-flooding it at exactly the
// fallback cadence.
func (c *Client) backoff(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		d = 10 * time.Second
	}
	c.jmu.Lock()
	f := c.jrng.Float64()
	c.jmu.Unlock()
	d -= time.Duration(f * 0.5 * float64(d))
	return c.sleep(ctx, d)
}

// pathPrefix maps a set name to its URL prefix: the default set "" is
// served at the root aliases, every other set under /sets/{name}.
func pathPrefix(name string) string {
	if name == "" {
		return ""
	}
	return "/sets/" + url.PathEscape(name)
}

// Publish POSTs the set to name's publish endpoint ("" is the default
// set) and returns the version the server accepted it as. A non-zero
// set.Version engages the server's strict-increase guard; a 409 response
// surfaces as an error wrapping ErrStaleVersion.
func (c *Client) Publish(ctx context.Context, name string, set *signature.Set) (int64, error) {
	if c.breaker == nil {
		return c.publishOnce(ctx, name, set)
	}
	if !c.breaker.Allow() {
		return 0, fmt.Errorf("sigserver: publish %q: %w", name, resilience.ErrOpen)
	}
	v, err := c.publishOnce(ctx, name, set)
	// A stale-version conflict proves the server is alive and deciding;
	// only transport and server-side failures count against the breaker.
	if errors.Is(err, ErrStaleVersion) {
		c.breaker.Record(nil)
	} else {
		c.breaker.Record(err)
	}
	return v, err
}

func (c *Client) publishOnce(ctx context.Context, name string, set *signature.Set) (int64, error) {
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		return 0, fmt.Errorf("sigserver: encoding set: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+pathPrefix(name)+"/publish", &buf)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if len(set.Traces) > 0 {
		req.Header.Set(TraceHeader, set.Traces[0])
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("sigserver: publishing: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return 0, fmt.Errorf("%w: %s", ErrStaleVersion, bytes.TrimSpace(body))
	default:
		return 0, fmt.Errorf("sigserver: publish status %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	v, err := strconv.ParseInt(string(bytes.TrimSpace(body)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sigserver: parsing publish version %q: %w", body, err)
	}
	return v, nil
}

// Fetch retrieves the current default set "", reusing the cached copy
// when the server reports it unchanged. The second result reports
// whether the set changed since the previous fetch.
func (c *Client) Fetch(ctx context.Context) (*signature.Set, bool, error) {
	return c.fetch(ctx, "")
}

func (c *Client) cache(name string) *setCache {
	sc := c.caches[name]
	if sc == nil {
		sc = &setCache{}
		c.caches[name] = sc
	}
	return sc
}

// fetch is Fetch for any set name, each with its own conditional cache.
// A name never published yields an empty set at version 0.
func (c *Client) fetch(ctx context.Context, name string) (*signature.Set, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+pathPrefix(name)+"/signatures", nil)
	if err != nil {
		return nil, false, fmt.Errorf("sigserver: building request: %w", err)
	}
	c.mu.Lock()
	if etag := c.cache(name).etag; etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	c.mu.Unlock()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("sigserver: fetching signatures: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		c.mu.Lock()
		cached := c.cache(name).cached
		c.mu.Unlock()
		if cached == nil {
			return nil, false, fmt.Errorf("sigserver: 304 without cached set")
		}
		return cached, false, nil
	case http.StatusOK:
		body, err := readBody(resp.Body, resp.ContentLength, maxFetchBytes)
		if err != nil {
			return nil, false, fmt.Errorf("sigserver: reading signatures: %w", err)
		}
		set, err := signature.DecodeJSON(body)
		if err == nil {
			// A watcher keeps its last good set rather than install one
			// no engine can compile.
			err = set.Validate()
		}
		if err != nil {
			return nil, false, fmt.Errorf("sigserver: fetched set: %w", err)
		}
		c.mu.Lock()
		sc := c.cache(name)
		sc.etag = resp.Header.Get("ETag")
		sc.cached = set
		c.mu.Unlock()
		return set, true, nil
	default:
		return nil, false, fmt.Errorf("sigserver: unexpected status %s", resp.Status)
	}
}

// Version asks the server for name's current version ("" is the default
// set).
func (c *Client) Version(ctx context.Context, name string) (int64, error) {
	return c.intGet(ctx, pathPrefix(name)+"/version")
}

// intGet fetches one integer-bodied endpoint.
func (c *Client) intGet(ctx context.Context, path string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("sigserver: fetching %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("sigserver: %s: unexpected status %s", path, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64))
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(bytes.TrimSpace(body)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sigserver: parsing %s body %q: %w", path, body, err)
	}
	return v, nil
}

// WaitVersion long-polls /wait until the default set's version exceeds
// after, returning the version it saw. A server-side timeout returns the
// unchanged version; callers loop.
func (c *Client) WaitVersion(ctx context.Context, after int64) (int64, error) {
	return c.waitVersion(ctx, "", after)
}

// waitVersion is WaitVersion for any set name. Waiting on a name never
// published blocks until its first publish.
func (c *Client) waitVersion(ctx context.Context, name string, after int64) (int64, error) {
	return c.intGet(ctx, fmt.Sprintf("%s/wait?v=%d", pathPrefix(name), after))
}

// listSets fetches the server's set catalog: the catalog sequence plus every
// set's version, the default set included as "".
func (c *Client) listSets(ctx context.Context) (int64, map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/sets", nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("sigserver: fetching sets: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("sigserver: /sets: unexpected status %s", resp.Status)
	}
	var out struct {
		Seq  int64            `json:"seq"`
		Sets map[string]int64 `json:"sets"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return 0, nil, fmt.Errorf("sigserver: decoding sets: %w", err)
	}
	if out.Sets == nil {
		out.Sets = map[string]int64{}
	}
	return out.Seq, out.Sets, nil
}

// waitSets long-polls /sets/wait until the catalog sequence exceeds
// after — i.e. until any set is published.
func (c *Client) waitSets(ctx context.Context, after int64) (int64, error) {
	return c.intGet(ctx, fmt.Sprintf("/sets/wait?s=%d", after))
}

// fetchTimeout bounds one Watch fetch attempt so a hung server cannot
// stall the refresh loop forever.
const fetchTimeout = 30 * time.Second

// Watch delivers the current default set "", then every subsequent
// publish to it, to fn until ctx is cancelled. Between deliveries it
// blocks on the server's /wait long-poll, so a new version arrives within
// one round trip; across errors (a server without /wait included) it
// re-fetches every fallback, jittered (0 means 10s). Every round trip
// carries its own deadline, so a half-open connection costs one retry,
// never a wedged watch. fn runs on the watching goroutine.
func (c *Client) Watch(ctx context.Context, fallback time.Duration, fn func(*signature.Set)) error {
	return c.watch(ctx, "", fallback, fn)
}

// watch is Watch for any set name.
func (c *Client) watch(ctx context.Context, name string, fallback time.Duration, fn func(*signature.Set)) error {
	wait := func(ctx context.Context, after int64) (int64, error) { return c.waitVersion(ctx, name, after) }
	first := true
	for {
		set, changed, err := c.fetchTimed(ctx, name)
		if err != nil {
			if err := c.backoff(ctx, fallback); err != nil {
				return err
			}
			continue
		}
		if changed || first {
			fn(set)
			first = false
		}
		if err := c.awaitAdvance(ctx, fallback, set.Version, wait); err != nil {
			return err
		}
	}
}

// WatchSets follows every set the server distributes: it delivers every
// set in the catalog immediately (the default set as ""), and then each
// set's subsequent publishes — all through one /sets/wait long poll
// instead of one connection per set. fn receives the set name and runs
// on the watching goroutine. Errors are retried as in Watch.
func (c *Client) WatchSets(ctx context.Context, fallback time.Duration, fn func(name string, set *signature.Set)) error {
	first := true
	known := make(map[string]int64)
	for {
		sctx, cancel := context.WithTimeout(ctx, fetchTimeout)
		seq, versions, err := c.listSets(sctx)
		cancel()
		if err != nil {
			if err := c.backoff(ctx, fallback); err != nil {
				return err
			}
			continue
		}
		fetchFailed := false
		for name, v := range versions {
			if !first && v == known[name] {
				continue
			}
			set, _, err := c.fetchTimed(ctx, name)
			if err != nil {
				fetchFailed = true
				continue
			}
			fn(name, set)
			known[name] = set.Version
		}
		first = false
		if fetchFailed {
			// A set listed in the catalog was not delivered; retry after
			// the fallback interval rather than parking on /sets/wait —
			// the sequence only advances on another publish, which may
			// never come, and the undelivered set would be lost until it
			// did.
			if err := c.backoff(ctx, fallback); err != nil {
				return err
			}
			continue
		}
		if err := c.awaitAdvance(ctx, fallback, seq, c.waitSets); err != nil {
			return err
		}
	}
}

// awaitAdvance re-arms the long poll wait until the counter it answers
// exceeds last. A server-side timeout answers the unchanged counter, and
// re-fetching on it would learn nothing — at fleet fan-out that doubles
// idle request volume. Each wait carries a deadline comfortably above
// the server's own long-poll cap, so only a hung connection — not a
// patient server — trips it. After an error awaitAdvance backs off and
// returns nil so the caller re-fetches; it returns an error only when
// ctx ends the watch.
func (c *Client) awaitAdvance(ctx context.Context, fallback time.Duration, last int64, wait func(context.Context, int64) (int64, error)) error {
	for {
		wctx, cancel := context.WithTimeout(ctx, waitTimeoutMax+fetchTimeout)
		v, err := wait(wctx, last)
		cancel()
		if err != nil {
			return c.backoff(ctx, fallback)
		}
		if v > last {
			return nil
		}
	}
}

// fetchTimed is fetch with a per-attempt deadline.
func (c *Client) fetchTimed(ctx context.Context, name string) (*signature.Set, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	return c.fetch(ctx, name)
}

// sleepCtx sleeps for d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
