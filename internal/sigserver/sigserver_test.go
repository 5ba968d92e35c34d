package sigserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leaksig/internal/signature"
)

func testSet(tokens ...string) *signature.Set {
	return &signature.Set{Signatures: []*signature.Signature{
		{ID: 0, Tokens: tokens, ClusterSize: 2},
	}}
}

func TestPublishBumpsVersion(t *testing.T) {
	s := New()
	if _, v := s.Current(); v != 0 {
		t.Fatalf("initial version = %d", v)
	}
	v1, _ := s.Publish("", testSet("tok-one"))
	v2, _ := s.Publish("", testSet("tok-two"))
	if v1 != 1 || v2 != 2 {
		t.Errorf("versions = %d, %d", v1, v2)
	}
	set, v := s.Current()
	if v != 2 || set.Version != 2 || set.Signatures[0].Tokens[0] != "tok-two" {
		t.Errorf("current = %+v at %d", set, v)
	}
}

func TestFetchRoundTrip(t *testing.T) {
	s := New()
	s.Publish("", testSet("udid=f3a9c1d2"))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	set, changed, err := c.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("first fetch should report change")
	}
	if set.Len() != 1 || set.Signatures[0].Tokens[0] != "udid=f3a9c1d2" {
		t.Fatalf("fetched set = %+v", set)
	}

	// Second fetch: unchanged, served from cache via 304.
	set2, changed, err := c.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("unchanged fetch reported change")
	}
	if set2 != set {
		t.Error("cache not reused on 304")
	}

	// Publish a new set: fetch must see it.
	s.Publish("", testSet("imei=3539"))
	set3, changed, err := c.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !changed || set3.Signatures[0].Tokens[0] != "imei=3539" {
		t.Errorf("update not observed: changed=%v set=%+v", changed, set3)
	}
}

func TestVersionEndpoint(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	v, err := c.Version(context.Background(), "")
	if err != nil || v != 0 {
		t.Fatalf("version = %d, %v", v, err)
	}
	s.Publish("", testSet("x-token"))
	v, err = c.Version(context.Background(), "")
	if err != nil || v != 1 {
		t.Fatalf("version after publish = %d, %v", v, err)
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %s", resp.Status)
	}
}

// TestReadyz pins the readiness contract orchestrators route on: alive
// is not ready — a server with nothing to distribute answers 503 until
// a publish (to any set) gives watchers something to fetch.
func TestReadyz(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("empty server readyz = %d, want 503", code)
	}
	s.Publish("", testSet("x-token"))
	if code := get(); code != http.StatusOK {
		t.Fatalf("readyz after publish = %d, want 200", code)
	}
}

// TestReadyzNamedSetOnly covers the learner-seeded posture: the first
// publish may land in a named set, never touching the default — the
// server is still ready (watchers of that set have content).
func TestReadyzNamedSetOnly(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Publish("app.alpha", testSet("alpha-token")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with only a named set = %s, want 200", resp.Status)
	}
}

// TestStatsHeaders pins the /stats response contract: explicit JSON
// content type and no-store, so point-in-time snapshots never come back
// stale from an intermediary cache.
func TestStatsHeaders(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/signatures", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("POST /signatures succeeded")
	}
}

func TestClientErrorPaths(t *testing.T) {
	// Unreachable server.
	c := NewClient("http://127.0.0.1:1", nil)
	if _, _, err := c.Fetch(context.Background()); err == nil {
		t.Error("fetch from unreachable server succeeded")
	}
	if _, err := c.Version(context.Background(), ""); err == nil {
		t.Error("version from unreachable server succeeded")
	}
	// Garbage version body.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not-a-number"))
	}))
	defer garbage.Close()
	if _, err := NewClient(garbage.URL, nil).Version(context.Background(), ""); err == nil {
		t.Error("garbage version parsed")
	}
}

func TestFetchContextCancelled(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := NewClient(ts.URL, nil).Fetch(ctx); err == nil {
		t.Error("cancelled fetch succeeded")
	}
}

func TestOnPublishCallback(t *testing.T) {
	s := New()
	var got []string
	s.OnPublish(func(name string, v int64) { got = append(got, fmt.Sprintf("%q@%d", name, v)) })
	s.Publish("", testSet("tok-one"))
	s.Publish("", testSet("tok-two"))
	s.Publish("pop", testSet("tok-three"))
	stale := testSet("tok-four")
	stale.Version = 1
	s.Publish("pop", stale) // rejected: no callback
	if want := `[""@1 ""@2 "pop"@1]`; fmt.Sprint(got) != want {
		t.Fatalf("callbacks = %v, want %s", got, want)
	}
}

func TestWaitLongPoll(t *testing.T) {
	s := New()
	s.Publish("", testSet("tok-one")) // version 1
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	// Already-newer version answers immediately.
	v, err := c.WaitVersion(context.Background(), 0)
	if err != nil || v != 1 {
		t.Fatalf("WaitVersion(0) = %d, %v", v, err)
	}

	// Blocks until a publish from another goroutine.
	go func() {
		time.Sleep(50 * time.Millisecond)
		s.Publish("", testSet("tok-two"))
	}()
	start := time.Now()
	v, err = c.WaitVersion(context.Background(), 1)
	if err != nil || v != 2 {
		t.Fatalf("WaitVersion(1) = %d, %v", v, err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("WaitVersion returned before the publish")
	}

	// Server-side timeout returns the unchanged version.
	resp, err := http.Get(ts.URL + "/wait?v=2&timeout=30ms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "2" {
		t.Fatalf("timed-out wait body = %q", body)
	}

	// Bad parameters are rejected.
	for _, q := range []string{"?v=abc", "?timeout=xyz", "?timeout=-1s"} {
		resp, err := http.Get(ts.URL + "/wait" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /wait%s = %s, want 400", q, resp.Status)
		}
	}
}

// TestWaitVersionNoEndpoint: against a server whose /wait answers 404,
// the long poll is just a failing round trip, and Watch still delivers
// every publish by re-fetching every (jittered) fallback.
func TestWaitVersionNoEndpoint(t *testing.T) {
	s := New()
	s.Publish("", testSet("tok-one"))
	mux := http.NewServeMux()
	mux.Handle("GET /signatures", s.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	if _, err := c.WaitVersion(context.Background(), 0); err == nil {
		t.Fatal("WaitVersion against a server without /wait succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	defer func() {
		cancel()
		<-done
	}()
	got := make(chan int64, 8) // one per delivery; the test reads two
	go func() {
		defer close(done)
		c.Watch(ctx, 20*time.Millisecond, func(set *signature.Set) { got <- set.Version })
	}()
	if v := <-got; v != 1 {
		t.Fatalf("initial delivery at version %d, want 1", v)
	}
	s.Publish("", testSet("tok-two"))
	select {
	case v := <-got:
		if v != 2 {
			t.Fatalf("update delivered at version %d, want 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Watch never re-fetched without /wait")
	}
}

func TestWatchDeliversUpdates(t *testing.T) {
	s := New()
	s.Publish("", testSet("tok-one"))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sets := make(chan *signature.Set, 8)
	done := make(chan error, 1)
	go func() {
		done <- c.Watch(ctx, time.Second, func(set *signature.Set) { sets <- set })
	}()

	first := <-sets
	if first.Version != 1 || first.Signatures[0].Tokens[0] != "tok-one" {
		t.Fatalf("initial delivery = %+v", first)
	}
	s.Publish("", testSet("tok-two"))
	select {
	case next := <-sets:
		if next.Version != 2 || next.Signatures[0].Tokens[0] != "tok-two" {
			t.Fatalf("update delivery = %+v", next)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Watch never delivered the update")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Watch returned %v", err)
	}
}

func TestPublishRejectsStaleVersion(t *testing.T) {
	s := New()
	set := testSet("tok-one")
	set.Version = 5
	if v, err := s.Publish("", set); err != nil || v != 5 {
		t.Fatalf("versioned publish: v=%d err=%v", v, err)
	}
	// Same version again: rejected, server unchanged.
	stale := testSet("tok-two")
	stale.Version = 5
	if _, err := s.Publish("", stale); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale publish err = %v, want ErrStaleVersion", err)
	}
	// Lower version: rejected too.
	lower := testSet("tok-three")
	lower.Version = 2
	if _, err := s.Publish("", lower); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("lower publish err = %v, want ErrStaleVersion", err)
	}
	cur, v := s.Current()
	if v != 5 || cur.Signatures[0].Tokens[0] != "tok-one" {
		t.Fatalf("rejected publishes mutated the server: v=%d", v)
	}
	st := s.Stats()
	if st.Publishes != 1 || st.PublishesRejected != 2 {
		t.Fatalf("stats = %+v, want 1 publish and 2 rejections", st)
	}
	// Auto-bump continues from the explicit version.
	if v, _ := s.Publish("", testSet("tok-four")); v != 6 {
		t.Fatalf("auto publish after versioned = %d, want 6", v)
	}
}

func TestPublishSetRoutesByVersion(t *testing.T) {
	s := New()
	if v, err := s.PublishSet(testSet("a")); err != nil || v != 1 {
		t.Fatalf("zero-version publish: v=%d err=%v", v, err)
	}
	explicit := testSet("b")
	explicit.Version = 10
	if v, err := s.PublishSet(explicit); err != nil || v != 10 {
		t.Fatalf("explicit publish: v=%d err=%v", v, err)
	}
	stale := testSet("c")
	stale.Version = 3
	if _, err := s.PublishSet(stale); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale routed publish err = %v", err)
	}
}

func TestHTTPPublishAndStats(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.HandlerWithPublish("sekret"))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	set := testSet("udid=f3a9c1d2")
	set.Version = 3
	// Without the token the guarded endpoint refuses.
	if _, err := c.Publish(ctx, "", set); err == nil {
		t.Fatal("tokenless publish accepted")
	}
	c.SetToken("sekret")
	v, err := c.Publish(ctx, "", set)
	if err != nil || v != 3 {
		t.Fatalf("client publish: v=%d err=%v", v, err)
	}
	// A watcher fetches what was published.
	got, changed, err := c.Fetch(ctx)
	if err != nil || !changed || got.Version != 3 {
		t.Fatalf("fetch after publish: %+v changed=%v err=%v", got, changed, err)
	}
	// Stale over HTTP: 409 surfaced as ErrStaleVersion.
	stale := testSet("tok-two")
	stale.Version = 2
	if _, err := c.Publish(ctx, "", stale); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale HTTP publish err = %v", err)
	}
	// Stats endpoint carries the rejection counter.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st ServerStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding stats %q: %v", body, err)
	}
	if st.Version != 3 || st.Publishes != 1 || st.PublishesRejected != 1 || st.Signatures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPublishRejectsEmptyToken: an empty token can never occur in a
// packet, so a signature carrying one would publish and then silently
// never match; POST /publish refuses it and the version stays put.
func TestPublishRejectsEmptyToken(t *testing.T) {
	h := New().HandlerWithPublish("")
	for _, body := range []string{
		`{"signatures":[{"id":1,"tokens":[""]}]}`,
		`{"signatures":[{"id":1,"tokens":["","udid="]}]}`,
		`{"signatures":[{"id":1,"kind":"subsequence","tokens":["udid=",""],"views":["base64"]}]}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/publish", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST /publish %s answered %d, want 400", body, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/version", nil))
	if v := strings.TrimSpace(rec.Body.String()); v != "0" {
		t.Errorf("version after refused publishes = %q, want 0", v)
	}
}

func TestVersionedPublishWakesWatchers(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan int64, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Watch(ctx, 50*time.Millisecond, func(set *signature.Set) { got <- set.Version })
	}()
	if v := <-got; v != 0 {
		t.Fatalf("initial watch version = %d", v)
	}
	set := testSet("x")
	set.Version = 9
	if _, err := s.Publish("", set); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 9 {
			t.Fatalf("watcher saw version %d, want 9", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never woke on versioned publish")
	}
	cancel()
	<-done
}

func TestNamedSetsIndependentVersions(t *testing.T) {
	s := New()
	if v, err := s.Publish("tenant-a", testSet("a-token")); err != nil || v != 1 {
		t.Fatalf("first named publish: v=%d err=%v", v, err)
	}
	if v, err := s.Publish("tenant-b", testSet("b-token")); err != nil || v != 1 {
		t.Fatalf("second name starts its own sequence: v=%d err=%v", v, err)
	}
	if v, _ := s.Publish("", testSet("default-token")); v != 1 {
		t.Fatalf("default set sequence entangled with named: v=%d", v)
	}
	// Strict-increase guard is per name.
	stale := testSet("a-two")
	stale.Version = 1
	if _, err := s.Publish("tenant-a", stale); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale named publish err = %v", err)
	}
	fresh := testSet("b-two")
	fresh.Version = 5
	if v, err := s.Publish("tenant-b", fresh); err != nil || v != 5 {
		t.Fatalf("versioned named publish: v=%d err=%v", v, err)
	}
	set, v, ok := s.CurrentNamed("tenant-a")
	if !ok || v != 1 || set.Signatures[0].Tokens[0] != "a-token" {
		t.Fatalf("tenant-a = %+v at %d (ok=%v)", set, v, ok)
	}
	// Unknown names read as the empty zero state, without being created.
	if _, v, ok := s.CurrentNamed("ghost"); ok || v != 0 {
		t.Fatalf("unknown name: v=%d ok=%v", v, ok)
	}
	names := s.setNames()
	if len(names) != 3 || names[0] != "" || names[1] != "tenant-a" || names[2] != "tenant-b" {
		t.Fatalf("SetNames = %v", names)
	}
	st := s.Stats()
	if st.Sets["tenant-a"].PublishesRejected != 1 || st.Sets["tenant-b"].Version != 5 {
		t.Fatalf("stats sets = %+v", st.Sets)
	}
	if st.Seq != 4 {
		t.Fatalf("catalog seq = %d, want 4 (3 accepted named+default publishes... )", st.Seq)
	}
}

func TestNamedSetNameValidation(t *testing.T) {
	s := New()
	// "." and ".." are path-cleaning hazards: ServeMux folds them away
	// before routing, so a publish to them could never be fetched back.
	for _, bad := range []string{"", "a/b", "x\ny", ".", "..", string(make([]byte, 201))} {
		if bad == "" {
			continue // "" is the default set, which always exists
		}
		if _, err := s.Publish(bad, testSet("t")); !errors.Is(err, errBadSetName) {
			t.Fatalf("name %q accepted (err=%v)", bad, err)
		}
	}
}

func TestNamedSetsHTTPRoundTrip(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.HandlerWithPublish("sekret"))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	c.SetToken("sekret")
	ctx := context.Background()

	if _, err := c.Publish(ctx, "com.app one", testSet("app-token")); err != nil {
		t.Fatalf("named HTTP publish: %v", err)
	}
	set, changed, err := c.fetch(ctx, "com.app one")
	if err != nil || !changed || set.Version != 1 || set.Signatures[0].Tokens[0] != "app-token" {
		t.Fatalf("named fetch: %+v changed=%v err=%v", set, changed, err)
	}
	// Conditional refetch is per name.
	if _, changed, err := c.fetch(ctx, "com.app one"); err != nil || changed {
		t.Fatalf("named refetch: changed=%v err=%v", changed, err)
	}
	if v, err := c.Version(ctx, "com.app one"); err != nil || v != 1 {
		t.Fatalf("named version: v=%d err=%v", v, err)
	}
	// The default set is untouched by named publishes.
	if v, err := c.Version(ctx, ""); err != nil || v != 0 {
		t.Fatalf("default version after named publish: v=%d err=%v", v, err)
	}
	// Unpublished names fetch as the empty zero state.
	ghost, _, err := c.fetch(ctx, "ghost")
	if err != nil || ghost.Version != 0 || ghost.Len() != 0 {
		t.Fatalf("ghost fetch: %+v err=%v", ghost, err)
	}
	// Catalog listing includes the default set as "".
	seq, versions, err := c.listSets(ctx)
	if err != nil || seq != 1 || versions["com.app one"] != 1 || versions[""] != 0 {
		t.Fatalf("sets: seq=%d versions=%v err=%v", seq, versions, err)
	}
	// Stale named publish over HTTP surfaces as ErrStaleVersion.
	stale := testSet("two")
	stale.Version = 1
	if _, err := c.Publish(ctx, "com.app one", stale); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale named HTTP publish err = %v", err)
	}
}

func TestNamedWaitBeforeFirstPublish(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	// Waiting on a name that does not exist yet blocks until its first
	// publish (and creates no server state while blocked).
	go func() {
		time.Sleep(50 * time.Millisecond)
		if len(s.setNames()) != 1 {
			t.Error("waiting on an unpublished name allocated server state")
		}
		s.Publish("late", testSet("late-token"))
	}()
	v, err := c.waitVersion(context.Background(), "late", 0)
	if err != nil || v != 1 {
		t.Fatalf("named wait: v=%d err=%v", v, err)
	}
}

func TestWatchDeliversNamedSetUpdates(t *testing.T) {
	s := New()
	s.Publish("pop", testSet("one"))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sets := make(chan *signature.Set, 8)
	go c.watch(ctx, "pop", time.Second, func(set *signature.Set) { sets <- set })

	if first := <-sets; first.Version != 1 {
		t.Fatalf("initial named delivery = %+v", first)
	}
	s.Publish("pop", testSet("two"))
	select {
	case next := <-sets:
		if next.Version != 2 || next.Signatures[0].Tokens[0] != "two" {
			t.Fatalf("named update = %+v", next)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never delivered the named-set update")
	}
}

func TestWatchSetsFollowsEveryPopulation(t *testing.T) {
	s := New()
	s.Publish("", testSet("default-one"))
	s.Publish("tenant-a", testSet("a-one"))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type delivery struct {
		name string
		set  *signature.Set
	}
	got := make(chan delivery, 16)
	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.WatchSets(ctx, time.Second, func(name string, set *signature.Set) {
		got <- delivery{name, set}
	})

	// Initial pass: default plus every published named set.
	initial := map[string]int64{}
	for i := 0; i < 2; i++ {
		select {
		case d := <-got:
			initial[d.name] = d.set.Version
		case <-time.After(5 * time.Second):
			t.Fatalf("initial catalog pass incomplete: %v", initial)
		}
	}
	if initial[""] != 1 || initial["tenant-a"] != 1 {
		t.Fatalf("initial deliveries = %v", initial)
	}

	// A publish to a brand-new name wakes the single catalog watch.
	s.Publish("tenant-b", testSet("b-one"))
	select {
	case d := <-got:
		if d.name != "tenant-b" || d.set.Version != 1 {
			t.Fatalf("new-set delivery = %q v%d", d.name, d.set.Version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WatchSets never delivered the new named set")
	}

	// An update to an existing name is delivered with that name.
	s.Publish("tenant-a", testSet("a-two"))
	select {
	case d := <-got:
		if d.name != "tenant-a" || d.set.Version != 2 {
			t.Fatalf("update delivery = %q v%d", d.name, d.set.Version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WatchSets never delivered the named update")
	}
}

// TestWatchSkipsRefetchOnUnchangedWait pins the idle-watch cost: a /wait
// long-poll that times out with an unchanged version must NOT trigger a
// redundant /signatures fetch — at fleet fan-out that fetch doubled idle
// request volume for zero information.
func TestWatchSkipsRefetchOnUnchangedWait(t *testing.T) {
	var fetches, waits, version atomic.Int64
	version.Store(1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /signatures", func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		v := version.Load()
		etag := fmt.Sprintf("%q", strconv.FormatInt(v, 10))
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		set := testSet("tok-one")
		set.Version = v
		w.Header().Set("ETag", etag)
		set.WriteJSON(w)
	})
	mux.HandleFunc("GET /wait", func(w http.ResponseWriter, r *http.Request) {
		// Simulate three idle long-poll timeouts (unchanged version),
		// then one real advance; every later wait is idle again.
		if waits.Add(1) == 4 {
			version.Store(2)
		}
		fmt.Fprintf(w, "%d", version.Load())
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := make(chan int64, 8)
	go c.Watch(ctx, time.Second, func(s *signature.Set) { delivered <- s.Version })

	<-delivered // initial delivery
	// Wait until the advanced wait answer forces the second fetch.
	deadline := time.Now().Add(5 * time.Second)
	for fetches.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if w, f := waits.Load(), fetches.Load(); w < 4 || f != 2 {
		t.Fatalf("waits=%d fetches=%d; want >=4 waits and exactly 2 fetches (no refetch on unchanged version)", w, f)
	}
}
