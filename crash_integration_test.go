package leaksig

// Crash-safety end to end: a journal-backed sigserver is SIGKILLed in
// the middle of a publish burst, restarted against the same journal, and
// must come back with every acknowledged set at a version at least as
// high as the one it acknowledged — versions monotonic, no set lost.
// The server runs as a re-exec of this test binary (TestHelperSigserver)
// so the kill is a real SIGKILL of a real process, not a simulated one.
//
// The second test is the degraded-boot path in-process: the leakstream
// daemon boots from a last-known-good signature cache while the server
// is down, keeps matching, and converges back to the live set (updating
// the cache) the moment the server answers.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"leaksig/internal/daemon"
	"leaksig/internal/durable"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// TestHelperSigserver is not a test: it is the child process of
// TestKillRestartPublishBurst — the sigserver daemon itself, journal
// attached, serving until killed. Gated on an env var so a plain
// `go test` skips it.
func TestHelperSigserver(t *testing.T) {
	if os.Getenv("LEAKSIG_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestKillRestartPublishBurst")
	}
	// The parent polls /version to know the helper is up.
	err := daemon.Sigserver{
		Addr:         os.Getenv("LEAKSIG_CRASH_ADDR"),
		Journal:      os.Getenv("LEAKSIG_CRASH_JOURNAL"),
		JournalFsync: "always",
	}.Run(context.Background(), nil, io.Discard)
	fmt.Fprintf(os.Stderr, "helper: %v\n", err)
	os.Exit(1)
}

// crashTestSet builds a small distinguishable set for one publish.
func crashTestSet(name string, version int64) *signature.Set {
	return &signature.Set{
		Version: version,
		Signatures: []*signature.Signature{{
			ID:     1,
			Kind:   signature.KindConjunction,
			Tokens: []string{"uid=", fmt.Sprintf("%s-v%d", name, version)},
		}},
	}
}

// startHelper spawns the re-exec'd sigserver and waits until it serves.
func startHelper(t *testing.T, addr, journal string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperSigserver$", "-test.v")
	cmd.Env = append(os.Environ(),
		"LEAKSIG_CRASH_HELPER=1",
		"LEAKSIG_CRASH_ADDR="+addr,
		"LEAKSIG_CRASH_JOURNAL="+journal,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}
	c := sigserver.NewClient("http://"+addr, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		_, err := c.Version(ctx, "")
		cancel()
		if err == nil {
			return cmd
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("helper never served on %s: %v", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestKillRestartPublishBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and SIGKILLs a child process")
	}
	dir := t.TempDir()
	journal := filepath.Join(dir, "publish.journal")

	// A fixed port the restarted server can reuse: grab a free one, free
	// it, and hand the address to both helper runs.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	helper := startHelper(t, addr, journal)
	base := "http://" + addr

	// The burst: one publisher goroutine per set, each driving explicit
	// strictly-increasing versions and recording the highest version the
	// server ACKNOWLEDGED. After the kill, only acknowledged versions
	// are owed to us — an unacked publish may legitimately be lost.
	names := []string{"", "tenant-a", "tenant-b", "tenant-c"}
	acked := make([]atomic.Int64, len(names))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			c := sigserver.NewClient(base, nil)
			for v := int64(1); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				got, err := c.Publish(ctx, name, crashTestSet(name, v))
				cancel()
				if err != nil {
					// Post-kill connection errors: keep spinning until the
					// test says stop; the burst must be mid-flight at kill
					// time, so we do not exit on first failure.
					continue
				}
				acked[i].Store(got)
			}
		}(i, name)
	}

	// Let the burst land some publishes, then SIGKILL mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		landed := 0
		for i := range names {
			if acked[i].Load() >= 3 {
				landed++
			}
		}
		if landed == len(names) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst never landed 3 versions per set; acked=%v", ackSnapshot(acked))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := helper.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	helper.Wait()
	close(stop)
	wg.Wait()
	ackedAtKill := ackSnapshot(acked)

	// Restart against the same journal: every acknowledged version must
	// still be there (or newer — an in-flight publish may have committed
	// to the journal after the ack we saw).
	helper2 := startHelper(t, addr, journal)
	defer func() {
		helper2.Process.Kill()
		helper2.Wait()
	}()
	c := sigserver.NewClient(base, nil)
	ctx := context.Background()
	// The set contents must have survived, not just the counters: one
	// catalog pass delivers every set.
	restored := map[string]*signature.Set{}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	c.WatchSets(wctx, time.Second, func(name string, set *signature.Set) {
		restored[name] = set
		if len(restored) == len(names) {
			wcancel()
		}
	})
	wcancel()
	for i, name := range names {
		v, err := c.Version(ctx, name)
		if err != nil {
			t.Fatalf("version of %q after restart: %v", name, err)
		}
		if v < ackedAtKill[i] {
			t.Fatalf("set %q rolled back: acked version %d before kill, serving %d after restart", name, ackedAtKill[i], v)
		}
		if set := restored[name]; set == nil || set.Len() == 0 {
			t.Fatalf("set %q after restart: %+v", name, set)
		}
	}

	// And the sequences keep going: a publish one past the restored
	// version is accepted, a stale one is rejected — the monotonic guard
	// survived the crash too.
	v, err := c.Version(ctx, "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish(ctx, "tenant-a", crashTestSet("tenant-a", v)); !errors.Is(err, sigserver.ErrStaleVersion) {
		t.Fatalf("stale publish after restart: err=%v, want ErrStaleVersion", err)
	}
	if got, err := c.Publish(ctx, "tenant-a", crashTestSet("tenant-a", v+1)); err != nil || got != v+1 {
		t.Fatalf("next publish after restart: got v%d, err=%v, want v%d", got, err, v+1)
	}
}

func ackSnapshot(acked []atomic.Int64) []int64 {
	out := make([]int64, len(acked))
	for i := range acked {
		out[i] = acked[i].Load()
	}
	return out
}

// TestDegradedBootFromSignatureCache boots the leakstream daemon against
// a dead server with a last-known-good cache on disk: it must serve the
// cached set at once, say so on /readyz, and — when the server comes
// back — take the live set, leave degraded mode and rewrite the cache.
func TestDegradedBootFromSignatureCache(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "sigs.cache")

	// A previous healthy run persisted version 3.
	prev, _, err := durable.OpenSetCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	cached := &signature.Set{
		Version: 3,
		Signatures: []*signature.Signature{{
			ID: 1, Kind: signature.KindConjunction,
			Tokens: []string{"imei=", "3579"},
		}},
	}
	if err := prev.Put("", cached); err != nil {
		t.Fatal(err)
	}
	prev.Close()

	// Two free ports: the daemon's, and one nothing listens on yet — the
	// dead server.
	var addrs [2]string
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	listen, serverAddr := addrs[0], addrs[1]

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- daemon.Leakstream{
			Server: "http://" + serverAddr, SigCache: cachePath, Listen: listen,
			Shards: 1, Poll: 50 * time.Millisecond,
			Affinity: "host", TenantBy: "app", RatePolicy: "drop",
		}.Run(ctx, strings.NewReader(""), io.Discard)
	}()
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("leakstream Run: %v", err)
			}
		})
	}
	defer stop()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + listen + path)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	await := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("never saw %s", what)
			}
		}
	}
	await("/readyz answer ready-degraded", func() bool {
		code, body := get("/readyz")
		return code == 200 && body == "ready-degraded"
	})

	// Degraded is not blank: the cached set vets traffic.
	vet := func(p *httpmodel.Packet) (leak bool, version int64) {
		t.Helper()
		line, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+listen+"/match", "application/x-ndjson", bytes.NewReader(line))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v struct {
			Leak    bool  `json:"leak"`
			Version int64 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.Leak, v.Version
	}
	if leak, v := vet(httpmodel.Get("x.ads.example", "/a").Query("imei", "3579").Build()); !leak || v != 3 {
		t.Fatalf("degraded daemon answered leak=%v version=%d against the cached set, want a leak at version 3", leak, v)
	}

	// The server comes back, on the address the daemon has been polling,
	// with version 4.
	srv := sigserver.New()
	live := &signature.Set{
		Version: 4,
		Signatures: []*signature.Signature{{
			ID: 2, Kind: signature.KindConjunction,
			Tokens: []string{"android_id=", "a1b2"},
		}},
	}
	if _, err := srv.Publish("", live); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewUnstartedServer(srv.Handler())
	backend.Listener.Close()
	backend.Listener = l
	backend.Start()
	defer backend.Close()
	defer stop() // first: Close waits out the daemon's long poll otherwise

	await("/readyz answer ready after recovery", func() bool {
		code, body := get("/readyz")
		return code == 200 && body == "ready"
	})
	await("the live set on /match", func() bool {
		leak, v := vet(httpmodel.Get("x.ads.example", "/a").Query("android_id", "a1b2").Build())
		return leak && v == 4
	})

	// The cache on disk now holds the live set: the next degraded boot
	// starts from version 4, not 3.
	after, loaded, err := durable.OpenSetCache(cachePath)
	if err != nil || !loaded {
		t.Fatalf("reopening cache: loaded=%v err=%v", loaded, err)
	}
	got, ok := after.Get("")
	if !ok || got.Version != 4 {
		t.Fatalf("persisted set version %d (ok=%v), want 4", got.Version, ok)
	}
}
