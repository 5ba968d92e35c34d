package sigserver

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"leaksig/internal/durable"
	"leaksig/internal/signature"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "publish.journal")
}

// makeSet builds a set with one conjunction signature {"uid=", tag} per
// tag.
func makeSet(version int64, tags ...string) *signature.Set {
	set := &signature.Set{Version: version}
	for i, tag := range tags {
		set.Signatures = append(set.Signatures, &signature.Signature{
			ID:     i + 1,
			Kind:   signature.KindConjunction,
			Tokens: []string{"uid=", tag},
		})
	}
	return set
}

// sigTag extracts the tag token makeSet stored in a set's first
// signature.
func sigTag(set *signature.Set) string {
	if len(set.Signatures) == 0 || len(set.Signatures[0].Tokens) < 2 {
		return ""
	}
	return set.Signatures[0].Tokens[1]
}

// TestPublishFailsWhenJournalFails: a publish the journal cannot append
// is not acked — it answers 5xx, the version does not change, and a
// watcher armed on /wait never sees the version that publish would have
// had. Otherwise a restart would roll that watcher back.
func TestPublishFailsWhenJournalFails(t *testing.T) {
	srv, j, err := Open(journalPath(t), durable.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish("", makeSet(0, "d1")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.HandlerWithPublish(""))
	defer ts.Close()

	answered := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/wait?v=1&timeout=300ms")
		if err != nil {
			answered <- err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		answered <- string(body)
	}()
	// Give the watcher time to arm. One that arrives late must not see
	// the version either, so the sleep only makes the check stronger.
	time.Sleep(50 * time.Millisecond)

	j.Close() // every append from here on fails
	var body bytes.Buffer
	if err := makeSet(0, "d2").WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/publish", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Fatalf("publish through a failing journal answered %s, want 5xx", resp.Status)
	}
	if got := <-answered; got != "1" {
		t.Fatalf("watcher answered %q, want the unchanged version 1", got)
	}
	if set, v := srv.Current(); v != 1 || sigTag(set) != "d1" {
		t.Fatalf("server holds v%d %q after the failed publish, want v1 %q", v, sigTag(set), "d1")
	}
	if st := j.Stats(); st.AppendErrors != 1 {
		t.Fatalf("stats = %+v, want 1 append error", st)
	}
}

// TestConcurrentPublishesSurviveCompaction: writers publishing to their
// own names while the journal compacts must all reopen at their last
// acked version and content. A compaction that snapshots the sets and
// then rewrites the journal erases any append that lands in between.
func TestConcurrentPublishesSurviveCompaction(t *testing.T) {
	const writers, publishes = 8, 80
	path := journalPath(t)
	srv, j, err := Open(path, durable.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 80<<10) // ~80 KB per set
	acked := make([]int64, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("t%d", w)
			for i := 1; i <= publishes; i++ {
				v, err := srv.Publish(name, makeSet(0, fmt.Sprintf("%s-%d", name, i), pad))
				if err != nil {
					t.Errorf("publish %s #%d: %v", name, i, err)
					return
				}
				acked[w] = v
			}
		}()
	}
	wg.Wait()
	if st := j.Stats(); st.Compactions == 0 {
		t.Fatalf("stats = %+v: no compaction ran, so nothing raced one", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, j2, err := Open(path, durable.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for w, want := range acked {
		name := fmt.Sprintf("t%d", w)
		set, v, _ := srv2.CurrentNamed(name)
		if wantTag := fmt.Sprintf("%s-%d", name, publishes); v != want || sigTag(set) != wantTag {
			t.Errorf("%s reopened at v%d %q, acked v%d %q", name, v, sigTag(set), want, wantTag)
		}
	}
}

// TestOversizePublishRefused: a set too large to journal must be refused
// with 413 at the wire, never acked and installed only to vanish on the
// next restart.
func TestOversizePublishRefused(t *testing.T) {
	srv, j, err := Open(journalPath(t), durable.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	var body bytes.Buffer
	huge := &signature.Set{Signatures: []*signature.Signature{
		{ID: 1, Tokens: []string{strings.Repeat("a", durable.MaxRecord+1<<20)}},
	}}
	if err := huge.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.HandlerWithPublish("").ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/publish", &body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize publish answered %d, want 413", rec.Code)
	}
	if _, v := srv.Current(); v != 0 {
		t.Fatalf("oversize publish installed version %d", v)
	}
	if st := j.Stats(); st.Appends != 0 {
		t.Fatalf("oversize publish appended %d records", st.Appends)
	}
}

// TestJournalAppendErrorsCounted: a publish the journal cannot record
// fails, leaves the version unchanged, and is counted, so
// leaksig_journal_append_errors_total can alert on it.
func TestJournalAppendErrorsCounted(t *testing.T) {
	srv, j, err := Open(journalPath(t), durable.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish("", makeSet(1, "d")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := srv.Publish("tenant-a", makeSet(1, "a")); err == nil {
		t.Fatal("publish to a closed journal succeeded")
	}
	if _, v, _ := srv.CurrentNamed("tenant-a"); v != 0 {
		t.Fatalf("tenant-a at version %d after a failed publish, want 0", v)
	}
	if st := j.Stats(); st.Appends != 1 || st.AppendErrors != 1 {
		t.Fatalf("stats = %+v, want 1 append and 1 append error", st)
	}
}

// TestServerJournalReplaysCommittedFormat replays testdata/publish.journal,
// written by the server before the default set became the set named "":
// the default set and two named sets, each with one auto-bumped and one
// versioned publish, then a stale duplicate of tenant-a's last version
// with other content. The record format must still replay to the same
// names, versions and signature keys, the duplicate skipped.
func TestServerJournalReplaysCommittedFormat(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "publish.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := journalPath(t)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, j, err := Open(path, durable.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	restored := srv.Stats().Seq
	if skipped := int64(j.Stats().Recovered) - restored; restored != 6 || skipped != 1 {
		t.Fatalf("replayed %d, skipped %d; want 6 and 1", restored, skipped)
	}
	if names := srv.setNames(); !slices.Equal(names, []string{"", "tenant-a", "tenant-b"}) {
		t.Fatalf("names = %q", names)
	}
	for _, want := range []struct {
		name    string
		version int64
		tag     string
	}{{"", 5, "default"}, {"tenant-a", 4, "a"}, {"tenant-b", 7, "b"}} {
		set, v, _ := srv.CurrentNamed(want.name)
		keys := make([]string, 0, set.Len())
		for _, sig := range set.Signatures {
			keys = append(keys, sig.Key())
		}
		wantKeys := []string{
			"\x00" + want.tag + "-g2\x00uid=",
			"\x02subsequence\x01\x00GET /track\x00imei=" + want.tag + "2",
		}
		if v != want.version || !slices.Equal(keys, wantKeys) {
			t.Errorf("%q: v%d keys %q, want v%d keys %q", want.name, v, keys, want.version, wantKeys)
		}
	}
}

func TestServerJournalReplayPreservesVersions(t *testing.T) {
	path := journalPath(t)

	srv, j, err := Open(path, durable.FsyncNever)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// A publish burst across the default and two named sets, with
	// several generations each.
	for v := int64(1); v <= 5; v++ {
		if _, err := srv.Publish("", makeSet(v, "d")); err != nil {
			t.Fatalf("publish default v%d: %v", v, err)
		}
		if _, err := srv.Publish("tenant-a", makeSet(v, "a")); err != nil {
			t.Fatalf("publish a v%d: %v", v, err)
		}
	}
	if _, err := srv.Publish("tenant-b", makeSet(3, "b")); err != nil {
		t.Fatalf("publish b: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// "Restart": fresh server, same journal.
	srv2, j2, err := Open(path, durable.FsyncNever)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()

	if _, v := srv2.Current(); v != 5 {
		t.Fatalf("default version = %d, want 5", v)
	}
	if _, v, ok := srv2.CurrentNamed("tenant-a"); !ok || v != 5 {
		t.Fatalf("tenant-a version = %d (ok=%v), want 5", v, ok)
	}
	set, v, ok := srv2.CurrentNamed("tenant-b")
	if !ok || v != 3 {
		t.Fatalf("tenant-b version = %d (ok=%v), want 3", v, ok)
	}
	if len(set.Signatures) != 1 || sigTag(set) != "b" {
		t.Fatalf("tenant-b contents lost: %+v", set)
	}

	// Strict increase survives the restart: replaying the old version
	// must be rejected, the next version accepted.
	if _, err := srv2.Publish("tenant-a", makeSet(5, "a")); err == nil {
		t.Fatal("stale republish accepted after replay")
	}
	if _, err := srv2.Publish("tenant-a", makeSet(6, "a")); err != nil {
		t.Fatalf("next version rejected after replay: %v", err)
	}
	if srv2.Stats().Seq == 0 {
		t.Fatal("replay restored zero sets")
	}
}

func TestServerJournalSurvivesTornTail(t *testing.T) {
	path := journalPath(t)
	srv, j, err := Open(path, durable.FsyncNever)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for v := int64(1); v <= 3; v++ {
		srv.Publish("tenant-a", makeSet(v, "a"))
	}
	j.Close()

	// Simulate a crash mid-append: shear the file partway into the
	// final record.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-7], 0o644)

	srv2, j2, err := Open(path, durable.FsyncNever)
	if err != nil {
		t.Fatalf("reopen over torn journal: %v", err)
	}
	defer j2.Close()
	if _, v, _ := srv2.CurrentNamed("tenant-a"); v != 2 {
		t.Fatalf("recovered version = %d, want 2 (last intact record)", v)
	}
	// The loop continues from the recovered version.
	if _, err := srv2.Publish("tenant-a", makeSet(3, "a")); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
}
