package durable

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// TestMaxPublishBytesIsMaxRecord pins sigserver's publish-body bound to
// the journal's record bound: a body the server accepts must be one the
// journal can hold. The pin lives here because durable imports sigserver
// and not the reverse.
func TestMaxPublishBytesIsMaxRecord(t *testing.T) {
	if sigserver.MaxPublishBytes != MaxRecord {
		t.Fatalf("sigserver.MaxPublishBytes = %d, durable.MaxRecord = %d", sigserver.MaxPublishBytes, MaxRecord)
	}
}

// TestOversizePublishRefused: a set too large to journal must be refused
// with 413 at the wire, never acked and installed only to vanish on the
// next restart.
func TestOversizePublishRefused(t *testing.T) {
	srv := sigserver.New()
	sj, err := AttachServerJournal(srv, journalPath(t), JournalConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer sj.Close()

	var body bytes.Buffer
	huge := &signature.Set{Signatures: []*signature.Signature{
		{ID: 1, Tokens: []string{strings.Repeat("a", MaxRecord+1<<20)}},
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
	if st := sj.Stats(); st.Appends != 0 {
		t.Fatalf("oversize publish appended %d records", st.Appends)
	}
}

// TestJournalAppendErrorsCounted: a publish the journal cannot record is
// counted, so leaksig_journal_append_errors_total can alert on it.
func TestJournalAppendErrorsCounted(t *testing.T) {
	srv := sigserver.New()
	sj, err := AttachServerJournal(srv, journalPath(t), JournalConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish("", makeSet(1, "d")); err != nil {
		t.Fatal(err)
	}
	sj.Close()
	if _, err := srv.Publish("tenant-a", makeSet(1, "a")); err != nil {
		t.Fatal(err)
	}
	if st := sj.Stats(); st.Appends != 1 || st.AppendErrors != 1 {
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
	srv := sigserver.New()
	sj, err := AttachServerJournal(srv, path, JournalConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer sj.Close()

	if restored, skipped := sj.Replayed(); restored != 6 || skipped != 1 {
		t.Fatalf("replayed %d, skipped %d; want 6 and 1", restored, skipped)
	}
	if names := srv.SetNames(); !slices.Equal(names, []string{"", "tenant-a", "tenant-b"}) {
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
