package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"leaksig/internal/signature"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "publish.journal")
}

func TestJournalAppendAndReplay(t *testing.T) {
	path := journalPath(t)
	j, err := Open(path, JournalConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var got [][]byte
	j2, err := Open(path, JournalConfig{Replay: func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if st := j2.Stats(); st.Recovered != 3 || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJournalRecoversTruncatedTail(t *testing.T) {
	path := journalPath(t)
	j, err := Open(path, JournalConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()

	// Tear the last record: chop 3 bytes off the file.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	var got []string
	j2, err := Open(path, JournalConfig{Replay: func(p []byte) error {
		got = append(got, string(p))
		return nil
	}})
	if err != nil {
		t.Fatalf("reopen after tear: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("recovered %d records, want 4 (torn tail dropped): %v", len(got), got)
	}
	if st := j2.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("truncated bytes not counted")
	}
	// The journal must be appendable after tail truncation, and the new
	// record must replay cleanly.
	if err := j2.Append([]byte("after-recovery")); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	j2.Close()

	got = got[:0]
	j3, err := Open(path, JournalConfig{Replay: func(p []byte) error {
		got = append(got, string(p))
		return nil
	}})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer j3.Close()
	if len(got) != 5 || got[4] != "after-recovery" {
		t.Fatalf("after append-on-recovered: %v", got)
	}
}

func TestJournalRecoversBitFlip(t *testing.T) {
	path := journalPath(t)
	j, _ := Open(path, JournalConfig{Fsync: FsyncNever})
	j.Append([]byte("first"))
	j.Append([]byte("second"))
	j.Close()

	raw, _ := os.ReadFile(path)
	raw[len(raw)-2] ^= 0x40 // flip a bit inside "second"
	os.WriteFile(path, raw, 0o644)

	var got []string
	j2, err := Open(path, JournalConfig{Replay: func(p []byte) error {
		got = append(got, string(p))
		return nil
	}})
	if err != nil {
		t.Fatalf("reopen after bit flip: %v", err)
	}
	defer j2.Close()
	if len(got) != 1 || got[0] != "first" {
		t.Fatalf("recovered %v, want just [first]", got)
	}
}

func TestJournalForeignFileRebuilds(t *testing.T) {
	path := journalPath(t)
	os.WriteFile(path, []byte("this is not a journal at all"), 0o644)
	j, err := Open(path, JournalConfig{})
	if err != nil {
		t.Fatalf("Open over foreign file: %v", err)
	}
	defer j.Close()
	if err := j.Append([]byte("fresh")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if st := j.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("foreign bytes not counted as truncated")
	}
}

func TestJournalCompact(t *testing.T) {
	path := journalPath(t)
	j, _ := Open(path, JournalConfig{Fsync: FsyncNever})
	for i := 0; i < 100; i++ {
		j.Append([]byte(fmt.Sprintf("v%d", i)))
	}
	before := j.Stats().SizeBytes
	if err := j.Compact([][]byte{[]byte("v99")}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if after := j.Stats().SizeBytes; after >= before {
		t.Fatalf("compaction did not shrink: %d -> %d", before, after)
	}
	// Appends continue against the compacted file.
	if err := j.Append([]byte("v100")); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	j.Close()

	var got []string
	j2, err := Open(path, JournalConfig{Replay: func(p []byte) error {
		got = append(got, string(p))
		return nil
	}})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if len(got) != 2 || got[0] != "v99" || got[1] != "v100" {
		t.Fatalf("replay after compact = %v", got)
	}
}

// TestFailedAppendLeavesJournalUnchanged: an append that fails part-way
// (its frame header written, its payload not) or whose FsyncAlways sync
// fails must leave the journal as it was. Otherwise the torn frame sits
// in front of the next good record and recovery, which stops at the
// first damage, drops every acknowledged record behind it.
func TestFailedAppendLeavesJournalUnchanged(t *testing.T) {
	injected := errors.New("injected")
	for _, tc := range []struct {
		name   string
		inject func(j *Journal)
	}{
		{"payload write", func(j *Journal) {
			j.write = func(f *os.File, p []byte) (int, error) {
				if len(p) == 8 { // the frame header goes through
					return f.Write(p)
				}
				n, _ := f.Write(p[:len(p)/2])
				return n, injected
			}
		}},
		{"fsync always", func(j *Journal) {
			j.sync = func(*os.File) error { return injected }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := journalPath(t)
			j, err := Open(path, JournalConfig{Fsync: FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append([]byte("acked-1")); err != nil {
				t.Fatal(err)
			}
			size := j.Stats().SizeBytes
			tc.inject(j)
			if err := j.Append([]byte("never-acked")); !errors.Is(err, injected) {
				t.Fatalf("failed append returned %v, want the injected error", err)
			}
			if got := j.Stats().SizeBytes; got != size {
				t.Fatalf("size %d after a failed append, want %d", got, size)
			}
			j.write, j.sync = (*os.File).Write, (*os.File).Sync
			if err := j.Append([]byte("acked-2")); err != nil {
				t.Fatalf("append after a failed one: %v", err)
			}
			if st := j.Stats(); st.Appends != 2 || st.AppendErrors != 1 {
				t.Fatalf("stats = %+v, want 2 appends and 1 append error", st)
			}
			j.Close()

			var got []string
			j2, err := Open(path, JournalConfig{Replay: func(p []byte) error {
				got = append(got, string(p))
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if len(got) != 2 || got[0] != "acked-1" || got[1] != "acked-2" {
				t.Fatalf("replay = %q, want the two acknowledged records", got)
			}
			if st := j2.Stats(); st.TruncatedBytes != 0 {
				t.Fatalf("reopen truncated %d bytes: the failed append left a torn frame", st.TruncatedBytes)
			}
		})
	}
}

// TestIntervalSyncWaitsForTheNextAppend pins what FsyncInterval
// promises and what it does not: the first append syncs, an append
// within syncEvery of that sync does not, and nothing syncs it when
// appends stop, however long they stop; the next append past the
// interval syncs both, and Sync flushes a pending one.
func TestIntervalSyncWaitsForTheNextAppend(t *testing.T) {
	j, err := Open(journalPath(t), JournalConfig{Fsync: FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	syncs := 0
	j.sync = func(*os.File) error { syncs++; return nil } // no disk wait between appends
	pending := func() bool { j.mu.Lock(); defer j.mu.Unlock(); return j.dirty }

	if err := j.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 || pending() {
		t.Fatalf("after the first append: %d syncs, pending %v; want 1 sync, nothing pending", syncs, pending())
	}
	if err := j.Append([]byte("within the interval")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * syncEvery)
	if syncs != 1 || !pending() {
		t.Fatalf("%v after an append inside the interval: %d syncs, pending %v; want it still unsynced",
			3*syncEvery, syncs, pending())
	}
	if err := j.Append([]byte("past the interval")); err != nil {
		t.Fatal(err)
	}
	if syncs != 2 || pending() {
		t.Fatalf("after an append past the interval: %d syncs, pending %v; want 2 syncs, nothing pending", syncs, pending())
	}
	if err := j.Append([]byte("within again")); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil || pending() || syncs != 3 {
		t.Fatalf("Sync = %v, pending %v, %d syncs; want the pending append synced through the seam", err, pending(), syncs)
	}
}

// TestShutdownSyncFailureIsReturnedAndCounted: Sync and Close force the
// file through the same sync seam as the append path, so an fsync that
// fails at shutdown is returned and counted in FsyncErrors.
func TestShutdownSyncFailureIsReturnedAndCounted(t *testing.T) {
	injected := errors.New("injected")
	for _, tc := range []struct {
		name string
		call func(*Journal) error
	}{
		{"Sync", (*Journal).Sync},
		{"Close", (*Journal).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := Open(journalPath(t), JournalConfig{Fsync: FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.Append([]byte("pending")); err != nil {
				t.Fatal(err)
			}
			j.sync = func(*os.File) error { return injected }
			if err := tc.call(j); !errors.Is(err, injected) {
				t.Fatalf("%s = %v, want the injected error", tc.name, err)
			}
			if st := j.Stats(); st.FsyncErrors != 1 {
				t.Fatalf("fsync errors = %d after a failed %s, want 1", st.FsyncErrors, tc.name)
			}
		})
	}
}

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

// sigTag extracts the tag token makeSet stored in a signature.
func sigTag(set *signature.Set) string {
	if len(set.Signatures) == 0 || len(set.Signatures[0].Tokens) < 2 {
		return ""
	}
	return set.Signatures[0].Tokens[1]
}

func TestSetCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sigs.cache")
	c, loaded, err := OpenSetCache(path)
	if err != nil {
		t.Fatalf("OpenSetCache: %v", err)
	}
	if loaded {
		t.Fatal("fresh cache claims to have loaded sets")
	}
	if err := c.Put("", makeSet(4, "d")); err != nil {
		t.Fatalf("Put default: %v", err)
	}
	if err := c.Put("tenant-a", makeSet(9, "a")); err != nil {
		t.Fatalf("Put named: %v", err)
	}

	c2, loaded, err := OpenSetCache(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !loaded || len(c2.Names()) != 2 {
		t.Fatalf("loaded=%v names=%v, want true and two sets", loaded, c2.Names())
	}
	set, ok := c2.Get("tenant-a")
	if !ok || set.Version != 9 || sigTag(set) != "a" {
		t.Fatalf("tenant-a from cache: ok=%v set=%+v", ok, set)
	}

	c2.Close()

	// Damage in the last record costs that record only: the cache boots
	// with the intact prefix, never errors.
	raw, _ := os.ReadFile(path)
	raw[len(raw)-2] ^= 0xaa
	os.WriteFile(path, raw, 0o644)
	c3, loaded, err := OpenSetCache(path)
	if err != nil {
		t.Fatalf("open corrupt cache: %v", err)
	}
	if _, ok := c3.Get("tenant-a"); !loaded || len(c3.Names()) != 1 || ok {
		t.Fatalf("corrupt cache: loaded=%v names=%v, want the default set only", loaded, c3.Names())
	}
	// And is immediately writable again.
	if err := c3.Put("", makeSet(1, "d")); err != nil {
		t.Fatalf("Put over corrupt cache: %v", err)
	}
	c3.Close()
}

// TestSetCacheHoldsSetsPastMaxRecord: each set is its own record, so
// sets that together exceed MaxRecord still cache, and a small Put after
// them still succeeds.
func TestSetCacheHoldsSetsPastMaxRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sigs.cache")
	c, _, err := OpenSetCache(path)
	if err != nil {
		t.Fatal(err)
	}
	big := func(tag string) *signature.Set {
		set := makeSet(1, tag)
		set.Signatures[0].Tokens = append(set.Signatures[0].Tokens, strings.Repeat("x", 9<<20))
		return set
	}
	for _, put := range []struct {
		name string
		set  *signature.Set
	}{{"a", big("a")}, {"b", big("b")}, {"c", makeSet(1, "c")}} {
		if err := c.Put(put.name, put.set); err != nil {
			t.Fatalf("Put %q: %v", put.name, err)
		}
	}
	c.Close()

	c2, loaded, err := OpenSetCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !loaded || len(c2.Names()) != 3 {
		t.Fatalf("reopened cache holds %v, want a, b and c", c2.Names())
	}
	for _, name := range []string{"a", "b", "c"} {
		if set, _ := c2.Get(name); sigTag(set) != name {
			t.Fatalf("set %q reopened as %+v", name, set)
		}
	}
}

// TestSetCacheCompactionKeepsLatest: deliveries that supersede each
// other are compacted, and each name reopens at its last version.
func TestSetCacheCompactionKeepsLatest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sigs.cache")
	c, _, err := OpenSetCache(path)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"", "tenant-a", "tenant-b"}
	const puts = 600
	for i := 0; i < puts; i++ {
		if err := c.Put(names[i%3], makeSet(int64(i+1), names[i%3])); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	c.Close()

	records := 0
	j, err := Open(path, JournalConfig{Replay: func([]byte) error { records++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if records > len(names)+cacheCompactEvery {
		t.Fatalf("cache file holds %d records after %d puts, want at most %d", records, puts, len(names)+cacheCompactEvery)
	}

	c2, _, err := OpenSetCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i, name := range names {
		want := int64(puts - 3 + i + 1)
		if set, ok := c2.Get(name); !ok || set.Version != want || sigTag(set) != name {
			t.Fatalf("set %q reopened as %+v, want version %d", name, set, want)
		}
	}
}

// TestLegacyFilesOpenAsJournals opens a signature cache in the format
// older releases wrote (an LSCKPT1 header and one {"sets":{…}} record):
// it loads the same sets, and a Put after it survives a reopen.
func TestLegacyFilesOpenAsJournals(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-sigs.cache"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sigs.cache")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c, loaded, err := OpenSetCache(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		version int64
		tokens  []string
	}{
		"":         {3, []string{"imei=", "3579"}},
		"tenant-a": {9, []string{"android_id=", "a1b2"}},
	}
	if !loaded || len(c.Names()) != len(want) {
		t.Fatalf("legacy cache loaded=%v names=%v", loaded, c.Names())
	}
	for name, w := range want {
		set, ok := c.Get(name)
		if !ok || set.Version != w.version || len(set.Signatures) != 1 || fmt.Sprint(set.Signatures[0].Tokens) != fmt.Sprint(w.tokens) {
			t.Fatalf("legacy set %q = %+v, want version %d tokens %v", name, set, w.version, w.tokens)
		}
	}
	if err := c.Put("tenant-a", makeSet(10, "a")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, _, err := OpenSetCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if set, _ := c2.Get(""); set == nil || set.Version != 3 {
		t.Fatalf("default set after a Put on the legacy file: %+v", set)
	}
	if set, _ := c2.Get("tenant-a"); set == nil || set.Version != 10 {
		t.Fatalf("tenant-a after a Put on the legacy file: %+v", set)
	}
}
