package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay throws arbitrary damage at a valid journal —
// truncation, bit flips, appended garbage — and asserts the recovery
// invariants: Open never panics or errors, every replayed record is one
// the original journal actually contained, the replayed records form a
// prefix of the original sequence, and the recovered journal accepts
// new appends that survive a further reopen. An odd legacy heads the
// journal with legacyMagic, as the checkpoint and signature-cache files
// of older releases are, so they are held to the same invariants.
func FuzzJournalReplay(f *testing.F) {
	for _, legacy := range []uint8{0, 1} {
		f.Add(legacy, int64(0), uint8(0), []byte{})
		f.Add(legacy, int64(3), uint8(1), []byte{0xff})
		f.Add(legacy, int64(100), uint8(7), []byte("garbage tail"))
		f.Add(legacy, int64(8191), uint8(255), bytes.Repeat([]byte{0x00}, 64))
	}

	f.Fuzz(func(t *testing.T, legacy uint8, cut int64, flips uint8, tail []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.journal")

		// Build a known-good journal of 8 records.
		records := [][]byte{
			[]byte("r0"), []byte("record-one"), []byte("r2-xxxxxxxxxxxxxxxx"),
			[]byte("r3"), bytes.Repeat([]byte("r4"), 300), []byte("r5"),
			[]byte("r6"), []byte("r7-final"),
		}
		j, err := Open(path, JournalConfig{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("seed open: %v", err)
		}
		for _, r := range records {
			if err := j.Append(r); err != nil {
				t.Fatalf("seed append: %v", err)
			}
		}
		j.Close()

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read seed: %v", err)
		}
		if legacy%2 == 1 {
			copy(raw, legacyMagic)
		}

		// Damage: truncate to |cut| mod len, flip up to 8 bits at
		// positions derived from flips, then append arbitrary tail bytes.
		if cut < 0 {
			cut = -cut
		}
		if len(raw) > 0 {
			raw = raw[:cut%int64(len(raw)+1)]
		}
		for i := 0; i < int(flips%8) && len(raw) > 0; i++ {
			pos := (int(flips) * 31 * (i + 1)) % len(raw)
			raw[pos] ^= 1 << (uint(i) % 8)
		}
		raw = append(raw, tail...)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("write damaged: %v", err)
		}

		var replayed [][]byte
		j2, err := Open(path, JournalConfig{Replay: func(p []byte) error {
			replayed = append(replayed, append([]byte(nil), p...))
			return nil
		}})
		if err != nil {
			t.Fatalf("recovery refused to open: %v", err)
		}

		// Whatever was replayed must be a prefix of the original
		// sequence — corruption may cost records but never invents or
		// reorders them. (Bit flips can in principle forge a different
		// valid record, but the CRC makes that astronomically unlikely
		// for these inputs; a hit here is a finding worth seeing.)
		if len(replayed) > len(records) {
			t.Fatalf("replayed %d records from a journal of %d", len(replayed), len(records))
		}
		for i, r := range replayed {
			if !bytes.Equal(r, records[i]) {
				t.Fatalf("record %d mutated: got %q want %q", i, r, records[i])
			}
		}

		// The recovered journal must accept appends, and they must
		// survive a reopen along with the recovered prefix.
		if err := j2.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		j2.Close()

		var again [][]byte
		j3, err := Open(path, JournalConfig{Replay: func(p []byte) error {
			again = append(again, append([]byte(nil), p...))
			return nil
		}})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		j3.Close()
		if len(again) != len(replayed)+1 {
			t.Fatalf("second replay saw %d records, want %d", len(again), len(replayed)+1)
		}
		if !bytes.Equal(again[len(again)-1], []byte("post-recovery")) {
			t.Fatalf("post-recovery record lost: %q", again[len(again)-1])
		}
	})
}
