// Package durable is the crash-safety layer of the control plane: an
// append-only CRC-framed journal, and every file this system keeps is
// one. The sigserver publish log appends one record per publish; the
// siggen learner checkpoint is a journal compacted to one record per
// save; leakstream's last-known-good signature cache (SetCache) appends
// one record per delivered set.
//
// Everything here shares one recovery philosophy: **never refuse to
// boot**. A truncated or bit-flipped tail — the normal residue of a
// crash mid-write — recovers to the last intact record and keeps going.
// Data that cannot be authenticated by its CRC is discarded and
// counted, not fatal. The paper's signatures are expensive to learn and
// cheap to re-learn incrementally; a process that refuses to start over
// one torn write loses far more than the torn write did.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// journalMagic heads every journal file; a file that starts with
// neither it nor legacyMagic is treated as foreign and rebuilt from
// scratch.
const journalMagic = "LSJRNL1\n"

// legacyMagic heads the checkpoint and signature-cache files older
// releases wrote: their frames are journal frames, so they recover as
// journals, and the next compaction rewrites them under journalMagic.
const legacyMagic = "LSCKPT1\n"

// syncEvery is the FsyncInterval cadence.
const syncEvery = 100 * time.Millisecond

// MaxRecord bounds a single journal payload. A corrupt length field
// would otherwise ask recovery to allocate gigabytes; anything above
// the bound is treated as tail corruption.
const MaxRecord = 16 << 20

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy dictates when appended records are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged record is
	// ever lost. The default, and the right choice for the publish
	// journal where each record is one version of a named set. A failed
	// sync fails the append: the record is cut back off the file and
	// the error returned, so a record that never reached stable storage
	// is never acknowledged — nor replayed later as if it had been.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on the append path (no background goroutine):
	// an append syncs when the last sync is at least syncEvery old. An
	// append made sooner stays unsynced until a later append arrives past
	// the interval, or until Sync or Close; if appends stop, that can
	// take any length of time. The window is bounded only while appends
	// keep coming.
	FsyncInterval
	// FsyncNever leaves syncing to the OS. For tests and throwaway
	// journals only.
	FsyncNever
)

// ParseFsyncPolicy maps flag spellings to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf("durable: unknown fsync policy %q (want always|interval|never)", s)
}

// JournalConfig parameterizes Open.
type JournalConfig struct {
	// Fsync selects the sync policy; default FsyncAlways.
	Fsync FsyncPolicy
	// Replay, when non-nil, receives every intact record's payload in
	// append order during Open. The slice is reused between calls;
	// callers keep data by copying or decoding it.
	Replay func(payload []byte) error
}

// JournalStats is a point-in-time view of a journal's accounting.
type JournalStats struct {
	Appends        uint64 `json:"appends"`
	AppendErrors   uint64 `json:"append_errors"` // appends refused or failed: the record is not in the journal
	FsyncErrors    uint64 `json:"fsync_errors"`
	Recovered      uint64 `json:"recovered_records"`
	TruncatedBytes int64  `json:"truncated_bytes"`
	Compactions    uint64 `json:"compactions"`
	SizeBytes      int64  `json:"size_bytes"`
}

// Journal is an append-only record log. All methods are safe for
// concurrent use.
type Journal struct {
	path string
	cfg  JournalConfig

	mu       sync.Mutex
	f        *os.File
	size     int64
	dirty    bool
	lastSync time.Time
	closed   bool
	// broken, once set, fails every later append: a failed append whose
	// bytes could not be cut back off left the file's tail unknown.
	broken error

	// write and sync are the file operations an append makes; tests
	// swap them to inject failures.
	write func(f *os.File, p []byte) (int, error)
	sync  func(f *os.File) error

	appends      uint64
	appendErrors uint64
	fsyncErrors  uint64
	recovered    uint64
	truncated    int64
	compactions  uint64
}

// Open opens (creating if absent) the journal at path, replaying every
// intact record through cfg.Replay and truncating any corrupt or torn
// tail. It fails only on real I/O errors or a Replay callback error —
// corruption alone never prevents opening.
func Open(path string, cfg JournalConfig) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open journal: %w", err)
	}
	j := &Journal{path: path, cfg: cfg, f: f, write: (*os.File).Write, sync: (*os.File).Sync}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover scans the file from the top, replaying intact records and
// truncating at the first sign of damage. Runs once, at Open, before
// any appends.
func (j *Journal) recover() error {
	info, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("durable: stat journal: %w", err)
	}
	total := info.Size()

	if total == 0 {
		if _, err := j.f.Write([]byte(journalMagic)); err != nil {
			return fmt.Errorf("durable: write journal header: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("durable: sync journal header: %w", err)
		}
		j.size = int64(len(journalMagic))
		return nil
	}

	header := make([]byte, len(journalMagic))
	good := int64(0)
	if _, err := io.ReadFull(j.f, header); err == nil && (string(header) == journalMagic || string(header) == legacyMagic) {
		good = int64(len(header))
	} else {
		// Foreign or mangled header: the whole file is unrecoverable.
		// Rebuild rather than refuse to boot.
		j.truncated += total
		if err := j.rewrite(nil); err != nil {
			return err
		}
		return nil
	}

	var frame [8]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(j.f, frame[:]); err != nil {
			break // clean end or torn frame header
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 || n > MaxRecord {
			break // corrupt length
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(j.f, payload); err != nil {
			break // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			break // bit-flipped payload
		}
		if j.cfg.Replay != nil {
			if err := j.cfg.Replay(payload); err != nil {
				return fmt.Errorf("durable: replay record at offset %d: %w", good, err)
			}
		}
		j.recovered++
		good += 8 + int64(n)
	}

	if good < total {
		j.truncated += total - good
		if err := j.f.Truncate(good); err != nil {
			return fmt.Errorf("durable: truncate corrupt tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("durable: sync after truncate: %w", err)
		}
	}
	if _, err := j.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("durable: seek to append position: %w", err)
	}
	j.size = good
	return nil
}

// Append frames payload and writes it to the journal, syncing per the
// fsync policy. The payload is copied into the file; the caller keeps
// ownership of the slice. An append either succeeds whole or leaves the
// journal as it was: a write that fails part-way (or, under
// FsyncAlways, a failed sync) is truncated back off before the error is
// returned, so a torn frame never sits in front of later records. Every
// failed append is counted in JournalStats.AppendErrors.
func (j *Journal) Append(payload []byte) error {
	err := j.append(payload)
	if err != nil {
		j.mu.Lock()
		j.appendErrors++
		j.mu.Unlock()
	}
	return err
}

func (j *Journal) append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("durable: empty record")
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("durable: record of %d bytes exceeds MaxRecord %d", len(payload), MaxRecord)
	}
	frame := frameOf(payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("durable: journal closed")
	}
	if j.broken != nil {
		return j.broken
	}
	if _, err := j.write(j.f, frame[:]); err != nil {
		return j.undoLocked(fmt.Errorf("durable: append frame: %w", err))
	}
	if _, err := j.write(j.f, payload); err != nil {
		return j.undoLocked(fmt.Errorf("durable: append payload: %w", err))
	}
	j.dirty = true
	if err := j.maybeSyncLocked(); err != nil {
		return j.undoLocked(fmt.Errorf("durable: append sync: %w", err))
	}
	j.size += 8 + int64(len(payload))
	j.appends++
	return nil
}

// frameOf is the 8-byte frame header written in front of every record:
// its length, then its CRC-32C, both little-endian.
func frameOf(rec []byte) [8]byte {
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(rec, castagnoli))
	return frame
}

// undoLocked cuts a failed append back off the file, returning err. If
// the cut itself fails the journal's tail is unknown, and the journal
// refuses every later append rather than acknowledge records recovery
// would drop behind the torn one. Callers hold j.mu.
func (j *Journal) undoLocked(err error) error {
	_, serr := j.f.Seek(j.size, io.SeekStart)
	if terr := j.f.Truncate(j.size); terr != nil || serr != nil {
		j.broken = fmt.Errorf("durable: journal unusable after a failed append: %w", errors.Join(serr, terr))
	}
	return err
}

// maybeSyncLocked applies the fsync policy after a write. Callers hold
// j.mu. Under FsyncAlways a sync failure is returned, and the append
// fails with it. Under FsyncInterval it is counted (exported for
// alerting) but does not fail the append: the policy already accepts a
// loss window, and the next append past the interval syncs again.
func (j *Journal) maybeSyncLocked() error {
	switch j.cfg.Fsync {
	case FsyncAlways:
	case FsyncInterval:
		now := time.Now()
		if now.Sub(j.lastSync) < syncEvery {
			return nil
		}
		j.lastSync = now
	case FsyncNever:
		return nil
	}
	if err := j.syncLocked(); err != nil && j.cfg.Fsync == FsyncAlways {
		return err
	}
	return nil
}

// syncLocked forces the file to stable storage through the sync seam,
// counting a failure in FsyncErrors. Every sync of the live file — on
// the append path, in Sync, in Close — goes through here. Callers hold
// j.mu.
func (j *Journal) syncLocked() error {
	if err := j.sync(j.f); err != nil {
		j.fsyncErrors++
		return err
	}
	j.dirty = false
	return nil
}

// Sync forces any buffered appends to stable storage regardless of
// policy. Used at shutdown.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || !j.dirty {
		return nil
	}
	if err := j.syncLocked(); err != nil {
		return fmt.Errorf("durable: sync: %w", err)
	}
	return nil
}

// Compact atomically replaces the journal's contents with records: a
// temp file in the same directory gets the header plus every record,
// is synced, and renamed over the live path (directory synced too), so
// a crash at any point leaves either the old journal or the new one —
// never a hybrid. The journal stays open for appends afterwards.
func (j *Journal) Compact(records [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("durable: journal closed")
	}
	if err := j.rewrite(records); err != nil {
		return err
	}
	j.compactions++
	return nil
}

// rewrite replaces the journal file with header+records via
// temp+rename. Callers hold j.mu (or run before concurrency starts).
func (j *Journal) rewrite(records [][]byte) error {
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: compact temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write([]byte(journalMagic)); err != nil {
		cleanup()
		return fmt.Errorf("durable: compact header: %w", err)
	}
	size := int64(len(journalMagic))
	for _, rec := range records {
		if len(rec) == 0 || len(rec) > MaxRecord {
			cleanup()
			return fmt.Errorf("durable: compact record of %d bytes out of range", len(rec))
		}
		frame := frameOf(rec)
		if _, err := tmp.Write(frame[:]); err != nil {
			cleanup()
			return fmt.Errorf("durable: compact write: %w", err)
		}
		if _, err := tmp.Write(rec); err != nil {
			cleanup()
			return fmt.Errorf("durable: compact write: %w", err)
		}
		size += 8 + int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("durable: compact sync: %w", err)
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		cleanup()
		return fmt.Errorf("durable: compact rename: %w", err)
	}
	syncDir(dir)

	// The temp file's handle, already positioned at its end, becomes the
	// append handle: no reopen can fail after the rename and leave
	// appends going to the unlinked old file.
	j.f.Close()
	j.f = tmp
	j.size = size
	j.dirty = false
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives power
// loss. Best-effort: some filesystems refuse directory syncs.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Stats returns the journal's accounting.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Appends:        j.appends,
		AppendErrors:   j.appendErrors,
		FsyncErrors:    j.fsyncErrors,
		Recovered:      j.recovered,
		TruncatedBytes: j.truncated,
		Compactions:    j.compactions,
		SizeBytes:      j.size,
	}
}

// Close syncs outstanding appends and closes the file. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var firstErr error
	if j.dirty {
		firstErr = j.syncLocked()
	}
	if err := j.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
