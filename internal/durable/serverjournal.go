package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// publishRecord is one journaled publish: which set, at what version,
// with what contents. The default set journals under its name, "".
type publishRecord struct {
	Name    string         `json:"name"`
	Version int64          `json:"version"`
	Set     *signature.Set `json:"set"`
}

// compactEvery is how many appended records accumulate before the
// journal is compacted down to the latest record per name. Publishes
// supersede each other per name, so a long-lived journal would
// otherwise replay every historical version just to land on the last.
const compactEvery = 256

// ServerJournal binds a sigserver.Server to an on-disk publish journal:
// Attach replays the journal into the server (restoring every named set
// at its pre-crash version), then hooks the server's publish callbacks
// so each new publish is appended — and periodically compacted to
// latest-record-per-name — before anything else observes it as durable.
type ServerJournal struct {
	j     *Journal
	srv   *sigserver.Server
	since atomic.Uint64 // appends since last compaction

	replayedSets  int
	replaySkipped int
}

// AttachServerJournal opens the journal at path, replays every intact
// record into srv through Publish at the record's version (so versions
// are preserved, stay strictly increasing, and stale duplicates left
// behind by compaction races are skipped, not fatal), and then registers
// an OnPublish hook that journals all future publishes. Call before
// srv serves traffic or other publish hooks are registered — replayed
// sets do not fire hooks added later, so log/ship hooks added after
// Attach see only live publishes.
func AttachServerJournal(srv *sigserver.Server, path string, cfg JournalConfig) (*ServerJournal, error) {
	sj := &ServerJournal{srv: srv}
	if cfg.Replay != nil {
		return nil, errors.New("durable: AttachServerJournal owns the replay callback")
	}
	cfg.Replay = func(payload []byte) error {
		var rec publishRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// An intact-CRC record that fails to decode is a version-skew
			// artifact, not corruption; skip it rather than refuse to boot.
			sj.replaySkipped++
			return nil
		}
		if rec.Set == nil || rec.Version <= 0 {
			sj.replaySkipped++
			return nil
		}
		rec.Set.Version = rec.Version
		_, err := srv.Publish(rec.Name, rec.Set)
		switch {
		case err == nil:
			sj.replayedSets++
		case errors.Is(err, sigserver.ErrStaleVersion):
			sj.replaySkipped++ // superseded by a later record; normal
		default:
			return fmt.Errorf("replay %q v%d: %w", rec.Name, rec.Version, err)
		}
		return nil
	}
	j, err := Open(path, cfg)
	if err != nil {
		return nil, err
	}
	sj.j = j
	srv.OnPublish(sj.onPublish)
	return sj, nil
}

// onPublish journals the set that is now current for name. The callback
// delivers only (name, version); the set is re-read from the server. If
// a racing publish already superseded version, the newer set is
// journaled instead — harmless, since replay keeps the latest per name.
func (sj *ServerJournal) onPublish(name string, version int64) {
	set, v, ok := sj.srv.CurrentNamed(name)
	if !ok || v == 0 {
		return
	}
	payload, err := json.Marshal(publishRecord{Name: name, Version: v, Set: set})
	if err != nil {
		return
	}
	if sj.j.Append(payload) != nil {
		return // counted in JournalStats.AppendErrors
	}
	if sj.since.Add(1) >= compactEvery {
		sj.since.Store(0)
		sj.compact()
	}
}

// compact rewrites the journal as one latest-version record per name.
func (sj *ServerJournal) compact() {
	names := sj.srv.SetNames()
	records := make([][]byte, 0, len(names))
	for _, name := range names {
		set, v, ok := sj.srv.CurrentNamed(name)
		if !ok || v == 0 {
			continue
		}
		payload, err := json.Marshal(publishRecord{Name: name, Version: v, Set: set})
		if err != nil {
			continue
		}
		records = append(records, payload)
	}
	sj.j.Compact(records)
}

// Replayed reports how many sets were restored at Attach and how many
// stale/undecodable records were skipped.
func (sj *ServerJournal) Replayed() (restored, skipped int) {
	return sj.replayedSets, sj.replaySkipped
}

// Stats returns the underlying journal's accounting.
func (sj *ServerJournal) Stats() JournalStats { return sj.j.Stats() }

// Sync forces buffered appends to disk (shutdown path).
func (sj *ServerJournal) Sync() error { return sj.j.Sync() }

// Close syncs and closes the journal. The publish hook stays registered,
// but appends to a closed journal fail (counted in AppendErrors); close
// only at process shutdown after the server stops accepting publishes.
func (sj *ServerJournal) Close() error { return sj.j.Close() }
