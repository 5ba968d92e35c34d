package durable

import (
	"encoding/json"
	"sort"
	"sync"

	"leaksig/internal/signature"
)

// cacheCompactEvery is how many appends accumulate before the cache is
// compacted down to one record per name: deliveries supersede each
// other per name, so the file would otherwise grow by one set per
// delivery for as long as the daemon lives.
const cacheCompactEvery = 256

// SetCache is leakstream's last-known-good signature store: a journal
// with one {name, set} record per set delivered by a watch, and on a
// boot where sigserver is unreachable the engine loads and serves the
// cached sets instead of starting blind (degraded mode). Safe for
// concurrent use.
type SetCache struct {
	j *Journal

	mu           sync.Mutex
	sets         map[string]*signature.Set // name ("" = default) → last good set
	sinceCompact int                       // appends since the last compaction; at open, the records recovered
}

// cacheRecord is one cached set at rest. Sets is the single whole-cache
// record older releases wrote; replay still reads it.
type cacheRecord struct {
	Name string                    `json:"name"`
	Set  *signature.Set            `json:"set,omitempty"`
	Sets map[string]*signature.Set `json:"sets,omitempty"`
}

// OpenSetCache opens (creating if absent) the cache at path and loads
// each name's last intact record. Damage costs only the records from
// the first damaged one on, as in any journal; a path that cannot be
// opened is an error. The returned bool reports whether cached sets
// were actually loaded.
func OpenSetCache(path string) (*SetCache, bool, error) {
	c := &SetCache{sets: map[string]*signature.Set{}}
	j, err := Open(path, JournalConfig{Fsync: FsyncAlways, Replay: c.replay})
	if err != nil {
		return nil, false, err
	}
	c.j = j
	c.sinceCompact = int(j.Stats().Recovered)
	return c, len(c.sets) > 0, nil
}

// replay applies one record during Open: a later record for a name
// replaces an earlier one.
func (c *SetCache) replay(payload []byte) error {
	var rec cacheRecord
	if json.Unmarshal(payload, &rec) != nil {
		// An intact-CRC record that fails to decode is a version-skew
		// artifact, not corruption; skip it rather than refuse to boot.
		return nil
	}
	for name, set := range rec.Sets {
		if set != nil {
			c.sets[name] = set
		}
	}
	if rec.Set != nil {
		c.sets[rec.Name] = rec.Set
	}
	return nil
}

// Put records set as the last known good for name by appending one
// record. The append is synced — a watch delivery returns only after the
// set would survive a crash — and a failed append leaves the cache as it
// was. Every cacheCompactEvery records, the file is rewritten as one
// record per name.
func (c *SetCache) Put(name string, set *signature.Set) error {
	payload, err := json.Marshal(cacheRecord{Name: name, Set: set})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.j.Append(payload); err != nil {
		return err
	}
	c.sets[name] = set
	if c.sinceCompact++; c.sinceCompact >= cacheCompactEvery {
		c.sinceCompact = 0
		c.compactLocked()
	}
	return nil
}

// compactLocked rewrites the file as one record per name. A failed
// compaction leaves the appended records in place; the next one retries.
// Callers hold c.mu.
func (c *SetCache) compactLocked() {
	records := make([][]byte, 0, len(c.sets))
	for _, name := range c.namesLocked() {
		payload, err := json.Marshal(cacheRecord{Name: name, Set: c.sets[name]})
		if err != nil {
			return
		}
		records = append(records, payload)
	}
	c.j.Compact(records)
}

// Get returns the cached set for name, if any.
func (c *SetCache) Get(name string) (*signature.Set, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.sets[name]
	return set, ok
}

// Names returns the cached set names, sorted, "" (the default set)
// first when present.
func (c *SetCache) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.namesLocked()
}

func (c *SetCache) namesLocked() []string {
	names := make([]string, 0, len(c.sets))
	for name := range c.sets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close closes the cache's file. A Put after Close fails.
func (c *SetCache) Close() error { return c.j.Close() }
