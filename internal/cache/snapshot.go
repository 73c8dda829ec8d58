package cache

import (
	"fmt"

	"spb/internal/mem"
)

// This file adds the two pieces warm-start simulation (DESIGN.md §12) needs
// from the cache arrays: counter-free "functional warming" accesses, and a
// deep-copy Snapshot/Restore of all mutable state.
//
// Functional warming replays a workload prefix against the tag/LRU arrays
// without touching the statistics counters, the MSHR model, or fill timing —
// so the warmed state depends only on the instruction stream, never on the
// per-grid-point configuration knobs a sweep varies. WarmLookup and
// WarmInsert mirror Lookup and Insert effect-for-effect on the array state
// (same LRU clock advances, same victim choice) minus the counters, and fill
// with ReadyAt 0 (data "already arrived": warmup models steady state, not
// the transient).

// WarmLookup returns the line holding b, touching LRU state exactly as a
// demand Lookup(b, true) would, but without counting the access.
func (c *Cache) WarmLookup(b mem.Block) *Line {
	i := c.find(b)
	if i < 0 {
		return nil
	}
	c.clock++
	c.uses[i] = c.clock
	return &c.lines[i]
}

// WarmInsert fills block b in state st with the fill already complete
// (ReadyAt 0), choosing the victim exactly as Insert would but without
// counting the eviction. The caller propagates state effects (inclusive
// back-invalidation) of a valid victim; no writeback is modelled.
func (c *Cache) WarmInsert(b mem.Block, st State) (line *Line, victim Line, evicted bool) {
	i, present := c.place(b)
	line = &c.lines[i]
	if present {
		line.State = st
		line.Prefetched = false
		line.PrefetchWrite = false
		return line, Line{}, false
	}
	if c.tags[i] != noTag {
		victim = *line
		evicted = true
	}
	*line = Line{Block: b, State: st}
	c.tags[i] = b
	return line, victim, evicted
}

// Snapshot is a deep copy of a cache's mutable state: the line, tag and LRU
// arrays, the LRU clock, the in-flight miss list and the statistics counters.
// For the L3 that includes the coherence directory, which lives in the lines.
// It shares no memory with the cache it was taken from.
type Snapshot struct {
	lines []Line
	tags  []mem.Block
	uses  []uint64
	clock uint64

	outstanding []uint64 // ascending

	tagAccesses, hits, misses, evictions, writebacks uint64
}

// Snapshot deep-copies the cache's mutable state in canonical form: dead
// ways (tags[i] == noTag) are stored as zero lines/uses regardless of what
// garbage the recycled arena holds. Two caches with identical logical
// content therefore produce identical snapshots (reflect.DeepEqual-
// comparable) no matter their arena history.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{
		lines:       make([]Line, len(c.lines)),
		tags:        make([]mem.Block, len(c.tags)),
		uses:        make([]uint64, len(c.uses)),
		clock:       c.clock,
		tagAccesses: c.TagAccesses,
		hits:        c.Hits,
		misses:      c.Misses,
		evictions:   c.Evictions,
		writebacks:  c.Writebacks,
	}
	for i, tag := range c.tags {
		s.tags[i] = tag
		if tag != noTag {
			s.uses[i] = c.uses[i]
			s.lines[i] = c.lines[i]
		}
	}
	if len(c.outstanding.a) > 0 {
		s.outstanding = append([]uint64(nil), c.outstanding.a...)
	}
	return s
}

// Fits reports, as an error, why the snapshot cannot be restored into c: its
// arrays are not c's size, a line names an owner or sharer outside
// [0, cores), or the in-flight list is not ascending. Snapshots taken from a
// same-geometry cache always fit; decoded ones (checkpoint files) must be
// checked before Restore, which panics on a size mismatch.
func (s *Snapshot) Fits(c *Cache, cores int) error {
	if n := len(c.lines); len(s.lines) != n || len(s.tags) != n || len(s.uses) != n {
		return fmt.Errorf("cache %s: snapshot of %d/%d/%d lines/tags/uses, cache has %d",
			c.name, len(s.lines), len(s.tags), len(s.uses), n)
	}
	for i := range s.lines {
		if l := &s.lines[i]; int(l.owner) > cores || l.Sharers>>uint(cores) != 0 {
			return fmt.Errorf("cache %s: snapshot line %d names owner %d, sharers %#x of %d cores",
				c.name, i, l.Owner(), l.Sharers, cores)
		}
	}
	for i := 1; i < len(s.outstanding); i++ {
		if s.outstanding[i] < s.outstanding[i-1] {
			return fmt.Errorf("cache %s: snapshot in-flight list not ascending", c.name)
		}
	}
	return nil
}

// Restore overwrites the cache's mutable state with the snapshot's. The
// cache must have the same geometry as the snapshot's source.
func (c *Cache) Restore(s *Snapshot) {
	if len(c.lines) != len(s.lines) || c.ways == 0 {
		panic("cache: Restore with mismatched geometry")
	}
	copy(c.lines, s.lines)
	copy(c.tags, s.tags)
	copy(c.uses, s.uses)
	c.clock = s.clock
	c.outstanding.a = append(c.outstanding.a[:0], s.outstanding...)
	c.TagAccesses = s.tagAccesses
	c.Hits = s.hits
	c.Misses = s.misses
	c.Evictions = s.evictions
	c.Writebacks = s.writebacks
}
