package cache

import (
	"fmt"
	"math/bits"

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
// (same recency updates, same victim choice) minus the counters, and fill
// with ReadyAt 0 (data "already arrived": warmup models steady state, not
// the transient).

// WarmLookup returns the line holding b, touching LRU state exactly as a
// demand Lookup(b, true) would, but without counting the access.
func (c *Cache) WarmLookup(b mem.Block) *Line {
	set, w := c.find(b)
	if w < 0 {
		return nil
	}
	c.rec[set] = toFront(c.rec[set], w)
	return &c.lines[set*c.ways+w]
}

// WarmInsert fills block b in state st with the fill already complete
// (ReadyAt 0), choosing the victim exactly as Insert would but without
// counting the eviction. The caller propagates state effects (inclusive
// back-invalidation) of a valid victim; no writeback is modelled.
func (c *Cache) WarmInsert(b mem.Block, st State) (line *Line, victim Line, evicted bool) {
	i, present, occupied := c.place(b)
	line = &c.lines[i]
	if present {
		line.State = st
		line.Prefetched = false
		line.PrefetchWrite = false
		return line, Line{}, false
	}
	if occupied {
		victim = *line
	}
	*line = Line{Block: b, State: st}
	return line, victim, occupied
}

// Snapshot is a deep copy of a cache's mutable state: the lines, each set's
// recency word and live mask, the in-flight miss list and the statistics
// counters. For the L3 that includes the coherence directory, which lives in
// the lines. The short tags are not part of it: Restore derives them from the
// lines. It shares no memory with the cache it was taken from.
type Snapshot struct {
	lines []Line
	rec   []uint64
	live  []uint16

	outstanding []uint64 // ascending

	tagAccesses, hits, misses, evictions, writebacks uint64
}

// Snapshot deep-copies the cache's mutable state in canonical form: free
// ways are stored as zero lines regardless of what the recycled arena holds.
// Two caches that went through the same operations therefore produce
// identical snapshots (reflect.DeepEqual-comparable) no matter their arena
// history.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{
		lines:       make([]Line, len(c.lines)),
		rec:         append([]uint64(nil), c.rec...),
		live:        append([]uint16(nil), c.live...),
		tagAccesses: c.TagAccesses,
		hits:        c.Hits,
		misses:      c.Misses,
		evictions:   c.Evictions,
		writebacks:  c.Writebacks,
	}
	for set, live := range c.live {
		for ; live != 0; live &= live - 1 {
			i := set*c.ways + bits.TrailingZeros16(live)
			s.lines[i] = c.lines[i]
		}
	}
	if len(c.outstanding.a) > 0 {
		s.outstanding = append([]uint64(nil), c.outstanding.a...)
	}
	return s
}

// Fits reports, as an error, why the snapshot cannot be restored into c: its
// arrays are not c's size; a set's live mask names a way c does not have or
// its recency word is not an order of c's ways; a live line is Invalid, sits
// in a set its block does not map to, repeats a block of its set, or names an
// owner or sharer outside [0, cores); or the in-flight list is not ascending.
// Snapshots taken from a same-geometry cache always fit; decoded ones
// (checkpoint files) must be checked before Restore, which panics on a size
// mismatch and would otherwise install a cache whose lookups miss or alias.
func (s *Snapshot) Fits(c *Cache, cores int) error {
	if len(s.lines) != len(c.lines) || len(s.rec) != len(c.rec) || len(s.live) != len(c.live) {
		return fmt.Errorf("cache %s: snapshot of %d lines, %d/%d recency words/live masks; cache has %d lines in %d sets",
			c.name, len(s.lines), len(s.rec), len(s.live), len(c.lines), len(c.live))
	}
	for set, live := range s.live {
		if uint(live)>>uint(c.ways) != 0 {
			return fmt.Errorf("cache %s: snapshot set %d live mask %#x exceeds %d ways", c.name, set, live, c.ways)
		}
		var ordered uint
		for p := 0; p < c.ways; p++ {
			ordered |= 1 << (s.rec[set] >> (4 * uint(p)) & 15)
		}
		if ordered != 1<<uint(c.ways)-1 || s.rec[set]>>(4*uint(c.ways)) != 0 {
			return fmt.Errorf("cache %s: snapshot set %d recency word %#x is not an order of %d ways", c.name, set, s.rec[set], c.ways)
		}
		ways := s.lines[set*c.ways : (set+1)*c.ways]
		for w := range ways {
			l := &ways[w]
			if live>>uint(w)&1 == 0 {
				continue
			}
			if l.State == Invalid || int(uint64(l.Block)&c.setMask) != set {
				return fmt.Errorf("cache %s: snapshot set %d way %d holds block %#x in state %v", c.name, set, w, l.Block, l.State)
			}
			for v := 0; v < w; v++ {
				if live>>uint(v)&1 != 0 && ways[v].Block == l.Block {
					return fmt.Errorf("cache %s: snapshot set %d holds block %#x twice", c.name, set, l.Block)
				}
			}
			if int(l.owner) > cores || l.Sharers>>uint(cores) != 0 {
				return fmt.Errorf("cache %s: snapshot set %d way %d names owner %d, sharers %#x of %d cores",
					c.name, set, w, l.Owner(), l.Sharers, cores)
			}
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
	if len(c.lines) != len(s.lines) || len(c.live) != len(s.live) {
		panic("cache: Restore with mismatched geometry")
	}
	copy(c.lines, s.lines)
	copy(c.rec, s.rec)
	copy(c.live, s.live)
	for i := range c.lines {
		c.tags[i] = uint32(uint64(c.lines[i].Block) >> c.setBits)
	}
	c.outstanding.a = append(c.outstanding.a[:0], s.outstanding...)
	c.TagAccesses = s.tagAccesses
	c.Hits = s.hits
	c.Misses = s.misses
	c.Evictions = s.evictions
	c.Writebacks = s.writebacks
}
