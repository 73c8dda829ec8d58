package cache

import (
	"fmt"
	"math/bits"
)

// This file adds what warm-start simulation (DESIGN.md §12) needs from the
// cache arrays besides their one access path: a deep-copy Snapshot/Restore of
// all mutable state.

// Snapshot is a deep copy of a cache's mutable state: the occupied lines, each
// set's recency word and live mask, the in-flight miss list and the statistics
// counters. Lines holds the live ways only, set by set and way-ascending within
// a set, so len(Lines) is the number of live bits and a snapshot costs memory,
// copy time and checkpoint bytes in proportion to what the cache holds; a full
// cache is the whole array. For the L3 the lines include the coherence
// directory, which lives in them. The short tags are not part of it: Restore
// derives them from the lines. It shares no memory with the cache it was taken
// from, and it is its own gob form in a checkpoint file (DESIGN.md §12).
type Snapshot struct {
	Lines []Line // nil when nothing is live, which is what gob decodes an empty slice to
	Rec   []uint64
	Live  []uint16

	Outstanding []uint64 // ascending

	TagAccesses, Hits, Misses, Evictions, Writebacks uint64
}

// liveCount is the number of ways the masks mark live.
func liveCount(live []uint16) int {
	n := 0
	for _, m := range live {
		n += bits.OnesCount16(m)
	}
	return n
}

// Snapshot deep-copies the cache's mutable state in canonical form: only the
// live ways are read, so what a free way of the recycled arena holds never
// reaches it. Two caches that went through the same operations therefore
// produce identical snapshots (reflect.DeepEqual-comparable) no matter their
// arena history.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{
		Rec:         append([]uint64(nil), c.rec...),
		Live:        append([]uint16(nil), c.live...),
		TagAccesses: c.TagAccesses,
		Hits:        c.Hits,
		Misses:      c.Misses,
		Evictions:   c.Evictions,
		Writebacks:  c.Writebacks,
	}
	if n := liveCount(c.live); n > 0 {
		s.Lines = make([]Line, 0, n)
		for set, live := range c.live {
			for ; live != 0; live &= live - 1 {
				s.Lines = append(s.Lines, c.lines[set*c.ways+bits.TrailingZeros16(live)])
			}
		}
	}
	if len(c.outstanding.a) > 0 {
		s.Outstanding = append([]uint64(nil), c.outstanding.a...)
	}
	return s
}

// Fits reports, as an error, why the snapshot cannot be restored into c: its
// per-set arrays are not c's size or it does not hold one line per live bit; a
// set's live mask names a way c does not have or its recency word is not an
// order of c's ways; a live line is Invalid, sits in a set its block does not
// map to, repeats a block of its set, or names an owner or sharer outside
// [0, cores); or the in-flight list is not ascending. Snapshots taken from a
// same-geometry cache always fit; decoded ones (checkpoint files) must be
// checked before Restore, which panics on a size mismatch and would otherwise
// install a cache whose lookups miss or alias.
func (s *Snapshot) Fits(c *Cache, cores int) error {
	if len(s.Rec) != len(c.rec) || len(s.Live) != len(c.live) {
		return fmt.Errorf("cache %s: snapshot of %d/%d recency words/live masks; cache has %d sets",
			c.name, len(s.Rec), len(s.Live), len(c.live))
	}
	if n := liveCount(s.Live); n != len(s.Lines) {
		return fmt.Errorf("cache %s: snapshot of %d lines, its live masks mark %d", c.name, len(s.Lines), n)
	}
	next := 0 // the line of the live way under inspection
	for set, live := range s.Live {
		if uint(live)>>uint(c.ways) != 0 {
			return fmt.Errorf("cache %s: snapshot set %d live mask %#x exceeds %d ways", c.name, set, live, c.ways)
		}
		var ordered uint
		for p := 0; p < c.ways; p++ {
			ordered |= 1 << (s.Rec[set] >> (4 * uint(p)) & 15)
		}
		if ordered != 1<<uint(c.ways)-1 || s.Rec[set]>>(4*uint(c.ways)) != 0 {
			return fmt.Errorf("cache %s: snapshot set %d recency word %#x is not an order of %d ways", c.name, set, s.Rec[set], c.ways)
		}
		first := next
		for ; live != 0; live &= live - 1 {
			w, l := bits.TrailingZeros16(live), &s.Lines[next]
			if l.State == Invalid || int(uint64(l.Block)&c.setMask) != set {
				return fmt.Errorf("cache %s: snapshot set %d way %d holds block %#x in state %v", c.name, set, w, l.Block, l.State)
			}
			for _, earlier := range s.Lines[first:next] {
				if earlier.Block == l.Block {
					return fmt.Errorf("cache %s: snapshot set %d holds block %#x twice", c.name, set, l.Block)
				}
			}
			if int(l.OwnerPlus1) > cores || l.Sharers>>uint(cores) != 0 {
				return fmt.Errorf("cache %s: snapshot set %d way %d names owner %d, sharers %#x of %d cores",
					c.name, set, w, l.Owner(), l.Sharers, cores)
			}
			next++
		}
	}
	for i := 1; i < len(s.Outstanding); i++ {
		if s.Outstanding[i] < s.Outstanding[i-1] {
			return fmt.Errorf("cache %s: snapshot in-flight list not ascending", c.name)
		}
	}
	return nil
}

// Restore overwrites the cache's mutable state with the snapshot's: each line
// goes to the way its live bit names and the way's short tag is derived from
// it there. A way the snapshot leaves free keeps whatever record the arena
// held, which nothing reads before a fill rewrites it. The cache must have the
// same geometry as the snapshot's source.
func (c *Cache) Restore(s *Snapshot) {
	if len(c.live) != len(s.Live) || len(s.Lines) != liveCount(s.Live) {
		panic("cache: Restore with mismatched geometry")
	}
	copy(c.rec, s.Rec)
	copy(c.live, s.Live)
	c.absent = 0
	next := 0
	for set, live := range s.Live {
		for ; live != 0; live &= live - 1 {
			i := set*c.ways + bits.TrailingZeros16(live)
			c.lines[i] = s.Lines[next]
			c.tags[i] = uint32(uint64(s.Lines[next].Block) >> c.setBits)
			next++
		}
	}
	c.outstanding.a = append(c.outstanding.a[:0], s.Outstanding...)
	c.TagAccesses = s.TagAccesses
	c.Hits = s.Hits
	c.Misses = s.Misses
	c.Evictions = s.Evictions
	c.Writebacks = s.Writebacks
}
