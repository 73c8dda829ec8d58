package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"spb/internal/mem"
)

// This file adds what warm-start simulation (DESIGN.md §12) needs from the
// cache arrays besides their one access path: a deep-copy Snapshot/Restore of
// all mutable state.

// Snapshot is a deep copy of a cache's mutable state: the occupied lines, each
// set's recency word and live mask, the in-flight miss list and the statistics
// counters. Records holds the live ways only, set by set and way-ascending
// within a set, one packed record each (appendRecord), so a snapshot costs
// memory, copy time and checkpoint bytes in proportion to what the cache holds
// — 5 bytes for most warmed lines instead of the 32 of a Line. For the L3
// the records include the coherence directory, which lives in the lines. The
// short tags are not part of it: Restore derives them from the records. It
// shares no memory with the cache it was taken from, and it is its own gob form
// in a checkpoint file (DESIGN.md §12).
type Snapshot struct {
	Records []byte // nil when nothing is live, which is what gob decodes an empty slice to
	Rec     []uint64
	Live    []uint16

	Outstanding []uint64 // ascending

	TagAccesses, Hits, Misses, Evictions, Writebacks uint64
}

// The flags byte of a record: the state in the low two bits, then these.
const (
	recPrefetched    = 1 << 2
	recPrefetchWrite = 1 << 3
	recFlagBits      = 3 | recPrefetched | recPrefetchWrite
)

// liveCount is the number of ways the masks mark live.
func liveCount(live []uint16) int {
	n := 0
	for _, m := range live {
		n += bits.OnesCount16(m)
	}
	return n
}

// tagDelta is the first field of l's record: its tag (Block >> setBits; the
// set is implied by the record's position) relative to prev, the previous
// record's tag, zigzag-encoded so that a step back costs what a step forward
// does. Warming fills neighbouring sets from one stream, so a record's tag is
// nearly always its predecessor's or next to it: one byte instead of two or
// three.
func (c *Cache) tagDelta(l *Line, prev uint64) uint64 {
	d := int64(uint64(l.Block)>>c.setBits - prev)
	return uint64(d<<1) ^ uint64(d>>63)
}

// uvarintLen is the length of x's varint encoding: ceil(bits / 7), without
// the division.
func uvarintLen(x uint64) int { return (9*bits.Len64(x|1) + 64) / 64 }

// recordLen is the length of l's record after one of tag prev.
func (c *Cache) recordLen(l *Line, prev uint64) int {
	return uvarintLen(c.tagDelta(l, prev)) + 2 + uvarintLen(l.Sharers) + uvarintLen(l.ReadyAt)
}

// appendRecord appends l's record after one of tag prev: uvarint(tagDelta), a
// flags byte (state, Prefetched, PrefetchWrite), the owner byte (core + 1, 0
// for none), uvarint(Sharers) and uvarint(ReadyAt).
func (c *Cache) appendRecord(p []byte, l *Line, prev uint64) []byte {
	flags := byte(l.State)
	if l.Prefetched {
		flags |= recPrefetched
	}
	if l.PrefetchWrite {
		flags |= recPrefetchWrite
	}
	p = binary.AppendUvarint(p, c.tagDelta(l, prev))
	p = append(p, flags, l.ownerPlus1)
	p = binary.AppendUvarint(p, l.Sharers)
	return binary.AppendUvarint(p, l.ReadyAt)
}

// uvarint decodes the varint at p[at:] and returns it with the offset past it.
// ok is false when it is truncated, overflows 64 bits, or is longer than its
// value needs: each value has one encoding, so a stream that decodes is the one
// Snapshot writes.
func uvarint(p []byte, at int) (v uint64, next int, ok bool) {
	v, n := binary.Uvarint(p[at:])
	if n <= 0 || p[at+n-1] == 0 && n > 1 {
		return 0, at, false
	}
	return v, at + n, true
}

// record decodes the record at p[at:], of a way in set and after one of tag
// prev, into l and returns the offset past it. ok is false for a truncated or
// non-canonical record, a flags byte with bits no line sets, or a tag that
// overflows when shifted back into a block.
func (c *Cache) record(p []byte, at, set int, prev uint64, l *Line) (next int, ok bool) {
	var (
		d, sharers, ready uint64
		flags, owner      byte
	)
	if at+5 <= len(p) && p[at]|p[at+3]|p[at+4] < 0x80 {
		// A warmed line's record: every field one byte.
		d, flags, owner, sharers, ready, next = uint64(p[at]), p[at+1], p[at+2], uint64(p[at+3]), uint64(p[at+4]), at+5
	} else {
		if d, at, ok = uvarint(p, at); !ok || at+2 > len(p) {
			return at, false
		}
		flags, owner = p[at], p[at+1]
		if sharers, at, ok = uvarint(p, at+2); !ok {
			return at, false
		}
		if ready, next, ok = uvarint(p, at); !ok {
			return at, false
		}
	}
	tag := prev + (d>>1 ^ -(d & 1))
	if tag>>(64-c.setBits) != 0 || flags&^recFlagBits != 0 {
		return at, false
	}
	// Field by field: a composite literal is built on the stack and copied
	// out, and the copy's wide loads stall on the narrow stores just made.
	l.Block = mem.Block(tag<<c.setBits | uint64(set))
	l.ReadyAt, l.Sharers = ready, sharers
	l.State, l.ownerPlus1 = State(flags&3), owner
	l.Prefetched, l.PrefetchWrite = flags&recPrefetched != 0, flags&recPrefetchWrite != 0
	return next, true
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
	// Two passes, the first to size the stream exactly: a snapshot is kept, so
	// spare capacity would be kept with it, and encoding into a scratch buffer
	// to copy out would put twice its size of garbage on the heap.
	size, prev := 0, uint64(0)
	c.ForEach(func(l *Line) bool {
		size += c.recordLen(l, prev)
		prev = uint64(l.Block) >> c.setBits
		return true
	})
	if size > 0 {
		s.Records, prev = make([]byte, 0, size), 0
		c.ForEach(func(l *Line) bool {
			s.Records = c.appendRecord(s.Records, l, prev)
			prev = uint64(l.Block) >> c.setBits
			return true
		})
	}
	if len(c.outstanding.a) > 0 {
		s.Outstanding = append([]uint64(nil), c.outstanding.a...)
	}
	return s
}

// Fits reports, as an error, why the snapshot cannot be restored into c: its
// per-set arrays are not c's size; its records are not one per live bit, each
// canonically encoded, with no byte left over; a set's live mask names a way c
// does not have or its recency word is not an order of c's ways; a live line is
// Invalid, has a tag no block of its set has, repeats a block of its set, or
// names an owner or sharer outside [0, cores); or the in-flight list is not
// ascending. Snapshots taken from a same-geometry cache always fit; decoded
// ones (checkpoint files) must be checked before Restore, which panics on a
// size mismatch and would otherwise install a cache whose lookups miss or
// alias.
func (s *Snapshot) Fits(c *Cache, cores int) error {
	if len(s.Rec) != len(c.rec) || len(s.Live) != len(c.live) {
		return fmt.Errorf("cache %s: snapshot of %d/%d recency words/live masks; cache has %d sets",
			c.name, len(s.Rec), len(s.Live), len(c.live))
	}
	at, prev := 0, uint64(0) // the record of the live way under inspection, its predecessor's tag
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
		var blocks [maxWays]mem.Block
		seen := blocks[:0]
		for ; live != 0; live &= live - 1 {
			w := bits.TrailingZeros16(live)
			if at == len(s.Records) {
				return fmt.Errorf("cache %s: snapshot records end at set %d way %d; its live masks mark %d lines", c.name, set, w, liveCount(s.Live))
			}
			var l Line
			next, ok := c.record(s.Records, at, set, prev, &l)
			if !ok {
				return fmt.Errorf("cache %s: snapshot set %d way %d record at byte %d is truncated or malformed", c.name, set, w, at)
			}
			at, prev = next, uint64(l.Block)>>c.setBits
			if l.State == Invalid {
				return fmt.Errorf("cache %s: snapshot set %d way %d holds block %#x in state %v", c.name, set, w, l.Block, l.State)
			}
			if slices.Contains(seen, l.Block) {
				return fmt.Errorf("cache %s: snapshot set %d holds block %#x twice", c.name, set, l.Block)
			}
			seen = append(seen, l.Block)
			if int(l.ownerPlus1) > cores || l.Sharers>>uint(cores) != 0 {
				return fmt.Errorf("cache %s: snapshot set %d way %d names owner %d, sharers %#x of %d cores",
					c.name, set, w, l.Owner(), l.Sharers, cores)
			}
		}
	}
	if at != len(s.Records) {
		return fmt.Errorf("cache %s: snapshot records run %d bytes past the %d lines its live masks mark", c.name, len(s.Records)-at, liveCount(s.Live))
	}
	for i := 1; i < len(s.Outstanding); i++ {
		if s.Outstanding[i] < s.Outstanding[i-1] {
			return fmt.Errorf("cache %s: snapshot in-flight list not ascending", c.name)
		}
	}
	return nil
}

// Restore overwrites the cache's mutable state with the snapshot's: each
// record is decoded straight into the way its live bit names and the way's
// short tag is derived there. A way the snapshot leaves free keeps whatever
// record the arena held, which nothing reads before a fill rewrites it. The
// snapshot must fit the cache (Fits).
func (c *Cache) Restore(s *Snapshot) {
	if len(c.live) != len(s.Live) {
		panic("cache: Restore with mismatched geometry")
	}
	copy(c.rec, s.Rec)
	copy(c.live, s.Live)
	c.absent = 0
	at, prev := 0, uint64(0)
	for set, live := range s.Live {
		for ; live != 0; live &= live - 1 {
			i := set*c.ways + bits.TrailingZeros16(live)
			next, ok := c.record(s.Records, at, set, prev, &c.lines[i])
			if !ok {
				panic("cache: Restore of a malformed record stream")
			}
			at, prev = next, uint64(c.lines[i].Block)>>c.setBits
			c.tags[i] = uint32(prev)
		}
	}
	if at != len(s.Records) {
		panic("cache: Restore of more records than live ways")
	}
	c.outstanding.a = append(c.outstanding.a[:0], s.Outstanding...)
	c.TagAccesses = s.TagAccesses
	c.Hits = s.Hits
	c.Misses = s.Misses
	c.Evictions = s.Evictions
	c.Writebacks = s.Writebacks
}
