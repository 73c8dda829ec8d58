package cache

import (
	"encoding/binary"
	"math/bits"

	"spb/internal/mem"
)

// This file adds what warm-start simulation (DESIGN.md §12) needs from the
// cache arrays besides their one access path: a deep-copy Snapshot/Restore of
// all mutable state, which a warm group keeps in memory.

// Snapshot is a deep copy of a cache's mutable state: the occupied lines, each
// set's recency word and live mask, the in-flight miss list and the statistics
// counters. Records holds the live ways only, set by set and way-ascending
// within a set, one packed record each (appendRecord), so a snapshot costs
// memory and copy time in proportion to what the cache holds — 5 bytes for
// most warmed lines instead of the 32 of a Line. For the L3 the records
// include the coherence directory, which lives in the lines. The short tags
// are not part of it: Restore derives them from the records. It shares no
// memory with the cache it was taken from.
type Snapshot struct {
	Records []byte // nil when nothing is live
	Rec     []uint64
	Live    []uint16

	Outstanding []uint64 // ascending

	TagAccesses, Hits, Misses, Evictions, Writebacks uint64
}

// The flags byte of a record: the state in the low two bits, then these.
const (
	recPrefetched    = 1 << 2
	recPrefetchWrite = 1 << 3
)

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

// record decodes the record at p[at:], of a way in set and after one of tag
// prev, into l and returns the offset past it.
func (c *Cache) record(p []byte, at, set int, prev uint64, l *Line) int {
	var (
		d, sharers, ready uint64
		flags, owner      byte
		n                 int
	)
	if at+5 <= len(p) && p[at]|p[at+3]|p[at+4] < 0x80 {
		// A warmed line's record: every field one byte.
		d, flags, owner, sharers, ready, at = uint64(p[at]), p[at+1], p[at+2], uint64(p[at+3]), uint64(p[at+4]), at+5
	} else {
		d, n = binary.Uvarint(p[at:])
		flags, owner, at = p[at+n], p[at+n+1], at+n+2
		sharers, n = binary.Uvarint(p[at:])
		at += n
		ready, n = binary.Uvarint(p[at:])
		at += n
	}
	tag := prev + (d>>1 ^ -(d & 1))
	// Field by field: a composite literal is built on the stack and copied
	// out, and the copy's wide loads stall on the narrow stores just made.
	l.Block = mem.Block(tag<<c.setBits | uint64(set))
	l.ReadyAt, l.Sharers = ready, sharers
	l.State, l.ownerPlus1 = State(flags&3), owner
	l.Prefetched, l.PrefetchWrite = flags&recPrefetched != 0, flags&recPrefetchWrite != 0
	return at
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

// Restore overwrites the cache's mutable state with the snapshot's: each
// record is decoded straight into the way its live bit names and the way's
// short tag is derived there. A way the snapshot leaves free keeps whatever
// record the arena held, which nothing reads before a fill rewrites it. The
// snapshot must come from a cache of the same geometry.
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
			at = c.record(s.Records, at, set, prev, &c.lines[i])
			prev = uint64(c.lines[i].Block) >> c.setBits
			c.tags[i] = uint32(prev)
		}
	}
	c.outstanding.a = append(c.outstanding.a[:0], s.Outstanding...)
	c.TagAccesses = s.TagAccesses
	c.Hits = s.Hits
	c.Misses = s.Misses
	c.Evictions = s.Evictions
	c.Writebacks = s.Writebacks
}
