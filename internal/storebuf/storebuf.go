// Package storebuf implements the store queue / store buffer at the heart of
// the paper: a unified ring of stores that allocate an entry at dispatch
// (a full buffer blocks dispatch — the SB-induced stall the paper measures),
// become senior at commit, and drain to the L1 in strict program order (TSO
// store→store ordering). Loads forward from the youngest older matching
// store, searching associatively exactly like the CAM the paper says limits
// SB scaling.
package storebuf

import (
	"fmt"

	"spb/internal/mem"
	"spb/internal/pool"
)

// Entry is one store in the buffer.
type Entry struct {
	Addr mem.Addr
	PC   uint64
	Seq  uint64 // program-order sequence number, assigned at allocation
	Size uint8
	// Senior marks a committed store: it is now part of the architectural
	// store buffer and must be written to memory.
	Senior bool
}

// Block returns the cache block the store writes.
func (e *Entry) Block() mem.Block { return mem.BlockOf(e.Addr) }

// ForwardResult is the outcome of a load's associative search.
type ForwardResult int

const (
	// NoForward: no older store overlaps the load; it accesses the cache.
	NoForward ForwardResult = iota
	// FullForward: a single older store fully covers the load; the value
	// is bypassed inside the core at register latency.
	FullForward
	// PartialForward: older stores overlap but do not cover the load. Real
	// hardware stalls the load until the stores drain; the core charges a
	// fixed penalty and then reads the cache.
	PartialForward
)

// StoreBuffer is a bounded FIFO of stores in program order.
type StoreBuffer struct {
	entries  []Entry
	capacity int

	headSeq uint64 // sequence number of the oldest entry still present
	tailSeq uint64 // sequence number the next allocation receives
	seniors int

	// coalesce enables merging a new store into the youngest junior entry
	// when both fall in one cache block and form a contiguous byte range —
	// the related-work alternative (Ros & Kaxiras, ISCA'18) of coalescing
	// stores to stretch a small SB.
	coalesce bool

	// MaxOccupancy tracks the high-water mark, for reporting.
	MaxOccupancy int
	// Coalesced counts stores merged into an existing entry.
	Coalesced uint64

	// blockCnt counts buffered stores per hashed cache block. Forward
	// consults it first: a load whose blocks have zero counts cannot overlap
	// any buffered store (overlap implies a shared byte, hence a shared
	// block), so the associative scan is skipped entirely. Collisions only
	// cause a redundant scan, never a wrong answer.
	blockCnt [sbFilterSize]uint16
}

const (
	// sbFilterSize is a power of two four times the largest capacity a core is
	// built with (config.IdealSQSize, the ideal policy's 1024 entries), so most
	// slots stay zero even when that buffer is full and a load's filter check
	// still spares it the walk. 8 KB per core.
	sbFilterSize = 4096
	sbFilterMask = sbFilterSize - 1
)

// noteBlocks adjusts the per-block counts for a store occupying
// [addr, addr+size); delta is +1 on allocate, -1 on pop. A store may
// straddle a block boundary, in which case both blocks are counted.
func (sb *StoreBuffer) noteBlocks(addr mem.Addr, size uint8, delta int) {
	b0 := mem.BlockOf(addr)
	b1 := mem.BlockOf(addr + mem.Addr(size) - 1)
	sb.blockCnt[uint64(b0)&sbFilterMask] += uint16(delta)
	if b1 != b0 {
		sb.blockCnt[uint64(b1)&sbFilterMask] += uint16(delta)
	}
}

// New returns an empty store buffer with the given number of entries, a
// released one of that capacity when one is at hand. Its ring slots are
// written before they are ever read (only seqs in [headSeq, tailSeq) are
// consulted), so the ring is kept as it is; everything else starts from zero.
func New(capacity int) *StoreBuffer {
	if capacity <= 0 {
		panic("storebuf: capacity must be positive")
	}
	sb, ok := bufPool.Get(capacity)
	if !ok {
		sb = &StoreBuffer{entries: make([]Entry, capacity)}
	}
	*sb = StoreBuffer{entries: sb.entries, capacity: capacity}
	return sb
}

// NewCoalescing returns a store buffer that merges contiguous same-block
// junior stores into one entry (the related-work coalescing ablation).
func NewCoalescing(capacity int) *StoreBuffer {
	sb := New(capacity)
	sb.coalesce = true
	return sb
}

// Capacity returns the configured entry count.
func (sb *StoreBuffer) Capacity() int { return sb.capacity }

// Len returns the number of occupied entries (junior + senior).
func (sb *StoreBuffer) Len() int { return int(sb.tailSeq - sb.headSeq) }

// SeniorLen returns the number of committed, unperformed stores.
func (sb *StoreBuffer) SeniorLen() int { return sb.seniors }

// Full reports whether a new store can be allocated. A full buffer at
// dispatch is precisely an SB-induced stall.
func (sb *StoreBuffer) Full() bool { return sb.Len() >= sb.capacity }

// Empty reports whether no stores are buffered.
func (sb *StoreBuffer) Empty() bool { return sb.Len() == 0 }

// CanAccept reports whether a store of size bytes at addr can enter the
// buffer right now: either a slot is free, or (with coalescing) it would
// merge into the youngest junior entry.
func (sb *StoreBuffer) CanAccept(addr mem.Addr, size uint8) bool {
	if !sb.Full() {
		return true
	}
	return sb.coalesce && sb.wouldMerge(addr, size)
}

// wouldMerge reports whether the store would coalesce into the youngest
// junior entry.
func (sb *StoreBuffer) wouldMerge(addr mem.Addr, size uint8) bool {
	if sb.Len() == 0 {
		return false
	}
	y := sb.at(sb.tailSeq - 1)
	return !y.Senior &&
		mem.Addr(uint64(y.Addr)+uint64(y.Size)) == addr &&
		mem.BlockOf(y.Addr) == mem.BlockOf(addr+mem.Addr(size)-1)
}

func (sb *StoreBuffer) at(seq uint64) *Entry {
	return &sb.entries[seq%uint64(len(sb.entries))]
}

// Allocate inserts a junior store at the tail and returns its sequence
// number. With coalescing enabled, a store contiguous with the youngest
// junior entry in the same cache block merges into it instead (returning
// that entry's sequence number) and consumes no new slot; callers must
// still check Full first, as merging is opportunistic.
func (sb *StoreBuffer) Allocate(addr mem.Addr, size uint8, pc uint64) uint64 {
	if sb.coalesce && sb.wouldMerge(addr, size) {
		y := sb.at(sb.tailSeq - 1)
		y.Size += size
		sb.Coalesced++
		return y.Seq
	}
	if sb.Full() {
		panic("storebuf: allocate on full buffer")
	}
	seq := sb.tailSeq
	*sb.at(seq) = Entry{Addr: addr, Size: size, PC: pc, Seq: seq}
	sb.noteBlocks(addr, size, 1)
	sb.tailSeq++
	if n := sb.Len(); n > sb.MaxOccupancy {
		sb.MaxOccupancy = n
	}
	return seq
}

// Commit marks the oldest junior store senior. Stores commit in program
// order, so the commit boundary advances monotonically; seq is validated to
// catch pipeline bookkeeping bugs.
func (sb *StoreBuffer) Commit(seq uint64) {
	expect := sb.headSeq + uint64(sb.seniors)
	if seq+1 == expect && sb.coalesce {
		// A store merged into an already-committed entry: nothing to do.
		return
	}
	if seq != expect {
		panic(fmt.Sprintf("storebuf: commit of seq %d out of order (expect %d)", seq, expect))
	}
	if seq >= sb.tailSeq {
		panic("storebuf: commit of unallocated entry")
	}
	sb.at(seq).Senior = true
	sb.seniors++
}

// Head returns the oldest store if it is senior (eligible to perform).
func (sb *StoreBuffer) Head() (*Entry, bool) {
	if sb.seniors == 0 {
		return nil, false
	}
	return sb.at(sb.headSeq), true
}

// Pop removes the performed head store and returns it.
func (sb *StoreBuffer) Pop() Entry {
	e, ok := sb.Head()
	if !ok {
		panic("storebuf: pop without a senior head")
	}
	out := *e
	sb.noteBlocks(out.Addr, out.Size, -1)
	sb.headSeq++
	sb.seniors--
	return out
}

// Forward performs the load's associative search: among stores older than
// beforeSeq (the SQ tail captured when the load dispatched), youngest first,
// find one overlapping [addr, addr+size). A single fully covering store
// forwards; any overlap without cover is a partial forward.
func (sb *StoreBuffer) Forward(addr mem.Addr, size uint8, beforeSeq uint64) ForwardResult {
	if sb.headSeq == sb.tailSeq {
		return NoForward // empty buffer: skip even the filter hashing
	}
	if beforeSeq > sb.tailSeq {
		beforeSeq = sb.tailSeq
	}
	// Block filter: if no buffered store touches any block of the load,
	// there is nothing to search.
	b0 := mem.BlockOf(addr)
	b1 := mem.BlockOf(addr + mem.Addr(size) - 1)
	if sb.blockCnt[uint64(b0)&sbFilterMask] == 0 &&
		(b1 == b0 || sb.blockCnt[uint64(b1)&sbFilterMask] == 0) {
		return NoForward
	}
	// Walk the ring index directly instead of recomputing seq%capacity per
	// entry — the modulo is a hardware divide (capacity is not a power of
	// two) and this CAM search runs for every load dispatched.
	n := uint64(len(sb.entries))
	i := beforeSeq % n
	for seq := beforeSeq; seq > sb.headSeq; {
		seq--
		if i == 0 {
			i = n
		}
		i--
		e := &sb.entries[i]
		if !mem.Overlaps(e.Addr, uint64(e.Size), addr, uint64(size)) {
			continue
		}
		if mem.Contains(e.Addr, uint64(e.Size), addr, uint64(size)) {
			return FullForward
		}
		return PartialForward
	}
	return NoForward
}

// Seniors iterates over the committed stores oldest-first, calling fn for
// each; used by the Ideal policy, which prefetches every senior block in
// parallel, and by invariant checks.
func (sb *StoreBuffer) Seniors(fn func(*Entry)) {
	for i := 0; i < sb.seniors; i++ {
		fn(sb.at(sb.headSeq + uint64(i)))
	}
}

// TailSeq returns the sequence number the next allocation will receive;
// loads capture it at dispatch for Forward.
func (sb *StoreBuffer) TailSeq() uint64 { return sb.tailSeq }

var bufPool pool.Keyed[int, *StoreBuffer] // by capacity

// Release hands the buffer — its entry ring and its 8 KB forward filter — to
// the next New of the same capacity. The buffer must not be used afterwards;
// skipping Release is always safe.
func (sb *StoreBuffer) Release() {
	if n := sb.capacity; n > 0 {
		sb.capacity = 0
		bufPool.Put(n, sb)
	}
}
