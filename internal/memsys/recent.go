package memsys

import (
	"spb/internal/mem"
	"spb/internal/pool"
)

// recentSet is a bounded FIFO set of block addresses. The memory system uses
// two of them per core: one remembering prefetched-but-unused blocks that
// were evicted (to classify a later demand miss as an *early* prefetch,
// Fig. 11) and one remembering blocks evicted *by* prefetch fills (to charge
// the prefetcher with *pollution*, the FDP throttle-down signal).
//
// Membership counts live in a fixed-size open-addressing table rather than a
// map: the ring bounds the number of distinct keys at capacity, so a table of
// twice that many slots never exceeds 50% load and never grows, and every
// Add/Take is allocation-free. A slot is live iff its count is nonzero;
// removal uses backward-shift deletion so freed slots are reused in place.
type recentSet struct {
	ring   []mem.Block
	next   int
	filled bool

	keys   []mem.Block
	counts []uint32
	mask   uint64
}

var recentPool pool.Keyed[int, *recentSet] // by ring capacity

func newRecentSet(capacity int) *recentSet {
	if capacity <= 0 {
		panic("memsys: recentSet capacity must be positive")
	}
	if r, ok := recentPool.Get(capacity); ok {
		r.next = 0
		r.filled = false
		clear(r.counts) // ring slots are overwritten before being read
		return r
	}
	tableCap := 1
	for tableCap < 2*capacity {
		tableCap <<= 1
	}
	return &recentSet{
		ring:   make([]mem.Block, capacity),
		keys:   make([]mem.Block, tableCap),
		counts: make([]uint32, tableCap),
		mask:   uint64(tableCap - 1),
	}
}

// release hands the set back for reuse by a later newRecentSet of the same
// capacity. The set must not be used afterwards.
func (r *recentSet) release() {
	recentPool.Put(len(r.ring), r)
}

// blockHash is the splitmix64 finalizer: block addresses are highly regular
// (sequential, strided), so every input bit must influence the probe index.
func blockHash(b mem.Block) uint64 {
	x := uint64(b)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// slotOf returns the index of b's slot if present, or the insertion point
// (first empty slot in b's probe run) and false.
func (r *recentSet) slotOf(b mem.Block) (uint64, bool) {
	i := blockHash(b) & r.mask
	for {
		if r.counts[i] == 0 {
			return i, false
		}
		if r.keys[i] == b {
			return i, true
		}
		i = (i + 1) & r.mask
	}
}

// forget decrements b's count, removing the slot when it reaches zero. A
// block not present is ignored (a Take may already have consumed the
// occurrence the ring is now evicting).
func (r *recentSet) forget(b mem.Block) {
	i, ok := r.slotOf(b)
	if !ok {
		return
	}
	if r.counts[i] > 1 {
		r.counts[i]--
		return
	}
	// Backward-shift deletion: slide probe-run successors into the hole.
	j := i
	for {
		r.counts[j] = 0
		k := j
		for {
			k = (k + 1) & r.mask
			if r.counts[k] == 0 {
				return
			}
			home := blockHash(r.keys[k]) & r.mask
			if (k-home)&r.mask >= (k-j)&r.mask {
				r.keys[j] = r.keys[k]
				r.counts[j] = r.counts[k]
				j = k
				break
			}
		}
	}
}

// Add records b, evicting the oldest record when full.
func (r *recentSet) Add(b mem.Block) {
	if r.filled {
		r.forget(r.ring[r.next])
	}
	r.ring[r.next] = b
	if i, ok := r.slotOf(b); ok {
		r.counts[i]++
	} else {
		r.keys[i] = b
		r.counts[i] = 1
	}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
}

// Take reports whether b is remembered and forgets one occurrence if so.
func (r *recentSet) Take(b mem.Block) bool {
	if _, ok := r.slotOf(b); !ok {
		return false
	}
	r.forget(b)
	return true
}

// Len returns the number of remembered (distinct-occurrence) records.
func (r *recentSet) Len() int {
	total := 0
	for _, n := range r.counts {
		total += int(n)
	}
	return total
}
