package cache

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// arena is a reusable backing store: the line array plus the metadata the
// scans walk. Caches of the same geometry recycle arenas through a free list; a
// fresh user resets only the per-set words (10 bytes per set), so per-run
// setup never allocates or zeroes the multi-megabyte line array — a way's
// line record and tag are garbage until its live bit says otherwise.
//
// The four arrays are views of one region that mapArena takes from outside the
// Go heap where the platform allows (arena_mmap.go). They hold no pointers and
// the pool manages their lifetimes, so the collector has nothing to do with
// them; on the heap they would count toward its goal, which is twice the live
// heap. Only this header is a heap object. When it becomes unreachable — the
// pool has let it go, or a cache that was never released was dropped — its
// finalizer unmaps the region, so a view must not outlive its Cache: a
// released cache drops all four.
type arena struct {
	region []byte
	lines  []Line
	tags   []uint32
	rec    []uint64
	live   []uint16
}

// mappedBytes is the size of every arena region built and not yet handed
// back.
var mappedBytes atomic.Int64

// newArena builds the arena of a cache of sets × ways: the only place one is
// allocated. The region holds the lines, the recency words, the tags and the
// live masks back to back, each array starting at a multiple of its element's
// alignment. Viewing it through unsafe.Slice is sound only because Line,
// uint64, uint32 and uint16 contain no pointers (TestLineHasNoPointers): the
// collector never looks inside the region.
func newArena(sets, ways int) *arena {
	n := sets * ways
	lineBytes, recBytes, tagBytes := n*int(unsafe.Sizeof(Line{})), sets*8, n*4
	region := mapArena(lineBytes + recBytes + tagBytes + sets*2)
	at := func(off int) unsafe.Pointer { return unsafe.Pointer(&region[off]) }
	ar := &arena{
		region: region,
		lines:  unsafe.Slice((*Line)(at(0)), n),
		rec:    unsafe.Slice((*uint64)(at(lineBytes)), sets),
		tags:   unsafe.Slice((*uint32)(at(lineBytes+recBytes)), n),
		live:   unsafe.Slice((*uint16)(at(lineBytes+recBytes+tagBytes)), sets),
	}
	mappedBytes.Add(int64(len(region)))
	runtime.SetFinalizer(ar, func(ar *arena) {
		mappedBytes.Add(-int64(len(ar.region)))
		unmapArena(ar.region)
	})
	return ar
}
