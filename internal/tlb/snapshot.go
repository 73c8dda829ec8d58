package tlb

import (
	"fmt"

	"spb/internal/mem"
	"spb/internal/pool"
)

// Warm-start support (DESIGN.md §12): counter-free functional warming, deep
// snapshot/restore for a warm group's in-memory snapshot, and a pool for the
// entry array so repeated Runner invocations stop allocating it.

// Warm replays a translation for functional warming: identical LRU and fill
// effects to Translate, but no latency result and no statistics counters.
func (t *TLB) Warm(a mem.Addr) { t.touch(mem.PageOf(a)) }

// Snapshot is a deep copy of a TLB's mutable state.
type Snapshot struct {
	Entries []entry
	Clock   uint64
	Hits    uint64
	Misses  uint64
}

// Snapshot deep-copies the TLB's mutable state.
func (t *TLB) Snapshot() *Snapshot {
	return &Snapshot{
		Entries: append([]entry(nil), t.entries...),
		Clock:   t.clock,
		Hits:    t.Hits,
		Misses:  t.Misses,
	}
}

// Restore overwrites the TLB's mutable state with the snapshot's. The TLB
// must have the same geometry as the snapshot's source.
func (t *TLB) Restore(s *Snapshot) {
	if len(s.Entries) != len(t.entries) {
		panic(fmt.Sprintf("tlb: snapshot does not have the TLB's %d entries", len(t.entries)))
	}
	copy(t.entries, s.Entries)
	t.clock = s.Clock
	t.Hits = s.Hits
	t.Misses = s.Misses
}

var entryPool pool.Keyed[int, []entry] // by entry count

// newEntries returns a zeroed entry array of length n, reusing a released one
// of the same geometry when available.
func newEntries(n int) []entry {
	if ents, ok := entryPool.Get(n); ok {
		clear(ents)
		return ents
	}
	return make([]entry, n)
}

// Release returns the entry array to the geometry's shared pool. The TLB
// must not be used afterwards; skipping Release is always safe.
func (t *TLB) Release() {
	if t.entries == nil {
		return
	}
	entryPool.Put(len(t.entries), t.entries)
	t.entries = nil
}
