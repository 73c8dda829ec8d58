// Package tlb models the data TLB of Table I (8-way, 1 KB of entry
// storage): a set-associative translation cache consulted by every load and
// store address generation. Misses pay a page-table-walk latency before the
// memory access can start. The simulator runs physically addressed below
// this point, so the TLB's role — as in the paper — is purely the extra
// latency and the page-granular reach limit; it is also why SPB (a physical
// prefetcher) must stop its bursts at page boundaries.
//
// The entries are one cache.Cache whose blocks are page numbers: the same
// set indexing, LRU order, fill rule, snapshot form and arena pool as the
// L1, L2 and L3. A translation is never invalidated, so a miss always fills
// a free way or the least recently used one.
package tlb

import (
	"fmt"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/mem"
)

// TLB is a set-associative translation lookaside buffer.
type TLB struct {
	c       *cache.Cache
	walkLat uint64

	// Statistics, counted by Translate only.
	Hits   uint64
	Misses uint64
}

// Config sizes a TLB: Entries (sets × ways), Ways and WalkLat, the page-walk
// latency charged on a miss, in cycles.
type Config = config.TLBConfig

// TableI returns the paper's Table I data-TLB configuration: "8 way, 1KB" is
// 8 ways × 16 sets = 128 entries (8 bytes of storage per entry).
func TableI() Config { return config.Skylake().TLB }

// New builds a TLB. Entries/Ways must give a power-of-two set count, and
// Ways is at most config.MaxCacheWays.
func New(cfg Config) *TLB {
	if cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 || cfg.WalkLat < 0 {
		panic(fmt.Sprintf("tlb: invalid config %+v", cfg))
	}
	return &TLB{c: cache.New("DTLB", cfg.Entries*mem.BlockSize, cfg.Ways, 1), walkLat: uint64(cfg.WalkLat)}
}

// Sets returns the set count.
func (t *TLB) Sets() int { return t.c.Sets() }

// Ways returns the associativity.
func (t *TLB) Ways() int { return t.c.Ways() }

// Translate looks up the page containing a and returns the extra latency
// the access pays (0 on a hit, the walk latency on a miss, which also
// fills the entry).
func (t *TLB) Translate(a mem.Addr) (extraLat uint64) {
	if t.touch(a) {
		t.Hits++
		return 0
	}
	t.Misses++
	return t.walkLat
}

// Warm replays a translation for functional warming (DESIGN.md §12): the
// same LRU and fill effects as Translate, but no latency and no counters.
func (t *TLB) Warm(a mem.Addr) { t.touch(a) }

// touch makes the translation of a's page the most recent of its set,
// filling it when absent, and reports whether it was present.
func (t *TLB) touch(a mem.Addr) (hit bool) {
	b := mem.Block(mem.PageOf(a))
	if t.c.Lookup(b, true) != nil {
		return true
	}
	t.c.Insert(b, cache.Shared, 0, false, false)
	return false
}

// Covers reports whether the page containing a currently has a cached
// translation (probe only; no LRU update, no fill).
func (t *TLB) Covers(a mem.Addr) bool { return t.c.Peek(mem.Block(mem.PageOf(a))) != nil }

// HitRate returns hits / (hits + misses), or 1 when idle.
func (t *TLB) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 1
	}
	return float64(t.Hits) / float64(total)
}

// Snapshot is a TLB's mutable state in the cache's packed form, with the
// TLB's own Hits and Misses in place of the array's counters (which count
// warm translations too). It shares no memory with the TLB.
type Snapshot = cache.Snapshot

// Snapshot deep-copies the TLB's mutable state.
func (t *TLB) Snapshot() *Snapshot {
	s := t.c.Snapshot()
	s.Hits, s.Misses = t.Hits, t.Misses
	return s
}

// Restore overwrites the TLB's mutable state with the snapshot's. The TLB
// must have the same geometry as the snapshot's source.
func (t *TLB) Restore(s *Snapshot) {
	t.c.Restore(s)
	t.Hits, t.Misses = s.Hits, s.Misses
}

// Release returns the entry array to the geometry's shared pool. The TLB
// must not be used afterwards; skipping Release is always safe.
func (t *TLB) Release() { t.c.Release() }
