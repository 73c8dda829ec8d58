// Package tlb models the data TLB of Table I (8-way, 1 KB of entry
// storage): a set-associative translation cache consulted by every load and
// store address generation. Misses pay a page-table-walk latency before the
// memory access can start. The simulator runs physically addressed below
// this point, so the TLB's role — as in the paper — is purely the extra
// latency and the page-granular reach limit; it is also why SPB (a physical
// prefetcher) must stop its bursts at page boundaries.
package tlb

import "spb/internal/mem"

// entry is one cached translation.
type entry struct {
	Page    mem.Page
	LastUse uint64
	Valid   bool
}

// TLB is a set-associative translation lookaside buffer.
type TLB struct {
	sets    int
	ways    int
	entries []entry
	clock   uint64
	walkLat uint64

	// Statistics.
	Hits   uint64
	Misses uint64
}

// Config sizes a TLB. Table I's "8 way, 1KB" is 8 ways × 16 sets = 128
// entries (8 bytes of storage per entry).
type Config struct {
	Entries int // total entries (sets × ways)
	Ways    int
	WalkLat int // page-walk latency charged on a miss, in cycles
}

// TableI returns the paper's Table I data-TLB configuration.
func TableI() Config {
	return Config{Entries: 128, Ways: 8, WalkLat: 30}
}

// New builds a TLB. Entries/Ways must give a power-of-two set count.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("tlb: entries must be a positive multiple of ways")
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		panic("tlb: set count must be a power of two")
	}
	if cfg.WalkLat < 0 {
		panic("tlb: negative walk latency")
	}
	return &TLB{
		sets:    sets,
		ways:    cfg.Ways,
		entries: newEntries(cfg.Entries),
		walkLat: uint64(cfg.WalkLat),
	}
}

// Sets returns the set count.
func (t *TLB) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *TLB) Ways() int { return t.ways }

func (t *TLB) set(p mem.Page) []entry {
	idx := (uint64(p) & uint64(t.sets-1)) * uint64(t.ways)
	return t.entries[idx : idx+uint64(t.ways)]
}

// Translate looks up the page containing a and returns the extra latency
// the access pays (0 on a hit, the walk latency on a miss, which also
// fills the entry).
func (t *TLB) Translate(a mem.Addr) (extraLat uint64) {
	if t.touch(mem.PageOf(a)) {
		t.Hits++
		return 0
	}
	t.Misses++
	return t.walkLat
}

// touch makes p's translation the most recently used of its set, filling it
// over the LRU way when it is absent, and reports whether it was present.
func (t *TLB) touch(p mem.Page) (hit bool) {
	set := t.set(p)
	t.clock++
	for i := range set {
		e := &set[i]
		if e.Valid && e.Page == p {
			e.LastUse = t.clock
			return true
		}
	}
	// Fill over the LRU way.
	vi := 0
	for i := 1; i < len(set); i++ {
		if !set[i].Valid {
			vi = i
			break
		}
		if set[i].LastUse < set[vi].LastUse {
			vi = i
		}
	}
	set[vi] = entry{Page: p, LastUse: t.clock, Valid: true}
	return false
}

// Covers reports whether the page containing a currently has a cached
// translation (probe only; no LRU update, no fill).
func (t *TLB) Covers(a mem.Addr) bool {
	p := mem.PageOf(a)
	for i := range t.set(p) {
		e := &t.set(p)[i]
		if e.Valid && e.Page == p {
			return true
		}
	}
	return false
}

// HitRate returns hits / (hits + misses), or 1 when idle.
func (t *TLB) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 1
	}
	return float64(t.Hits) / float64(total)
}
