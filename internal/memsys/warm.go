package memsys

import (
	"spb/internal/cache"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// Functional warming (DESIGN.md §12) is the demand path without a clock:
// the entry points below make the same coherence transitions a demand access
// makes — the same lookups, fills, victims, upgrades and directory requests,
// each written once in system.go and port.go — and drop the report each
// transition returns, where the timed path turns it into latency, MSHR and
// DRAM bookings and counters. Fills complete at cycle 0, and warming keeps no
// prefetch taxonomy: it credits no prefetch, remembers no evicted one (the
// recent-eviction sets are the timed fetch's) and moves no prefetcher epoch.
// The warmed state therefore depends only on the instruction stream and the
// machine geometry — never on the per-grid-point knobs a sweep varies — so
// one warmed snapshot serves every member of a warmup-equivalence group.
//
// The cache arrays are reached through their one access path (Lookup,
// Insert): their tag and hit counters count warm accesses too, which no
// measurement sees, because a window is the difference of two collections
// inside one detailed segment and nothing warms there.

// WarmLoad replays a demand load of the block containing addr (Port.Load
// without its clock, counters and prefetcher) and reports whether it hit the
// L1 — the miss bit a prefetcher-training caller feeds to WarmObserve.
func (p *Port) WarmLoad(addr mem.Addr) (hit bool) {
	b := mem.BlockOf(addr)
	if p.l1.Lookup(b, true) != nil {
		return true
	}
	p.below(b, false)
	p.fillPrivate(b, cache.Shared, 0, false, false)
	return false
}

// WarmStore replays a committed store of the block containing addr: the
// block ends up writable and Modified in this core's L1, exactly as the
// drain of a senior store leaves it (acquire then PerformStore). Reports
// whether the block was already present in the L1.
func (p *Port) WarmStore(addr mem.Addr) (hit bool) {
	b := mem.BlockOf(addr)
	line := p.l1.Lookup(b, true)
	if line == nil {
		p.below(b, true)
		p.fillPrivate(b, cache.Modified, 0, false, false)
		return false
	}
	if !line.State.Writable() {
		p.upgrade(line)
	}
	line.State = cache.Modified
	return true
}

// WarmObserve feeds the port's generic prefetcher one warmed demand access
// so its tables track the functionally-warmed stream: observePF minus the
// issue side. Sampled runs use it so a detailed segment opens with the
// prefetcher trained on the recent history — state a dense sampling
// schedule inherits from the previous window but a sparse skip must
// reconstruct. The blocks the prefetcher asks for are deliberately NOT
// warm-filled: warming itself replays the demand stream right up to the
// window, so anything a prefetch would have fetched is touched (and filled)
// by the very next warmed accesses anyway — issuing the fills roughly
// doubles the cost of warming a miss-heavy stream for no extra fidelity.
// The adaptive scheme gets no Epoch feedback here (warming has no outcome
// counters to measure), so its aggressiveness stays where detailed
// execution last set it.
func (p *Port) WarmObserve(pc uint64, addr mem.Addr, miss, store bool) {
	b := mem.BlockOf(addr)
	p.pfBuf = p.pf.Observe(prefetch.Event{PC: pc, Block: b, Miss: miss, Store: store}, p.pfBuf[:0])
}

// WarmTouch replays the memory footprint of functionally-skipped
// instructions against the shared LLC and the coherence directory only —
// the long-history structures whose state a bounded warming window cannot
// reconstruct. The span [addr, addr+n) is touched block by block:
// GetS / GetX at the directory keep L3 content, recency, dirtiness
// and directory ownership tracking the full skipped stream, while the
// short-history private caches and TLB are left to the bounded full warming
// that runs just before each measured window. Without this tier, a skip
// longer than the LLC's natural history leaves stale lines resident that
// the elided traffic would have evicted, and measured windows see an LLC
// that hits too often, writes back too little, and underloads DRAM.
func (p *Port) WarmTouch(addr mem.Addr, n uint64, store bool) {
	if n == 0 {
		return
	}
	b := mem.BlockOf(addr)
	last := mem.BlockOf(addr + mem.Addr(n-1))
	for ; b <= last; b++ {
		if store {
			p.sys.getX(b, p.id)
		} else {
			p.sys.getS(b, p.id)
		}
	}
}
