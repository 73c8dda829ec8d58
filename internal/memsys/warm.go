package memsys

import (
	"math/bits"

	"spb/internal/cache"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// This file implements functional warming of the memory hierarchy
// (DESIGN.md §12): replaying a workload prefix's loads and stores against
// the cache tags, LRU state and the coherence directory without touching
// latencies, MSHRs, DRAM, the prefetchers or the port's and the fabric's
// counters. The warmed state therefore depends only on the instruction stream
// and the machine geometry — never on the per-grid-point knobs a sweep varies
// — so one warmed snapshot serves every member of a warmup-equivalence group.
//
// The cache arrays are reached through their one access path (Lookup,
// Insert): their tag and hit counters count warm accesses too, which no
// measurement sees, because a window is the difference of two collections
// inside one detailed segment and nothing warms there. Each warm path above
// the arrays mirrors its demand counterpart effect-for-effect on architectural
// cache/directory state (same lookup and victim-selection order, same
// coherence transitions), with fills completing instantly (ReadyAt 0) and no
// taxonomy bookkeeping: the demand twins also move the DRAM queue, the MSHR
// lists, ReadyAt stamps, the recent sets and the prefetcher epochs.

// WarmLoad replays a demand load of the block containing addr (mirrors
// Port.Load → access → readBelowL1 minus the port's counters and timing) and
// reports whether it hit the L1 — the miss bit a prefetcher-training caller
// feeds to WarmObserve.
func (p *Port) WarmLoad(addr mem.Addr) (hit bool) {
	b := mem.BlockOf(addr)
	if p.l1.Lookup(b, true) != nil {
		return true
	}
	p.warmReadBelowL1(b, false)
	p.warmFillPrivate(b, cache.Shared)
	return false
}

// WarmStore replays a committed store of the block containing addr: the
// block ends up writable and Modified in this core's L1, exactly as the
// drain of a senior store leaves it (mirrors acquire + PerformStore).
// Reports whether the block was already present in the L1.
func (p *Port) WarmStore(addr mem.Addr) (hit bool) {
	b := mem.BlockOf(addr)
	if line := p.l1.Lookup(b, true); line != nil {
		if line.State.Writable() {
			line.State = cache.Modified
			return true
		}
		// Present but read-only: upgrade through the directory.
		p.sys.warmReadExclusive(b, p.id)
		line.State = cache.Modified
		if l2line := p.l2.Peek(b); l2line != nil {
			l2line.State = cache.Modified
		}
		return true
	}
	p.warmReadBelowL1(b, true)
	p.warmFillPrivate(b, cache.Modified)
	return false
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
// warmReadShared / warmReadExclusive keep L3 content, recency, dirtiness
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
			p.sys.warmReadExclusive(b, p.id)
		} else {
			p.sys.warmReadShared(b, p.id)
		}
	}
}

// warmFillPrivate mirrors fillPrivate: install the block in L2 then L1,
// propagating victim state effects.
func (p *Port) warmFillPrivate(b mem.Block, st cache.State) {
	if _, v, evicted := p.l2.Insert(b, st, 0, false, false); evicted {
		p.warmNoteEviction(v)
	}
	if _, v, evicted := p.l1.Insert(b, st, 0, false, false); evicted {
		p.warmNoteEviction(v)
	}
}

// warmNoteEviction mirrors noteEviction's state effects: a dirty private
// victim marks the (inclusive) L3 copy dirty. Warm fills never carry the
// Prefetched mark, so the early-prefetch bookkeeping cannot trigger.
func (p *Port) warmNoteEviction(v cache.Line) {
	if v.State == cache.Modified {
		if l3line := p.sys.l3.Peek(v.Block); l3line != nil {
			l3line.State = cache.Modified
		}
	}
}

// warmReadBelowL1 mirrors readBelowL1's state transitions.
func (p *Port) warmReadBelowL1(b mem.Block, exclusive bool) {
	if line := p.l2.Lookup(b, true); line != nil {
		if !exclusive || line.State.Writable() {
			return
		}
		// Upgrade: data is local but permission comes from the directory.
		p.sys.warmReadExclusive(b, p.id)
		line.State = cache.Modified
		return
	}
	if exclusive {
		p.sys.warmReadExclusive(b, p.id)
	} else {
		p.sys.warmReadShared(b, p.id)
	}
}

// warmDowngradeOwner mirrors downgradeOwner minus the invalidation counter.
func (s *System) warmDowngradeOwner(dir *cache.Line, requester int) {
	owner := dir.Owner()
	if owner < 0 || owner == requester {
		return
	}
	p := s.ports[owner]
	p.l1.Downgrade(dir.Block)
	p.l2.Downgrade(dir.Block)
	dir.Sharers |= 1 << uint(owner)
	dir.SetOwner(-1)
}

// warmInvalidateOthers mirrors invalidateOthers minus counters and latency.
func (s *System) warmInvalidateOthers(dir *cache.Line, requester int) {
	self := uint64(1) << uint(requester)
	for m := dir.Holders() &^ self; m != 0; m &= m - 1 {
		p := s.ports[bits.TrailingZeros64(m)]
		p.l1.Invalidate(dir.Block)
		p.l2.Invalidate(dir.Block)
	}
	if dir.Owner() != requester {
		dir.SetOwner(-1)
	}
	dir.Sharers &= self
}

// warmL3Fill mirrors l3Fill: inclusive back-invalidation of the victim in
// every private hierarchy, no DRAM traffic, no fabric counters.
func (s *System) warmL3Fill(b mem.Block, st cache.State) *cache.Line {
	line, victim, evicted := s.l3.Insert(b, st, 0, false, false)
	if evicted {
		for m := victim.Holders(); m != 0; m &= m - 1 {
			p := s.ports[bits.TrailingZeros64(m)]
			p.l1.Invalidate(victim.Block)
			p.l2.Invalidate(victim.Block)
		}
	}
	return line
}

// warmReadShared mirrors readShared's state transitions.
func (s *System) warmReadShared(b mem.Block, requester int) {
	line := s.l3.Lookup(b, true)
	if line != nil {
		s.warmDowngradeOwner(line, requester)
	} else {
		line = s.warmL3Fill(b, cache.Shared)
	}
	line.Sharers |= 1 << uint(requester)
}

// warmReadExclusive mirrors readExclusive's state transitions.
func (s *System) warmReadExclusive(b mem.Block, requester int) {
	line := s.l3.Lookup(b, true)
	if line != nil {
		s.warmInvalidateOthers(line, requester)
		line.State = cache.Modified
	} else {
		line = s.warmL3Fill(b, cache.Modified)
	}
	line.SetOwner(requester)
	line.Sharers = 0
}
