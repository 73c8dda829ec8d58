// Package memsys assembles the memory hierarchy the cores talk to: private
// L1D and L2 caches per core, a shared inclusive L3 with a directory-based
// MESI protocol, and DRAM behind a bandwidth model. It resolves every
// request immediately against the current coherence state while charging
// realistic latencies, enforces MSHR capacity at each level, classifies
// store-prefetch outcomes (successful / late / early / never used, the
// Fig. 11 taxonomy), and counts the tag accesses and network traffic the
// paper's overhead figures (Figs. 12 and 13) report.
//
// Each coherence transition — a GetS or GetX at the directory, an L3 fill
// with its inclusive back-invalidations, an upgrade in place, a private fill
// — is written once, as a state change that reports what it did (a
// dirTrip: probes sent, dirty victims, back-invalidations). The timed path
// makes the transition and then charges the report: latency, MSHRs, DRAM,
// counters. Functional warming (warm.go) makes the same transitions and
// drops the report.
package memsys

import (
	"fmt"
	"math/bits"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// probeLat is the extra latency of snooping a remote private cache through
// the directory (forwarded request + response).
const probeLat = 24

// fdpEpoch is the number of demand accesses between feedback deliveries to
// an adaptive prefetcher.
const fdpEpoch = 8192

// MaxCores is the largest core count a System supports: the directory keeps
// one sharer bit per core in a 64-bit mask.
const MaxCores = 64

// System is the shared part of the memory hierarchy. The coherence directory
// has no storage of its own: as in the paper's machine (one directory at an
// inclusive shared L3), a block's owner and sharers live in its L3 line
// (cache.Line Owner/Sharers), so the one set scan an L3 access does anyway
// also finds the directory state, a fill creates it empty, and an eviction
// hands it out with the victim. This is exact, not an approximation: the L3
// is inclusive, so the blocks any core can hold are exactly the L3 residents.
type System struct {
	cfg   config.MachineConfig
	l3    *cache.Cache
	dram  *dram.DRAM
	ports []*Port

	// Traffic counters for the shared fabric.
	Invalidations uint64
	BackInvals    uint64
}

// New builds a memory system with n cores' private hierarchies attached.
func New(cfg config.MachineConfig, n int) *System {
	if n <= 0 || n > MaxCores {
		panic(fmt.Sprintf("memsys: core count %d out of range 1..%d", n, MaxCores))
	}
	s := &System{
		cfg:  cfg,
		l3:   cache.New("L3", cfg.L3.SizeBytes, cfg.L3.Ways, cfg.L3.MSHRs),
		dram: dram.New(cfg.DRAM.LatencyCyc, cfg.DRAM.CyclesPerBlock, cfg.DRAM.MaxOutstanding),
	}
	for i := 0; i < n; i++ {
		s.ports = append(s.ports, &Port{
			sys:         s,
			id:          i,
			l1:          cache.New("L1D", cfg.L1D.SizeBytes, cfg.L1D.Ways, cfg.L1D.MSHRs),
			l2:          cache.New("L2", cfg.L2.SizeBytes, cfg.L2.Ways, cfg.L2.MSHRs),
			pf:          prefetch.New(cfg.Prefetcher),
			evictedPF:   newRecentSet(8192),
			victimsOfPF: newRecentSet(4096),
		})
	}
	return s
}

// Release returns the System's large arrays — every cache's line arena and
// the recent-eviction sets — to internal pools so the next System constructed
// with the same geometry reuses them instead of allocating afresh. Call it
// when a simulation run is finished with the System; using the System
// afterwards is a bug. Skipping Release only forfeits the reuse.
func (s *System) Release() {
	s.l3.Release()
	for _, p := range s.ports {
		p.l1.Release()
		p.l2.Release()
		p.evictedPF.release()
		p.victimsOfPF.release()
	}
}

// Port returns core i's private port.
func (s *System) Port(i int) *Port { return s.ports[i] }

// Ports returns the number of attached cores.
func (s *System) Ports() int { return len(s.ports) }

// L3 exposes the shared cache for statistics reporting.
func (s *System) L3() *cache.Cache { return s.l3 }

// DRAM exposes the memory model for statistics reporting.
func (s *System) DRAM() *dram.DRAM { return s.dram }

// A dirTrip is what one request did at the directory, the state change
// already made: the L3 line that now holds the block, the remote private
// caches it probed and, when the L3 missed, what its fill did. The timed
// path charges it (charge); warming drops it. The fill's part is nested so
// that each struct stays within four fields and 32 bytes, the most the
// compiler carries in registers through the calls that pass a trip on: a flat
// five-field form went through memory at every call, about 15 % on a
// memory-system microbenchmark.
type dirTrip struct {
	line   *cache.Line
	probes uint32
	fill   l3Fill
}

// l3Fill is what an L3 fill did: the dirty copies its victim took with it
// (one DRAM write each) and the private hierarchies it back-invalidated.
type l3Fill struct {
	filled            bool
	dirty, backInvals uint32
}

// invalidateOthers removes every copy of the block in L3 line dir held by
// cores other than requester and returns the probes it sent. A core recorded
// both as owner and as sharer (it re-read a block whose private copies it had
// silently dropped) is probed, and counted, once in each role.
func (s *System) invalidateOthers(dir *cache.Line, requester int) (probes uint32) {
	probe := func(core int) {
		p := s.ports[core]
		p.l1.Invalidate(dir.Block)
		p.l2.Invalidate(dir.Block)
		probes++
	}
	if o := dir.Owner(); o >= 0 && o != requester {
		probe(o)
		dir.SetOwner(-1)
	}
	self := uint64(1) << uint(requester)
	for m := dir.Sharers &^ self; m != 0; m &= m - 1 {
		probe(bits.TrailingZeros64(m))
	}
	dir.Sharers &= self
	return probes
}

// downgradeOwner converts a remote exclusive/modified copy of the block in
// L3 line dir to shared so the requester can read, and returns the probes it
// sent (0 or 1).
func (s *System) downgradeOwner(dir *cache.Line, requester int) (probes uint32) {
	owner := dir.Owner()
	if owner < 0 || owner == requester {
		return 0
	}
	p := s.ports[owner]
	p.l1.Downgrade(dir.Block)
	p.l2.Downgrade(dir.Block)
	dir.Sharers |= 1 << uint(owner)
	dir.SetOwner(-1)
	return 1
}

// l3Line looks b up in the L3 and, on a miss, fills it in state st with no
// owner and no sharers. The fill's victim leaves every private hierarchy
// that holds it (inclusion: no private cache may keep a block the L3
// dropped); the trip counts its dirty copies and the back-invalidations.
func (s *System) l3Line(b mem.Block, st cache.State) dirTrip {
	if line := s.l3.Lookup(b, true); line != nil {
		return dirTrip{line: line}
	}
	line, victim, evicted := s.l3.Insert(b, st, 0, false, false)
	d := dirTrip{line: line, fill: l3Fill{filled: true}}
	if !evicted {
		return d
	}
	if victim.State == cache.Modified {
		d.fill.dirty++
	}
	for m := victim.Holders(); m != 0; m &= m - 1 {
		p := s.ports[bits.TrailingZeros64(m)]
		if old, ok := p.l1.Invalidate(victim.Block); ok && old.State == cache.Modified {
			d.fill.dirty++
		}
		if old, ok := p.l2.Invalidate(victim.Block); ok && old.State == cache.Modified {
			d.fill.dirty++
		}
		d.fill.backInvals++
	}
	return d
}

// getS is a read request for b at the directory on behalf of requester: a
// remote owner is downgraded to a sharer and the requester joins the sharers.
func (s *System) getS(b mem.Block, requester int) dirTrip {
	d := s.l3Line(b, cache.Shared)
	d.probes = s.downgradeOwner(d.line, requester)
	d.line.Sharers |= 1 << uint(requester)
	return d
}

// getX is a request for b with write permission on behalf of requester:
// every other copy is invalidated and the requester becomes the owner.
func (s *System) getX(b mem.Block, requester int) dirTrip {
	d := s.l3Line(b, cache.Modified)
	d.probes = s.invalidateOthers(d.line, requester)
	d.line.State = cache.Modified // L3 tracks the block as owned above
	d.line.SetOwner(requester)
	d.line.Sharers = 0
	return d
}

// charge times a directory trip issued at cycle t and counts its fabric
// traffic: the L3 latency plus one probe round trip when a private cache was
// probed, or, when the L3 filled, an L3 MSHR, the DRAM read and then the
// writeback of every dirty copy the victim took. It returns the cycle the
// data reaches the requester's L2 boundary and the level that supplied it.
func (s *System) charge(d dirTrip, t uint64) (done uint64, level Level) {
	s.Invalidations += uint64(d.probes)
	t += uint64(s.cfg.L3.LatencyCyc)
	if !d.fill.filled {
		if d.probes > 0 {
			t += probeLat
		}
		return max(t, d.line.ReadyAt), LevelL3
	}
	done = s.dram.Read(s.l3.MSHRAvailable(t))
	s.l3.NoteMiss(done)
	d.line.ReadyAt = done
	for i := uint32(0); i < d.fill.dirty; i++ {
		s.dram.Write(done)
	}
	s.BackInvals += uint64(d.fill.backInvals)
	return done, LevelDRAM
}

// CheckCoherence audits the protocol invariants: over the directory state of
// every L3 line, a block with an owner has no foreign sharers and no two
// cores hold the same block in a writable state; and every private (L1 or
// L2) Modified copy has an L3 line that is Modified and owned by that core.
// It returns the first violation found, or nil.
func (s *System) CheckCoherence() error {
	var err error
	s.l3.ForEach(func(dir *cache.Line) bool {
		if o := dir.Owner(); o >= 0 && dir.Sharers&^(1<<uint(o)) != 0 {
			err = fmt.Errorf("memsys: block %#x has owner %d and sharers %#x", dir.Block, o, dir.Sharers)
			return false
		}
		writable := 0
		for _, p := range s.ports {
			if l := p.l1.Peek(dir.Block); l != nil && l.State.Writable() {
				writable++
			}
		}
		if writable > 1 {
			err = fmt.Errorf("memsys: block %#x writable in %d L1 caches", dir.Block, writable)
		}
		return err == nil
	})
	for _, p := range s.ports {
		for _, c := range [2]*cache.Cache{p.l1, p.l2} {
			c.ForEach(func(l *cache.Line) bool {
				if dir := s.l3.Peek(l.Block); err == nil && l.State == cache.Modified && (dir == nil || dir.State != cache.Modified || dir.Owner() != p.id) {
					err = fmt.Errorf("memsys: core %d's %s holds block %#x Modified, but the L3 does not hold it Modified and owned by that core", p.id, c.Name(), l.Block)
				}
				return err == nil
			})
		}
	}
	return err
}
