package memsys

import (
	"fmt"

	"spb/internal/cache"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// Deep snapshot/restore of the shared memory system (warm-start support,
// DESIGN.md §12). Everything mutable is copied: every cache array (the L3's
// lines carry the coherence directory), the recent-eviction sets, the DRAM
// channel state and all statistics counters. The generic prefetcher is NOT
// part of the snapshot: functional warming never trains it, its type is a
// per-spec configuration knob, and a fork always starts it fresh — exactly
// matching a cold run.

// recentSnapshot is a canonical deep copy of a recentSet: ring positions
// outside the live window and table slots with zero count are stored as
// zeros, not as whatever the recycled arrays held.
type recentSnapshot struct {
	ring   []mem.Block
	next   int
	filled bool
	keys   []mem.Block
	counts []uint32
}

func (r *recentSet) snapshot() *recentSnapshot {
	s := &recentSnapshot{
		ring:   make([]mem.Block, len(r.ring)),
		next:   r.next,
		filled: r.filled,
		keys:   make([]mem.Block, len(r.keys)),
		counts: append([]uint32(nil), r.counts...),
	}
	live := r.next
	if r.filled {
		live = len(r.ring)
	}
	copy(s.ring[:live], r.ring[:live])
	for i, n := range r.counts {
		if n != 0 {
			s.keys[i] = r.keys[i]
		}
	}
	return s
}

// fits reports whether the snapshot's arrays are r's size and its cursor is
// inside the ring.
func (s *recentSnapshot) fits(r *recentSet) bool {
	return s != nil && len(s.ring) == len(r.ring) && len(s.keys) == len(r.keys) &&
		len(s.counts) == len(r.counts) && s.next >= 0 && s.next < len(s.ring)
}

func (r *recentSet) restore(s *recentSnapshot) {
	if !s.fits(r) {
		panic("memsys: recentSet restore with mismatched capacity")
	}
	copy(r.ring, s.ring)
	r.next = s.next
	r.filled = s.filled
	copy(r.keys, s.keys)
	copy(r.counts, s.counts)
}

// portSnapshot deep-copies one core's private hierarchy and counters.
type portSnapshot struct {
	l1, l2                 *cache.Snapshot
	evictedPF, victimsOfPF *recentSnapshot

	loads, stores, loadMisses, storeMisses, wrongPathLoads uint64

	spfIssued, spfDiscarded, spfMissToL2, spfSuccessful,
	spfLate, spfEarly, spfBurst uint64

	gpfIssued, gpfUsed, gpfLate, gpfPolluted uint64

	epochAccesses uint64
	lastFB        prefetch.Feedback
}

func (p *Port) snapshot() *portSnapshot {
	return &portSnapshot{
		l1:             p.l1.Snapshot(),
		l2:             p.l2.Snapshot(),
		evictedPF:      p.evictedPF.snapshot(),
		victimsOfPF:    p.victimsOfPF.snapshot(),
		loads:          p.Loads,
		stores:         p.Stores,
		loadMisses:     p.LoadMisses,
		storeMisses:    p.StoreMisses,
		wrongPathLoads: p.WrongPathLoads,
		spfIssued:      p.SPFIssued,
		spfDiscarded:   p.SPFDiscarded,
		spfMissToL2:    p.SPFMissToL2,
		spfSuccessful:  p.SPFSuccessful,
		spfLate:        p.SPFLate,
		spfEarly:       p.SPFEarly,
		spfBurst:       p.SPFBurst,
		gpfIssued:      p.GPFIssued,
		gpfUsed:        p.GPFUsed,
		gpfLate:        p.GPFLate,
		gpfPolluted:    p.GPFPolluted,
		epochAccesses:  p.epochAccesses,
		lastFB:         p.lastFB,
	}
}

func (p *Port) restore(s *portSnapshot) {
	p.l1.Restore(s.l1)
	p.l2.Restore(s.l2)
	p.evictedPF.restore(s.evictedPF)
	p.victimsOfPF.restore(s.victimsOfPF)
	p.Loads = s.loads
	p.Stores = s.stores
	p.LoadMisses = s.loadMisses
	p.StoreMisses = s.storeMisses
	p.WrongPathLoads = s.wrongPathLoads
	p.SPFIssued = s.spfIssued
	p.SPFDiscarded = s.spfDiscarded
	p.SPFMissToL2 = s.spfMissToL2
	p.SPFSuccessful = s.spfSuccessful
	p.SPFLate = s.spfLate
	p.SPFEarly = s.spfEarly
	p.SPFBurst = s.spfBurst
	p.GPFIssued = s.gpfIssued
	p.GPFUsed = s.gpfUsed
	p.GPFLate = s.gpfLate
	p.GPFPolluted = s.gpfPolluted
	p.epochAccesses = s.epochAccesses
	p.lastFB = s.lastFB
}

// SystemSnapshot is a deep copy of the full memory system state. It shares
// no memory with the system it was taken from.
type SystemSnapshot struct {
	l3    *cache.Snapshot
	dram  dram.Snapshot
	ports []*portSnapshot

	l3Accesses, invalidations, writebacksL3, backInvals uint64
}

// Snapshot deep-copies the system's mutable state.
func (s *System) Snapshot() *SystemSnapshot {
	snap := &SystemSnapshot{
		l3:            s.l3.Snapshot(),
		dram:          s.dram.Snapshot(),
		l3Accesses:    s.L3Accesses,
		invalidations: s.Invalidations,
		writebacksL3:  s.WritebacksL3,
		backInvals:    s.BackInvals,
	}
	for _, p := range s.ports {
		snap.ports = append(snap.ports, p.snapshot())
	}
	return snap
}

// Fits reports, as an error, why the snapshot cannot be restored into s: a
// different core count, a cache or recent-set of a different size, a cache
// state no run reaches (see cache.Snapshot.Fits), or directory state naming a
// core the system does not have. Snapshots taken
// from a same-configuration System always fit; a decoded one (a checkpoint
// file) must be checked before Restore, which panics on such a mismatch.
func (snap *SystemSnapshot) Fits(s *System) error {
	if snap.l3 == nil || len(snap.ports) != len(s.ports) {
		return fmt.Errorf("memsys: snapshot of %d cores, system has %d", len(snap.ports), len(s.ports))
	}
	if err := snap.l3.Fits(s.l3, len(s.ports)); err != nil {
		return err
	}
	for i, p := range s.ports {
		ps := snap.ports[i]
		if ps == nil || ps.l1 == nil || ps.l2 == nil || !ps.evictedPF.fits(p.evictedPF) || !ps.victimsOfPF.fits(p.victimsOfPF) {
			return fmt.Errorf("memsys: snapshot port %d is incomplete or of another size", i)
		}
		// Private lines carry no directory state: zero cores may be named.
		if err := ps.l1.Fits(p.l1, 0); err != nil {
			return err
		}
		if err := ps.l2.Fits(p.l2, 0); err != nil {
			return err
		}
	}
	return nil
}

// Restore overwrites the system's mutable state with the snapshot's. The
// system must have the same geometry (core count, cache configuration) as
// the snapshot's source. Prefetcher state is untouched.
func (s *System) Restore(snap *SystemSnapshot) {
	if len(s.ports) != len(snap.ports) {
		panic("memsys: Restore with mismatched core count")
	}
	s.l3.Restore(snap.l3)
	s.dram.Restore(snap.dram)
	for i, p := range s.ports {
		p.restore(snap.ports[i])
	}
	s.L3Accesses = snap.l3Accesses
	s.Invalidations = snap.invalidations
	s.WritebacksL3 = snap.writebacksL3
	s.BackInvals = snap.backInvals
}
