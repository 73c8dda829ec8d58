package memsys

import (
	"fmt"

	"spb/internal/cache"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// Deep snapshot/restore of the shared memory system (DESIGN.md §12): the one
// state form a warm-start fork copies in memory and a checkpoint file encodes
// with gob as it stands. Everything mutable is copied: every cache array (the
// L3's lines carry the coherence directory), the recent-eviction sets, the
// DRAM channel state and all statistics counters. The generic prefetcher is
// NOT part of the snapshot: functional warming never trains it, its type is a
// per-spec configuration knob, and a fork always starts it fresh — exactly
// matching a cold run.

// recentSnapshot is a canonical deep copy of a recentSet: ring positions
// outside the live window and table slots with zero count are stored as
// zeros, not as whatever the recycled arrays held.
type recentSnapshot struct {
	Ring   []mem.Block
	Next   int
	Filled bool
	Keys   []mem.Block
	Counts []uint32
}

func (r *recentSet) snapshot() *recentSnapshot {
	s := &recentSnapshot{
		Ring:   make([]mem.Block, len(r.ring)),
		Next:   r.next,
		Filled: r.filled,
		Keys:   make([]mem.Block, len(r.keys)),
		Counts: append([]uint32(nil), r.counts...),
	}
	live := r.next
	if r.filled {
		live = len(r.ring)
	}
	copy(s.Ring[:live], r.ring[:live])
	for i, n := range r.counts {
		if n != 0 {
			s.Keys[i] = r.keys[i]
		}
	}
	return s
}

// fits reports whether the snapshot's arrays are r's size and its cursor is
// inside the ring.
func (s *recentSnapshot) fits(r *recentSet) bool {
	return s != nil && len(s.Ring) == len(r.ring) && len(s.Keys) == len(r.keys) &&
		len(s.Counts) == len(r.counts) && s.Next >= 0 && s.Next < len(s.Ring)
}

func (r *recentSet) restore(s *recentSnapshot) {
	if !s.fits(r) {
		panic("memsys: recentSet restore with mismatched capacity")
	}
	copy(r.ring, s.Ring)
	r.next = s.Next
	r.filled = s.Filled
	copy(r.keys, s.Keys)
	copy(r.counts, s.Counts)
}

// portSnapshot deep-copies one core's private hierarchy and counters.
type portSnapshot struct {
	L1, L2                 *cache.Snapshot
	EvictedPF, VictimsOfPF *recentSnapshot

	Counters PortCounters

	EpochAccesses uint64
	LastFB        prefetch.Feedback
}

func (p *Port) snapshot() *portSnapshot {
	return &portSnapshot{
		L1:            p.l1.Snapshot(),
		L2:            p.l2.Snapshot(),
		EvictedPF:     p.evictedPF.snapshot(),
		VictimsOfPF:   p.victimsOfPF.snapshot(),
		Counters:      p.PortCounters,
		EpochAccesses: p.epochAccesses,
		LastFB:        p.lastFB,
	}
}

func (p *Port) restore(s *portSnapshot) {
	p.l1.Restore(s.L1)
	p.l2.Restore(s.L2)
	p.evictedPF.restore(s.EvictedPF)
	p.victimsOfPF.restore(s.VictimsOfPF)
	p.PortCounters = s.Counters
	p.epochAccesses = s.EpochAccesses
	p.lastFB = s.LastFB
}

// SystemSnapshot is a deep copy of the full memory system state, and its own
// gob form in a checkpoint file. It shares no memory with the system it was
// taken from.
type SystemSnapshot struct {
	L3    *cache.Snapshot
	DRAM  dram.Snapshot
	Ports []*portSnapshot

	Invalidations, BackInvals uint64
}

// Snapshot deep-copies the system's mutable state.
func (s *System) Snapshot() *SystemSnapshot {
	snap := &SystemSnapshot{
		L3:            s.l3.Snapshot(),
		DRAM:          s.dram.Snapshot(),
		Invalidations: s.Invalidations,
		BackInvals:    s.BackInvals,
	}
	for _, p := range s.ports {
		snap.Ports = append(snap.Ports, p.snapshot())
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
	if snap.L3 == nil || len(snap.Ports) != len(s.ports) {
		return fmt.Errorf("memsys: snapshot of %d cores, system has %d", len(snap.Ports), len(s.ports))
	}
	if err := snap.L3.Fits(s.l3, len(s.ports)); err != nil {
		return err
	}
	for i, p := range s.ports {
		ps := snap.Ports[i]
		if ps == nil || ps.L1 == nil || ps.L2 == nil || !ps.EvictedPF.fits(p.evictedPF) || !ps.VictimsOfPF.fits(p.victimsOfPF) {
			return fmt.Errorf("memsys: snapshot port %d is incomplete or of another size", i)
		}
		// Private lines carry no directory state: zero cores may be named.
		if err := ps.L1.Fits(p.l1, 0); err != nil {
			return err
		}
		if err := ps.L2.Fits(p.l2, 0); err != nil {
			return err
		}
	}
	return nil
}

// Restore overwrites the system's mutable state with the snapshot's. The
// system must have the same geometry (core count, cache configuration) as
// the snapshot's source. Prefetcher state is untouched.
func (s *System) Restore(snap *SystemSnapshot) {
	if len(s.ports) != len(snap.Ports) {
		panic("memsys: Restore with mismatched core count")
	}
	s.l3.Restore(snap.L3)
	s.dram.Restore(snap.DRAM)
	for i, p := range s.ports {
		p.restore(snap.Ports[i])
	}
	s.Invalidations = snap.Invalidations
	s.BackInvals = snap.BackInvals
}

// The prefetcher capture the snapshot deliberately omits. Warm-start shares
// one SystemSnapshot across specs that differ in prefetcher kind, so trained
// prefetcher tables cannot live inside it; a mid-run checkpoint is taken for
// exactly one spec, so it captures them separately via
// PrefetcherStates/RestorePrefetcherStates.

// PrefetcherStates deep-copies each port's generic-prefetcher state, in port
// order.
func (s *System) PrefetcherStates() []prefetch.State {
	out := make([]prefetch.State, len(s.ports))
	for i, p := range s.ports {
		out[i] = prefetch.CaptureState(p.pf)
	}
	return out
}

// PrefetcherStatesFit reports, as an error, why the states cannot be restored
// into s: another core count, or a state that does not fit its port's
// prefetcher (see prefetch.State.Fits). Decoded states (a checkpoint file) must
// be checked before RestorePrefetcherStates, which panics on a mismatch.
func (s *System) PrefetcherStatesFit(st []prefetch.State) error {
	if len(st) != len(s.ports) {
		return fmt.Errorf("memsys: prefetcher states of %d cores, system has %d", len(st), len(s.ports))
	}
	for i, p := range s.ports {
		if err := st[i].Fits(p.pf); err != nil {
			return err
		}
	}
	return nil
}

// RestorePrefetcherStates overwrites each port's generic-prefetcher state.
// The states must come from a system with the same core count and
// prefetcher configuration.
func (s *System) RestorePrefetcherStates(st []prefetch.State) {
	if err := s.PrefetcherStatesFit(st); err != nil {
		panic(err)
	}
	for i, p := range s.ports {
		prefetch.RestoreState(p.pf, st[i])
	}
}
