package memsys

import (
	"cmp"
	"fmt"
	"slices"

	"spb/internal/cache"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// Deep snapshot/restore of the shared memory system (DESIGN.md §12): the one
// state form a warm-start fork copies in memory and a checkpoint file encodes
// with gob as it stands. Everything mutable is copied, at a cost in proportion
// to what it holds: every cache's live lines as packed records (the L3's carry
// the coherence directory), the recent-eviction sets' live windows and
// occupied slots, the DRAM channel state and all statistics counters. The
// generic prefetcher is NOT part of the snapshot: functional warming never
// trains it, its type is a per-spec configuration knob, and a fork always
// starts it fresh — exactly matching a cold run.

// recentSnapshot is what a recentSet holds: the ring's live window — the
// positions before the cursor, or the whole ring once it has wrapped — and the
// occupied table slots in ascending order. What the recycled arrays hold
// elsewhere is never read before it is written, so it is not stored; a set
// nothing was added to is two nil slices.
type recentSnapshot struct {
	Ring   []mem.Block
	Next   int
	Filled bool
	Slots  []recentSlot
}

// recentSlot is one occupied slot of a recentSet's table.
type recentSlot struct {
	Key       mem.Block
	At, Count uint32
}

// window is the length of the ring's live window.
func window(next int, filled bool, capacity int) int {
	if filled {
		return capacity
	}
	return next
}

func (r *recentSet) snapshot() *recentSnapshot {
	s := &recentSnapshot{Next: r.next, Filled: r.filled}
	if n := window(r.next, r.filled, len(r.ring)); n > 0 {
		s.Ring = append([]mem.Block(nil), r.ring[:n]...)
	}
	for i, n := range r.counts {
		if n != 0 {
			s.Slots = append(s.Slots, recentSlot{Key: r.keys[i], At: uint32(i), Count: n})
		}
	}
	return s
}

// fits reports, as an error, why the snapshot cannot be restored into r: its
// cursor lies outside the ring or its window is not the cursor's; a slot index
// is not strictly ascending or falls outside the table, or a count is zero;
// more slots are occupied than the ring has positions, so no empty slot would
// end a probe; or a key sits where the probe from its home slot — which stops
// at the first empty slot or the first slot holding the key — never arrives.
// Restored, any of these could make a lookup miss what the set holds or, on a
// full table, probe forever.
func (s *recentSnapshot) fits(r *recentSet) error {
	switch {
	case s == nil:
		return fmt.Errorf("missing")
	case s.Next < 0 || s.Next >= len(r.ring) || len(s.Ring) != window(s.Next, s.Filled, len(r.ring)):
		return fmt.Errorf("cursor %d, window of %d in a ring of %d", s.Next, len(s.Ring), len(r.ring))
	case len(s.Slots) > len(r.ring):
		return fmt.Errorf("%d occupied slots for a ring of %d", len(s.Slots), len(r.ring))
	}
	for k, sl := range s.Slots {
		if uint64(sl.At) > r.mask || k > 0 && sl.At <= s.Slots[k-1].At || sl.Count == 0 {
			return fmt.Errorf("slot %d at index %d of %d with count %d", k, sl.At, len(r.counts), sl.Count)
		}
	}
	// The slots are ascending now, so the occupant of an index is a search.
	occupant := func(i uint64) (mem.Block, bool) {
		k, ok := slices.BinarySearchFunc(s.Slots, i, func(sl recentSlot, i uint64) int { return cmp.Compare(uint64(sl.At), i) })
		if !ok {
			return 0, false
		}
		return s.Slots[k].Key, true
	}
	for _, sl := range s.Slots {
		for i := blockHash(sl.Key) & r.mask; i != uint64(sl.At); i = (i + 1) & r.mask {
			if key, ok := occupant(i); !ok || key == sl.Key {
				return fmt.Errorf("key %#x at slot %d is not reached by its probe", sl.Key, sl.At)
			}
		}
	}
	return nil
}

// restore overwrites r with the snapshot, which must fit it (fits).
func (r *recentSet) restore(s *recentSnapshot) {
	if s.Next >= len(r.ring) || len(s.Ring) > len(r.ring) {
		panic("memsys: recentSet restore with mismatched capacity")
	}
	copy(r.ring, s.Ring)
	r.next = s.Next
	r.filled = s.Filled
	clear(r.counts)
	for _, sl := range s.Slots {
		r.keys[sl.At], r.counts[sl.At] = sl.Key, sl.Count
	}
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
		if ps == nil || ps.L1 == nil || ps.L2 == nil {
			return fmt.Errorf("memsys: snapshot port %d is incomplete", i)
		}
		if err := ps.EvictedPF.fits(p.evictedPF); err != nil {
			return fmt.Errorf("memsys: snapshot port %d evicted-prefetch set: %v", i, err)
		}
		if err := ps.VictimsOfPF.fits(p.victimsOfPF); err != nil {
			return fmt.Errorf("memsys: snapshot port %d prefetch-victim set: %v", i, err)
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
