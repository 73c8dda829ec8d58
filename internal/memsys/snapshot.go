package memsys

import (
	"spb/internal/cache"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// Deep snapshot/restore of the shared memory system (DESIGN.md §12): the state
// a warm-start group keeps in memory and each fork copies back. Everything
// mutable is copied, at a cost in proportion
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

// restore overwrites r with the snapshot of a set of the same capacity.
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

// SystemSnapshot is a deep copy of the full memory system state. It shares no
// memory with the system it was taken from.
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
