package memsys

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"spb/internal/cache"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// Gob wire form of a SystemSnapshot (crash-safe checkpoints, DESIGN.md §15),
// plus the prefetcher capture the snapshot itself deliberately omits.
// Warm-start shares one SystemSnapshot across specs that differ in
// prefetcher kind, so trained prefetcher tables cannot live inside it; a
// mid-run checkpoint is taken for exactly one spec, so it captures them
// separately via PrefetcherStates/RestorePrefetcherStates.

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

type recentWire struct {
	Ring   []mem.Block
	Next   int
	Filled bool
	Keys   []mem.Block
	Counts []uint32
}

func recentToWire(r *recentSnapshot) recentWire {
	return recentWire{Ring: r.ring, Next: r.next, Filled: r.filled, Keys: r.keys, Counts: r.counts}
}

func recentFromWire(w recentWire) *recentSnapshot {
	return &recentSnapshot{ring: w.Ring, next: w.Next, filled: w.Filled, keys: w.Keys, counts: w.Counts}
}

type portWire struct {
	L1, L2                 *cache.Snapshot
	EvictedPF, VictimsOfPF recentWire

	Loads, Stores, LoadMisses, StoreMisses, WrongPathLoads uint64

	SPFIssued, SPFDiscarded, SPFMissToL2, SPFSuccessful,
	SPFLate, SPFEarly, SPFBurst uint64

	GPFIssued, GPFUsed, GPFLate, GPFPolluted uint64

	EpochAccesses uint64
	LastFB        prefetch.Feedback
}

type systemWire struct {
	L3    *cache.Snapshot
	DRAM  dram.Snapshot
	Ports []portWire

	L3Accesses, Invalidations, WritebacksL3, BackInvals uint64
}

// GobEncode implements gob.GobEncoder.
func (s *SystemSnapshot) GobEncode() ([]byte, error) {
	w := systemWire{
		L3:         s.l3,
		DRAM:       s.dram,
		L3Accesses: s.l3Accesses, Invalidations: s.invalidations,
		WritebacksL3: s.writebacksL3, BackInvals: s.backInvals,
	}
	for _, p := range s.ports {
		w.Ports = append(w.Ports, portWire{
			L1: p.l1, L2: p.l2,
			EvictedPF: recentToWire(p.evictedPF), VictimsOfPF: recentToWire(p.victimsOfPF),
			Loads: p.loads, Stores: p.stores, LoadMisses: p.loadMisses,
			StoreMisses: p.storeMisses, WrongPathLoads: p.wrongPathLoads,
			SPFIssued: p.spfIssued, SPFDiscarded: p.spfDiscarded, SPFMissToL2: p.spfMissToL2,
			SPFSuccessful: p.spfSuccessful, SPFLate: p.spfLate, SPFEarly: p.spfEarly, SPFBurst: p.spfBurst,
			GPFIssued: p.gpfIssued, GPFUsed: p.gpfUsed, GPFLate: p.gpfLate, GPFPolluted: p.gpfPolluted,
			EpochAccesses: p.epochAccesses,
			LastFB:        p.lastFB,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (s *SystemSnapshot) GobDecode(data []byte) error {
	var w systemWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	s.l3 = w.L3
	s.dram = w.DRAM
	s.ports = nil
	for _, p := range w.Ports {
		s.ports = append(s.ports, &portSnapshot{
			l1: p.L1, l2: p.L2,
			evictedPF: recentFromWire(p.EvictedPF), victimsOfPF: recentFromWire(p.VictimsOfPF),
			loads: p.Loads, stores: p.Stores, loadMisses: p.LoadMisses,
			storeMisses: p.StoreMisses, wrongPathLoads: p.WrongPathLoads,
			spfIssued: p.SPFIssued, spfDiscarded: p.SPFDiscarded, spfMissToL2: p.SPFMissToL2,
			spfSuccessful: p.SPFSuccessful, spfLate: p.SPFLate, spfEarly: p.SPFEarly, spfBurst: p.SPFBurst,
			gpfIssued: p.GPFIssued, gpfUsed: p.GPFUsed, gpfLate: p.GPFLate, gpfPolluted: p.GPFPolluted,
			epochAccesses: p.EpochAccesses,
			lastFB:        p.LastFB,
		})
	}
	s.l3Accesses = w.L3Accesses
	s.invalidations = w.Invalidations
	s.writebacksL3 = w.WritebacksL3
	s.backInvals = w.BackInvals
	return nil
}
