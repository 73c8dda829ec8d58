package core

import "spb/internal/mem"

// DetectorSnapshot is a copy of the SPB detector's mutable state — the three
// registers, the burst-page filter, the extension counters and the statistics
// — and its own gob form in a checkpoint file (DESIGN.md §12). Window size,
// threshold and the extension switches are configuration: both sides of a
// restore build them from the spec.
type DetectorSnapshot struct {
	LastBlock  mem.Block
	SatCounter uint8
	StoreCount int

	LastBurstPage    mem.Page
	HasLastBurstPage bool

	BackCounter uint8
	WindowBytes int

	Checks, Triggers uint64
}

// Snapshot copies the detector's mutable state.
func (d *Detector) Snapshot() DetectorSnapshot {
	return DetectorSnapshot{
		LastBlock: d.lastBlock, SatCounter: d.satCounter, StoreCount: d.storeCount,
		LastBurstPage: d.lastBurstPage, HasLastBurstPage: d.hasLastBurstPage,
		BackCounter: d.backCounter, WindowBytes: d.windowBytes,
		Checks: d.Checks, Triggers: d.Triggers,
	}
}

// Restore overwrites the detector's mutable state with the snapshot's.
func (d *Detector) Restore(s DetectorSnapshot) {
	d.lastBlock, d.satCounter, d.storeCount = s.LastBlock, s.SatCounter, s.StoreCount
	d.lastBurstPage, d.hasLastBurstPage = s.LastBurstPage, s.HasLastBurstPage
	d.backCounter, d.windowBytes = s.BackCounter, s.WindowBytes
	d.Checks, d.Triggers = s.Checks, s.Triggers
}
