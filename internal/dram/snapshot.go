package dram

// Snapshot is a copy of a DRAM model's mutable state — the channel timeline
// and the statistics — as a warm group's snapshot carries it (DESIGN.md §12).
// Latency, service interval and queue depth are configuration: both sides of
// a restore build them from the spec.
type Snapshot struct {
	NextFree uint64

	Reads, Writes, BusyCycles, StallCycles uint64
}

// Snapshot copies the DRAM's mutable state.
func (d *DRAM) Snapshot() Snapshot {
	return Snapshot{
		NextFree: d.nextFree,
		Reads:    d.Reads, Writes: d.Writes,
		BusyCycles: d.BusyCycles, StallCycles: d.StallCycles,
	}
}

// Restore overwrites the DRAM's mutable state with the snapshot's.
func (d *DRAM) Restore(s Snapshot) {
	d.nextFree = s.NextFree
	d.Reads, d.Writes = s.Reads, s.Writes
	d.BusyCycles, d.StallCycles = s.BusyCycles, s.StallCycles
}
