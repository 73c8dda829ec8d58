package sim

import "spb/internal/cpu"

// counter names one uint64 field of a statistics struct once: its key in the
// canonical stats JSON ("" keeps it out of the export) and where it lives in a
// value. Window deltas, aggregation and the export all walk these tables, so a
// counter added to cpu.Stats or MemStats is one line here — and
// TestCounterTablesCoverEveryField fails until that line exists.
type counter[T any] struct {
	name string
	at   func(*T) *uint64
}

var cpuCounters = []counter[cpu.Stats]{
	{"cpu.cycles", func(s *cpu.Stats) *uint64 { return &s.Cycles }},
	{"cpu.committed", func(s *cpu.Stats) *uint64 { return &s.Committed }},
	{"cpu.loads", func(s *cpu.Stats) *uint64 { return &s.Loads }},
	{"cpu.stores", func(s *cpu.Stats) *uint64 { return &s.Stores }},
	{"cpu.branches", func(s *cpu.Stats) *uint64 { return &s.Branches }},
	{"cpu.mispredicts", func(s *cpu.Stats) *uint64 { return &s.Mispredicts }},
	{"cpu.wrongPathInsts", func(s *cpu.Stats) *uint64 { return &s.WrongPathInsts }},
	{"cpu.forwardedLoads", func(s *cpu.Stats) *uint64 { return &s.ForwardedLoads }},
	{"cpu.partialForwards", func(s *cpu.Stats) *uint64 { return &s.PartialForwards }},
	{"cpu.sbStallCycles", func(s *cpu.Stats) *uint64 { return &s.SBStallCycles }},
	{"cpu.robStallCycles", func(s *cpu.Stats) *uint64 { return &s.ROBStallCycles }},
	{"cpu.iqStallCycles", func(s *cpu.Stats) *uint64 { return &s.IQStallCycles }},
	{"cpu.lqStallCycles", func(s *cpu.Stats) *uint64 { return &s.LQStallCycles }},
	{"cpu.frontendStallCycles", func(s *cpu.Stats) *uint64 { return &s.FrontendStallCycles }},
	{"cpu.sbStallApp", func(s *cpu.Stats) *uint64 { return &s.SBStallApp }},
	{"cpu.sbStallLib", func(s *cpu.Stats) *uint64 { return &s.SBStallLib }},
	{"cpu.sbStallKernel", func(s *cpu.Stats) *uint64 { return &s.SBStallKernel }},
	{"cpu.execStallL1DPending", func(s *cpu.Stats) *uint64 { return &s.ExecStallL1DPending }},
	{"cpu.storesPerformed", func(s *cpu.Stats) *uint64 { return &s.StoresPerformed }},
	{"cpu.spbBursts", func(s *cpu.Stats) *uint64 { return &s.SPBBursts }},
}

var memCounters = []counter[MemStats]{
	{"mem.l1TagAccesses", func(m *MemStats) *uint64 { return &m.L1TagAccesses }},
	{"mem.l1Hits", func(m *MemStats) *uint64 { return &m.L1Hits }},
	{"mem.l1Misses", func(m *MemStats) *uint64 { return &m.L1Misses }},
	{"mem.l2Accesses", func(m *MemStats) *uint64 { return &m.L2Accesses }},
	{"mem.l3Accesses", func(m *MemStats) *uint64 { return &m.L3Accesses }},
	{"mem.dramReads", func(m *MemStats) *uint64 { return &m.DRAMReads }},
	{"mem.dramWrites", func(m *MemStats) *uint64 { return &m.DRAMWrites }},
	// Not in the canonical JSON: the core counts the same events as cpu.loads
	// and cpu.stores.
	{"", func(m *MemStats) *uint64 { return &m.Loads }},
	{"", func(m *MemStats) *uint64 { return &m.Stores }},
	{"mem.loadMisses", func(m *MemStats) *uint64 { return &m.LoadMisses }},
	{"mem.storeMisses", func(m *MemStats) *uint64 { return &m.StoreMisses }},
	{"mem.wrongPathLoads", func(m *MemStats) *uint64 { return &m.WrongPathLoads }},
	{"mem.spfIssued", func(m *MemStats) *uint64 { return &m.SPFIssued }},
	{"mem.spfDiscarded", func(m *MemStats) *uint64 { return &m.SPFDiscarded }},
	{"mem.spfMissToL2", func(m *MemStats) *uint64 { return &m.SPFMissToL2 }},
	{"mem.spfSuccessful", func(m *MemStats) *uint64 { return &m.SPFSuccessful }},
	{"mem.spfLate", func(m *MemStats) *uint64 { return &m.SPFLate }},
	{"mem.spfEarly", func(m *MemStats) *uint64 { return &m.SPFEarly }},
	{"mem.spfBurst", func(m *MemStats) *uint64 { return &m.SPFBurst }},
	{"mem.gpfIssued", func(m *MemStats) *uint64 { return &m.GPFIssued }},
	{"mem.gpfUsed", func(m *MemStats) *uint64 { return &m.GPFUsed }},
	{"mem.gpfLate", func(m *MemStats) *uint64 { return &m.GPFLate }},
	{"mem.gpfPolluted", func(m *MemStats) *uint64 { return &m.GPFPolluted }},
	{"mem.invalidations", func(m *MemStats) *uint64 { return &m.Invalidations }},
	{"mem.writebacks", func(m *MemStats) *uint64 { return &m.Writebacks }},
}

// subCounters returns the fieldwise counter delta b-a.
func subCounters[T any](tab []counter[T], a, b T) (d T) {
	for _, c := range tab {
		*c.at(&d) = *c.at(&b) - *c.at(&a)
	}
	return d
}

// addCounters adds d into dst fieldwise. For cpu.Stats cycles add too: a run's
// total is the sum of its measured windows' (max-across-cores) cycle spans.
func addCounters[T any](tab []counter[T], dst *T, d T) {
	for _, c := range tab {
		*c.at(dst) += *c.at(&d)
	}
}

// exportCounters adds every named counter of v to s.
func exportCounters[T any](s map[string]uint64, tab []counter[T], v T) {
	for _, c := range tab {
		if c.name != "" {
			s[c.name] += *c.at(&v)
		}
	}
}
