package sim

import (
	"slices"

	"spb/internal/cpu"
	"spb/internal/memsys"
)

// counter names one uint64 field of a statistics struct once: its key in the
// canonical stats JSON and where it lives in a value. Window deltas,
// aggregation, the export and ParseStats all walk these tables, so a counter
// added to cpu.Stats, MemStats, memsys.PortCounters or SampleStats is one line
// here — and TestCounterTablesCoverEveryField fails until that line exists.
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

var memCounters = slices.Concat([]counter[MemStats]{
	{"mem.l1TagAccesses", func(m *MemStats) *uint64 { return &m.L1TagAccesses }},
	{"mem.l1Hits", func(m *MemStats) *uint64 { return &m.L1Hits }},
	{"mem.l1Misses", func(m *MemStats) *uint64 { return &m.L1Misses }},
	{"mem.l2Accesses", func(m *MemStats) *uint64 { return &m.L2Accesses }},
	{"mem.l3Accesses", func(m *MemStats) *uint64 { return &m.L3Accesses }},
	{"mem.dramReads", func(m *MemStats) *uint64 { return &m.DRAMReads }},
	{"mem.dramWrites", func(m *MemStats) *uint64 { return &m.DRAMWrites }},
	{"mem.invalidations", func(m *MemStats) *uint64 { return &m.Invalidations }},
	{"mem.writebacks", func(m *MemStats) *uint64 { return &m.Writebacks }},
}, embedCounters(portCounters, func(m *MemStats) *memsys.PortCounters { return &m.PortCounters }))

// portCounters is one core's memsys.PortCounters: collectMem sums the ports
// with it, and MemStats, which embeds the sum, carries it into memCounters.
var portCounters = []counter[memsys.PortCounters]{
	{"mem.loadMisses", func(p *memsys.PortCounters) *uint64 { return &p.LoadMisses }},
	{"mem.storeMisses", func(p *memsys.PortCounters) *uint64 { return &p.StoreMisses }},
	{"mem.wrongPathLoads", func(p *memsys.PortCounters) *uint64 { return &p.WrongPathLoads }},
	{"mem.spfIssued", func(p *memsys.PortCounters) *uint64 { return &p.SPFIssued }},
	{"mem.spfDiscarded", func(p *memsys.PortCounters) *uint64 { return &p.SPFDiscarded }},
	{"mem.spfMissToL2", func(p *memsys.PortCounters) *uint64 { return &p.SPFMissToL2 }},
	{"mem.spfSuccessful", func(p *memsys.PortCounters) *uint64 { return &p.SPFSuccessful }},
	{"mem.spfLate", func(p *memsys.PortCounters) *uint64 { return &p.SPFLate }},
	{"mem.spfEarly", func(p *memsys.PortCounters) *uint64 { return &p.SPFEarly }},
	{"mem.spfBurst", func(p *memsys.PortCounters) *uint64 { return &p.SPFBurst }},
	{"mem.gpfIssued", func(p *memsys.PortCounters) *uint64 { return &p.GPFIssued }},
	{"mem.gpfUsed", func(p *memsys.PortCounters) *uint64 { return &p.GPFUsed }},
	{"mem.gpfLate", func(p *memsys.PortCounters) *uint64 { return &p.GPFLate }},
	{"mem.gpfPolluted", func(p *memsys.PortCounters) *uint64 { return &p.GPFPolluted }},
}

// sampleCounters is a sampled run's SampleStats (DESIGN.md §14); the export
// carries it only when the spec samples.
var sampleCounters = []counter[SampleStats]{
	{"sample.intervals", func(s *SampleStats) *uint64 { return &s.Intervals }},
	{"sample.measuredInsts", func(s *SampleStats) *uint64 { return &s.MeasuredInsts }},
	{"sample.detailedInsts", func(s *SampleStats) *uint64 { return &s.DetailedInsts }},
	{"sample.fastForwardInsts", func(s *SampleStats) *uint64 { return &s.FastForwardInsts }},
	{"sample.ipcMeanPPM", func(s *SampleStats) *uint64 { return &s.IPCMeanPPM }},
	{"sample.ipcCI95PPM", func(s *SampleStats) *uint64 { return &s.IPCCI95PPM }},
	{"sample.cpiMeanPPM", func(s *SampleStats) *uint64 { return &s.CPIMeanPPM }},
	{"sample.cpiCI95PPM", func(s *SampleStats) *uint64 { return &s.CPICI95PPM }},
	{"sample.sbStallPerInstMeanPPM", func(s *SampleStats) *uint64 { return &s.SBStallPerInstMeanPPM }},
	{"sample.sbStallPerInstCI95PPM", func(s *SampleStats) *uint64 { return &s.SBStallPerInstCI95PPM }},
	{"sample.otherStallPerInstMeanPPM", func(s *SampleStats) *uint64 { return &s.OtherStallPerInstMeanPPM }},
	{"sample.otherStallPerInstCI95PPM", func(s *SampleStats) *uint64 { return &s.OtherStallPerInstCI95PPM }},
	{"sample.frontendStallPerInstMeanPPM", func(s *SampleStats) *uint64 { return &s.FrontendStallPerInstMeanPPM }},
	{"sample.frontendStallPerInstCI95PPM", func(s *SampleStats) *uint64 { return &s.FrontendStallPerInstCI95PPM }},
	{"sample.execStallL1DPerInstMeanPPM", func(s *SampleStats) *uint64 { return &s.ExecStallL1DPerInstMeanPPM }},
	{"sample.execStallL1DPerInstCI95PPM", func(s *SampleStats) *uint64 { return &s.ExecStallL1DPerInstCI95PPM }},
	{"sample.l1MissPerInstMeanPPM", func(s *SampleStats) *uint64 { return &s.L1MissPerInstMeanPPM }},
	{"sample.l1MissPerInstCI95PPM", func(s *SampleStats) *uint64 { return &s.L1MissPerInstCI95PPM }},
	{"sample.dramPerInstMeanPPM", func(s *SampleStats) *uint64 { return &s.DRAMPerInstMeanPPM }},
	{"sample.dramPerInstCI95PPM", func(s *SampleStats) *uint64 { return &s.DRAMPerInstCI95PPM }},
}

// embedCounters lifts the table of a struct E that T holds at at into a
// table over T.
func embedCounters[T, E any](tab []counter[E], at func(*T) *E) []counter[T] {
	out := make([]counter[T], len(tab))
	for i, c := range tab {
		out[i] = counter[T]{c.name, func(v *T) *uint64 { return c.at(at(v)) }}
	}
	return out
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

// exportCounters adds every counter of v to s.
func exportCounters[T any](s map[string]uint64, tab []counter[T], v T) {
	for _, c := range tab {
		s[c.name] += *c.at(&v)
	}
}

// parseCounters sets every counter of v from s; a name s lacks reads as 0.
func parseCounters[T any](s map[string]uint64, tab []counter[T], v *T) {
	for _, c := range tab {
		*c.at(v) = s[c.name]
	}
}
