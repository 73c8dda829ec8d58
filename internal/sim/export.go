package sim

import (
	"encoding/json"

	"spb/internal/stats"
	"spb/internal/topdown"
)

// ExportStats writes every counter of the result into a stats.Set under
// dotted names (cpu.*, mem.*, energy.* in microjoules), the stable format
// consumed by tooling that diffs simulator runs.
func (r Result) ExportStats(s *stats.Set) {
	c := r.CPU
	exportCounters(s, cpuCounters, c)
	exportCounters(s, memCounters, r.Mem)
	s.Counter("mem.spfNeverUsed").Add(r.Mem.SPFNeverUsed())

	// Top-Down stall accounting (paper §V) in integer parts-per-million, so
	// the per-run breakdown travels inside the canonical stats set while the
	// set stays integer-valued and deterministic. td.sbBound mirrors the
	// paper's >2% SB-stall criterion as 0/1.
	sb, other, fe, l1d := topdown.StatPPM(&c)
	s.Counter("td.cycles").Add(c.Cycles)
	s.Counter("td.sbStallPPM").Add(sb)
	s.Counter("td.otherStallPPM").Add(other)
	s.Counter("td.frontendStallPPM").Add(fe)
	s.Counter("td.execStallL1DPendingPPM").Add(l1d)
	if sb > topdown.SBBoundThresholdPPM {
		s.Counter("td.sbBound").Add(1)
	} else {
		s.Counter("td.sbBound").Add(0)
	}

	// SMARTS sampling summary (DESIGN.md §14), present only for sampled runs
	// so full-detail output is byte-identical to pre-sampling builds. Rates
	// travel as integer PPM like td.*; each mean carries its 95% CLT
	// confidence half-width.
	if r.Spec.Sampling.Enabled() {
		sm := r.Sample
		s.Counter("sample.intervals").Add(sm.Intervals)
		s.Counter("sample.measuredInsts").Add(sm.MeasuredInsts)
		s.Counter("sample.detailedInsts").Add(sm.DetailedInsts)
		s.Counter("sample.fastForwardInsts").Add(sm.FastForwardInsts)
		s.Counter("sample.ipcMeanPPM").Add(sm.IPCMeanPPM)
		s.Counter("sample.ipcCI95PPM").Add(sm.IPCCI95PPM)
		s.Counter("sample.cpiMeanPPM").Add(sm.CPIMeanPPM)
		s.Counter("sample.cpiCI95PPM").Add(sm.CPICI95PPM)
		s.Counter("sample.sbStallPerInstMeanPPM").Add(sm.SBStallPerInstMeanPPM)
		s.Counter("sample.sbStallPerInstCI95PPM").Add(sm.SBStallPerInstCI95PPM)
		s.Counter("sample.otherStallPerInstMeanPPM").Add(sm.OtherStallPerInstMeanPPM)
		s.Counter("sample.otherStallPerInstCI95PPM").Add(sm.OtherStallPerInstCI95PPM)
		s.Counter("sample.frontendStallPerInstMeanPPM").Add(sm.FrontendStallPerInstMeanPPM)
		s.Counter("sample.frontendStallPerInstCI95PPM").Add(sm.FrontendStallPerInstCI95PPM)
		s.Counter("sample.execStallL1DPerInstMeanPPM").Add(sm.ExecStallL1DPerInstMeanPPM)
		s.Counter("sample.execStallL1DPerInstCI95PPM").Add(sm.ExecStallL1DPerInstCI95PPM)
		s.Counter("sample.l1MissPerInstMeanPPM").Add(sm.L1MissPerInstMeanPPM)
		s.Counter("sample.l1MissPerInstCI95PPM").Add(sm.L1MissPerInstCI95PPM)
		s.Counter("sample.dramPerInstMeanPPM").Add(sm.DRAMPerInstMeanPPM)
		s.Counter("sample.dramPerInstCI95PPM").Add(sm.DRAMPerInstCI95PPM)
	}

	// Energy in microjoules so integer counters remain meaningful.
	s.Counter("energy.cacheDynamicUJ").Add(uint64(r.Energy.CacheDynamic * 1e6))
	s.Counter("energy.coreDynamicUJ").Add(uint64(r.Energy.CoreDynamic * 1e6))
	s.Counter("energy.staticUJ").Add(uint64(r.Energy.Static * 1e6))
	s.Counter("energy.totalUJ").Add(uint64(r.Energy.Total() * 1e6))
}

// StatsJSON renders the exported stats set as canonical JSON (sorted keys,
// compact). It is the single serialization shared by `spbsim -json` and the
// spbd service, so CLI and service output for the same spec are
// byte-comparable.
func (r Result) StatsJSON() (json.RawMessage, error) {
	set := stats.NewSet()
	r.ExportStats(set)
	return json.Marshal(set)
}
