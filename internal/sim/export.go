package sim

import (
	"encoding/json"

	"spb/internal/topdown"
)

// ExportStats adds every counter of the result into s under dotted names
// (cpu.*, mem.*, energy.* in microjoules), the stable format consumed by
// tooling that diffs simulator runs.
func (r Result) ExportStats(s map[string]uint64) {
	c := r.CPU
	exportCounters(s, cpuCounters, c)
	exportCounters(s, memCounters, r.Mem)
	s["mem.spfNeverUsed"] += r.Mem.SPFNeverUsed()

	// Top-Down stall accounting (paper §V) in integer parts-per-million, so
	// the per-run breakdown travels inside the canonical stats set while the
	// set stays integer-valued and deterministic. td.sbBound mirrors the
	// paper's >2% SB-stall criterion as 0/1.
	sb, other, fe, l1d := topdown.StatPPM(&c)
	s["td.cycles"] += c.Cycles
	s["td.sbStallPPM"] += sb
	s["td.otherStallPPM"] += other
	s["td.frontendStallPPM"] += fe
	s["td.execStallL1DPendingPPM"] += l1d
	s["td.sbBound"] += 0 // the key is present when the run is not SB-bound
	if sb > topdown.SBBoundThresholdPPM {
		s["td.sbBound"]++
	}

	// SMARTS sampling summary (DESIGN.md §14), present only for sampled runs
	// so full-detail output is byte-identical to pre-sampling builds. Rates
	// travel as integer PPM like td.*; each mean carries its 95% CLT
	// confidence half-width.
	if r.Spec.Sampling.Enabled() {
		sm := r.Sample
		s["sample.intervals"] += sm.Intervals
		s["sample.measuredInsts"] += sm.MeasuredInsts
		s["sample.detailedInsts"] += sm.DetailedInsts
		s["sample.fastForwardInsts"] += sm.FastForwardInsts
		s["sample.ipcMeanPPM"] += sm.IPCMeanPPM
		s["sample.ipcCI95PPM"] += sm.IPCCI95PPM
		s["sample.cpiMeanPPM"] += sm.CPIMeanPPM
		s["sample.cpiCI95PPM"] += sm.CPICI95PPM
		s["sample.sbStallPerInstMeanPPM"] += sm.SBStallPerInstMeanPPM
		s["sample.sbStallPerInstCI95PPM"] += sm.SBStallPerInstCI95PPM
		s["sample.otherStallPerInstMeanPPM"] += sm.OtherStallPerInstMeanPPM
		s["sample.otherStallPerInstCI95PPM"] += sm.OtherStallPerInstCI95PPM
		s["sample.frontendStallPerInstMeanPPM"] += sm.FrontendStallPerInstMeanPPM
		s["sample.frontendStallPerInstCI95PPM"] += sm.FrontendStallPerInstCI95PPM
		s["sample.execStallL1DPerInstMeanPPM"] += sm.ExecStallL1DPerInstMeanPPM
		s["sample.execStallL1DPerInstCI95PPM"] += sm.ExecStallL1DPerInstCI95PPM
		s["sample.l1MissPerInstMeanPPM"] += sm.L1MissPerInstMeanPPM
		s["sample.l1MissPerInstCI95PPM"] += sm.L1MissPerInstCI95PPM
		s["sample.dramPerInstMeanPPM"] += sm.DRAMPerInstMeanPPM
		s["sample.dramPerInstCI95PPM"] += sm.DRAMPerInstCI95PPM
	}

	// Energy in microjoules so integer counters remain meaningful.
	s["energy.cacheDynamicUJ"] += uint64(r.Energy.CacheDynamic * 1e6)
	s["energy.coreDynamicUJ"] += uint64(r.Energy.CoreDynamic * 1e6)
	s["energy.staticUJ"] += uint64(r.Energy.Static * 1e6)
	s["energy.totalUJ"] += uint64(r.Energy.Total() * 1e6)
}

// StatsJSON renders the exported counters as canonical JSON (encoding/json
// sorts map keys; compact). It is the single serialization shared by `spbsim
// -json` and the spbd service, so CLI and service output for the same spec are
// byte-comparable.
func (r Result) StatsJSON() (json.RawMessage, error) {
	s := map[string]uint64{}
	r.ExportStats(s)
	return json.Marshal(s)
}
