package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

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
		exportCounters(s, sampleCounters, r.Sample)
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

// ParseStats rebuilds the Result of spec's run from the canonical stats JSON
// that run's StatsJSON made: the counters from the tables ExportStats walks,
// the energy and Top-Down views recomputed by finishResult, as the run
// computed them. It is the one decoder of a finished run that has left the
// process (spbd's batch lines and disk tier), and it accepts only the bytes
// StatsJSON makes of the rebuilt result: a counter missing, added, misspelled
// or out of line with the others, the stats of a run of another shape, or any
// byte out of place, is an error.
func ParseStats(spec RunSpec, stats []byte) (Result, error) {
	var s map[string]uint64
	if err := json.Unmarshal(stats, &s); err != nil {
		return Result{}, fmt.Errorf("sim: stats do not parse: %w", err)
	}
	var r Result
	parseCounters(s, cpuCounters, &r.CPU)
	parseCounters(s, memCounters, &r.Mem)
	res := finishResult(spec.normalize(), r.CPU, r.Mem)
	if res.Spec.Sampling.Enabled() {
		parseCounters(s, sampleCounters, &res.Sample)
	}
	if again, _ := res.StatsJSON(); !bytes.Equal(again, stats) { // a map of integers marshals
		return Result{}, errors.New("sim: stats are not the canonical export of a run of this spec")
	}
	return res, nil
}
