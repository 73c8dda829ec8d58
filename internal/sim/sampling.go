package sim

import (
	"flag"
	"fmt"
	"math"

	"spb/internal/cpu"
)

// SMARTS-style sampled simulation (DESIGN.md §14).
//
// A sampled run covers the spec's full per-core instruction budget, but only
// simulates short measurement intervals in detail. The rest of the stream is
// executed functionally — the functional segments of the run plan (plan.go):
// caches, coherence directory and TLBs stay architecturally warm while
// timing, ROB/MSHR modeling and statistics are skipped. Each sampling
// period of IntervalInsts instructions per core ends with WarmInsts of
// detailed (but unmeasured) simulation that re-warms the timing state the
// functional mode cannot carry — ROB, store buffer, MSHR occupancy — followed
// by DetailedInsts of measured detailed simulation. The per-interval
// measurements are treated as CLT samples: the run reports their mean and a
// 95% confidence half-width for every paper-relevant rate, and the aggregate
// Result counters sum the measured windows only, so IPC() and the Top-Down
// report describe the sampled estimate.
//
// Everything is deterministic: the segment plan is a pure function of the
// spec, so the same spec produces byte-identical canonical stats JSON on
// every run — the property the content-addressed caches require.

// SamplingConfig configures SMARTS-style systematic sampling of a run. The
// zero value disables sampling (every instruction simulates in detail).
type SamplingConfig struct {
	// IntervalInsts is the sampling period: one detailed measurement is
	// taken every IntervalInsts committed instructions per core. 0 disables
	// sampling.
	IntervalInsts uint64
	// DetailedInsts is the length of each measured detailed interval
	// (0 = default 1000).
	DetailedInsts uint64
	// WarmInsts is the detailed-warming prefix simulated (but not measured)
	// immediately before each measured interval, giving the ROB, store
	// buffer and MSHRs time to refill after functional fast-forward
	// (0 = default 2× DetailedInsts).
	WarmInsts uint64
	// HistoryInsts bounds the full functional-warming history
	// (MRRL/BLRL-style): when non-zero, only the last HistoryInsts
	// instructions of the skip preceding each detailed segment warm every
	// level — private caches, TLBs, prefetcher tables.
	// The earlier portion of the skip still replays its memory footprint
	// against the shared LLC and the coherence directory (a cheap
	// touch-only tier): those structures hold history as long as the LLC's
	// capacity — often longer than a whole sampling period — so leaving
	// them stale over a sparse skip makes measured windows hit an LLC full
	// of lines the elided traffic would have evicted. The bound therefore
	// only needs to cover the short-history private state (~the L1/L2/TLB
	// fill time), not the LLC's reuse distance. 0 warms every skipped
	// instruction at every level (exact functional history);
	// TestSampledWithinErrorBound validates the configuration DefaultSampling
	// ships.
	HistoryInsts uint64
}

// DefaultSampling is the validated sampling configuration behind the CLIs'
// -sample shortcut and the sampled benchmarks: an 8k-instruction detailed
// window behind 12k of detailed warming, once per 125k instructions (16%
// detailed coverage, 80 windows at a 10M-instruction horizon). The
// equivalence suite in sampling_test.go pins this exact configuration:
// every paper-relevant metric lands inside its reported 95% CI across the
// SB-bound sweep grid.
var DefaultSampling = SamplingConfig{
	IntervalInsts: 125_000,
	DetailedInsts: 8_000,
	WarmInsts:     12_000,
}

// SamplingFlags registers the CLIs' -sample* flags on fs and returns a getter
// for the configuration they select, valid once fs is parsed: the four
// -sample-* values as given, or DefaultSampling when -sample is set and no
// interval is.
func SamplingFlags(fs *flag.FlagSet) func() SamplingConfig {
	var c SamplingConfig
	sample := fs.Bool("sample", false, "SMARTS sampling at the validated default (125k-inst period, 8k detailed, 12k warm)")
	fs.Uint64Var(&c.IntervalInsts, "sample-interval", 0, "sampling period in instructions per core (overrides -sample's default; 0 = off)")
	fs.Uint64Var(&c.DetailedInsts, "sample-detailed", 0, "detailed-window length per sample (0 = engine default)")
	fs.Uint64Var(&c.WarmInsts, "sample-warm", 0, "detailed warming before each window (0 = engine default)")
	fs.Uint64Var(&c.HistoryInsts, "sample-history", 0, "bound full warming to the last N insts of each skip; the LLC+directory stay warm throughout (0 = full-warm the whole skip)")
	return func() SamplingConfig {
		if *sample && !c.Enabled() {
			return DefaultSampling
		}
		return c
	}
}

// Enabled reports whether sampling is configured.
func (c SamplingConfig) Enabled() bool { return c.IntervalInsts > 0 }

// normalize fills defaulted fields; a disabled config collapses to the zero
// value so that "no sampling" is a single canonical point.
func (c SamplingConfig) normalize() SamplingConfig {
	if c.IntervalInsts == 0 {
		return SamplingConfig{}
	}
	if c.DetailedInsts == 0 {
		c.DetailedInsts = 1000
	}
	if c.WarmInsts == 0 {
		c.WarmInsts = 2 * c.DetailedInsts
	}
	return c
}

// validate rejects configurations whose detailed portion does not fit the
// sampling period.
func (c SamplingConfig) validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.WarmInsts+c.DetailedInsts > c.IntervalInsts {
		return fmt.Errorf("sim: sampling warm+detailed insts (%d+%d) exceed the interval (%d)",
			c.WarmInsts, c.DetailedInsts, c.IntervalInsts)
	}
	return nil
}

// SampleStats is the statistical summary of a sampled run: interval counts
// and, for each paper-relevant rate, the mean and 95% error half-width over
// the per-interval measurements. Every measured rate is per committed
// instruction — intervals commit (nearly) equal instruction counts, so the
// arithmetic mean of per-interval rates is a consistent estimator of the
// full run's Σcount/Σinsts (an arithmetic mean of per-interval IPCs is
// not: slow intervals carry more cycles). IPC is derived from CPI by the
// delta method. Rates travel as integer parts-per-million so they fit the
// integer-valued, byte-deterministic canonical stats set (the same
// convention as td.*).
//
// The CI95 half-widths are conservative total-error bounds, not pure CLT
// sampling intervals: each is the CLT 95% half-width plus a fixed
// sampleBiasGuard fraction of the mean, covering the systematic bias that
// functional warming cannot eliminate (cold prefetcher/MSHR/wrong-path
// state at each detailed segment; see DESIGN.md §14).
type SampleStats struct {
	// Intervals is the number of measured detailed intervals.
	Intervals uint64
	// MeasuredInsts counts committed instructions inside measured windows.
	MeasuredInsts uint64
	// DetailedInsts counts instructions simulated in detail, including the
	// unmeasured per-interval detailed warming.
	DetailedInsts uint64
	// FastForwardInsts counts instructions covered functionally between
	// detailed intervals — warmed, or merely drained past under a bounded
	// warming history (the sampling skips; the shared warmup prefix is
	// accounted separately).
	FastForwardInsts uint64

	// IPC is derived from CPI (mean = 1/cpiMean, CI by the delta method).
	IPCMeanPPM uint64
	IPCCI95PPM uint64
	// CPIMean is cycles per committed instruction (max-across-cores cycles
	// over summed commits, matching the aggregate Result convention).
	CPIMeanPPM uint64
	CPICI95PPM uint64

	SBStallPerInstMeanPPM       uint64
	SBStallPerInstCI95PPM       uint64
	OtherStallPerInstMeanPPM    uint64
	OtherStallPerInstCI95PPM    uint64
	FrontendStallPerInstMeanPPM uint64
	FrontendStallPerInstCI95PPM uint64
	ExecStallL1DPerInstMeanPPM  uint64
	ExecStallL1DPerInstCI95PPM  uint64
	L1MissPerInstMeanPPM        uint64
	L1MissPerInstCI95PPM        uint64
	DRAMPerInstMeanPPM          uint64
	DRAMPerInstCI95PPM          uint64
}

// Sampled metric indices (fixed order: the accumulation order is part of
// byte-determinism).
const (
	smCPI = iota
	smSBStallPI
	smOtherStallPI
	smFrontendStallPI
	smExecL1DPI
	smL1MissPI
	smDRAMPI
	nSampleMetrics
)

// tQuantile975 is the two-sided 95% Student-t quantile for df degrees of
// freedom. Sampled runs often have few intervals (a 2M-instruction horizon
// at the default period gives n=16), where the normal z=1.96 undercovers;
// the t-quantile is the correct small-sample interval and converges to z as
// the interval count grows.
func tQuantile975(df uint64) float64 {
	table := [...]float64{ // df = 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df == 0 {
		return 0
	}
	if df <= uint64(len(table)) {
		return table[df-1]
	}
	// Smooth tail: 2.021 at df=40, 2.000 at df=60, → 1.96.
	return 1.96 + 2.4/float64(df)
}

// sampleBiasGuard is the non-sampling-error allowance added to every
// reported confidence half-width, as a fraction of the metric's mean.
// Functional warming carries caches, directory and TLBs across sampling
// skips, but each detailed segment still restarts with cold prefetcher
// training, empty MSHRs and no wrong-path history; the detailed
// warming prefix shrinks that bias but cannot bound it, so the reported
// interval budgets for it explicitly (validated against full-detail runs by
// TestSampledWithinErrorBound).
const sampleBiasGuard = 0.08

// sampleAccum accumulates per-interval metric samples in a fixed order.
type sampleAccum struct {
	n     uint64
	sum   [nSampleMetrics]float64
	sumsq [nSampleMetrics]float64
}

// add records one measured window's rates, each per committed instruction.
func (a *sampleAccum) add(iv cpu.Stats, ivMem MemStats) {
	com := float64(iv.Committed)
	a.n++
	for i, x := range [nSampleMetrics]float64{
		smCPI:             float64(iv.Cycles) / com,
		smSBStallPI:       float64(iv.SBStallCycles) / com,
		smOtherStallPI:    float64(iv.OtherStallCycles()) / com,
		smFrontendStallPI: float64(iv.FrontendStallCycles) / com,
		smExecL1DPI:       float64(iv.ExecStallL1DPending) / com,
		smL1MissPI:        float64(ivMem.L1Misses) / com,
		smDRAMPI:          float64(ivMem.DRAMReads+ivMem.DRAMWrites) / com,
	} {
		a.sum[i] += x
		a.sumsq[i] += x * x
	}
}

// meanCI returns the sample mean and the error half-width of metric i: the
// 95% CLT half-width (zero below two samples — no variance information)
// plus the systematic-bias guard.
func (a *sampleAccum) meanCI(i int) (mean, ci float64) {
	if a.n == 0 {
		return 0, 0
	}
	n := float64(a.n)
	mean = a.sum[i] / n
	if a.n >= 2 {
		variance := (a.sumsq[i] - n*mean*mean) / (n - 1)
		if variance < 0 {
			variance = 0 // float cancellation guard
		}
		ci = tQuantile975(a.n-1) * math.Sqrt(variance/n)
	}
	return mean, ci + sampleBiasGuard*mean
}

// toPPM converts a non-negative rate to integer parts-per-million,
// round-half-up.
func toPPM(v float64) uint64 {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return uint64(v*1e6 + 0.5)
}

func (a *sampleAccum) finalize(s *SampleStats) {
	set := func(i int, mean, ci *uint64) {
		m, c := a.meanCI(i)
		*mean, *ci = toPPM(m), toPPM(c)
	}
	set(smCPI, &s.CPIMeanPPM, &s.CPICI95PPM)
	set(smSBStallPI, &s.SBStallPerInstMeanPPM, &s.SBStallPerInstCI95PPM)
	set(smOtherStallPI, &s.OtherStallPerInstMeanPPM, &s.OtherStallPerInstCI95PPM)
	set(smFrontendStallPI, &s.FrontendStallPerInstMeanPPM, &s.FrontendStallPerInstCI95PPM)
	set(smExecL1DPI, &s.ExecStallL1DPerInstMeanPPM, &s.ExecStallL1DPerInstCI95PPM)
	set(smL1MissPI, &s.L1MissPerInstMeanPPM, &s.L1MissPerInstCI95PPM)
	set(smDRAMPI, &s.DRAMPerInstMeanPPM, &s.DRAMPerInstCI95PPM)

	// IPC = 1/CPI via the delta method: d(1/x) = dx/x².
	cpi, cpiCI := a.meanCI(smCPI)
	if cpi > 0 {
		s.IPCMeanPPM = toPPM(1 / cpi)
		s.IPCCI95PPM = toPPM(cpiCI / (cpi * cpi))
	}
}
