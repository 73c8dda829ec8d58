package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"spb/internal/bpred"
	"spb/internal/config"
	"spb/internal/cpu"
	"spb/internal/memsys"
	"spb/internal/obs"
	"spb/internal/tlb"
	"spb/internal/trace"
)

// SMARTS-style sampled simulation (DESIGN.md §14).
//
// A sampled run covers the spec's full per-core instruction budget, but only
// simulates short measurement intervals in detail. The rest of the stream is
// executed functionally — the same warm() machinery warm-start uses: caches,
// coherence directory, TLBs and branch predictors stay architecturally warm
// while timing, ROB/MSHR modeling and statistics are skipped. Each sampling
// period of IntervalInsts instructions per core ends with WarmInsts of
// detailed (but unmeasured) simulation that re-warms the timing state the
// functional mode cannot carry — ROB, store buffer, MSHR occupancy — followed
// by DetailedInsts of measured detailed simulation. The per-interval
// measurements are treated as CLT samples: the run reports their mean and a
// 95% confidence half-width for every paper-relevant rate, and the aggregate
// Result counters sum the measured windows only, so IPC() and the Top-Down
// report describe the sampled estimate.
//
// Everything is deterministic: the interval schedule is a pure function of
// the spec, so the same spec produces byte-identical canonical stats JSON on
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
	// level — private caches, TLBs, branch predictor, prefetcher tables.
	// The earlier portion of the skip still replays its memory footprint
	// against the shared LLC and the coherence directory (a cheap
	// touch-only tier): those structures hold history as long as the LLC's
	// capacity — often longer than a whole sampling period — so leaving
	// them stale over a sparse skip makes measured windows hit an LLC full
	// of lines the elided traffic would have evicted. The bound therefore
	// only needs to cover the short-history private state (~the L1/L2/TLB
	// fill time), not the LLC's reuse distance. 0 warms every skipped
	// instruction at every level (exact functional history);
	// scripts/bench_sampled.sh validates the configuration it ships.
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
// Functional warming carries caches, directory, TLBs and branch predictors
// across sampling skips, but each detailed segment still restarts with cold
// prefetcher training, empty MSHRs and no wrong-path history; the detailed
// warming prefix shrinks that bias but cannot bound it, so the reported
// interval budgets for it explicitly (validated against full-detail runs by
// TestSampledWithinErrorBound and scripts/bench_sampled.sh).
const sampleBiasGuard = 0.08

// sampleAccum accumulates per-interval metric samples in a fixed order.
type sampleAccum struct {
	n     uint64
	sum   [nSampleMetrics]float64
	sumsq [nSampleMetrics]float64
}

func (a *sampleAccum) add(v [nSampleMetrics]float64) {
	a.n++
	for i, x := range v {
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

// subCPU returns the fieldwise counter delta b-a of one core's stats.
func subCPU(a, b cpu.Stats) cpu.Stats {
	return cpu.Stats{
		Cycles:              b.Cycles - a.Cycles,
		Committed:           b.Committed - a.Committed,
		Loads:               b.Loads - a.Loads,
		Stores:              b.Stores - a.Stores,
		Branches:            b.Branches - a.Branches,
		Mispredicts:         b.Mispredicts - a.Mispredicts,
		WrongPathInsts:      b.WrongPathInsts - a.WrongPathInsts,
		ForwardedLoads:      b.ForwardedLoads - a.ForwardedLoads,
		PartialForwards:     b.PartialForwards - a.PartialForwards,
		SBStallCycles:       b.SBStallCycles - a.SBStallCycles,
		ROBStallCycles:      b.ROBStallCycles - a.ROBStallCycles,
		IQStallCycles:       b.IQStallCycles - a.IQStallCycles,
		LQStallCycles:       b.LQStallCycles - a.LQStallCycles,
		FrontendStallCycles: b.FrontendStallCycles - a.FrontendStallCycles,
		SBStallApp:          b.SBStallApp - a.SBStallApp,
		SBStallLib:          b.SBStallLib - a.SBStallLib,
		SBStallKernel:       b.SBStallKernel - a.SBStallKernel,
		ExecStallL1DPending: b.ExecStallL1DPending - a.ExecStallL1DPending,
		StoresPerformed:     b.StoresPerformed - a.StoresPerformed,
		SPBBursts:           b.SPBBursts - a.SPBBursts,
	}
}

// addCPU adds a per-interval aggregate delta into dst. Cycles add too: the
// run total is the sum of per-interval (max-across-cores) cycle spans.
func addCPU(dst *cpu.Stats, d cpu.Stats) {
	dst.Cycles += d.Cycles
	dst.Committed += d.Committed
	dst.Loads += d.Loads
	dst.Stores += d.Stores
	dst.Branches += d.Branches
	dst.Mispredicts += d.Mispredicts
	dst.WrongPathInsts += d.WrongPathInsts
	dst.ForwardedLoads += d.ForwardedLoads
	dst.PartialForwards += d.PartialForwards
	dst.SBStallCycles += d.SBStallCycles
	dst.ROBStallCycles += d.ROBStallCycles
	dst.IQStallCycles += d.IQStallCycles
	dst.LQStallCycles += d.LQStallCycles
	dst.FrontendStallCycles += d.FrontendStallCycles
	dst.SBStallApp += d.SBStallApp
	dst.SBStallLib += d.SBStallLib
	dst.SBStallKernel += d.SBStallKernel
	dst.ExecStallL1DPending += d.ExecStallL1DPending
	dst.StoresPerformed += d.StoresPerformed
	dst.SPBBursts += d.SPBBursts
}

// subMem returns the fieldwise counter delta b-a.
func subMem(a, b MemStats) MemStats {
	return MemStats{
		L1TagAccesses:  b.L1TagAccesses - a.L1TagAccesses,
		L1Hits:         b.L1Hits - a.L1Hits,
		L1Misses:       b.L1Misses - a.L1Misses,
		L2Accesses:     b.L2Accesses - a.L2Accesses,
		L3Accesses:     b.L3Accesses - a.L3Accesses,
		DRAMReads:      b.DRAMReads - a.DRAMReads,
		DRAMWrites:     b.DRAMWrites - a.DRAMWrites,
		Loads:          b.Loads - a.Loads,
		Stores:         b.Stores - a.Stores,
		LoadMisses:     b.LoadMisses - a.LoadMisses,
		StoreMisses:    b.StoreMisses - a.StoreMisses,
		WrongPathLoads: b.WrongPathLoads - a.WrongPathLoads,
		SPFIssued:      b.SPFIssued - a.SPFIssued,
		SPFDiscarded:   b.SPFDiscarded - a.SPFDiscarded,
		SPFMissToL2:    b.SPFMissToL2 - a.SPFMissToL2,
		SPFSuccessful:  b.SPFSuccessful - a.SPFSuccessful,
		SPFLate:        b.SPFLate - a.SPFLate,
		SPFEarly:       b.SPFEarly - a.SPFEarly,
		SPFBurst:       b.SPFBurst - a.SPFBurst,
		GPFIssued:      b.GPFIssued - a.GPFIssued,
		GPFUsed:        b.GPFUsed - a.GPFUsed,
		GPFLate:        b.GPFLate - a.GPFLate,
		GPFPolluted:    b.GPFPolluted - a.GPFPolluted,
		Invalidations:  b.Invalidations - a.Invalidations,
		Writebacks:     b.Writebacks - a.Writebacks,
	}
}

func addMem(dst *MemStats, d MemStats) {
	dst.L1TagAccesses += d.L1TagAccesses
	dst.L1Hits += d.L1Hits
	dst.L1Misses += d.L1Misses
	dst.L2Accesses += d.L2Accesses
	dst.L3Accesses += d.L3Accesses
	dst.DRAMReads += d.DRAMReads
	dst.DRAMWrites += d.DRAMWrites
	dst.Loads += d.Loads
	dst.Stores += d.Stores
	dst.LoadMisses += d.LoadMisses
	dst.StoreMisses += d.StoreMisses
	dst.WrongPathLoads += d.WrongPathLoads
	dst.SPFIssued += d.SPFIssued
	dst.SPFDiscarded += d.SPFDiscarded
	dst.SPFMissToL2 += d.SPFMissToL2
	dst.SPFSuccessful += d.SPFSuccessful
	dst.SPFLate += d.SPFLate
	dst.SPFEarly += d.SPFEarly
	dst.SPFBurst += d.SPFBurst
	dst.GPFIssued += d.GPFIssued
	dst.GPFUsed += d.GPFUsed
	dst.GPFLate += d.GPFLate
	dst.GPFPolluted += d.GPFPolluted
	dst.Invalidations += d.Invalidations
	dst.Writebacks += d.Writebacks
}

// buildFunctionalState constructs the persistent functional-mode state of a
// sampled run: one data TLB per core and (when modelled) one branch
// predictor, matching the geometry the cores will be built with.
func buildFunctionalState(machine config.MachineConfig, spec RunSpec) (dtlbs []*tlb.TLB, bps []*bpred.Predictor) {
	dtlbs = make([]*tlb.TLB, spec.Cores)
	bps = make([]*bpred.Predictor, spec.Cores)
	for i := range dtlbs {
		dtlbs[i] = tlb.New(tlb.Config{
			Entries: machine.TLB.Entries,
			Ways:    machine.TLB.Ways,
			WalkLat: machine.TLB.WalkLat,
		})
		if spec.ModelBranchPredictor {
			bps[i] = bpred.New(bpred.TableI())
		}
	}
	return dtlbs, bps
}

// runSampled executes a sampled simulation on an already-built (and possibly
// warm-start-restored) machine. It owns sys, dtlbs and bps: all are released
// before returning. warmupFF is the number of instructions the shared warmup
// prefix fast-forwarded (reported in Progress.FastForwardInsts but not
// counted in SampleStats.FastForwardInsts). ck, when active, checkpoints the
// run at sampling-window edges (the quiescent top of the window loop); rs,
// when non-nil, is a loaded checkpoint's scheduler state and the machine
// passed in must already be restored to it (resumeSampled does both).
func runSampled(ctx context.Context, tr *obs.Trace, spec RunSpec, machine config.MachineConfig,
	sys *memsys.System, readers []trace.Reader, dtlbs []*tlb.TLB, bps []*bpred.Predictor,
	warmupFF uint64, onProgress func(Progress), ck *runCkpt, rs *sampledCkpt) (Result, error) {

	loopSpan := tr.StartSpan("run.sim")
	start := time.Now()
	cfg := spec.Sampling
	nCores := uint64(spec.Cores)
	release := func() {
		for i := range dtlbs {
			dtlbs[i].Release()
			if bps[i] != nil {
				bps[i].Release()
			}
		}
		sys.Release()
	}

	var (
		aggCPU        cpu.Stats
		aggMem        MemStats
		acc           sampleAccum
		ffInsts       uint64 // functional insts executed by the scheduler
		detailedInsts uint64 // detail-simulated insts (incl. detailed warming)
		measuredInsts uint64 // committed insts inside measured windows
	)
	if rs != nil {
		aggCPU = rs.AggCPU
		aggMem = rs.AggMem
		acc = sampleAccum{n: rs.AccN, sum: rs.AccSum, sumsq: rs.AccSumsq}
		ffInsts = rs.FFInsts
		detailedInsts = rs.DetailedInsts
		measuredInsts = rs.MeasuredInsts
	}
	target := spec.Insts * nCores
	report := func(segCommitted uint64) {
		p := Progress{
			// Committed counts detail-simulated instructions only; the
			// functional skips ride in FastForwardInsts so they cannot
			// inflate the detailed-simulation rate.
			Committed:        detailedInsts + segCommitted,
			TargetInsts:      target,
			FastForwardInsts: warmupFF + ffInsts,
		}
		if el := time.Since(start).Seconds(); el > 0 {
			p.InstsPerSec = float64(p.Committed) / el
		}
		// Cycles: measured spans so far (the sampled estimate's timeline).
		p.Cycles = aggCPU.Cycles
		onProgress(p)
	}

	remaining := spec.Insts
	// pendingSkip accumulates the functional skip separating detailed
	// segments — the trailing portion of one interval plus the leading
	// portion of the next — so the warming-history bound applies to the
	// contiguous distance to the upcoming measurement, not to each jittered
	// half separately. It is flushed immediately before each detailed
	// segment: everything beyond the bound drains (stream advance only), the
	// last HistoryInsts instructions warm the architectural state the
	// measurement will see.
	pendingSkip := uint64(0)
	flushSkip := func() error {
		n := pendingSkip
		if n == 0 {
			return nil
		}
		pendingSkip = 0
		w := n
		if h := cfg.HistoryInsts; h > 0 && w > h {
			if err := drainLLC(ctx, sys, readers, w-h); err != nil {
				return err
			}
			w = h
		}
		if err := warm(ctx, sys, dtlbs, bps, readers, w, true); err != nil {
			return err
		}
		ffInsts += n * nCores
		if onProgress != nil {
			report(0)
		}
		return nil
	}
	// Random-start sampling: each interval's detailed segment is placed at a
	// pseudo-random offset within the sampling period instead of a fixed
	// position, so the schedule cannot alias with a workload's phase
	// structure (a fixed placement systematically misses bursts whose period
	// divides the sampling period). The xorshift sequence depends only on
	// the spec seed: same spec, same schedule, byte-identical output.
	jitter := spec.Seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	if rs != nil {
		jitter = rs.Jitter
	}
	// cycleBase carries the clock across detailed segments: the memory
	// system is persistent and stamps its state with absolute cycles, so
	// each segment's cores continue where the previous segment's clock
	// stopped (cpu.Options.StartCycle). Functional skips advance no cycles —
	// anything the last segment left in flight is simply ready when the next
	// one begins, which is exactly what the elided gap would have done.
	cycleBase := uint64(0)
	if rs != nil {
		remaining = rs.Remaining
		pendingSkip = rs.PendingSkip
		cycleBase = rs.CycleBase
	}
	for remaining > 0 {
		if ck.active() {
			// Checkpoint at the quiescent top of the window loop — no cores
			// exist here, so the persistent functional state (memory system,
			// prefetchers, TLBs, predictors) plus the scheduler locals are the
			// entire machine. Boundaries are per-core stream progress crossing
			// the cadence, i.e. sampling-window edges.
			progress := spec.Insts - remaining
			if progress >= ck.nextCkpt {
				for ck.nextCkpt <= progress {
					ck.nextCkpt += ck.step
				}
				st := &sampledCkpt{
					Remaining:     remaining,
					PendingSkip:   pendingSkip,
					Jitter:        jitter,
					CycleBase:     cycleBase,
					FFInsts:       ffInsts,
					DetailedInsts: detailedInsts,
					MeasuredInsts: measuredInsts,
					AggCPU:        aggCPU,
					AggMem:        aggMem,
					AccN:          acc.n,
					AccSum:        acc.sum,
					AccSumsq:      acc.sumsq,
					Consumed:      spec.WarmupInsts + progress - pendingSkip,
					Sys:           sys.Snapshot(),
					PF:            sys.PrefetcherStates(),
					DTLBs:         make([]*tlb.Snapshot, len(dtlbs)),
					BPs:           make([]bpWire, len(bps)),
				}
				for i := range dtlbs {
					st.DTLBs[i] = dtlbs[i].Snapshot()
					if bps[i] != nil {
						st.BPs[i] = bpWire{BP: bps[i].Snapshot()}
					}
				}
				cf := &ckptFile{Spec: spec, WarmupFF: warmupFF, NextCkpt: ck.nextCkpt, Sampled: st}
				if err := ck.c.save(cf); err != nil {
					release()
					return Result{}, err
				}
			}
		}
		span := min(cfg.IntervalInsts, remaining)
		remaining -= span
		dk := min(cfg.DetailedInsts, span)
		wk := min(cfg.WarmInsts, span-dk)
		ff := span - wk - dk
		ffBefore, ffAfter := uint64(0), uint64(0)
		if ff > 0 {
			jitter ^= jitter << 13
			jitter ^= jitter >> 7
			jitter ^= jitter << 17
			ffBefore = jitter % (ff + 1)
			ffAfter = ff - ffBefore
		}

		pendingSkip += ffBefore
		if err := flushSkip(); err != nil {
			release()
			return Result{}, err
		}

		// Detailed segment: fresh cores on the persistent memory system,
		// with the functional TLB/predictor state carried in. Measurement
		// starts once a core has committed wk instructions and stops at
		// wk+dk; the segment still runs to completion (the store buffer
		// drains into the caches) so the functional stream resumes from a
		// consistent architectural state.
		segSpec := spec
		segSpec.Insts = wk + dk
		cores, _ := buildCores(segSpec, machine, sys, readers, cycleBase)
		for i, c := range cores {
			c.DTLB().Restore(dtlbs[i].Snapshot())
			if bp := c.BranchPredictor(); bp != nil {
				bp.Restore(bps[i].Snapshot())
			}
		}

		var (
			startCPU   = make([]cpu.Stats, len(cores))
			endCPU     = make([]cpu.Stats, len(cores))
			started    = make([]bool, len(cores))
			ended      = make([]bool, len(cores))
			nStarted   = 0
			nEnded     = 0
			memStart   MemStats
			memEnd     MemStats
			haveMemEnd bool
		)
		// Crossing capture runs on the state a step leaves behind (and once
		// before the first, for a window that opens at zero); a core crosses
		// a threshold by committing, in a tick, so no crossing is slept over.
		capture := func() {
			for i, c := range cores {
				if !started[i] && c.St.Committed >= wk {
					started[i] = true
					startCPU[i] = c.St
					nStarted++
					if nStarted == len(cores) {
						memStart = collectMem(spec.Cores, sys)
					}
				}
				if started[i] && !ended[i] && c.St.Committed >= wk+dk {
					ended[i] = true
					endCPU[i] = c.St
					nEnded++
					if nEnded == len(cores) {
						memEnd = collectMem(spec.Cores, sys)
						haveMemEnd = true
					}
				}
			}
		}
		capture()
		err := cpu.Lockstep(ctx, cores, segSpec.Insts*1000*nCores+1_000_000, func(steps uint64) (bool, error) {
			capture()
			if onProgress != nil && steps%progressEvery == 0 {
				segC := uint64(0)
				for _, c := range cores {
					segC += c.St.Committed
				}
				report(segC)
			}
			return false, nil
		})
		if err != nil {
			for _, c := range cores {
				c.Release()
			}
			release()
			return Result{}, stepError(ctx, spec, err)
		}
		// A reader that ran dry leaves its core short of the thresholds;
		// close its window at the final state.
		for i, c := range cores {
			if !started[i] {
				started[i] = true
				startCPU[i] = c.St
				nStarted++
				if nStarted == len(cores) {
					memStart = collectMem(spec.Cores, sys)
				}
			}
			if !ended[i] {
				ended[i] = true
				endCPU[i] = c.St
				nEnded++
			}
		}
		if !haveMemEnd {
			memEnd = collectMem(spec.Cores, sys)
		}

		// Carry the functional state forward and retire the segment cores.
		for i, c := range cores {
			if cyc := c.Cycle(); cyc > cycleBase {
				cycleBase = cyc
			}
			dtlbs[i].Restore(c.DTLB().Snapshot())
			if bp := c.BranchPredictor(); bp != nil {
				bps[i].Restore(bp.Snapshot())
			}
			c.Release()
		}

		// Fold the measured window into the run aggregate and record the
		// interval's rate samples.
		var ivCPU cpu.Stats
		for i := range cores {
			d := subCPU(startCPU[i], endCPU[i])
			cyc := d.Cycles
			d.Cycles = 0
			addCPU(&ivCPU, d)
			if cyc > ivCPU.Cycles {
				ivCPU.Cycles = cyc
			}
		}
		ivMem := subMem(memStart, memEnd)
		addCPU(&aggCPU, ivCPU)
		addMem(&aggMem, ivMem)
		detailedInsts += (wk + dk) * nCores
		measuredInsts += ivCPU.Committed

		if ivCPU.Cycles > 0 && ivCPU.Committed > 0 {
			com := float64(ivCPU.Committed)
			acc.add([nSampleMetrics]float64{
				smCPI:             float64(ivCPU.Cycles) / com,
				smSBStallPI:       float64(ivCPU.SBStallCycles) / com,
				smOtherStallPI:    float64(ivCPU.OtherStallCycles()) / com,
				smFrontendStallPI: float64(ivCPU.FrontendStallCycles) / com,
				smExecL1DPI:       float64(ivCPU.ExecStallL1DPending) / com,
				smL1MissPI:        float64(ivMem.L1Misses) / com,
				smDRAMPI:          float64(ivMem.DRAMReads+ivMem.DRAMWrites) / com,
			})
		}

		// The rest of the sampling period joins the next interval's leading
		// skip and is flushed before the next detailed segment.
		pendingSkip += ffAfter
	}
	// Trailing skip after the last detailed segment: nothing is measured
	// beyond it, so the stream only drains.
	if pendingSkip > 0 {
		if err := drain(ctx, readers, pendingSkip); err != nil {
			release()
			return Result{}, err
		}
		ffInsts += pendingSkip * nCores
	}
	if onProgress != nil {
		report(0)
	}
	loopSpan.End()

	collectSpan := tr.StartSpan("run.collect")
	res := finishResult(spec, aggCPU, aggMem)
	res.Sample = SampleStats{
		Intervals:        acc.n,
		MeasuredInsts:    measuredInsts,
		DetailedInsts:    detailedInsts,
		FastForwardInsts: ffInsts,
	}
	acc.finalize(&res.Sample)
	release()
	collectSpan.End()
	return res, nil
}
