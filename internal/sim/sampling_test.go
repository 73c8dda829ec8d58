package sim

import (
	"bytes"
	"context"
	"flag"
	"reflect"
	"testing"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/cpu"
	"spb/internal/mem"
	"spb/internal/memsys"
	"spb/internal/tlb"
	"spb/internal/trace"
	"spb/internal/workloads"
)

// testSampling is the reference sampling configuration of the suite: the
// shipped default, so the equivalence grid validates exactly what the CLIs'
// -sample shortcut runs.
var testSampling = DefaultSampling

func TestSamplingNormalizeAndValidate(t *testing.T) {
	if (SamplingConfig{}).Enabled() {
		t.Fatal("zero SamplingConfig must be disabled")
	}
	n := SamplingConfig{IntervalInsts: 100_000}.normalize()
	if n.DetailedInsts != 1000 || n.WarmInsts != 2000 {
		t.Fatalf("defaults: got %+v, want detailed=1000 warm=2000", n)
	}
	// A disabled config normalizes to the zero value no matter what the
	// dormant fields held, so "no sampling" is one canonical cache point.
	if got := (SamplingConfig{DetailedInsts: 5, WarmInsts: 7}).normalize(); got != (SamplingConfig{}) {
		t.Fatalf("disabled config must normalize to zero, got %+v", got)
	}
	bad := RunSpec{Workload: "bwaves", SQSize: 14,
		Sampling: SamplingConfig{IntervalInsts: 1000, DetailedInsts: 800, WarmInsts: 800}}
	if _, err := Run(bad); err == nil {
		t.Fatal("warm+detailed > interval must be rejected")
	}
}

// TestSampledDeterminism pins the byte-determinism the content-addressed
// caches require: the same sampled spec produces byte-identical canonical
// stats JSON on every execution, including the sample.* fields, and a
// full-detail run's JSON stays free of sample.* keys (byte-identical to
// pre-sampling builds).
func TestSampledDeterminism(t *testing.T) {
	spec := RunSpec{
		Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14,
		Prefetcher: config.PrefetchStream,
		Insts:      400_000, WarmupInsts: 20_000,
		Sampling: SamplingConfig{IntervalInsts: 50_000, DetailedInsts: 4000, WarmInsts: 6000},
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("sampled stats JSON not deterministic:\n1st: %s\n2nd: %s", ja, jb)
	}
	if a.Sample.Intervals == 0 || a.Sample.IPCMeanPPM == 0 {
		t.Fatalf("sampled run produced no samples: %+v", a.Sample)
	}
	if !bytes.Contains(ja, []byte(`"sample.ipcMeanPPM"`)) {
		t.Fatalf("sample.* counters missing from stats JSON: %s", ja)
	}

	fullSpec := spec
	fullSpec.Sampling = SamplingConfig{}
	full, err := Run(fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := full.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(jf, []byte(`"sample.`)) {
		t.Fatalf("full-detail run leaked sample.* counters: %s", jf)
	}
}

// sampledCheck is one paper-relevant metric of the error-bound suite: the
// full-detail run's rate and the sampled run's mean ± reported error bound.
type sampledCheck struct {
	name     string
	fullPPM  uint64
	mean, ci uint64
}

// sampledChecks derives, for every paper-relevant metric, the full-detail
// run's per-instruction rate (in PPM) and the sampled estimate it must cover.
func sampledChecks(full Result, s SampleStats) []sampledCheck {
	com := float64(full.CPU.Committed)
	return []sampledCheck{
		{"ipc", toPPM(com / float64(full.CPU.Cycles)), s.IPCMeanPPM, s.IPCCI95PPM},
		{"cpi", toPPM(float64(full.CPU.Cycles) / com), s.CPIMeanPPM, s.CPICI95PPM},
		{"sbStallPerInst", toPPM(float64(full.CPU.SBStallCycles) / com), s.SBStallPerInstMeanPPM, s.SBStallPerInstCI95PPM},
		{"otherStallPerInst", toPPM(float64(full.CPU.OtherStallCycles()) / com), s.OtherStallPerInstMeanPPM, s.OtherStallPerInstCI95PPM},
		{"frontendStallPerInst", toPPM(float64(full.CPU.FrontendStallCycles) / com), s.FrontendStallPerInstMeanPPM, s.FrontendStallPerInstCI95PPM},
		{"execStallL1DPerInst", toPPM(float64(full.CPU.ExecStallL1DPending) / com), s.ExecStallL1DPerInstMeanPPM, s.ExecStallL1DPerInstCI95PPM},
		{"l1MissPerInst", toPPM(float64(full.Mem.L1Misses) / com), s.L1MissPerInstMeanPPM, s.L1MissPerInstCI95PPM},
		{"dramPerInst", toPPM(float64(full.Mem.DRAMReads+full.Mem.DRAMWrites) / com), s.DRAMPerInstMeanPPM, s.DRAMPerInstCI95PPM},
	}
}

// ciSlackPPM absorbs quantization and residual-transient effects on metrics
// whose absolute magnitude is tiny (under ~0.1% of an instruction): a rate
// of a few hundred PPM has a guard-scaled interval of a few dozen PPM while
// compulsory-miss tails contribute comparable absolute noise at short
// horizons. 1000 PPM is 0.1 percentage points of absolute slack.
const ciSlackPPM = 1000

// TestSampledWithinErrorBound is the tentpole accuracy gate: across a Fig. 5
// (quick)-shaped grid — every SB-bound SPEC workload × small/large SB ×
// at-commit/SPB — every paper-relevant metric of a sampled run lands inside
// the run's own reported 95% error bound versus the full-detail run of the
// same spec. Both sides share a functional warmup prefix, like real sweeps
// do: without it a 2M-instruction horizon is dominated by the cold-start
// transient that sampling's documented soundness envelope excludes
// (DESIGN.md §14).
func TestSampledWithinErrorBound(t *testing.T) {
	const insts = 2_000_000
	var specs []RunSpec
	for _, w := range workloads.SBBoundSPEC() {
		for _, sq := range []int{14, 56} {
			for _, p := range []core.Policy{core.PolicyAtCommit, core.PolicySPB} {
				specs = append(specs, RunSpec{
					Workload: w.Name, Policy: p, SQSize: sq,
					Prefetcher: config.PrefetchStream, Insts: insts,
					WarmupInsts: 500_000,
				})
			}
		}
	}
	runner := NewRunner()
	fulls, err := runner.GetAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	sampledSpecs := make([]RunSpec, len(specs))
	for i, s := range specs {
		s.Sampling = testSampling
		sampledSpecs[i] = s
	}
	sampled, err := runner.GetAll(sampledSpecs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if sampled[i].Sample.Intervals == 0 {
			t.Errorf("%s/%v/SB%d: no measured intervals", specs[i].Workload, specs[i].Policy, specs[i].SQSize)
			continue
		}
		for _, c := range sampledChecks(fulls[i], sampled[i].Sample) {
			diff := int64(c.fullPPM) - int64(c.mean)
			if diff < 0 {
				diff = -diff
			}
			if uint64(diff) > c.ci+ciSlackPPM {
				t.Errorf("%s/%v/SB%d: %s: full=%d PPM, sampled=%d±%d PPM (off by %d)",
					specs[i].Workload, specs[i].Policy, specs[i].SQSize,
					c.name, c.fullPPM, c.mean, c.ci, diff)
			}
		}
	}
}

// TestSampledWarmStartEquivalence proves a sampled run is byte-identical
// whether a Runner started it from a warm-start snapshot or Run executed its
// shared warmup prefix in place — the invariant that lets sampled sweeps ride
// the warm-start groups (DESIGN.md §12) unchanged.
func TestSampledWarmStartEquivalence(t *testing.T) {
	mk := func(w string, p core.Policy, cores int) RunSpec {
		return RunSpec{
			Workload: w, Policy: p, SQSize: 14, Cores: cores,
			Prefetcher: config.PrefetchStream,
			Insts:      200_000, WarmupInsts: 30_000,
			Sampling: SamplingConfig{IntervalInsts: 40_000, DetailedInsts: 3000, WarmInsts: 5000},
		}
	}
	specs := []RunSpec{
		mk("bwaves", core.PolicySPB, 1),
		mk("mcf", core.PolicyAtCommit, 1),
		mk("dedup", core.PolicySPB, 2),
	}
	for _, spec := range specs {
		on := NewRunner()
		a, err := on.Get(spec)
		if err != nil {
			t.Fatalf("%s/%v (fork): %v", spec.Workload, spec.Policy, err)
		}
		b, err := Run(spec)
		if err != nil {
			t.Fatalf("%s/%v (in-place): %v", spec.Workload, spec.Policy, err)
		}
		ja, _ := a.StatsJSON()
		jb, _ := b.StatsJSON()
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s/%v: sampled stats diverge between warm-start fork and in-place\nfork:     %s\nin-place: %s",
				spec.Workload, spec.Policy, ja, jb)
		}
		if !reflect.DeepEqual(a.Sample, b.Sample) {
			t.Errorf("%s/%v: SampleStats diverge:\nfork:     %+v\nin-place: %+v",
				spec.Workload, spec.Policy, a.Sample, b.Sample)
		}
		if st := on.SimStats(); st.WarmForks != 1 || st.SampledRuns != 1 {
			t.Errorf("%s/%v: fork accounting: %+v", spec.Workload, spec.Policy, st)
		}
	}
}

// TestSampledRunnerAccounting pins the instruction bookkeeping of a sampled
// run and the runner's sampling counters.
func TestSampledRunnerAccounting(t *testing.T) {
	spec := RunSpec{
		Workload: "bwaves", Policy: core.PolicyAtCommit, SQSize: 14,
		Insts:    500_000,
		Sampling: SamplingConfig{IntervalInsts: 100_000, DetailedInsts: 5000, WarmInsts: 10_000},
	}
	r := NewRunner()
	res, err := r.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sample
	if s.Intervals != 5 {
		t.Errorf("Intervals = %d, want 5", s.Intervals)
	}
	if want := uint64(5 * 15_000); s.DetailedInsts != want {
		t.Errorf("DetailedInsts = %d, want %d", s.DetailedInsts, want)
	}
	if want := uint64(5 * 85_000); s.FastForwardInsts != want {
		t.Errorf("FastForwardInsts = %d, want %d", s.FastForwardInsts, want)
	}
	// The measured window opens at the first commit at or past WarmInsts —
	// up to a commit-width late — and closes exactly at the segment budget,
	// so each interval measures within a commit width of DetailedInsts.
	if lo, hi := uint64(5*(5000-8)), uint64(5*5000); s.MeasuredInsts < lo || s.MeasuredInsts > hi {
		t.Errorf("MeasuredInsts = %d, want within [%d, %d]", s.MeasuredInsts, lo, hi)
	}
	st := r.SimStats()
	if st.SampledRuns != 1 || st.SampleIntervals != 5 {
		t.Errorf("runner sampling stats: %+v", st)
	}
	if st.SampleInstsSkipped != s.FastForwardInsts {
		t.Errorf("SampleInstsSkipped = %d, want %d", st.SampleInstsSkipped, s.FastForwardInsts)
	}
	if st.InstsSimulated != s.DetailedInsts+s.FastForwardInsts {
		t.Errorf("InstsSimulated = %d, want %d", st.InstsSimulated, s.DetailedInsts+s.FastForwardInsts)
	}
}

// TestProgressFastForwardAccounting is the Progress regression test: the
// warmup prefix and the sampling skips report through FastForwardInsts, and
// Committed (the numerator of InstsPerSec) counts only detail-simulated
// instructions — fast-forwarding must not inflate the detailed rate.
func TestProgressFastForwardAccounting(t *testing.T) {
	var last Progress
	spec := RunSpec{
		Workload: "bwaves", Policy: core.PolicyAtCommit, SQSize: 14,
		Insts: 60_000, WarmupInsts: 40_000,
	}
	if _, err := RunCtx(context.Background(), spec, func(p Progress) { last = p }); err != nil {
		t.Fatal(err)
	}
	if last.FastForwardInsts != 40_000 {
		t.Errorf("full-detail run: FastForwardInsts = %d, want warmup 40000", last.FastForwardInsts)
	}
	if last.Committed != 60_000 {
		t.Errorf("full-detail run: Committed = %d, want 60000 (warmup must not inflate it)", last.Committed)
	}

	spec.Sampling = SamplingConfig{IntervalInsts: 20_000, DetailedInsts: 2000, WarmInsts: 3000}
	var sampledLast Progress
	res, err := RunCtx(context.Background(), spec, func(p Progress) { sampledLast = p })
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(40_000) + res.Sample.FastForwardInsts; sampledLast.FastForwardInsts != want {
		t.Errorf("sampled run: FastForwardInsts = %d, want warmup+skips = %d", sampledLast.FastForwardInsts, want)
	}
	if sampledLast.Committed != res.Sample.DetailedInsts {
		t.Errorf("sampled run: Committed = %d, want detailed insts %d", sampledLast.Committed, res.Sample.DetailedInsts)
	}
	if sampledLast.TargetInsts != 60_000 {
		t.Errorf("sampled run: TargetInsts = %d, want 60000", sampledLast.TargetInsts)
	}
}

// TestSampledCostEstimate pins the scheduler-facing cost model: a sampled run
// ranks by the work it will actually simulate — well below its full-detail
// twin (what LPT ordering, batch scheduling and pool hedging key on) — while
// still scaling with the horizon.
func TestSampledCostEstimate(t *testing.T) {
	full := RunSpec{Workload: "bwaves", SQSize: 14, Insts: 100_000_000}
	smp := full
	smp.Sampling = testSampling
	cf, cs := full.CostEstimate(), smp.CostEstimate()
	if cs*2 > cf {
		t.Errorf("sampled cost %d not well below full cost %d", cs, cf)
	}
	longer := smp
	longer.Insts *= 2
	if longer.CostEstimate() <= cs {
		t.Error("sampled cost must grow with the instruction budget")
	}
	// A sampled run's warmup is its group's work, like a full-detail run's.
	warm := smp
	warm.WarmupInsts = 50_000_000
	if warm.CostEstimate() != cs {
		t.Error("the shared warmup prefix must not count towards a sampled point's cost")
	}
}

// TestSampledCancellation: a cancelled context stops a sampled run promptly
// with the context's error.
func TestSampledCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := RunSpec{
		Workload: "bwaves", SQSize: 14, Insts: 10_000_000,
		Sampling: testSampling,
	}
	if _, err := RunCtx(ctx, spec, nil); err != context.Canceled {
		t.Fatalf("cancelled sampled run returned %v, want context.Canceled", err)
	}
}

// buildEquivProgram compiles a branch-free workload over a footprint small
// enough to avoid capacity evictions: functional execution and detailed
// simulation then must leave identical cache-tag/coherence state, which is
// what FuzzFunctionalEquivalence asserts.
func buildEquivProgram(seed uint64, opmask uint8) *trace.Program {
	rng := trace.NewRNG(seed)
	bufA := trace.NewMemRegion(0x10000, 8<<10)
	bufB := trace.NewMemRegion(0x40000, 8<<10)
	var leaves []trace.Leaf
	if opmask&1 != 0 {
		leaves = append(leaves, trace.Leaf{Op: trace.OpMemset, Dst: bufA, Bytes: 1024, Size: 8, PC: 0x100})
	}
	if opmask&2 != 0 {
		leaves = append(leaves, trace.Leaf{Op: trace.OpStridedLoads, Dst: bufB, Count: 64, Stride: 64, PC: 0x200})
	}
	if opmask&4 != 0 {
		leaves = append(leaves, trace.Leaf{Op: trace.OpRMW, Dst: bufA, Bytes: 512, PC: 0x300})
	}
	if opmask&8 != 0 {
		leaves = append(leaves, trace.Leaf{Op: trace.OpScatterStores, Dst: bufB, Count: 32, PC: 0x400})
	}
	if len(leaves) == 0 {
		leaves = append(leaves, trace.Leaf{Op: trace.OpMemcpy, Src: bufA, Dst: bufB, Bytes: 1024, PC: 0x500})
	}
	return trace.NewProgram(rng, trace.Phase{Weight: 1, Leaves: leaves})
}

// funcEquivBlocks enumerates the footprint blocks of the equivalence
// programs.
func funcEquivBlocks() []mem.Block {
	var blocks []mem.Block
	for a := mem.Addr(0x10000); a < 0x10000+(8<<10); a += 64 {
		blocks = append(blocks, mem.BlockOf(a))
	}
	for a := mem.Addr(0x40000); a < 0x40000+(8<<10); a += 64 {
		blocks = append(blocks, mem.BlockOf(a))
	}
	return blocks
}

// cacheView reduces a cache to the architectural projection functional mode
// maintains: per footprint block, presence and coherence state. Timing
// fields and replacement order legitimately differ between the two modes.
func cacheView(c *cache.Cache, blocks []mem.Block) map[mem.Block]cache.State {
	v := make(map[mem.Block]cache.State)
	for _, b := range blocks {
		if l := c.Peek(b); l != nil {
			v[b] = l.State
		}
	}
	return v
}

// FuzzFunctionalEquivalence cross-validates the fast functional-execution
// mode against the detailed core — the sampled scheduler trusts the former
// to stand in for the latter between measurement intervals. For a
// branch-free, eviction-free program (no wrong-path fetch, no generic
// prefetcher, footprint within L1), the architectural state after N
// instructions must be identical in both modes: which blocks are resident
// at each cache level and in what coherence state, and where the
// instruction-stream cursor stopped.
func FuzzFunctionalEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(3000), uint8(3))
	f.Add(uint64(7), uint16(5000), uint8(15))
	f.Add(uint64(3), uint16(2000), uint8(0))
	f.Add(uint64(9), uint16(4000), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, opmask uint8) {
		insts := uint64(n%6000) + 500
		cfg := config.Skylake().WithSQ(14).WithPrefetcher(config.PrefetchNone)
		blocks := funcEquivBlocks()

		// Detailed: a full core pipeline simulates the program, then drains.
		progD := buildEquivProgram(seed%16+1, opmask)
		sysD := memsys.New(cfg, 1)
		coreD := cpu.New(cfg.Core, core.PolicyAtCommit, cfg.SPB, sysD.Port(0), trace.Limit(insts, progD), 1)
		for !coreD.Done() {
			coreD.Tick()
		}

		// Functional: the warm segment every plan covers its gaps with.
		progF := buildEquivProgram(seed%16+1, opmask)
		sysF := memsys.New(cfg, 1)
		dtlb := tlb.New(cfg.TLB)
		fm := &machine{sys: sysF, dtlbs: []*tlb.TLB{dtlb}, progs: []*trace.Program{progF}}
		if err := fm.functional(context.Background(), segment{kind: segWarm, n: insts}); err != nil {
			t.Fatal(err)
		}

		for _, lvl := range []struct {
			name string
			d, f *cache.Cache
		}{
			{"L1", sysD.Port(0).L1(), sysF.Port(0).L1()},
			{"L2", sysD.Port(0).L2(), sysF.Port(0).L2()},
			{"L3", sysD.L3(), sysF.L3()},
		} {
			vd := cacheView(lvl.d, blocks)
			vf := cacheView(lvl.f, blocks)
			if !reflect.DeepEqual(vd, vf) {
				t.Errorf("seed=%d insts=%d mask=%d: %s architectural state diverges\ndetailed:   %v\nfunctional: %v",
					seed, insts, opmask, lvl.name, vd, vf)
			}
		}

		// Both modes must leave the stream cursor at the same instruction.
		var a, b trace.Inst
		okD, okF := progD.Next(&a), progF.Next(&b)
		if okD != okF || a != b {
			t.Errorf("stream cursors diverge after %d insts: detailed next=%+v functional next=%+v", insts, a, b)
		}
	})
}

// TestSamplingFlags: the one declaration of the CLIs' -sample* flags keeps
// their rule — -sample means DefaultSampling unless an interval was given.
func TestSamplingFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want SamplingConfig
	}{
		{nil, SamplingConfig{}},
		{[]string{"-sample"}, DefaultSampling},
		{[]string{"-sample", "-sample-interval", "50000"}, SamplingConfig{IntervalInsts: 50_000}},
		{[]string{"-sample-interval", "50000", "-sample-detailed", "100", "-sample-warm", "200", "-sample-history", "300"},
			SamplingConfig{IntervalInsts: 50_000, DetailedInsts: 100, WarmInsts: 200, HistoryInsts: 300}},
		{[]string{"-sample-detailed", "100"}, SamplingConfig{DetailedInsts: 100}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		get := SamplingFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := get(); got != tc.want {
			t.Errorf("%v selects %+v, want %+v", tc.args, got, tc.want)
		}
	}
}
