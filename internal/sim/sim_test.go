package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/memsys"
)

const testInsts = 60_000

func quickSpec(w string, p core.Policy, sq int) RunSpec {
	return RunSpec{
		Workload: w, Policy: p, SQSize: sq,
		Prefetcher: config.PrefetchStream, Insts: testInsts,
	}
}

func TestRunSmoke(t *testing.T) {
	res, err := Run(quickSpec("bwaves", core.PolicyAtCommit, 56))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Committed != testInsts {
		t.Fatalf("committed %d, want %d", res.CPU.Committed, testInsts)
	}
	if res.CPU.Cycles == 0 || res.IPC() <= 0 {
		t.Fatal("run produced no cycles")
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("energy must be positive")
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := quickSpec("roms", core.PolicySPB, 28)
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU != b.CPU {
		t.Fatalf("nondeterministic CPU stats:\n%+v\n%+v", a.CPU, b.CPU)
	}
	if a.Mem != b.Mem {
		t.Fatalf("nondeterministic memory stats:\n%+v\n%+v", a.Mem, b.Mem)
	}
}

func TestSBBoundAppStallsWithSmallSB(t *testing.T) {
	res, err := Run(quickSpec("bwaves", core.PolicyAtCommit, 14))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TD.SBBound {
		t.Fatalf("bwaves at SB14 should be SB-bound; SB stall ratio %.3f",
			res.TD.SBStallRatio)
	}
}

func TestSPBImprovesSBBoundApp(t *testing.T) {
	ac, err := Run(quickSpec("bwaves", core.PolicyAtCommit, 14))
	if err != nil {
		t.Fatal(err)
	}
	spb, err := Run(quickSpec("bwaves", core.PolicySPB, 14))
	if err != nil {
		t.Fatal(err)
	}
	if spb.CPU.Cycles >= ac.CPU.Cycles {
		t.Fatalf("SPB (%d cycles) should beat at-commit (%d) on bwaves at SB14",
			spb.CPU.Cycles, ac.CPU.Cycles)
	}
	if spb.CPU.SPBBursts == 0 {
		t.Fatal("SPB should have triggered bursts")
	}
}

func TestIdealFastest(t *testing.T) {
	base, err := Run(quickSpec("fotonik3d", core.PolicyAtCommit, 14))
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Run(quickSpec("fotonik3d", core.PolicyIdeal, 14))
	if err != nil {
		t.Fatal(err)
	}
	if ideal.CPU.Cycles > base.CPU.Cycles {
		t.Fatalf("ideal (%d cycles) should not lose to at-commit (%d)",
			ideal.CPU.Cycles, base.CPU.Cycles)
	}
}

// TestIdealIgnoresSQSize pins what the ideal policy ignores: every ideal core
// is built with config.IdealSQSize entries (cpu.NewWithOptions), so ideal runs
// at SB 14, 28 and 56 are one machine and export the same cpu.* and mem.*
// counters. energy.* is not compared: finishResult charges the spec's SQSize
// as the store buffer's size.
func TestIdealIgnoresSQSize(t *testing.T) {
	for _, spec := range []RunSpec{
		{Workload: "bwaves", Policy: core.PolicyIdeal, Insts: 20_000},
		{Workload: "canneal", Policy: core.PolicyIdeal, Cores: 8, Insts: 5_000},
	} {
		spec.SQSize = 14
		first, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, sq := range []int{28, 56} {
			spec.SQSize = sq
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.CPU, first.CPU) || !reflect.DeepEqual(res.Mem, first.Mem) {
				t.Errorf("%s/%d cores: ideal at SB %d and SB 14 export different counters\nSB %d: %+v %+v\nSB 14: %+v %+v",
					spec.Workload, spec.Normalized().Cores, sq, sq, res.CPU, res.Mem, first.CPU, first.Mem)
			}
		}
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	if _, err := Run(quickSpec("nonesuch", core.PolicyAtCommit, 56)); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestUnknownCoreErrors(t *testing.T) {
	spec := quickSpec("gcc", core.PolicyAtCommit, 56)
	spec.CoreName = "EPYC"
	if _, err := Run(spec); err == nil {
		t.Fatal("unknown core name should error")
	}
}

// TestUnknownPrefetcherKindErrors: an out-of-range kind decoded from the
// wire (HTTP body, batch file) must surface as a spec error, never reach
// prefetch.New and panic a worker.
func TestUnknownPrefetcherKindErrors(t *testing.T) {
	spec := quickSpec("gcc", core.PolicyAtCommit, 56)
	spec.Prefetcher = config.PrefetcherKind(99)
	if _, err := Run(spec); err == nil {
		t.Fatal("unknown prefetcher kind should error")
	}
}

// TestCoreCountOutOfRangeErrors: a core count the directory's sharer mask
// cannot name (or no cores at all) is a spec error on every run path — plain,
// warmed, sampled, through a Runner — and never the panic memsys.New and the
// PARSEC builder keep for programming mistakes.
func TestCoreCountOutOfRangeErrors(t *testing.T) {
	for _, cores := range []int{-1, memsys.MaxCores + 1} {
		spec := RunSpec{Workload: "canneal", Policy: core.PolicySPB, SQSize: 14, Cores: cores, Insts: 1000}
		if err := spec.Validate(); err == nil {
			t.Errorf("cores=%d: Validate accepted the spec", cores)
		}
		warmed, sampled := spec, spec
		warmed.WarmupInsts = 500
		sampled.Sampling = SamplingConfig{IntervalInsts: 500}
		for _, s := range []RunSpec{spec, warmed, sampled} {
			if _, err := Run(s); err == nil {
				t.Errorf("cores=%d: Run(%+v) succeeded", cores, s)
			}
			if _, err := NewRunner().Get(s); err == nil {
				t.Errorf("cores=%d: Runner.Get(%+v) succeeded", cores, s)
			}
		}
	}
	ok := RunSpec{Workload: "canneal", Cores: memsys.MaxCores, SQSize: 14}
	if err := ok.Validate(); err != nil {
		t.Errorf("cores=%d refused: %v", memsys.MaxCores, err)
	}
	if err := (RunSpec{Workload: "mcf", SQSize: 14}).Validate(); err != nil {
		t.Errorf("defaulted core count refused: %v", err)
	}
}

// TestNewPrefetcherKindsRun smoke-tests the prefetcher zoo end-to-end: every
// kind simulates deterministically.
func TestNewPrefetcherKindsRun(t *testing.T) {
	for _, k := range []config.PrefetcherKind{config.PrefetchBOP, config.PrefetchDSPatch, config.PrefetchHybrid} {
		spec := quickSpec("mcf", core.PolicySPB, 28)
		spec.Prefetcher = k
		spec.Insts = 20_000
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.CPU.Committed != 20_000 {
			t.Fatalf("%s: committed %d", k, res.CPU.Committed)
		}
		res2, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.CPU.Cycles != res2.CPU.Cycles {
			t.Fatalf("%s: nondeterministic cycles %d vs %d", k, res.CPU.Cycles, res2.CPU.Cycles)
		}
	}
}

func TestTableIICoreRuns(t *testing.T) {
	spec := quickSpec("gcc", core.PolicyAtCommit, 16)
	spec.CoreName = "SLM"
	spec.Insts = 20_000
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Committed != 20_000 {
		t.Fatalf("committed %d, want 20000", res.CPU.Committed)
	}
}

func TestMultiCoreRun(t *testing.T) {
	spec := RunSpec{
		Workload: "dedup", Policy: core.PolicySPB, SQSize: 14,
		Prefetcher: config.PrefetchStream, Cores: 4, Insts: 15_000,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Committed != 4*15_000 {
		t.Fatalf("committed %d, want %d", res.CPU.Committed, 4*15_000)
	}
	if res.Mem.Invalidations == 0 {
		t.Fatal("a shared-region PARSEC run should produce invalidations")
	}
}

func TestSPFNeverUsedDerivation(t *testing.T) {
	m := MemStats{PortCounters: memsys.PortCounters{SPFIssued: 100, SPFDiscarded: 40, SPFSuccessful: 30, SPFLate: 10, SPFEarly: 5}}
	if m.SPFNeverUsed() != 15 {
		t.Fatalf("SPFNeverUsed = %d, want 15", m.SPFNeverUsed())
	}
	m.SPFDiscarded = 80
	if m.SPFNeverUsed() != 0 {
		t.Fatal("SPFNeverUsed must clamp at zero")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner()
	spec := quickSpec("leela", core.PolicyAtCommit, 56)
	spec.Insts = 20_000
	a, err := r.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU != b.CPU {
		t.Fatal("memoized result should be identical")
	}
}

// TestRunnerMemoIsBounded: a Runner remembers its memoMax most recently
// learned results; the oldest is simulated again, the newest are hits.
func TestRunnerMemoIsBounded(t *testing.T) {
	r := NewRunner()
	r.memoMax = 3
	spec := func(seed uint64) RunSpec {
		return RunSpec{Workload: "leela", Policy: core.PolicySPB, SQSize: 14, Insts: 2000, Seed: seed}
	}
	first, err := r.Get(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	r.Put(spec(2), first) // learned elsewhere: counts like a run's own
	r.Put(spec(2), first) // and learning it twice holds it once
	for seed := uint64(3); seed <= 4; seed++ {
		if _, err := r.Get(spec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Lookup(spec(1)); ok || len(r.cache) != 3 || len(r.memoed) != 3 {
		t.Fatalf("after 4 specs: oldest held %v, %d results under %d keys, want 3 without the oldest", ok, len(r.cache), len(r.memoed))
	}
	for seed := uint64(2); seed <= 4; seed++ {
		if _, err := r.Get(spec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Runs(); got != 3 {
		t.Fatalf("Runs = %d after re-reading the three newest, want 3: they are hits", got)
	}
	again, err := r.Get(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Runs(); got != 4 || again.CPU != first.CPU {
		t.Fatalf("Runs = %d, want 4: the evicted spec is simulated once more, to the same result", got)
	}
}

// TestRunnerRecyclesMachinesAcrossCollections: two workers running cold spec
// after cold spec build two machines' arrays in all, however often the
// collector runs between one machine's release and the next one's build.
func TestRunnerRecyclesMachinesAcrossCollections(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	l3 := config.Skylake().L3
	built := cache.ArenasBuilt(l3.SizeBytes, l3.Ways)
	r := NewRunner()
	for seed := uint64(1); seed <= 40; seed += 2 {
		pair := []RunSpec{
			{Workload: "leela", Policy: core.PolicySPB, SQSize: 14, Insts: 2000, Seed: seed},
			{Workload: "leela", Policy: core.PolicySPB, SQSize: 14, Insts: 2000, Seed: seed + 1},
		}
		if _, err := r.GetAll(pair); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
	}
	if got := cache.ArenasBuilt(l3.SizeBytes, l3.Ways) - built; r.Runs() != 40 || got > 2 {
		t.Fatalf("%d runs on two workers built %d L3 arenas, want at most 2", r.Runs(), got)
	}
}

func TestRunnerSingleflight(t *testing.T) {
	r := NewRunner()
	spec := quickSpec("leela", core.PolicyAtCommit, 56)
	spec.Insts = 20_000
	// Many goroutines race on a cold cache; the in-flight call table must
	// collapse them to one actual simulation.
	const callers = 8
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Get(spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := r.Runs(); got != 1 {
		t.Fatalf("Runs() = %d, want 1 (singleflight must suppress duplicates)", got)
	}
	for i := 1; i < callers; i++ {
		if results[i].CPU != results[0].CPU {
			t.Fatal("singleflight callers received differing results")
		}
	}
}

func TestRunnerGetAllOrder(t *testing.T) {
	r := NewRunner()
	specs := []RunSpec{
		quickSpec("leela", core.PolicyAtCommit, 56),
		quickSpec("leela", core.PolicySPB, 56),
		quickSpec("leela", core.PolicyIdeal, 56),
	}
	for i := range specs {
		specs[i].Insts = 20_000
	}
	results, err := r.GetAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Spec.Policy != specs[i].Policy {
			t.Fatal("results out of order")
		}
	}
}

func TestRunnerGetAllPropagatesError(t *testing.T) {
	r := NewRunner()
	_, err := r.GetAll([]RunSpec{quickSpec("bogus", core.PolicyAtCommit, 56)})
	if err == nil {
		t.Fatal("error should propagate from GetAll")
	}
}

func TestRunnerGetAllStopsDispatchOnError(t *testing.T) {
	r := NewRunner()
	// The bogus spec carries the largest cost estimate, so LPT dispatch hands
	// it out first; it fails immediately (unknown workload), after which no
	// new specs may be dispatched. At most one spec per worker can already be
	// in flight when the error is recorded.
	specs := []RunSpec{quickSpec("bogus", core.PolicyAtCommit, 56)}
	specs[0].Insts = 1_000_000 // dispatched first under LPT
	for i := 0; i < 64; i++ {
		s := quickSpec("leela", core.PolicyAtCommit, 56)
		s.Seed = uint64(i + 1)
		specs = append(specs, s)
	}
	_, err := r.GetAll(specs)
	if err == nil {
		t.Fatal("error should propagate from GetAll")
	}
	limit := uint64(2 * runtime.GOMAXPROCS(0))
	if got := r.Runs(); got > limit {
		t.Fatalf("Runs() = %d after early failure, want <= %d (workers kept dispatching a doomed batch)", got, limit)
	}
}

func TestRunnerGetAllCtxCancelled(t *testing.T) {
	r := NewRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.GetAllCtx(ctx, []RunSpec{quickSpec("leela", core.PolicyAtCommit, 56)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("GetAllCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if got := r.Runs(); got != 0 {
		t.Fatalf("Runs() = %d on cancelled ctx, want 0", got)
	}
}

func TestCostEstimateOrdersStragglersFirst(t *testing.T) {
	spec1 := RunSpec{Workload: "leela", Policy: core.PolicyAtCommit, SQSize: 56, Insts: 100_000}
	parsec := RunSpec{Workload: "canneal", Policy: core.PolicyAtCommit, SQSize: 56, Insts: 100_000, Cores: 8}
	ideal := spec1
	ideal.Policy = core.PolicyIdeal
	if parsec.CostEstimate() <= spec1.CostEstimate() {
		t.Fatal("8-core PARSEC point must rank above a 1-core point")
	}
	if ideal.CostEstimate() <= spec1.CostEstimate() {
		t.Fatal("ideal-SB point must rank above an at-commit point")
	}
	order := lptOrder([]RunSpec{spec1, parsec, ideal})
	if order[0] != 1 {
		t.Fatalf("lptOrder dispatched index %d first, want the PARSEC point (1)", order[0])
	}
}

func TestCostEstimateDiscountsElidedWarmup(t *testing.T) {
	base := RunSpec{Workload: "leela", Policy: core.PolicyAtCommit, SQSize: 56, Insts: 100_000}
	warm := base
	warm.WarmupInsts = 800_000
	// The prefix is executed once for the spec's whole group and every member
	// starts from its snapshot: only the member's own segments count.
	if got, want := warm.CostEstimate(), base.CostEstimate(); got != want {
		t.Fatalf("CostEstimate = %d with a warmup, %d without (the shared warmup must not count)", got, want)
	}
	// LPT must not let an elided warmup outrank real work.
	big := base
	big.Insts = 150_000
	order := lptOrder([]RunSpec{warm, big})
	if order[0] != 1 {
		t.Fatal("LPT ranked an elided warmup above a longer detailed run")
	}
}
