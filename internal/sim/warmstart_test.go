package sim

import (
	"bytes"
	"context"
	"errors"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/mem"
	"spb/internal/workloads"
)

// fig5QuickGrid reproduces the shape of the figures package's Fig. 5 sweep at
// Quick scale — every SB-bound SPEC workload × SB size × policy, plus the
// ideal normalization run per size — with a warmup prefix attached, at a
// reduced instruction budget so executing it twice (through a Runner and in
// place) stays test-sized.
func fig5QuickGrid(warmup, insts uint64) []RunSpec {
	var specs []RunSpec
	mk := func(w string, p core.Policy, sq int) RunSpec {
		return RunSpec{
			Workload: w, Policy: p, SQSize: sq,
			Prefetcher: config.PrefetchStream,
			Insts:      insts, WarmupInsts: warmup,
		}
	}
	for _, w := range workloads.SBBoundSPEC() {
		for _, sq := range config.StandardSQSizes {
			for _, p := range []core.Policy{core.PolicyAtExecute, core.PolicyAtCommit, core.PolicySPB} {
				specs = append(specs, mk(w.Name, p, sq))
			}
			specs = append(specs, mk(w.Name, core.PolicyIdeal, sq))
		}
	}
	return specs
}

// TestWarmStartEquivalenceFig5Grid is the tentpole invariant: across the full
// Fig. 5 (quick) grid, the canonical stats JSON of every point is
// byte-identical whether a Runner started it from its group's shared snapshot
// or sim.Run executed its warm-up in place. It also proves the accounting
// claim — each warmup-equivalence group (here: one per workload) is simulated
// exactly once, with every grid point started from it.
func TestWarmStartEquivalenceFig5Grid(t *testing.T) {
	const (
		warmup = 60_000
		insts  = 25_000
	)
	specs := fig5QuickGrid(warmup, insts)

	r := NewRunner()
	forked, err := r.GetAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		inPlace, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		jFork, err := forked[i].StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		jRef, err := inPlace.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jFork, jRef) {
			t.Errorf("%s/%v/SB%d: stats JSON diverges between the Runner and the in-place run\nrunner:   %s\nin place: %s",
				spec.Workload, spec.Policy, spec.SQSize, jFork, jRef)
		}
	}

	groups := uint64(len(workloads.SBBoundSPEC()))
	points := uint64(len(specs))
	perGroup := points / groups
	st := r.SimStats()
	if st.WarmGroups != groups {
		t.Errorf("WarmGroups = %d, want %d (one warmup per workload, simulated exactly once)", st.WarmGroups, groups)
	}
	if st.WarmForks != points {
		t.Errorf("WarmForks = %d, want %d (every grid point forked)", st.WarmForks, points)
	}
	if got := r.Runs(); got != points {
		t.Errorf("Runs() = %d, want %d", got, points)
	}
	wantSaved := groups * (perGroup - 1) * warmup
	if st.WarmInstsSaved != wantSaved {
		t.Errorf("WarmInstsSaved = %d, want %d", st.WarmInstsSaved, wantSaved)
	}
	if want := groups*warmup + points*insts; st.InstsSimulated != want {
		t.Errorf("InstsSimulated = %d, want %d", st.InstsSimulated, want)
	}
}

// assertWarmEquivalent runs spec through a Runner, which starts it from a
// group snapshot, and in place through Run, and requires bit-identical
// results.
func assertWarmEquivalent(t *testing.T, spec RunSpec) {
	t.Helper()
	r := NewRunner()
	a, err := r.Get(spec)
	if err != nil {
		t.Fatalf("%+v (warm-start): %v", spec, err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatalf("%+v (in-place): %v", spec, err)
	}
	if !reflect.DeepEqual(a.CPU, b.CPU) {
		t.Errorf("%s/%v: CPU stats diverge\nfork:     %+v\nin-place: %+v",
			spec.Workload, spec.Policy, a.CPU, b.CPU)
	}
	if !reflect.DeepEqual(a.Mem, b.Mem) {
		t.Errorf("%s/%v: memory stats diverge\nfork:     %+v\nin-place: %+v",
			spec.Workload, spec.Policy, a.Mem, b.Mem)
	}
	if !reflect.DeepEqual(a.Energy, b.Energy) {
		t.Errorf("%s/%v: energy diverges", spec.Workload, spec.Policy)
	}
	if !reflect.DeepEqual(a.TD, b.TD) {
		t.Errorf("%s/%v: top-down diverges", spec.Workload, spec.Policy)
	}
	if r.SimStats().WarmForks != 1 {
		t.Errorf("%s/%v: expected exactly one fork, got %+v", spec.Workload, spec.Policy, r.SimStats())
	}
}

// TestWarmStartEquivalenceVariants covers the knobs that exercise distinct
// snapshotted state: multi-core coherence (directory, invalidations), a
// branch-heavy workload, the coalescing-SB ablation, alternative cores,
// the adaptive prefetcher (feedback counters), and the reference loop.
func TestWarmStartEquivalenceVariants(t *testing.T) {
	assertWarmEquivalent(t, RunSpec{
		Workload: "dedup", Cores: 4, Policy: core.PolicySPB, SQSize: 14,
		Insts: 4000, WarmupInsts: 10_000, Prefetcher: config.PrefetchStream,
	})
	assertWarmEquivalent(t, RunSpec{
		Workload: "canneal", Cores: 8, Policy: core.PolicyAtCommit, SQSize: 14,
		Insts: 3000, WarmupInsts: 8000,
	})
	assertWarmEquivalent(t, RunSpec{
		Workload: "deepsjeng", Policy: core.PolicyAtCommit, SQSize: 14,
		Insts: 10_000, WarmupInsts: 30_000,
	})
	assertWarmEquivalent(t, RunSpec{
		Workload: "cam4", Policy: core.PolicySPB, SQSize: 14,
		Insts: 8000, WarmupInsts: 20_000, CoalesceSB: true, perCycle: true,
	})
	assertWarmEquivalent(t, RunSpec{
		Workload: "x264", CoreName: "SLM", Policy: core.PolicySPB, SQSize: 16,
		Insts: 8000, WarmupInsts: 20_000, Prefetcher: config.PrefetchAdaptive,
	})
	assertWarmEquivalent(t, RunSpec{
		Workload: "mcf", Policy: core.PolicyIdeal, SQSize: 56,
		Insts: 8000, WarmupInsts: 20_000, BackwardBursts: true, CrossPageBursts: true,
	})
}

// TestWarmStartGroupSharingAcrossKnobs pins the warmup-equivalence key: specs
// differing only in knobs that are inert during functional warming (policy,
// SB size, prefetcher, SPB window, fast-forward mode) share one group, while
// specs differing in warm-relevant fields (seed, warmup length, core
// config) do not.
func TestWarmStartGroupSharingAcrossKnobs(t *testing.T) {
	r := NewRunner()
	base := RunSpec{
		Workload: "bwaves", Policy: core.PolicyAtCommit, SQSize: 56,
		Insts: 2000, WarmupInsts: 5000,
	}
	variants := []RunSpec{base}
	v := base
	v.Policy = core.PolicySPB
	v.SQSize = 14
	variants = append(variants, v)
	v = base
	v.Prefetcher = config.PrefetchAdaptive
	v.WindowN = 16
	variants = append(variants, v)
	v = base
	v.perCycle = true
	v.Policy = core.PolicyIdeal
	variants = append(variants, v)
	if _, err := r.GetAll(variants); err != nil {
		t.Fatal(err)
	}
	if st := r.SimStats(); st.WarmGroups != 1 || st.WarmForks != 4 {
		t.Fatalf("warm-inert knobs must share one group: %+v", st)
	}

	splitters := []RunSpec{base, base, base, base}
	splitters[1].Seed = 2
	splitters[2].WarmupInsts = 6000
	splitters[3].CoreName = "SLM"
	r2 := NewRunner()
	if _, err := r2.GetAll(splitters); err != nil {
		t.Fatal(err)
	}
	if st := r2.SimStats(); st.WarmGroups != 4 {
		t.Fatalf("warm-relevant fields must split groups: %+v", st)
	}
}

// TestWarmCacheBounded: a Runner keeps at most groups.max group snapshots,
// evicts the one built longest ago — even one forked again since — and a group
// warmed again after its eviction starts its members byte-identically to the
// in-place run.
func TestWarmCacheBounded(t *testing.T) {
	r := NewRunner()
	r.groups.max = 3
	spec := func(seed uint64, p core.Policy) RunSpec {
		return RunSpec{Workload: "bwaves", Policy: p, SQSize: 14, Insts: 3000, WarmupInsts: 6000, Seed: seed}
	}
	for seed := uint64(1); seed <= uint64(r.groups.max)+1; seed++ {
		if seed == uint64(r.groups.max)+1 {
			// Group 1 forked once more before the newest is built.
			if _, err := r.Get(spec(1, core.PolicyIdeal)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Get(spec(seed, core.PolicySPB)); err != nil {
			t.Fatal(err)
		}
	}
	r.groups.mu.Lock()
	kept := len(r.groups.held)
	_, first := r.groups.held[warmKeyOf(spec(1, core.PolicySPB).Normalized())]
	r.groups.mu.Unlock()
	if kept != r.groups.max || first {
		t.Fatalf("after %d groups the cache holds %d (want %d), the oldest built among them: %v", r.groups.max+1, kept, r.groups.max, first)
	}
	again := spec(1, core.PolicyAtCommit)
	got, err := r.Get(again)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.SimStats(); st.WarmGroups != uint64(r.groups.max)+2 {
		t.Fatalf("WarmGroups = %d, want %d: the evicted group is warmed once more", st.WarmGroups, r.groups.max+2)
	}
	ref, err := Run(again)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, ref, got, "member of a re-warmed group")
}

// assertSameResult fails t unless got is ref, field for field and as stats
// JSON byte for byte.
func assertSameResult(t *testing.T, ref, got Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("%s: Result diverges from the reference run\nref: %+v\ngot: %+v", label, ref, got)
	}
	jRef, err := ref.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	jGot, err := got.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jRef, jGot) {
		t.Errorf("%s: stats JSON diverges\nref: %s\ngot: %s", label, jRef, jGot)
	}
}

// TestWarmGroupSnapshotCostsWhatIsLive: a group's snapshot carries the cache
// lines its warm-up filled, packed, not the arrays' capacity. The benchmark's
// bwaves group (1 M warm-up instructions, Skylake hierarchy: 279 040 ways,
// 8.93 MB had every way been stored as a 32-byte Line) holds one record per
// live way at under 8 bytes a record.
func TestWarmGroupSnapshotCostsWhatIsLive(t *testing.T) {
	spec := RunSpec{
		Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14,
		Prefetcher: config.PrefetchStream, Insts: 50_000, WarmupInsts: 1_000_000, Seed: 1,
	}.Normalized()
	g, err := NewRunner().buildWarm(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := g.start.State.Sys
	size, live, ways := 0, 0, 0
	for _, c := range []*cache.Snapshot{snap.L3, snap.Ports[0].L2, snap.Ports[0].L1} {
		size += len(c.Records)
		for _, m := range c.Live {
			live += bits.OnesCount16(m)
		}
	}
	cfg := config.Skylake()
	for _, c := range []config.CacheConfig{cfg.L3, cfg.L2, cfg.L1D} {
		ways += c.SizeBytes / mem.BlockSize
	}
	const lineBytes = int(unsafe.Sizeof(cache.Line{}))
	t.Logf("%d of %d ways live: %.2f MB of records, %.2f MB as Lines, %.2f MB had every way been stored",
		live, ways, float64(size)/1e6, float64(live*lineBytes)/1e6, float64(ways*lineBytes)/1e6)
	if live == 0 || size >= 8*live {
		t.Errorf("the snapshot holds %d bytes of records for %d live ways, want some and under 8 bytes each", size, live)
	}
}

// heldBytes is the memory the slices and pointers reachable from v hold: each
// slice's length times its element size, each pointee's size, and what their
// elements reach in turn.
func heldBytes(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n = int(v.Type().Elem().Size()) + heldBytes(v.Elem())
		}
	case reflect.Slice:
		n = v.Len() * int(v.Type().Elem().Size())
		if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Slice || k == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				n += heldBytes(v.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += heldBytes(v.Field(i))
		}
	}
	return n
}

// TestWarmGroupsCostWhatTheyHold: the benchmark sweep's eight SB-bound groups
// (1 M warm-up instructions, seed 1) are all live at once, because GetAll
// warms every group first. Their memory-system snapshots — cache
// records, per-set recency words and live masks, recent-eviction sets — hold
// at most 8 MB between them: what the warm-ups left live, packed, not the
// 32-byte line records and dense all-zero eviction sets that cost 24 MB.
func TestWarmGroupsCostWhatTheyHold(t *testing.T) {
	total := 0
	for _, w := range workloads.SBBoundSPEC() {
		spec := RunSpec{
			Workload: w.Name, Policy: core.PolicySPB, SQSize: 14,
			Prefetcher: config.PrefetchStream, Insts: 50_000, WarmupInsts: 1_000_000, Seed: 1,
		}.Normalized()
		g, err := NewRunner().buildWarm(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		n := heldBytes(reflect.ValueOf(g.start.State.Sys))
		t.Logf("%-10s %.2f MB", w.Name, float64(n)/1e6)
		total += n
	}
	t.Logf("all groups: %.2f MB", float64(total)/1e6)
	if total > 8e6 {
		t.Errorf("the eight groups' snapshots hold %.2f MB, want at most 8 MB", float64(total)/1e6)
	}
}

// FuzzWarmSnapshotAliasing starts a run from a group's snapshot and runs it to
// completion — mutating its caches, directory, store buffer, TLB and DRAM
// state — and requires the snapshot to be bit-identical to an
// independently built twin. Any aliasing between a run and the snapshot it
// started from (a shared slice, a copied pointer) shows up as the run mutating
// the snapshot.
func FuzzWarmSnapshotAliasing(f *testing.F) {
	f.Add(uint64(1), uint32(5000), uint32(3000), uint8(0))
	f.Add(uint64(7), uint32(9000), uint32(2000), uint8(1))
	f.Add(uint64(3), uint32(7000), uint32(2500), uint8(2))
	f.Add(uint64(5), uint32(6000), uint32(2000), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, warm, insts uint32, variant uint8) {
		spec := RunSpec{
			Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14,
			Prefetcher:  config.PrefetchStream,
			Insts:       uint64(insts%8000) + 1000,
			WarmupInsts: uint64(warm%20000) + 1000,
			Seed:        seed%16 + 1,
		}
		if variant&2 != 0 {
			spec.Workload = "dedup"
			spec.Cores = 2
		}
		spec = spec.normalize()

		r := NewRunner()
		ctx := context.Background()
		parent, err := r.buildWarm(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := r.buildWarm(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runPlan(ctx, spec, parent.start, nil, nil); err != nil {
			t.Fatal(err)
		}
		a, b := parent.start.State, twin.start.State
		if !reflect.DeepEqual(a.Sys, b.Sys) {
			t.Error("running a fork mutated the parent memory-system snapshot")
		}
		if !reflect.DeepEqual(a.DTLBs, b.DTLBs) {
			t.Error("running a fork mutated the parent TLB snapshots")
		}
		if !reflect.DeepEqual(a.progs, b.progs) {
			t.Error("running a fork mutated the parent trace cursors")
		}
		if !reflect.DeepEqual(parent.start, twin.start) {
			t.Error("running a fork mutated the parent start point")
		}
	})
}

// FuzzNormalizeIdempotent pins the normalization contract external caches
// rely on: Normalized is idempotent, so a spec normalizes to the same point
// no matter how many cache tiers have already normalized it.
func FuzzNormalizeIdempotent(f *testing.F) {
	f.Add("bwaves", uint8(3), uint8(1), uint16(56), uint16(48), uint64(200_000), uint64(0), uint64(1), uint8(0))
	f.Add("", uint8(0), uint8(0), uint16(0), uint16(0), uint64(0), uint64(0), uint64(0), uint8(0))
	f.Add("dedup", uint8(4), uint8(8), uint16(14), uint16(16), uint64(5), uint64(1_000_000), uint64(42), uint8(0x3f))
	f.Fuzz(func(t *testing.T, workload string, policy, cores uint8, sq, windowN uint16, insts, warmup, seed uint64, flags uint8) {
		s := RunSpec{
			Workload:        workload,
			Policy:          core.Policy(policy % 5),
			SQSize:          int(sq),
			CoreName:        "",
			Cores:           int(cores),
			Insts:           insts,
			WarmupInsts:     warmup,
			WindowN:         int(windowN),
			Seed:            seed,
			DynamicSPB:      flags&1 != 0,
			CoalesceSB:      flags&2 != 0,
			BackwardBursts:  flags&4 != 0,
			CrossPageBursts: flags&8 != 0,
			perCycle:        flags&32 != 0,
		}
		n1 := s.Normalized()
		n2 := n1.Normalized()
		if n1 != n2 {
			t.Fatalf("Normalized not idempotent:\nonce:  %+v\ntwice: %+v", n1, n2)
		}
		if n1.Cores == 0 || n1.Insts == 0 || n1.WindowN == 0 || n1.Seed == 0 {
			t.Fatalf("Normalized left a defaulted field zero: %+v", n1)
		}
	})
}

// warmGroupsBatch is two warm-start groups of three equal-cost members each,
// submitted group-major: the order in which a two-worker pool, drawing in
// submission order, sends its second worker straight into the warm-up its
// first is building.
func warmGroupsBatch() []RunSpec {
	var specs []RunSpec
	for _, w := range []string{"bwaves", "x264"} {
		for _, sq := range []int{14, 28, 56} {
			specs = append(specs, RunSpec{
				Workload: w, Policy: core.PolicySPB, SQSize: sq,
				Insts: 5_000, WarmupInsts: 300_000,
			})
		}
	}
	return specs
}

// TestGetAllWarmsOnlyWhatItRuns: GetAll warms a group only for specs it will
// run. A batch of two groups plus two unwarmed points warms each group once,
// forks every member from it and matches sim.Run byte for byte; the same batch
// again — its snapshots dropped, so only the memo can tell — warms nothing and
// runs nothing; and a Runner that already holds one group's snapshot builds
// only the other.
func TestGetAllWarmsOnlyWhatItRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	specs := append(warmGroupsBatch(),
		RunSpec{Workload: "bwaves", Policy: core.PolicySPB, SQSize: 14, Insts: 5_000},
		RunSpec{Workload: "x264", Policy: core.PolicyAtCommit, SQSize: 14, Insts: 5_000},
	)
	r := NewRunner()
	results, err := r.GetAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.SimStats(); st.WarmGroups != 2 || st.WarmForks != 6 || st.Runs != 8 {
		t.Errorf("WarmGroups, WarmForks, Runs = %d, %d, %d, want 2, 6, 8", st.WarmGroups, st.WarmForks, st.Runs)
	}
	for i, spec := range specs {
		ref, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, ref, results[i], spec.Workload)
	}

	t.Run("memoized", func(t *testing.T) {
		r.groups.mu.Lock()
		clear(r.groups.held)
		r.groups.mu.Unlock()
		before := r.SimStats()
		again, err := r.GetAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		if st := r.SimStats(); st != before {
			t.Errorf("a memoized batch moved the counters from %+v to %+v", before, st)
		}
		if !reflect.DeepEqual(again, results) {
			t.Error("a memoized batch returned other results")
		}
	})

	t.Run("one group held", func(t *testing.T) {
		specs := warmGroupsBatch()
		r := NewRunner()
		if _, err := r.GetCtx(context.Background(), specs[0], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := r.GetAll(specs); err != nil {
			t.Fatal(err)
		}
		if st := r.SimStats(); st.WarmGroups != 2 || st.WarmForks != 6 || st.Runs != 6 {
			t.Errorf("WarmGroups, WarmForks, Runs = %d, %d, %d, want 2, 6, 6", st.WarmGroups, st.WarmForks, st.Runs)
		}
	})
}

// TestGetAllNeverParksBehindWarmup: GetAll builds every group's snapshot before
// it runs any member, so no caller ever waits for a warm-up in flight — even
// when a two-worker pool would otherwise send its second worker straight into
// the warm-up its first is building — and warming first changes neither how
// often a group is warmed nor any result. When a group's warm-up fails — its
// members name a core no table has — the batch returns that error, and returns
// at all: GetAll comes back only once every worker has left; a batch cancelled
// with two warm-ups in flight returns the cancellation the same way. The count
// of waits is not vacuously 0: a second GetCtx on a member of a group whose
// warm-up is in flight waits, and counts once.
func TestGetAllNeverParksBehindWarmup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	noStalls := func(t *testing.T, r *Runner) {
		t.Helper()
		if n := r.groups.waits.Load(); n != 0 {
			t.Errorf("%d waits for an in-flight warm-up, want 0", n)
		}
	}
	t.Run("set aside", func(t *testing.T) {
		specs := warmGroupsBatch()
		r := NewRunner()
		results, err := r.GetAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		noStalls(t, r)
		if st := r.SimStats(); st.WarmGroups != 2 || st.WarmForks != 6 || st.Runs != 6 {
			t.Errorf("WarmGroups, WarmForks, Runs = %d, %d, %d, want 2, 6, 6", st.WarmGroups, st.WarmForks, st.Runs)
		}
		for i, spec := range specs {
			inPlace, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := results[i].StatsJSON()
			want, _ := inPlace.StatsJSON()
			if !bytes.Equal(got, want) {
				t.Errorf("%s/SB%d: stats JSON differs from the in-place run's", spec.Workload, spec.SQSize)
			}
		}
	})
	t.Run("failed warm-up", func(t *testing.T) {
		specs := warmGroupsBatch()
		for i := range specs[:3] {
			specs[i].CoreName = "no-such-core"
		}
		before := runtime.NumGoroutine()
		r := NewRunner()
		_, err := r.GetAll(specs)
		if err == nil || !strings.Contains(err.Error(), "no-such-core") {
			t.Fatalf("GetAll = %v, want the failed warm-up's unknown-core error", err)
		}
		noStalls(t, r)
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d goroutines after the failed batch, %d before it", after, before)
		}
	})
	t.Run("cancelled warm-up", func(t *testing.T) {
		specs := warmGroupsBatch()
		for i := range specs {
			specs[i].WarmupInsts = 2_000_000_000
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r := NewRunner()
		done := make(chan error, 1)
		go func() {
			_, err := r.GetAllCtx(ctx, specs)
			done <- err
		}()
		// Both workers building means the warm-first pass has both groups in
		// flight.
		for building, deadline := 0, time.Now().Add(10*time.Second); building < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("after 10 s %d warm-ups in flight, want 2", building)
			}
			r.groups.mu.Lock()
			building = len(r.groups.building)
			r.groups.mu.Unlock()
		}
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("GetAllCtx = %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled batch did not return")
		}
		noStalls(t, r)
	})
	t.Run("concurrent GetCtx", func(t *testing.T) {
		specs := warmGroupsBatch()
		for i := range specs {
			specs[i].WarmupInsts = 2_000_000_000
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r := NewRunner()
		done := make(chan error, 2)
		get := func(spec RunSpec) {
			_, err := r.GetCtx(ctx, spec, nil)
			done <- err
		}
		go get(specs[0])
		for building, deadline := 0, time.Now().Add(10*time.Second); building < 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("after 10 s no warm-up in flight")
			}
			r.groups.mu.Lock()
			building = len(r.groups.building)
			r.groups.mu.Unlock()
		}
		go get(specs[1])
		for deadline := time.Now().Add(10 * time.Second); r.groups.waits.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("after 10 s the second GetCtx has counted no wait for the warm-up in flight")
			}
		}
		cancel()
		for range 2 {
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("GetCtx = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled GetCtx did not return")
			}
		}
		if n := r.groups.waits.Load(); n != 1 {
			t.Errorf("a second GetCtx behind a warm-up in flight counted %d waits, want 1", n)
		}
	})
}
