package sim

import (
	"fmt"
	"reflect"
	"testing"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/workloads"
)

// assertFFEquivalent runs spec with the event-horizon fast forward on and
// off and requires every statistic — CPU counters, memory-system counters,
// energy, Top-Down — to be bit-identical. This is the DESIGN.md determinism
// invariant extended to the optimized path: fast-forwarding may only skip
// cycles it can prove dead.
func assertFFEquivalent(t *testing.T, spec RunSpec) {
	t.Helper()
	spec.perCycle = false
	fast, err := Run(spec)
	if err != nil {
		t.Fatalf("%+v (fast-forward): %v", spec, err)
	}
	spec.perCycle = true
	ref, err := Run(spec)
	if err != nil {
		t.Fatalf("%+v (reference): %v", spec, err)
	}
	if !reflect.DeepEqual(fast.CPU, ref.CPU) {
		t.Errorf("%s/%v: CPU stats diverge\nfast: %+v\nref:  %+v",
			spec.Workload, spec.Policy, fast.CPU, ref.CPU)
	}
	if !reflect.DeepEqual(fast.Mem, ref.Mem) {
		t.Errorf("%s/%v: memory stats diverge\nfast: %+v\nref:  %+v",
			spec.Workload, spec.Policy, fast.Mem, ref.Mem)
	}
	if !reflect.DeepEqual(fast.Energy, ref.Energy) {
		t.Errorf("%s/%v: energy diverges", spec.Workload, spec.Policy)
	}
	if !reflect.DeepEqual(fast.TD, ref.TD) {
		t.Errorf("%s/%v: top-down counters diverge\nfast: %+v\nref:  %+v",
			spec.Workload, spec.Policy, fast.TD, ref.TD)
	}
}

// TestFastForwardEquivalenceSPEC covers every SPEC workload under the SPB
// policy at a small scale, plus every policy (and the tiny-SB stall-heavy
// configuration) on two representative SB-bound applications.
func TestFastForwardEquivalenceSPEC(t *testing.T) {
	for _, w := range workloads.SPEC() {
		assertFFEquivalent(t, RunSpec{
			Workload: w.Name, Policy: core.PolicySPB, SQSize: 14, Insts: 4000,
		})
	}
	policies := []core.Policy{
		core.PolicyNone, core.PolicyAtExecute, core.PolicyAtCommit,
		core.PolicySPB, core.PolicyIdeal,
	}
	for _, w := range []string{"roms", "bwaves"} {
		for _, p := range policies {
			assertFFEquivalent(t, RunSpec{
				Workload: w, Policy: p, SQSize: 14, Insts: 4000,
			})
			assertFFEquivalent(t, RunSpec{
				Workload: w, Policy: p, SQSize: 56, Insts: 4000,
			})
		}
	}
}

// TestFastForwardEquivalenceVariants covers the ablation knobs that change
// core behaviour: coalescing SB, generic prefetchers, and alternative
// Table II cores, plus a branch-heavy workload under at-commit.
func TestFastForwardEquivalenceVariants(t *testing.T) {
	assertFFEquivalent(t, RunSpec{
		Workload: "cam4", Policy: core.PolicySPB, SQSize: 14, Insts: 4000,
		CoalesceSB: true,
	})
	assertFFEquivalent(t, RunSpec{
		Workload: "deepsjeng", Policy: core.PolicyAtCommit, SQSize: 14, Insts: 4000,
	})
	assertFFEquivalent(t, RunSpec{
		Workload: "fotonik3d", Policy: core.PolicySPB, SQSize: 14, Insts: 4000,
		Prefetcher: config.PrefetchStream,
	})
	assertFFEquivalent(t, RunSpec{
		Workload: "mcf", Policy: core.PolicyNone, SQSize: 56, Insts: 4000,
		Prefetcher: config.PrefetchAdaptive,
	})
	assertFFEquivalent(t, RunSpec{
		Workload: "x264", Policy: core.PolicySPB, SQSize: 14, Insts: 4000,
		CoreName: "SLM",
	})
}

// TestFastForwardEquivalencePARSEC covers every parallel workload under the
// three store-prefetch policies that issue requests, at two and at eight
// cores: each core sleeps to its own event horizon while the others tick, and
// every coherence interaction must still replay as in the loop that ticks
// every core in every cycle.
func TestFastForwardEquivalencePARSEC(t *testing.T) {
	const insts = 20_000
	for _, p := range workloads.PARSEC() {
		for _, pol := range []core.Policy{core.PolicyAtCommit, core.PolicyAtExecute, core.PolicySPB} {
			for _, cores := range []int{2, 8} {
				t.Run(fmt.Sprintf("%s/%v/%d", p.Name, pol, cores), func(t *testing.T) {
					t.Parallel()
					assertFFEquivalent(t, RunSpec{
						Workload: p.Name, Policy: pol, SQSize: 14,
						Cores: cores, Insts: insts,
					})
				})
			}
		}
	}
	t.Run("canneal/none/sb56/4", func(t *testing.T) {
		t.Parallel()
		assertFFEquivalent(t, RunSpec{
			Workload: "canneal", Policy: core.PolicyNone, SQSize: 56,
			Cores: 4, Insts: insts,
		})
	})
	// Sampled: fresh cores per detailed segment on one persistent hierarchy,
	// measurement windows cut at each core's own commit crossings.
	t.Run("dedup/spb/4/sampled", func(t *testing.T) {
		t.Parallel()
		assertFFEquivalent(t, RunSpec{
			Workload: "dedup", Policy: core.PolicySPB, SQSize: 14,
			Cores: 4, Insts: 60_000, WarmupInsts: 4_000,
			Sampling: SamplingConfig{IntervalInsts: 15_000, DetailedInsts: 2_000, WarmInsts: 2_000},
		})
	})
}
