package sim

import (
	"testing"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/cpu"
	"spb/internal/memsys"
	"spb/internal/trace"
	"spb/internal/workloads"
)

// TestPolicyOrdering asserts the paper's fundamental ordering on an
// SB-bound workload with a small SB: no prefetching is slowest, the ideal
// SB is fastest, and SPB lands between at-commit and ideal.
func TestPolicyOrdering(t *testing.T) {
	cycles := map[core.Policy]uint64{}
	for _, p := range core.Policies {
		r, err := Run(RunSpec{Workload: "x264", Policy: p, SQSize: 14, Insts: 80_000})
		if err != nil {
			t.Fatal(err)
		}
		cycles[p] = r.CPU.Cycles
	}
	if cycles[core.PolicyNone] < cycles[core.PolicyAtCommit] {
		t.Errorf("no-prefetch (%d) should not beat at-commit (%d)",
			cycles[core.PolicyNone], cycles[core.PolicyAtCommit])
	}
	if cycles[core.PolicySPB] >= cycles[core.PolicyAtCommit] {
		t.Errorf("SPB (%d) must beat at-commit (%d) on an SB-bound app at SB14",
			cycles[core.PolicySPB], cycles[core.PolicyAtCommit])
	}
	if cycles[core.PolicyIdeal] > cycles[core.PolicySPB] {
		t.Errorf("ideal (%d) should not lose to SPB (%d)",
			cycles[core.PolicyIdeal], cycles[core.PolicySPB])
	}
}

// TestSBSizeMonotonicity asserts that shrinking the SB never helps under
// the baseline policy.
func TestSBSizeMonotonicity(t *testing.T) {
	var prev uint64
	for _, sq := range []int{56, 28, 14} {
		r, err := Run(RunSpec{Workload: "bwaves", Policy: core.PolicyAtCommit, SQSize: sq, Insts: 80_000})
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 && r.CPU.Cycles < prev {
			t.Errorf("SB%d (%d cycles) faster than the next larger SB (%d)",
				sq, r.CPU.Cycles, prev)
		}
		prev = r.CPU.Cycles
	}
}

// TestCommittedWorkIdenticalAcrossPolicies verifies the policies execute the
// same architectural work: identical instruction, load, store and branch
// counts — only timing may differ.
func TestCommittedWorkIdenticalAcrossPolicies(t *testing.T) {
	type arch struct{ c, l, s, b uint64 }
	var ref *arch
	for _, p := range core.Policies {
		r, err := Run(RunSpec{Workload: "blender", Policy: p, SQSize: 28, Insts: 50_000})
		if err != nil {
			t.Fatal(err)
		}
		got := arch{r.CPU.Committed, r.CPU.Loads, r.CPU.Stores, r.CPU.Branches}
		if ref == nil {
			ref = &got
			continue
		}
		if got != *ref {
			t.Fatalf("policy %v committed different work: %+v vs %+v", p, got, *ref)
		}
	}
}

// TestCoherenceInvariantAfterParallelRun replays a PARSEC-like run and then
// audits the directory and single-writer invariants, and that the L3 records
// every private Modified copy as Modified and owned by its core.
func TestCoherenceInvariantAfterParallelRun(t *testing.T) {
	machine := config.Skylake().WithSQ(14)
	p, err := workloads.PARSECByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	readers := p.Build(3, 4)
	sys := memsys.New(machine, 4)
	cores := make([]*cpu.Core, 4)
	for i := range cores {
		cores[i] = cpu.New(machine.Core, core.PolicySPB, machine.SPB,
			sys.Port(i), trace.Limit(20_000, readers[i]), 11+uint64(i))
	}
	for round := 0; round < 2_000_000; round++ {
		running := false
		for _, c := range cores {
			if !c.Done() {
				c.Tick()
				running = true
			}
		}
		if !running {
			break
		}
		if round%50_000 == 0 {
			if err := sys.CheckCoherence(); err != nil {
				t.Fatalf("coherence violated mid-run: %v", err)
			}
		}
	}
	if err := sys.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated at end: %v", err)
	}
}

// TestStoresAllPerformedOnDrain checks TSO bookkeeping end to end: every
// committed store eventually performs, exactly once.
func TestStoresAllPerformedOnDrain(t *testing.T) {
	r, err := Run(RunSpec{Workload: "cam4", Policy: core.PolicySPB, SQSize: 14, Insts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.CPU.StoresPerformed != r.CPU.Stores {
		t.Fatalf("stores committed %d but performed %d", r.CPU.Stores, r.CPU.StoresPerformed)
	}
}

// TestIdealNeverSBStallsOnModerateWorkloads: with 1024 entries the ideal SB
// should show (near) zero SB-induced stalls on non-pure-store workloads.
func TestIdealLowSBStalls(t *testing.T) {
	r, err := Run(RunSpec{Workload: "deepsjeng", Policy: core.PolicyIdeal, SQSize: 14, Insts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.TD.SBStallRatio > 0.05 {
		t.Fatalf("ideal SB stall ratio %.3f, want near zero", r.TD.SBStallRatio)
	}
}

// TestSPBDetectorOnlyRunsUnderSPBPolicy ensures bursts never fire for other
// policies.
func TestSPBDetectorOnlyRunsUnderSPBPolicy(t *testing.T) {
	for _, p := range []core.Policy{core.PolicyNone, core.PolicyAtExecute, core.PolicyAtCommit, core.PolicyIdeal} {
		r, err := Run(RunSpec{Workload: "blender", Policy: p, SQSize: 14, Insts: 30_000})
		if err != nil {
			t.Fatal(err)
		}
		if r.CPU.SPBBursts != 0 || r.Mem.SPFBurst != 0 {
			t.Fatalf("policy %v produced SPB bursts", p)
		}
	}
}

// TestWindowNAffectsTriggering: a larger window means fewer, later checks.
func TestWindowNSensitivity(t *testing.T) {
	counts := map[int]uint64{}
	for _, n := range []int{16, 48} {
		r, err := Run(RunSpec{Workload: "blender", Policy: core.PolicySPB, SQSize: 14,
			Insts: 60_000, WindowN: n})
		if err != nil {
			t.Fatal(err)
		}
		counts[n] = r.CPU.SPBBursts
	}
	if counts[16] == 0 || counts[48] == 0 {
		t.Fatalf("both windows should trigger bursts: %v", counts)
	}
}

// TestDynamicSPBRuns exercises the §IV.C ablation path end to end.
func TestDynamicSPBRuns(t *testing.T) {
	r, err := Run(RunSpec{Workload: "roms", Policy: core.PolicySPB, SQSize: 28,
		Insts: 40_000, DynamicSPB: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.CPU.Committed != 40_000 {
		t.Fatal("dynamic-SPB run did not complete")
	}
}

// TestSeedChangesResults: different workload seeds must change timing but
// not break anything.
func TestSeedVariation(t *testing.T) {
	a, err := Run(RunSpec{Workload: "gcc", Policy: core.PolicyAtCommit, SQSize: 56, Insts: 40_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunSpec{Workload: "gcc", Policy: core.PolicyAtCommit, SQSize: 56, Insts: 40_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Cycles == b.CPU.Cycles && a.Mem.L1TagAccesses == b.Mem.L1TagAccesses {
		t.Fatal("different seeds should perturb the run")
	}
}

// TestAllSPECWorkloadsRunUnderAllPolicies is the broad smoke sweep: every
// workload must complete under every policy without livelock.
func TestAllSPECWorkloadsRunUnderAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	runner := NewRunner()
	var specs []RunSpec
	for _, w := range workloads.SPEC() {
		for _, p := range []core.Policy{core.PolicyAtCommit, core.PolicySPB} {
			specs = append(specs, RunSpec{Workload: w.Name, Policy: p, SQSize: 28, Insts: 15_000})
		}
	}
	results, err := runner.GetAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.CPU.Committed != 15_000 {
			t.Errorf("spec %d (%s/%v): committed %d", i, r.Spec.Workload, r.Spec.Policy, r.CPU.Committed)
		}
	}
}

// TestAllPARSECWorkloadsRun exercises every parallel workload briefly.
func TestAllPARSECWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	runner := NewRunner()
	var specs []RunSpec
	for _, p := range workloads.PARSEC() {
		specs = append(specs, RunSpec{Workload: p.Name, Policy: core.PolicySPB, SQSize: 14,
			Cores: 4, Insts: 8_000})
	}
	results, err := runner.GetAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.CPU.Committed != 4*8_000 {
			t.Errorf("%s: committed %d", r.Spec.Workload, r.CPU.Committed)
		}
	}
}
