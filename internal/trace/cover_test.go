package trace

import (
	"testing"

	"spb/internal/mem"
)

func TestAllKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindIntALU: "ialu", KindIntMul: "imul", KindIntDiv: "idiv",
		KindFPALU: "fadd", KindFPMul: "fmul", KindFPDiv: "fdiv",
		KindLoad: "load", KindStore: "store", KindBranch: "branch",
		Kind(200): "?",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestRegionStrings(t *testing.T) {
	for r, s := range map[Region]string{
		RegionApp: "app", RegionLib: "lib", RegionKernel: "kernel", Region(9): "?",
	} {
		if r.String() != s {
			t.Errorf("Region(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

func TestScatterStoresWithinRegion(t *testing.T) {
	reg := NewMemRegion(0xD00000, 1<<20)
	insts := runPhase(NewRNG(3), 100, Leaf{Op: OpScatterStores, Dst: reg, Count: 20, PC: PCApp})
	if len(insts) != 20 {
		t.Fatalf("got %d stores, want 20", len(insts))
	}
	for _, in := range insts {
		if in.Kind != KindStore {
			t.Fatal("scatter must emit stores only")
		}
		if in.Addr < reg.Base || uint64(in.Addr) >= uint64(reg.Base)+reg.Size {
			t.Fatalf("store at %#x outside region", in.Addr)
		}
	}
	// Scattered stores must not form a contiguous-block run the SPB
	// detector would confuse with a burst.
	contiguousRuns := 0
	for i := 1; i < len(insts); i++ {
		if mem.BlockOf(insts[i].Addr) == mem.BlockOf(insts[i-1].Addr)+1 {
			contiguousRuns++
		}
	}
	if contiguousRuns > len(insts)/2 {
		t.Fatalf("scatter stores look contiguous (%d/%d block-sequential)",
			contiguousRuns, len(insts))
	}
}

func TestLoadUseAlternatesLoadBranch(t *testing.T) {
	reg := NewMemRegion(0xE00000, 1<<20)
	insts := runPhase(NewRNG(4), 100, Leaf{Op: OpLoadUse, Dst: reg, Count: 10, MissRate: 1.0, PC: PCApp})
	if len(insts) != 20 {
		t.Fatalf("a load-use leaf of Count 10 should emit 20 insts, got %d", len(insts))
	}
	for i := 0; i < len(insts); i += 2 {
		if insts[i].Kind != KindLoad || insts[i+1].Kind != KindBranch {
			t.Fatalf("pair %d: %v,%v want load,branch", i/2, insts[i].Kind, insts[i+1].Kind)
		}
		if insts[i+1].Dep1 != 1 {
			t.Fatal("branch must depend on its load")
		}
		if !insts[i+1].Mispredicted {
			t.Fatal("missRate 1.0 should mispredict every branch")
		}
	}
}
