package trace

import (
	"math"
	"testing"
	"testing/quick"

	"spb/internal/mem"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must be remapped to a working state")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

// TestBelowMatchesBool: below(threshold(p)) decides every draw as Bool(p) does
// — at the draws either side of the threshold, where a rounding slip would
// show, at the ends of the range, for probabilities outside [0, 1] and NaN —
// and consumes the same one draw.
func TestBelowMatchesBool(t *testing.T) {
	ps := []float64{0, 1, 0.85, 0.5, 0.1, 1.0 / 3, 0.02, 1e-9, 1e-17, 1 - 1e-16, 1.5, -0.25, math.NaN(), math.Inf(1)}
	src := NewRNG(99)
	for i := 0; i < 200; i++ {
		ps = append(ps, src.Float64())
	}
	for _, p := range ps {
		th := threshold(p)
		ks := []uint64{0, 1, 1<<53 - 1}
		for _, d := range []uint64{0, 1, 2} {
			if th >= d {
				ks = append(ks, min(th-d, 1<<53-1))
			}
			ks = append(ks, min(th+d, 1<<53-1))
		}
		for _, k := range ks {
			if want, got := float64(k)/(1<<53) < p, k < th; want != got {
				t.Fatalf("p = %v, draw %d/2^53: Bool says %v, below(%d) says %v", p, k, want, th, got)
			}
		}
		a, b := NewRNG(7), NewRNG(7)
		for i := 0; i < 1000; i++ {
			if a.Bool(p) != b.below(th) {
				t.Fatalf("p = %v: draw %d decided differently", p, i)
			}
		}
		if a.state != b.state {
			t.Fatalf("p = %v: below and Bool left different RNG states", p)
		}
	}
}

func TestSeedFromStringDistinct(t *testing.T) {
	if SeedFromString("bwaves") == SeedFromString("roms") {
		t.Fatal("different names should hash to different seeds")
	}
	if SeedFromString("x") != SeedFromString("x") {
		t.Fatal("SeedFromString must be deterministic")
	}
}

func TestRegionOf(t *testing.T) {
	if RegionOf(PCApp+0x10) != RegionApp {
		t.Error("app PC misclassified")
	}
	if RegionOf(PCLib+0x10) != RegionLib {
		t.Error("lib PC misclassified")
	}
	if RegionOf(PCKernel+0x10) != RegionKernel {
		t.Error("kernel PC misclassified")
	}
}

func TestSliceReader(t *testing.T) {
	insts := []Inst{{Kind: KindLoad}, {Kind: KindStore}}
	r := NewSliceReader(insts)
	var in Inst
	if !r.Next(&in) || in.Kind != KindLoad {
		t.Fatal("first inst should be the load")
	}
	if !r.Next(&in) || in.Kind != KindStore {
		t.Fatal("second inst should be the store")
	}
	if r.Next(&in) {
		t.Fatal("reader should be exhausted")
	}
}

// onePhase is an endless Program of one phase that runs leaves in order.
func onePhase(rng *RNG, leaves ...Leaf) *Program {
	return NewProgram(rng, Phase{Weight: 1, Leaves: leaves})
}

// runPhase runs leaves once, in order, as the one phase of a Program drawing
// from rng, and returns what they emitted: the stream, read up to max
// instructions ahead, up to a one-instruction marker leaf that follows them.
func runPhase(rng *RNG, max int, leaves ...Leaf) []Inst {
	const markerPC = PCKernel + 0xDEAD000 // the marker's instruction is at markerPC+4
	marker := Leaf{Op: OpCompute, Compute: ComputeOptions{Count: 1, PC: markerPC}}
	insts := Collect(onePhase(rng, append(leaves, marker)...), max)
	for i, in := range insts {
		if in.PC == markerPC+4 {
			return insts[:i]
		}
	}
	return insts
}

func TestMemsetBurstCoversRange(t *testing.T) {
	reg := NewMemRegion(0x10000, 1<<20)
	insts := runPhase(NewRNG(1), 10000, Leaf{Op: OpMemset, Dst: reg, Bytes: 4096, Size: 8, PC: PCLib})
	if len(insts) != 512 {
		t.Fatalf("4096 bytes / 8B stores = 512 insts, got %d", len(insts))
	}
	for i, in := range insts {
		if in.Kind != KindStore || in.Size != 8 {
			t.Fatalf("inst %d: %v size %d, want 8B store", i, in.Kind, in.Size)
		}
		if i > 0 && in.Addr != insts[i-1].Addr+8 {
			t.Fatalf("stores must be contiguous: inst %d at %#x after %#x",
				i, in.Addr, insts[i-1].Addr)
		}
	}
	// The whole run stays within one page and covers it exactly.
	if !mem.SamePage(insts[0].Addr, insts[len(insts)-1].Addr) {
		t.Error("a 4096-byte burst starting page-aligned must stay in one page")
	}
}

func TestMemcpyBurstPairsLoadStore(t *testing.T) {
	src := NewMemRegion(0x100000, 1<<20)
	dst := NewMemRegion(0x200000, 1<<20)
	insts := runPhase(NewRNG(1), 1000, Leaf{Op: OpMemcpy, Src: src, Dst: dst, Bytes: 128, PC: PCLib})
	if len(insts) != 32 { // 16 loads + 16 stores
		t.Fatalf("got %d insts, want 32", len(insts))
	}
	for i := 0; i < len(insts); i += 2 {
		ld, st := insts[i], insts[i+1]
		if ld.Kind != KindLoad || st.Kind != KindStore {
			t.Fatalf("pair %d: %v,%v want load,store", i/2, ld.Kind, st.Kind)
		}
		if st.Dep1 != 1 {
			t.Fatal("store must depend on its load")
		}
		if mem.PageOf(ld.Addr) == mem.PageOf(st.Addr) {
			t.Fatal("src and dst should be distinct regions")
		}
	}
}

func TestClearPageIsKernelFullPage(t *testing.T) {
	reg := NewMemRegion(0x300000, 1<<20)
	insts := runPhase(NewRNG(1), 1000, Leaf{Op: OpMemset, Dst: reg, Bytes: mem.PageSize, Size: 8, PC: PCKernel + 0x100})
	if len(insts) != mem.PageSize/8 {
		t.Fatalf("clear_page should emit %d stores, got %d", mem.PageSize/8, len(insts))
	}
	for _, in := range insts {
		if RegionOf(in.PC) != RegionKernel {
			t.Fatal("clear_page stores must carry a kernel PC")
		}
	}
}

func TestRMWBurstPattern(t *testing.T) {
	reg := NewMemRegion(0x400000, 1<<20)
	insts := runPhase(NewRNG(1), 1000, Leaf{Op: OpRMW, Dst: reg, Bytes: 64, PC: PCApp})
	if len(insts) != 24 { // 8 triplets of load/alu/store
		t.Fatalf("got %d insts, want 24", len(insts))
	}
	for i := 0; i < len(insts); i += 3 {
		if insts[i].Kind != KindLoad || insts[i+1].Kind != KindIntALU || insts[i+2].Kind != KindStore {
			t.Fatalf("triplet %d is %v/%v/%v", i/3, insts[i].Kind, insts[i+1].Kind, insts[i+2].Kind)
		}
		if insts[i].Addr != insts[i+2].Addr {
			t.Fatal("RMW load and store must target the same address")
		}
	}
}

func TestStridedStoresStride(t *testing.T) {
	reg := NewMemRegion(0x500000, 1<<20)
	insts := runPhase(NewRNG(1), 100, Leaf{Op: OpStridedStores, Dst: reg, Count: 10, Stride: 128, Size: 8, PC: PCApp})
	if len(insts) != 10 {
		t.Fatalf("got %d stores, want 10", len(insts))
	}
	for i := 1; i < len(insts); i++ {
		if insts[i].Addr != insts[i-1].Addr+128 {
			t.Fatal("stride must be 128 bytes")
		}
	}
}

func TestPointerChaseDependsOnPrevious(t *testing.T) {
	reg := NewMemRegion(0x600000, 1<<20)
	insts := runPhase(NewRNG(3), 100, Leaf{Op: OpPointerChase, Dst: reg, Count: 5, PC: PCApp})
	if len(insts) != 5 {
		t.Fatalf("got %d loads, want 5", len(insts))
	}
	if insts[0].Dep1 != 0 {
		t.Error("first chase load has no predecessor")
	}
	for _, in := range insts[1:] {
		if in.Dep1 != 1 {
			t.Error("chase loads must depend on the previous load")
		}
	}
}

func TestComputeMix(t *testing.T) {
	insts := runPhase(NewRNG(11), 20000, Leaf{Op: OpCompute, Compute: ComputeOptions{
		Count: 10000, FPFrac: 0.3, MulFrac: 0.1, BrFrac: 0.2, MissRate: 0.5,
	}})
	if len(insts) != 10000 {
		t.Fatalf("got %d insts, want 10000", len(insts))
	}
	var branches, fp, miss int
	for _, in := range insts {
		switch in.Kind {
		case KindBranch:
			branches++
			if in.Mispredicted {
				miss++
			}
		case KindFPALU, KindFPMul, KindFPDiv:
			fp++
		case KindLoad, KindStore:
			t.Fatal("Compute must not emit memory instructions")
		}
	}
	if branches < 1500 || branches > 2500 {
		t.Errorf("branch count %d far from expected ~2000", branches)
	}
	if miss < branches/3 {
		t.Errorf("mispredict count %d too low for 0.5 rate over %d branches", miss, branches)
	}
	if fp == 0 {
		t.Error("expected some FP instructions")
	}
}

func TestSeqRunsInOrder(t *testing.T) {
	reg := NewMemRegion(0x700000, 1<<20)
	insts := runPhase(NewRNG(1), 100,
		Leaf{Op: OpStridedStores, Dst: reg, Count: 2, Stride: 8, Size: 8, PC: PCApp},
		Leaf{Op: OpStridedLoads, Dst: reg, Count: 2, Stride: 8, PC: PCApp},
	)
	if len(insts) != 4 {
		t.Fatalf("got %d insts, want 4", len(insts))
	}
	if insts[0].Kind != KindStore || insts[3].Kind != KindLoad {
		t.Fatal("a phase must run its leaves in order")
	}
}

func TestRepeatCount(t *testing.T) {
	reg := NewMemRegion(0x800000, 1<<20)
	insts := runPhase(NewRNG(1), 100, Leaf{Op: OpStridedStores, Dst: reg, Count: 4, Stride: 8, Size: 8, PC: PCApp, Repeat: 3})
	if len(insts) != 12 {
		t.Fatalf("Repeat 3 of 4 stores = 12, got %d", len(insts))
	}
}

func TestForeverNeverEnds(t *testing.T) {
	reg := NewMemRegion(0x900000, 1<<20)
	r := onePhase(NewRNG(1), Leaf{Op: OpStridedStores, Dst: reg, Count: 2, Stride: 8, Size: 8, PC: PCApp})
	var in Inst
	for i := 0; i < 1000; i++ {
		if !r.Next(&in) {
			t.Fatal("a Program must never end")
		}
	}
}

func TestLimitCaps(t *testing.T) {
	reg := NewMemRegion(0xA00000, 1<<20)
	r := Limit(7, onePhase(NewRNG(1), Leaf{Op: OpStridedStores, Dst: reg, Count: 2, Stride: 8, Size: 8, PC: PCApp}))
	insts := Collect(r, 100)
	if len(insts) != 7 {
		t.Fatalf("Limit(7) produced %d insts", len(insts))
	}
}

func TestMixPhaseGranularity(t *testing.T) {
	regA := NewMemRegion(0xB00000, 1<<20)
	regB := NewMemRegion(0xC00000, 1<<20)
	p := NewProgram(NewRNG(5),
		Phase{Weight: 1, Leaves: []Leaf{{Op: OpMemset, Dst: regA, Bytes: 256, Size: 8, PC: PCLib}}},
		Phase{Weight: 1, Leaves: []Leaf{{Op: OpStridedLoads, Dst: regB, Count: 32, Stride: 8, PC: PCApp}}},
	)
	insts := Collect(p, 100000)
	if len(insts) == 0 {
		t.Fatal("program produced nothing")
	}
	// A picked phase runs to completion, so phases appear unbroken: store
	// runs of 32 (256/8) or load runs of 32, never interleaved within a
	// phase. Adjacent same-kind phases merge, so runs are multiples of 32.
	run := 1
	for i := 1; i <= len(insts); i++ {
		if i < len(insts) && insts[i].Kind == insts[i-1].Kind {
			run++
			continue
		}
		if run%32 != 0 {
			t.Fatalf("phase of %v has length %d, want a multiple of 32", insts[i-1].Kind, run)
		}
		run = 1
	}
}

func TestMixZeroWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a Program with zero total weight should panic")
		}
	}()
	NewProgram(NewRNG(1), Phase{Weight: 0})
}

func TestMemRegionWraps(t *testing.T) {
	reg := NewMemRegion(0, 2*mem.PageSize)
	a := reg.NextChunk(mem.PageSize)
	b := reg.NextChunk(mem.PageSize)
	c := reg.NextChunk(mem.PageSize)
	if a != 0 || b != mem.PageSize || c != 0 {
		t.Fatalf("chunks = %#x %#x %#x, want 0 0x1000 0", a, b, c)
	}
}

func TestMemRegionRandomAddrInBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		reg := NewMemRegion(0x1000, 16*mem.PageSize)
		a := reg.RandomAddr(rng, 8, 8)
		return a >= reg.Base && uint64(a)+8 <= uint64(reg.Base)+reg.Size && uint64(a)%8 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindLoad.String() != "load" || KindStore.String() != "store" {
		t.Fatal("Kind.String wrong for memory kinds")
	}
	if !KindLoad.IsMem() || !KindStore.IsMem() || KindBranch.IsMem() {
		t.Fatal("IsMem wrong")
	}
}
