package cpu

import (
	"math"
	"testing"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/mem"
	"spb/internal/memsys"
	"spb/internal/trace"
)

// build constructs a single-core machine with the given policy and SB size,
// running reader to its end.
func build(policy core.Policy, sq int, reader trace.Reader) *Core {
	m := config.Skylake().WithSQ(sq)
	sys := memsys.New(m, 1)
	return New(m.Core, policy, m.SPB, sys.Port(0), trace.Limit(math.MaxUint64, reader), 7)
}

// program is an endless Program of one phase that runs leaves in order.
func program(seed uint64, leaves ...trace.Leaf) *trace.Program {
	return trace.NewProgram(trace.NewRNG(seed), trace.Phase{Weight: 1, Leaves: leaves})
}

// memset is one memset of bytes bytes of reg in 8-byte stores, then the end of
// the stream.
func memset(reg *trace.MemRegion, bytes uint64) trace.Reader {
	l := trace.Leaf{Op: trace.OpMemset, Dst: reg, Bytes: bytes, Size: 8, PC: trace.PCLib}
	return trace.Limit(uint64(l.Insts()), program(1, l))
}

func alus(n int, dep uint8) []trace.Inst {
	out := make([]trace.Inst, n)
	for i := range out {
		out[i] = trace.Inst{Kind: trace.KindIntALU, Dep1: dep, PC: trace.PCApp}
	}
	return out
}

func TestIndependentALUNearWidthIPC(t *testing.T) {
	c := build(core.PolicyAtCommit, 56, trace.NewSliceReader(alus(4000, 0)))
	if err := c.Run(4000); err != nil {
		t.Fatal(err)
	}
	if ipc := c.St.IPC(); ipc < 3.0 {
		t.Fatalf("independent ALU IPC = %.2f, want near the width of 4", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	c := build(core.PolicyAtCommit, 56, trace.NewSliceReader(alus(4000, 1)))
	if err := c.Run(4000); err != nil {
		t.Fatal(err)
	}
	if ipc := c.St.IPC(); ipc > 1.2 {
		t.Fatalf("dependent chain IPC = %.2f, want ~1", ipc)
	}
}

func memsetTrace(pages int) trace.Reader {
	reg := trace.NewMemRegion(0x10000000, uint64(pages)*mem.PageSize)
	return memset(reg, uint64(pages)*mem.PageSize)
}

func TestStoreBurstFillsSmallSB(t *testing.T) {
	c := build(core.PolicyNone, 14, memsetTrace(4))
	if err := c.Run(2048); err != nil {
		t.Fatal(err)
	}
	if c.St.SBStallCycles == 0 {
		t.Fatal("a cold memset through a 14-entry SB must stall on the SB")
	}
	if c.St.SBStallLib == 0 {
		t.Fatal("stalls should be attributed to the library store PC")
	}
	if c.St.SBStallKernel != 0 {
		t.Fatal("no kernel stores in this trace")
	}
}

func TestSPBTriggersOnMemset(t *testing.T) {
	c := build(core.PolicySPB, 14, memsetTrace(4))
	if err := c.Run(2048); err != nil {
		t.Fatal(err)
	}
	if c.St.SPBBursts == 0 {
		t.Fatal("SPB must detect the contiguous store pattern")
	}
	if c.Detector().Triggers == 0 {
		t.Fatal("detector trigger count should be positive")
	}
}

func TestSPBBeatsAtCommitOnStoreBurst(t *testing.T) {
	run := func(p core.Policy) uint64 {
		c := build(p, 14, memsetTrace(16))
		if err := c.Run(8192); err != nil {
			t.Fatal(err)
		}
		return c.St.Cycles
	}
	atCommit := run(core.PolicyAtCommit)
	spb := run(core.PolicySPB)
	if spb >= atCommit {
		t.Fatalf("SPB (%d cycles) should beat at-commit (%d) on a memset burst", spb, atCommit)
	}
}

func TestAtCommitBeatsNoPrefetch(t *testing.T) {
	run := func(p core.Policy) uint64 {
		c := build(p, 14, memsetTrace(8))
		if err := c.Run(4096); err != nil {
			t.Fatal(err)
		}
		return c.St.Cycles
	}
	none := run(core.PolicyNone)
	atCommit := run(core.PolicyAtCommit)
	if atCommit >= none {
		t.Fatalf("at-commit (%d cycles) should beat no prefetch (%d)", atCommit, none)
	}
}

func TestIdealUsesLargeSB(t *testing.T) {
	c := build(core.PolicyIdeal, 14, memsetTrace(2))
	if c.SB().Capacity() != config.IdealSQSize {
		t.Fatalf("ideal SB capacity = %d, want %d", c.SB().Capacity(), config.IdealSQSize)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	insts := []trace.Inst{
		{Kind: trace.KindStore, Addr: 0x5000, Size: 8, PC: trace.PCApp},
		{Kind: trace.KindLoad, Addr: 0x5000, Size: 8, PC: trace.PCApp + 4},
	}
	c := build(core.PolicyAtCommit, 56, trace.NewSliceReader(insts))
	if err := c.Run(2); err != nil {
		t.Fatal(err)
	}
	if c.St.ForwardedLoads != 1 {
		t.Fatalf("ForwardedLoads = %d, want 1", c.St.ForwardedLoads)
	}
}

func TestPartialForwardCounted(t *testing.T) {
	insts := []trace.Inst{
		{Kind: trace.KindStore, Addr: 0x5000, Size: 4, PC: trace.PCApp},
		{Kind: trace.KindLoad, Addr: 0x5000, Size: 8, PC: trace.PCApp + 4},
	}
	c := build(core.PolicyAtCommit, 56, trace.NewSliceReader(insts))
	if err := c.Run(2); err != nil {
		t.Fatal(err)
	}
	if c.St.PartialForwards != 1 {
		t.Fatalf("PartialForwards = %d, want 1", c.St.PartialForwards)
	}
}

func TestMispredictStallsAndWrongPath(t *testing.T) {
	var insts []trace.Inst
	for i := 0; i < 400; i++ {
		insts = append(insts, trace.Inst{Kind: trace.KindIntALU, PC: trace.PCApp})
		insts = append(insts, trace.Inst{
			Kind: trace.KindBranch, Dep1: 1, Mispredicted: i%4 == 0, PC: trace.PCApp + 4,
		})
	}
	c := build(core.PolicyAtCommit, 56, trace.NewSliceReader(insts))
	if err := c.Run(uint64(len(insts))); err != nil {
		t.Fatal(err)
	}
	if c.St.Mispredicts == 0 || c.St.FrontendStallCycles == 0 {
		t.Fatalf("mispredicts=%d frontendStalls=%d, want both > 0",
			c.St.Mispredicts, c.St.FrontendStallCycles)
	}
	if c.St.WrongPathInsts == 0 {
		t.Fatal("wrong-path instructions should be synthesized")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Core {
		rng := trace.NewRNG(trace.SeedFromString("det"))
		reg := trace.NewMemRegion(0x20000000, 1<<22)
		p := trace.NewProgram(rng,
			trace.Phase{Weight: 2, Leaves: []trace.Leaf{{Op: trace.OpMemset, Dst: reg, Bytes: 4096, Size: 8, PC: trace.PCLib}}},
			trace.Phase{Weight: 3, Leaves: []trace.Leaf{{Op: trace.OpCompute, Compute: trace.ComputeOptions{
				Count: 100, BrFrac: 0.2, MissRate: 0.05, PC: trace.PCApp}}}},
		)
		return build(core.PolicySPB, 28, trace.Limit(20000, p))
	}
	a, b := mk(), mk()
	if err := a.Run(20000); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(20000); err != nil {
		t.Fatal(err)
	}
	if a.St != b.St {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a.St, b.St)
	}
}

func TestDoneAfterDrain(t *testing.T) {
	c := build(core.PolicyAtCommit, 56, trace.NewSliceReader([]trace.Inst{
		{Kind: trace.KindStore, Addr: 0x100, Size: 8, PC: trace.PCApp},
	}))
	if err := c.Run(1); err != nil {
		t.Fatal(err)
	}
	for !c.Done() {
		c.Tick()
	}
	if !c.SB().Empty() {
		t.Fatal("SB must drain before Done")
	}
	if c.St.Committed != 1 || c.St.StoresPerformed != 1 {
		t.Fatalf("committed=%d performed=%d, want 1/1", c.St.Committed, c.St.StoresPerformed)
	}
}

func TestCommitRespectsWidth(t *testing.T) {
	c := build(core.PolicyAtCommit, 56, trace.NewSliceReader(alus(400, 0)))
	prev := uint64(0)
	for !c.Done() {
		c.Tick()
		if d := c.St.Committed - prev; d > uint64(c.cfg.Width) {
			t.Fatalf("committed %d instructions in one cycle, width is %d", d, c.cfg.Width)
		}
		prev = c.St.Committed
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{SBStallCycles: 3, ROBStallCycles: 1, IQStallCycles: 2, LQStallCycles: 4,
		Committed: 100, Cycles: 50}
	if s.OtherStallCycles() != 7 {
		t.Fatalf("OtherStallCycles = %d, want 7", s.OtherStallCycles())
	}
	if s.IssueStallCycles() != 10 {
		t.Fatalf("IssueStallCycles = %d, want 10", s.IssueStallCycles())
	}
	if s.IPC() != 2.0 {
		t.Fatalf("IPC = %v, want 2", s.IPC())
	}
	if (&Stats{}).IPC() != 0 {
		t.Fatal("IPC of empty stats should be 0")
	}
}

func TestAtExecutePrefetchesSpeculatively(t *testing.T) {
	m := config.Skylake().WithSQ(14)
	sys := memsys.New(m, 1)
	reg := trace.NewMemRegion(0x30000000, 1<<20)
	r := memset(reg, 2048)
	c := New(m.Core, core.PolicyAtExecute, m.SPB, sys.Port(0), trace.Limit(math.MaxUint64, r), 7)
	if err := c.Run(256); err != nil {
		t.Fatal(err)
	}
	if sys.Port(0).SPFIssued == 0 {
		t.Fatal("at-execute must issue ownership prefetches")
	}
}

func TestRunLivelockGuard(t *testing.T) {
	// A healthy trace must not trip the guard.
	c := build(core.PolicyAtCommit, 14, memsetTrace(1))
	if err := c.Run(512); err != nil {
		t.Fatalf("unexpected livelock: %v", err)
	}
}

func TestOccHeap(t *testing.T) {
	var h occHeap
	h.add(10)
	h.add(5)
	h.add(20)
	if n := h.occupancy(4); n != 3 {
		t.Fatalf("occupancy(4) = %d, want 3", n)
	}
	if n := h.occupancy(10); n != 1 {
		t.Fatalf("occupancy(10) = %d, want 1", n)
	}
	if n := h.occupancy(100); n != 0 {
		t.Fatalf("occupancy(100) = %d, want 0", n)
	}
}
