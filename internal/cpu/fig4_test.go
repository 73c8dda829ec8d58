package cpu

import (
	"testing"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/mem"
	"spb/internal/memsys"
	"spb/internal/trace"
)

// TestRunningExampleFig4 reproduces the paper's Fig. 4 running example end
// to end: contiguous 8-byte stores from address 0, SPB configured with
// N = 8. After the first window of same-block stores (diffs 0×7) and the
// transition into block 1, the check fires and a burst requests ownership
// of every remaining block of page 0. Subsequent stores then find their
// blocks already owned (the PopReq discards of the example).
func TestRunningExampleFig4(t *testing.T) {
	machine := config.Skylake().WithSQ(56)
	machine.SPB.WindowN = 8
	machine.Prefetcher = config.PrefetchNone

	var insts []trace.Inst
	for i := 0; i < 512; i++ { // one full page of 8-byte stores
		insts = append(insts, trace.Inst{
			Kind: trace.KindStore, Addr: mem.Addr(i * 8), Size: 8, PC: trace.PCApp,
		})
	}
	sys := memsys.New(machine, 1)
	c := New(machine.Core, core.PolicySPB, machine.SPB, sys.Port(0), trace.Limit(uint64(len(insts)), trace.NewSliceReader(insts)), 1)
	if err := c.Run(uint64(len(insts))); err != nil {
		t.Fatal(err)
	}
	for !c.Done() {
		c.Tick()
	}

	det := c.Detector()
	if det.Triggers != 1 {
		t.Fatalf("detector fired %d bursts for one page, want exactly 1 (page filter)", det.Triggers)
	}
	p := sys.Port(0)
	// The burst covered blocks 2..63: 62 prefetch-exclusive requests.
	if p.SPFBurst != 62 {
		t.Fatalf("burst issued %d block requests, want 62 (blocks 2..63)", p.SPFBurst)
	}
	// Every committed store also issued an at-commit prefetch; those that
	// found the block already owned were discarded (PopReq).
	if p.SPFDiscarded == 0 {
		t.Fatal("later at-commit prefetches should be discarded against owned blocks")
	}
	// Most of the burst must have been consumed by the stores (successful
	// or merged-in-flight), since the whole page is written.
	if p.SPFSuccessful+p.SPFLate < 50 {
		t.Fatalf("only %d+%d burst prefetches were consumed, want nearly all 62",
			p.SPFSuccessful, p.SPFLate)
	}
	// All 512 stores performed.
	if c.St.StoresPerformed != 512 {
		t.Fatalf("performed %d stores, want 512", c.St.StoresPerformed)
	}
}

// TestKernelStallAttribution drives clear_page-style kernel stores through
// a tiny SB and checks the Fig. 3 attribution sees kernel PCs.
func TestKernelStallAttribution(t *testing.T) {
	reg := trace.NewMemRegion(0x40000000, 1<<22)
	c := build(core.PolicyNone, 14, trace.Limit(8*mem.PageSize/8, program(1, trace.Leaf{Op: trace.OpMemset,
		Dst: reg, Bytes: mem.PageSize, Size: 8, PC: trace.PCKernel + 0x100, Repeat: 8})))
	if err := c.Run(4096); err != nil {
		t.Fatal(err)
	}
	if c.St.SBStallKernel == 0 {
		t.Fatal("clear_page stalls must be attributed to the kernel region")
	}
	if c.St.SBStallLib != 0 {
		t.Fatal("no library stores in this trace")
	}
}

// TestROBStallWhenMemoryBound: pointer-chasing loads with no SB pressure
// must fill the ROB, not the SB.
func TestROBStallWhenMemoryBound(t *testing.T) {
	reg := trace.NewMemRegion(0x50000000, 64<<20)
	c := build(core.PolicyAtCommit, 56, program(5, trace.Leaf{Op: trace.OpPointerChase, Dst: reg, Count: 64, PC: trace.PCApp}))
	if err := c.Run(20_000); err != nil {
		t.Fatal(err)
	}
	if c.St.SBStallCycles != 0 {
		t.Fatal("a load-only trace cannot stall on the SB")
	}
	if c.St.ROBStallCycles == 0 && c.St.LQStallCycles == 0 && c.St.IQStallCycles == 0 {
		t.Fatal("dependent DRAM loads must stall a back-end resource")
	}
}

// TestExecStallL1DPendingTracksMisses: the Top-Down signal must be high on
// a memory-bound trace and (near) zero on pure compute.
func TestExecStallL1DPendingSignal(t *testing.T) {
	reg := trace.NewMemRegion(0x60000000, 64<<20)
	mem0 := build(core.PolicyAtCommit, 56, program(9, trace.Leaf{Op: trace.OpPointerChase, Dst: reg, Count: 64, PC: trace.PCApp}))
	if err := mem0.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if mem0.St.ExecStallL1DPending == 0 {
		t.Fatal("pointer chase should stall with L1D misses pending")
	}
	alu := build(core.PolicyAtCommit, 56, trace.NewSliceReader(alus(10_000, 0)))
	if err := alu.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if alu.St.ExecStallL1DPending > alu.St.Cycles/100 {
		t.Fatalf("pure ALU trace shows %d L1D-pending stalls", alu.St.ExecStallL1DPending)
	}
}

// TestIdealAbsorbsBurstWithoutStalling: a burst shorter than the ideal SB
// capacity commits without a single SB stall.
func TestIdealAbsorbsShortBurst(t *testing.T) {
	reg := trace.NewMemRegion(0x70000000, 1<<20)
	c := build(core.PolicyIdeal, 14, memset(reg, 8000))
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.St.SBStallCycles != 0 {
		t.Fatalf("a 1000-store burst must fit the 1024-entry ideal SB, got %d stalls",
			c.St.SBStallCycles)
	}
}
