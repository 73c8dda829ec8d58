package memsys

import (
	"testing"

	"spb/internal/cache"
	"spb/internal/mem"
)

// These tests inject protocol corruption directly and assert the auditor
// catches it: a checker that cannot fail cannot protect the simulator.

func TestCheckCoherenceDetectsDoubleWriter(t *testing.T) {
	s := New(tiny(), 2)
	a, b := s.Port(0), s.Port(1)
	ra := a.StoreAcquire(0x1000, 0x400000, 0)
	a.PerformStore(0x1000, 0x400000, ra.Done)
	// Corrupt: force a second writable copy behind the protocol's back.
	blk := mem.BlockOf(0x1000)
	b.L1().Insert(blk, cache.Modified, 0, false, false)
	if err := s.CheckCoherence(); err == nil {
		t.Fatal("auditor must detect two writable copies of one block")
	}
}

func TestCheckCoherenceDetectsOwnerWithForeignSharers(t *testing.T) {
	s := New(tiny(), 2)
	a := s.Port(0)
	ra := a.StoreAcquire(0x2000, 0x400000, 0)
	a.PerformStore(0x2000, 0x400000, ra.Done)
	// Corrupt the directory state in the block's L3 line: pretend core 1
	// also shares the owned block.
	s.L3().Peek(mem.BlockOf(0x2000)).Sharers |= 1 << 1
	if err := s.CheckCoherence(); err == nil {
		t.Fatal("auditor must detect an owner coexisting with foreign sharers")
	}
}

func TestCheckCoherenceDetectsUnownedModifiedCopy(t *testing.T) {
	s := New(tiny(), 1)
	a := s.Port(0)
	ra := a.StoreAcquire(0x3000, 0x400000, 0)
	a.PerformStore(0x3000, 0x400000, ra.Done)
	if err := s.CheckCoherence(); err != nil {
		t.Fatalf("healthy system flagged: %v", err)
	}
	// Corrupt the directory state under the private Modified copies: the L3
	// line forgets that core 0 owns the block.
	blk := mem.BlockOf(0x3000)
	s.L3().Peek(blk).SetOwner(-1)
	if err := s.CheckCoherence(); err == nil {
		t.Fatal("auditor must detect an L1 Modified copy the L3 does not record as owned")
	}
	// With the L1 copy gone the L2's Modified copy is still unowned.
	a.L1().Invalidate(blk)
	if err := s.CheckCoherence(); err == nil {
		t.Fatal("auditor must detect an L2 Modified copy the L3 does not record as owned")
	}
}

func TestCheckCoherenceCleanSystemPasses(t *testing.T) {
	s := New(tiny(), 4)
	now := uint64(0)
	for i := 0; i < 64; i++ {
		p := s.Port(i % 4)
		addr := mem.Addr(i%8) * 64
		now += 10
		if i%2 == 0 {
			p.Load(addr, 0x400000, now)
		} else {
			r := p.StoreAcquire(addr, 0x400000, now)
			p.PerformStore(addr, 0x400000, r.Done)
		}
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatalf("healthy system flagged: %v", err)
	}
}
