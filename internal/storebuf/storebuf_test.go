package storebuf

import (
	"testing"
	"testing/quick"

	"spb/internal/config"
	"spb/internal/mem"
)

func TestAllocateCommitPopLifecycle(t *testing.T) {
	sb := New(4)
	if !sb.Empty() {
		t.Fatal("new buffer should be empty")
	}
	s0 := sb.Allocate(0x100, 8, 1)
	s1 := sb.Allocate(0x108, 8, 1)
	if sb.Len() != 2 || sb.SeniorLen() != 0 {
		t.Fatalf("len=%d seniors=%d, want 2/0", sb.Len(), sb.SeniorLen())
	}
	if _, ok := sb.Head(); ok {
		t.Fatal("no senior head before commit")
	}
	sb.Commit(s0)
	e, ok := sb.Head()
	if !ok || e.Addr != 0x100 {
		t.Fatal("head should be the first committed store")
	}
	got := sb.Pop()
	if got.Seq != s0 {
		t.Fatal("pop should return the first store")
	}
	sb.Commit(s1)
	if sb.Pop().Seq != s1 {
		t.Fatal("second pop should return the second store")
	}
	if !sb.Empty() {
		t.Fatal("buffer should drain empty")
	}
}

func TestFullBlocksAllocation(t *testing.T) {
	sb := New(2)
	sb.Allocate(0, 8, 0)
	sb.Allocate(8, 8, 0)
	if !sb.Full() {
		t.Fatal("buffer of 2 with 2 entries must be full")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("allocate on full buffer should panic")
		}
	}()
	sb.Allocate(16, 8, 0)
}

func TestCommitOutOfOrderPanics(t *testing.T) {
	sb := New(4)
	sb.Allocate(0, 8, 0)
	s1 := sb.Allocate(8, 8, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order commit should panic (TSO)")
		}
	}()
	sb.Commit(s1)
}

func TestPopWithoutSeniorPanics(t *testing.T) {
	sb := New(4)
	sb.Allocate(0, 8, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("pop of junior store should panic")
		}
	}()
	sb.Pop()
}

func TestFIFODrainOrderIsProgramOrder(t *testing.T) {
	sb := New(8)
	var seqs []uint64
	for i := 0; i < 8; i++ {
		seqs = append(seqs, sb.Allocate(mem.Addr(i*8), 8, 0))
	}
	for _, s := range seqs {
		sb.Commit(s)
	}
	for i := 0; i < 8; i++ {
		e := sb.Pop()
		if e.Addr != mem.Addr(i*8) {
			t.Fatalf("pop %d returned addr %#x, want %#x (TSO order)", i, e.Addr, i*8)
		}
	}
}

func TestForwardFullCover(t *testing.T) {
	sb := New(4)
	sb.Allocate(0x100, 8, 0)
	if r := sb.Forward(0x100, 8, sb.TailSeq()); r != FullForward {
		t.Fatalf("exact match = %v, want FullForward", r)
	}
	if r := sb.Forward(0x104, 4, sb.TailSeq()); r != FullForward {
		t.Fatalf("contained load = %v, want FullForward", r)
	}
}

func TestForwardPartial(t *testing.T) {
	sb := New(4)
	sb.Allocate(0x100, 8, 0)
	if r := sb.Forward(0x104, 8, sb.TailSeq()); r != PartialForward {
		t.Fatalf("straddling load = %v, want PartialForward", r)
	}
}

func TestForwardMiss(t *testing.T) {
	sb := New(4)
	sb.Allocate(0x100, 8, 0)
	if r := sb.Forward(0x200, 8, sb.TailSeq()); r != NoForward {
		t.Fatalf("disjoint load = %v, want NoForward", r)
	}
}

func TestForwardYoungestWins(t *testing.T) {
	sb := New(4)
	sb.Allocate(0x100, 4, 0) // older, partial w.r.t. an 8B load
	sb.Allocate(0x100, 8, 0) // younger, full cover
	if r := sb.Forward(0x100, 8, sb.TailSeq()); r != FullForward {
		t.Fatalf("youngest-first search = %v, want FullForward", r)
	}
}

func TestForwardRespectsBeforeSeq(t *testing.T) {
	sb := New(4)
	s0 := sb.Allocate(0x100, 8, 0)
	// A load dispatched before the store (beforeSeq == s0) must not see it.
	if r := sb.Forward(0x100, 8, s0); r != NoForward {
		t.Fatalf("load older than store = %v, want NoForward", r)
	}
	sb.Allocate(0x200, 8, 0)
	// A load between the two sees only the first.
	if r := sb.Forward(0x200, 8, s0+1); r != NoForward {
		t.Fatalf("load older than 2nd store = %v, want NoForward", r)
	}
}

func TestForwardIgnoresDrainedStores(t *testing.T) {
	sb := New(4)
	s0 := sb.Allocate(0x100, 8, 0)
	sb.Commit(s0)
	sb.Pop()
	if r := sb.Forward(0x100, 8, sb.TailSeq()); r != NoForward {
		t.Fatalf("drained store must not forward, got %v", r)
	}
}

func TestSeniorsIteration(t *testing.T) {
	sb := New(8)
	for i := 0; i < 4; i++ {
		sb.Commit(sb.Allocate(mem.Addr(i*64), 8, 0))
	}
	sb.Allocate(0x1000, 8, 0) // junior, must not be visited
	var got []mem.Addr
	sb.Seniors(func(e *Entry) { got = append(got, e.Addr) })
	if len(got) != 4 {
		t.Fatalf("visited %d seniors, want 4", len(got))
	}
	for i, a := range got {
		if a != mem.Addr(i*64) {
			t.Fatal("seniors must iterate oldest-first")
		}
	}
}

func TestWrapAround(t *testing.T) {
	sb := New(2)
	for round := 0; round < 100; round++ {
		s := sb.Allocate(mem.Addr(round*8), 8, 0)
		sb.Commit(s)
		e := sb.Pop()
		if e.Addr != mem.Addr(round*8) {
			t.Fatalf("round %d: addr %#x", round, e.Addr)
		}
	}
	if sb.MaxOccupancy != 1 {
		t.Fatalf("MaxOccupancy = %d, want 1", sb.MaxOccupancy)
	}
}

func TestEntryBlock(t *testing.T) {
	e := Entry{Addr: 0x1047}
	if e.Block() != mem.BlockOf(0x1047) {
		t.Fatal("Entry.Block mismatch")
	}
}

// Property: occupancy never exceeds capacity and Len is consistent with the
// allocate/pop history under random valid operation sequences.
func TestOccupancyInvariant(t *testing.T) {
	f := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		sb := New(capacity)
		committed := uint64(0)
		allocated := 0
		popped := 0
		for _, alloc := range ops {
			if alloc && !sb.Full() {
				seq := sb.Allocate(mem.Addr(allocated*8), 8, 0)
				if seq != uint64(allocated) {
					return false
				}
				allocated++
			} else if !alloc {
				if committed < uint64(allocated) {
					sb.Commit(committed)
					committed++
				}
				if _, ok := sb.Head(); ok {
					sb.Pop()
					popped++
				}
			}
			if sb.Len() > capacity || sb.Len() != allocated-popped {
				return false
			}
			if sb.MaxOccupancy > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestForwardFilterOutsizesTheIdealBuffer: the forwarding filter spares a load
// the associative walk only while most of its slots are zero, so it must stay
// well above the largest buffer a core is built with — the ideal policy's.
func TestForwardFilterOutsizesTheIdealBuffer(t *testing.T) {
	if sbFilterSize < 4*config.IdealSQSize || sbFilterSize&sbFilterMask != 0 {
		t.Fatalf("sbFilterSize = %d, want a power of two at least 4 x config.IdealSQSize (%d)", sbFilterSize, config.IdealSQSize)
	}
}
