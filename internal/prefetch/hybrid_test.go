package prefetch

import (
	"testing"

	"spb/internal/mem"
)

// stubPF proposes fixed offsets from every trigger, for arbiter tests.
type stubPF struct {
	name string
	offs []int64
}

func (s *stubPF) Name() string { return s.name }

func (s *stubPF) Observe(ev Event, out []mem.Block) []mem.Block {
	for _, o := range s.offs {
		b := int64(ev.Block) + o
		if b >= 0 {
			out = append(out, mem.Block(b))
		}
	}
	return out
}

func (s *stubPF) Epoch(Feedback) {}

func TestHybridStartsWithEvenSplit(t *testing.T) {
	h := NewHybridOf(&stubPF{name: "a"}, &stubPF{name: "b"})
	if a := h.Alloc(); len(a) != 2 || a[0] != hybridBudget/2 || a[1] != hybridBudget/2 {
		t.Fatalf("initial allocation = %v, want an even split of %d", a, hybridBudget)
	}
}

func TestHybridBudgetCapAndDedup(t *testing.T) {
	a := &stubPF{name: "a", offs: []int64{1, 2, 3}}
	b := &stubPF{name: "b", offs: []int64{1, 5}}
	h := NewHybridOf(a, b)
	out := h.Observe(Event{Block: 100, Miss: true}, nil)
	if len(out) > hybridBudget {
		t.Fatalf("issued %d > budget %d", len(out), hybridBudget)
	}
	seen := map[mem.Block]bool{}
	for _, blk := range out {
		if seen[blk] {
			t.Fatalf("duplicate prefetch %d in %v", blk, out)
		}
		seen[blk] = true
	}
	// Block 101 is proposed by both; the arbiter must emit it once and still
	// give b its other proposal.
	if !seen[101] || !seen[105] {
		t.Fatalf("round-robin drain lost a proposal: %v", out)
	}
}

func TestHybridReallocatesBudgetByAccuracy(t *testing.T) {
	good := &stubPF{name: "good", offs: []int64{1}} // next block: demanded next access
	bad := &stubPF{name: "bad", offs: []int64{-50}} // behind the stream: never demanded
	h := NewHybridOf(good, bad)
	var out []mem.Block
	for i := 0; i < 200; i++ {
		out = h.Observe(Event{Block: mem.Block(1000 + i), Miss: true}, out[:0])
	}
	h.Epoch(Feedback{})
	a := h.Alloc()
	if a[0] <= a[1] {
		t.Fatalf("allocation = %v, want the accurate sub favored", a)
	}
	if a[0]+a[1] != hybridBudget {
		t.Fatalf("allocation %v does not sum to the budget %d", a, hybridBudget)
	}
	// Laplace smoothing must let a starved sub recover: if bad's quota hit
	// zero it issues nothing next epoch, which smoothing scores as perfect,
	// pulling it back toward an even share rather than starving it forever.
	for i := 200; i < 250; i++ {
		out = h.Observe(Event{Block: mem.Block(1000 + i), Miss: true}, out[:0])
	}
	h.Epoch(Feedback{})
	if a2 := h.Alloc(); a2[1] < 1 {
		t.Fatalf("allocation = %v, want the idle sub to regain at least one slot", a2)
	}
}

func TestHybridRespectsQuotas(t *testing.T) {
	// With the whole budget on sub 0, sub 1's proposals cannot issue.
	a := &stubPF{name: "a", offs: []int64{1, 2, 3, 4, 5}}
	b := &stubPF{name: "b", offs: []int64{10}}
	h := NewHybridOf(a, b)
	h.alloc[0], h.alloc[1] = hybridBudget, 0
	out := h.Observe(Event{Block: 100, Miss: true}, nil)
	if len(out) != hybridBudget {
		t.Fatalf("issued %v, want %d from the funded sub", out, hybridBudget)
	}
	for _, blk := range out {
		if blk == 110 {
			t.Fatalf("zero-quota sub issued %d", blk)
		}
	}
}

func TestHybridDefaultComposition(t *testing.T) {
	h := NewHybrid()
	if h.Name() != "hybrid" {
		t.Fatalf("Name() = %q", h.Name())
	}
	if len(h.subs) != 3 {
		t.Fatalf("default hybrid has %d subs, want stream+bop+dspatch", len(h.subs))
	}
	// A unit-stride stream must produce prefetches without exceeding the
	// shared budget on any single trigger.
	var out []mem.Block
	total := 0
	for i := 0; i < 64; i++ {
		out = h.Observe(Event{PC: 0x400000, Block: mem.Block(i), Miss: true}, out[:0])
		if len(out) > hybridBudget {
			t.Fatalf("trigger issued %d > budget %d", len(out), hybridBudget)
		}
		total += len(out)
	}
	if total == 0 {
		t.Fatal("default hybrid issued nothing on a unit-stride stream")
	}
}

// TestHybridRingFilterCountsTheRings: credit skips a ring whose filter slot
// reads zero, which is only sound while each slot counts exactly the ring
// entries that hash to it. Strided runs from random starts in a small block
// range — proposals repeat, get credited and get overwritten — must leave the
// filters equal to a recount of the rings.
func TestHybridRingFilterCountsTheRings(t *testing.T) {
	h := NewHybridOf(NewStream(2, 1), NewBOP())
	recounted := func(h *Hybrid) bool {
		for i, ring := range h.recent {
			var want [hybridFilter]uint8
			for _, b := range ring {
				if b != 0 {
					want[filterSlot(b)]++
				}
			}
			if want != h.ringCnt[i] {
				return false
			}
		}
		return true
	}
	var out []mem.Block
	x, b, credited := uint64(1), mem.Block(0), uint64(0)
	for i := 0; i < 20000; i++ {
		if i%40 == 0 {
			x = x*6364136223846793005 + 1442695040888963407
			b = mem.Block(x >> 33 % 2000)
		}
		b++
		out = h.Observe(Event{PC: 0x400000 + uint64(i%40/20)*8, Block: b, Miss: true}, out[:0])
		if !recounted(h) {
			t.Fatalf("access %d: a ring filter is not a count of its ring", i)
		}
		if i%1000 == 999 {
			credited += h.hits[0] + h.hits[1]
			h.Epoch(Feedback{})
		}
	}
	if credited == 0 {
		t.Fatal("no prefetch was ever credited: the traffic does not exercise the consuming path")
	}
}
