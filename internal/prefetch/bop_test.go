package prefetch

import (
	"testing"

	"spb/internal/mem"
)

func TestBOPElectsStrideOffset(t *testing.T) {
	b := NewBOP()
	// A stride-3 miss stream: every multiple-of-3 candidate scores, but
	// offset 3 is tested earliest each round, so it saturates first and wins
	// the election.
	var blk mem.Block
	for i := 0; i < 900; i++ {
		b.Observe(Event{PC: 0x400000, Block: blk, Miss: true}, nil)
		blk += 3
	}
	if b.Best() != 3 {
		t.Fatalf("Best() = %d, want 3 after a stride-3 stream", b.Best())
	}
	// A trained BOP prefetches trigger+3 on misses within the page.
	out := b.Observe(Event{PC: 0x400000, Block: blk, Miss: true}, nil)
	if len(out) != 1 || out[0] != blk+3 {
		t.Fatalf("prefetches = %v, want [%d]", out, blk+3)
	}
}

// TestBOPTrainsOnHits pins where the recent-requests table learns (DESIGN.md
// §16): every observed demand access enters it at Observe, hits included.
// Michaud's design, and Hermes' bop.h after it (register_fill), insert when a
// fill completes instead; there a stream of hits leaves the table empty, no
// candidate scores, and the election turns prefetching off. Here a stride-3
// stream of hits elects offset 3 exactly as the same stream of misses does,
// and only the misses prefetch.
func TestBOPTrainsOnHits(t *testing.T) {
	for _, miss := range []bool{false, true} {
		b := NewBOP()
		var blk mem.Block
		issued := 0
		for i := 0; i < 900; i++ {
			issued += len(b.Observe(Event{PC: 0x400000, Block: blk, Miss: miss}, nil))
			blk += 3
		}
		if b.Best() != 3 {
			t.Errorf("miss=%v: Best() = %d after a stride-3 stream, want 3", miss, b.Best())
		}
		if (issued > 0) != miss {
			t.Errorf("miss=%v: %d prefetches issued", miss, issued)
		}
	}
}

func TestBOPDisablesOnIrregularStream(t *testing.T) {
	b := NewBOP()
	// One access per page: no candidate offset ever finds its predecessor in
	// the same page, so every score stays 0 and the election turns
	// prefetching off.
	blk := mem.Block(0)
	var out []mem.Block
	for i := 0; i < len(bopOffsets)*bopRoundMax+10; i++ {
		out = b.Observe(Event{PC: 0x400000, Block: blk, Miss: true}, out[:0])
		blk += mem.BlocksPerPage
	}
	if b.Best() != 0 {
		t.Fatalf("Best() = %d, want 0 (prefetching off) after an irregular stream", b.Best())
	}
	out = b.Observe(Event{PC: 0x400000, Block: blk, Miss: true}, nil)
	if len(out) != 0 {
		t.Fatalf("disabled BOP issued %v", out)
	}
}

func TestBOPInitialNextLine(t *testing.T) {
	b := NewBOP()
	// Fresh BOP starts at offset 1 so it is useful while the first phase
	// learns; hits never trigger, and the offset never crosses the page.
	if got := b.Observe(Event{Block: 10, Miss: true}, nil); len(got) != 1 || got[0] != 11 {
		t.Fatalf("miss prefetches = %v, want [11]", got)
	}
	if got := b.Observe(Event{Block: 20, Miss: false}, nil); len(got) != 0 {
		t.Fatalf("hit must not prefetch, got %v", got)
	}
	if got := b.Observe(Event{Block: 63, Miss: true}, nil); len(got) != 0 {
		t.Fatalf("prefetch across the page boundary: %v", got)
	}
}

func TestBOPPhaseResetsScores(t *testing.T) {
	b := NewBOP()
	var blk mem.Block
	for i := 0; i < 900; i++ {
		b.Observe(Event{PC: 0x400000, Block: blk, Miss: true}, nil)
		blk += 3
	}
	if b.Best() != 3 {
		t.Fatalf("Best() = %d, want 3", b.Best())
	}
	// The election resets the learning state; the ~160 accesses since can
	// only have accumulated a handful of fresh votes per candidate.
	for _, s := range b.scores {
		if s >= bopScoreMax {
			t.Fatalf("scores not reset after election: %v", b.scores)
		}
	}
	if b.round >= bopRoundMax {
		t.Fatalf("round = %d not reset after election", b.round)
	}
}
