package prefetch

import "spb/internal/mem"

// Best-Offset prefetching (Michaud, HPCA 2016; the Hermes bop.h lineage):
// instead of assuming unit stride, the prefetcher *elects* the block offset
// D that best predicts future accesses, by scoring a fixed candidate list
// against a table of recent request addresses. Each learning phase tests
// candidates round-robin — an access to block X votes for offset d when
// X - d is found in the recent-requests table (meaning a prefetch of X
// issued d blocks early would have been timely) — and ends when a candidate
// saturates its score or the round budget runs out, at which point the
// winner becomes the prefetch offset for the next phase. A winner below the
// bad-score floor turns prefetching off for the phase, which is what makes
// BOP conservative on irregular streams.

// bopOffsets is the candidate list: offsets within a 64-block page whose
// prime factors are 2, 3 and 5 (Michaud's construction, truncated to the
// page). Order matters only for tie-breaks (first-listed wins).
var bopOffsets = []int32{
	1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48,
}

const (
	bopRRSize   = 128 // recent-requests table entries
	bopScoreMax = 31  // phase ends as soon as a candidate reaches this
	bopRoundMax = 32  // ... or after this many full passes over the list
	bopBadScore = 2   // winners at or below this disable prefetching
)

// BOP is the Best-Offset prefetcher.
type BOP struct {
	rr       []mem.Block // recent-requests ring
	rrNext   int
	rrFilled bool

	scores  []uint8 // one per bopOffsets entry, this phase
	candIdx int     // next candidate to test (round-robin cursor)
	round   int     // completed passes over the candidate list

	best      int32 // elected offset in blocks; 0 = prefetching off
	bestScore uint8 // the winner's score, for reports and tests
}

// NewBOP returns a Best-Offset prefetcher with an initial offset of 1
// (next-line), matching hardware practice of starting useful while the
// first phase learns.
func NewBOP() *BOP {
	return &BOP{
		rr:     make([]mem.Block, bopRRSize),
		scores: make([]uint8, len(bopOffsets)),
		best:   1,
	}
}

// Name implements Prefetcher.
func (b *BOP) Name() string { return "bop" }

// Best reports the currently elected offset (0 = off), for tests.
func (b *BOP) Best() int32 { return b.best }

// searchRR reports whether addr is in the recent-requests table.
func (b *BOP) searchRR(addr mem.Block) bool {
	n := b.rrNext
	if b.rrFilled {
		n = len(b.rr)
	}
	for i := 0; i < n; i++ {
		if b.rr[i] == addr {
			return true
		}
	}
	return false
}

// insertRR records addr in the recent-requests ring.
func (b *BOP) insertRR(addr mem.Block) {
	b.rr[b.rrNext] = addr
	b.rrNext++
	if b.rrNext == len(b.rr) {
		b.rrNext = 0
		b.rrFilled = true
	}
}

// endPhase elects the best-scoring candidate and resets the learning state.
func (b *BOP) endPhase() {
	bi := 0
	for i, s := range b.scores {
		if s > b.scores[bi] {
			bi = i
		}
	}
	b.bestScore = b.scores[bi]
	if b.bestScore <= bopBadScore {
		b.best = 0 // nothing predicts well: stop prefetching this phase
	} else {
		b.best = bopOffsets[bi]
	}
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.candIdx = 0
	b.round = 0
}

// Observe implements Prefetcher. Every demand access trains the offset
// scores and feeds the recent-requests table; misses additionally trigger a
// prefetch at the elected offset (prefetching on hits would only generate
// duplicate-drop traffic at the L1).
func (b *BOP) Observe(ev Event, out []mem.Block) []mem.Block {
	// Test the next candidate: did an access d blocks back predict this one?
	d := bopOffsets[b.candIdx]
	saturated := false
	if prev := int64(ev.Block) - int64(d); prev >= 0 &&
		mem.PageOfBlock(mem.Block(prev)) == mem.PageOfBlock(ev.Block) &&
		b.searchRR(mem.Block(prev)) {
		b.scores[b.candIdx]++
		if b.scores[b.candIdx] >= bopScoreMax {
			b.endPhase() // early election; cursor already reset
			saturated = true
		}
	}
	if !saturated {
		b.candIdx++
		if b.candIdx == len(bopOffsets) {
			b.candIdx = 0
			b.round++
			if b.round >= bopRoundMax {
				b.endPhase()
			}
		}
	}
	b.insertRR(ev.Block)
	if ev.Miss && b.best != 0 {
		tgt := int64(ev.Block) + int64(b.best)
		if blk := mem.Block(tgt); mem.PageOfBlock(blk) == mem.PageOfBlock(ev.Block) {
			out = append(out, blk)
		}
	}
	return out
}

// Epoch implements Prefetcher. BOP's feedback loop is its own phase
// mechanism; port-level feedback is ignored.
func (b *BOP) Epoch(Feedback) {}
