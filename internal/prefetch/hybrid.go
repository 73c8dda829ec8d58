package prefetch

import "spb/internal/mem"

// Hybrid arbitration across sub-prefetchers. Each sub-prefetcher proposes
// candidates for every demand access; the arbiter drains them round-robin
// into a shared per-trigger issue budget, with per-sub quotas reallocated
// per epoch toward whichever engine's past prefetches are actually being
// demanded (the generate_prefetches / allocate_prefetches idiom of hybrid
// prefetch buffers). Attribution is the arbiter's own: it remembers which
// sub proposed each issued block in a small ring, and a later demand access
// to a remembered block credits that sub — the port-level Used counter
// cannot be split per sub, so the arbiter measures its own proxy accuracy.

const (
	hybridBudget = 4  // issued prefetches per trigger, shared across subs
	hybridRecent = 64 // per-sub attribution ring entries
	// hybridFilter is the slot count of the per-sub table that says whether a
	// ring can hold a block at all: four slots per ring entry, so most are
	// zero, and a slot index is one byte.
	hybridFilter = 256
)

// filterSlot hashes a block to its slot of a sub's ring filter: the top byte
// of a Fibonacci hash.
func filterSlot(b mem.Block) uint8 {
	return uint8(uint64(b) * 0x9E3779B97F4A7C15 >> 56)
}

// Hybrid arbitrates a shared prefetch-issue budget across sub-prefetchers.
type Hybrid struct {
	subs []Prefetcher

	// Attribution state: recent[i] remembers blocks sub i issued; a demand
	// access matching one counts as a hit for that sub.
	recent [][]mem.Block
	rnext  []int
	// ringCnt[i] counts sub i's ring entries per filterSlot of their block (a
	// ring has 64, so a uint8 holds any count). It is derived from the ring
	// and exact when it reads zero: credit skips the scan of a ring that
	// cannot hold the block.
	ringCnt [][hybridFilter]uint8

	issued []uint64 // per-sub prefetches issued this epoch
	hits   []uint64 // per-sub attributed demand hits this epoch
	alloc  []int    // per-sub slots per trigger; sums to hybridBudget

	// Observe's working storage, reused across calls: per-sub proposal
	// buffers, slots taken this trigger, and read position in the proposals.
	scratch [][]mem.Block
	taken   []int
	cursor  []int
}

// NewHybrid returns the default hybrid: baseline stream + BOP + DSPatch
// under one shared budget.
func NewHybrid() *Hybrid {
	return NewHybridOf(NewStream(2, 1), NewBOP(), NewDSPatch())
}

// NewHybridOf builds a hybrid over the given sub-prefetchers (at least
// one), starting from an even budget split.
func NewHybridOf(subs ...Prefetcher) *Hybrid {
	if len(subs) == 0 {
		panic("prefetch: hybrid needs at least one sub-prefetcher")
	}
	h := &Hybrid{
		subs:    subs,
		recent:  make([][]mem.Block, len(subs)),
		rnext:   make([]int, len(subs)),
		ringCnt: make([][hybridFilter]uint8, len(subs)),
		issued:  make([]uint64, len(subs)),
		hits:    make([]uint64, len(subs)),
		alloc:   make([]int, len(subs)),
		scratch: make([][]mem.Block, len(subs)),
		taken:   make([]int, len(subs)),
		cursor:  make([]int, len(subs)),
	}
	for i := range subs {
		h.recent[i] = make([]mem.Block, hybridRecent)
	}
	h.evenSplit()
	return h
}

// Name implements Prefetcher.
func (h *Hybrid) Name() string { return "hybrid" }

// Alloc returns a copy of the current per-sub slot allocation, for tests.
func (h *Hybrid) Alloc() []int { return append([]int(nil), h.alloc...) }

// evenSplit resets the allocation to an even budget split, remainder to the
// earliest subs.
func (h *Hybrid) evenSplit() {
	n := len(h.subs)
	for i := range h.alloc {
		h.alloc[i] = hybridBudget / n
		if i < hybridBudget%n {
			h.alloc[i]++
		}
	}
}

// credit scans the attribution rings for b and counts a hit for each sub
// that recently issued it (consuming the entry so one prefetch is credited
// at most once).
func (h *Hybrid) credit(b mem.Block) {
	if b == 0 {
		return // 0 doubles as the rings' empty sentinel
	}
	slot := filterSlot(b)
	for i := range h.recent {
		if h.ringCnt[i][slot] == 0 {
			continue
		}
		for j := range h.recent[i] {
			if h.recent[i][j] == b {
				h.hits[i]++
				h.recent[i][j] = 0
				h.ringCnt[i][slot]--
				break
			}
		}
	}
}

// remember records an issued block in sub i's attribution ring, over the
// ring's oldest entry.
func (h *Hybrid) remember(i int, b mem.Block) {
	at := &h.recent[i][h.rnext[i]]
	if *at != 0 {
		h.ringCnt[i][filterSlot(*at)]--
	}
	if b != 0 {
		h.ringCnt[i][filterSlot(b)]++
	}
	*at = b
	h.rnext[i] = (h.rnext[i] + 1) % len(h.recent[i])
}

// Observe implements Prefetcher: credit attribution, collect every sub's
// proposals, then drain them round-robin under the per-sub quotas into the
// shared budget, deduplicating across subs.
func (h *Hybrid) Observe(ev Event, out []mem.Block) []mem.Block {
	h.credit(ev.Block)
	taken, cursor := h.taken, h.cursor
	for i, sub := range h.subs {
		h.scratch[i] = sub.Observe(ev, h.scratch[i][:0])
		taken[i], cursor[i] = 0, 0
	}
	base := len(out)
	emitted := 0
drain:
	for emitted < hybridBudget {
		progressed := false
		for i := range h.subs {
			if taken[i] >= h.alloc[i] || cursor[i] >= len(h.scratch[i]) {
				continue
			}
			b := h.scratch[i][cursor[i]]
			cursor[i]++
			progressed = true
			dup := false
			for _, prev := range out[base:] {
				if prev == b {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			out = append(out, b)
			h.remember(i, b)
			h.issued[i]++
			taken[i]++
			emitted++
			if emitted >= hybridBudget {
				break drain
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// Epoch implements Prefetcher: reallocate the budget by attributed
// accuracy, then forward the feedback to every sub (BOP ignores it, DSPatch
// retunes its pattern selector). Laplace smoothing (+1/+1) keeps an engine
// that issued nothing from being starved forever: it retains a small quota
// with which to prove itself next epoch.
func (h *Hybrid) Epoch(fb Feedback) {
	accs := make([]float64, len(h.subs))
	total := 0.0
	anyIssued := false
	for i := range h.subs {
		accs[i] = float64(h.hits[i]+1) / float64(h.issued[i]+1)
		total += accs[i]
		if h.issued[i] > 0 {
			anyIssued = true
		}
		h.hits[i] = 0
		h.issued[i] = 0
	}
	if anyIssued {
		// Largest-remainder apportionment of the budget by accuracy share:
		// deterministic, sums exactly to the budget, ties to earlier subs.
		type rem struct {
			i    int
			frac float64
		}
		rems := make([]rem, len(h.subs))
		used := 0
		for i, a := range accs {
			share := a / total * hybridBudget
			whole := int(share)
			h.alloc[i] = whole
			used += whole
			rems[i] = rem{i: i, frac: share - float64(whole)}
		}
		for used < hybridBudget {
			bi := 0
			for j := 1; j < len(rems); j++ {
				if rems[j].frac > rems[bi].frac {
					bi = j
				}
			}
			h.alloc[rems[bi].i]++
			rems[bi].frac = -1
			used++
		}
	}
	for _, sub := range h.subs {
		sub.Epoch(fb)
	}
}
