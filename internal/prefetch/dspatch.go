package prefetch

import (
	"math/bits"

	"spb/internal/mem"
)

// DSPatch-style dual spatial-pattern prefetching (Bera et al., MICRO 2019).
// The unit of prediction is the spatial footprint of a page visit: which of
// the 64 blocks of a page the program touches between first access (the
// trigger) and the page falling out of the active-page buffer. Footprints
// are stored trigger-relative — the observed bitmap is rotated so the
// trigger block sits at bit 0 — which lets one pattern predict the page no
// matter where the program enters it. Each program-context (trigger-PC)
// entry keeps TWO patterns over the same history: CovP, the OR of observed
// footprints (coverage-biased: predicts everything ever touched), and AccP,
// the AND (accuracy-biased: predicts only blocks touched on every visit).
// Which one drives prediction is a bandwidth decision: when prefetch
// accuracy is high the memory system has headroom and CovP's extra traffic
// buys coverage; when accuracy collapses — the signature that prefetch
// traffic is crowding demand bandwidth — the selector falls back to AccP.
// The paper switches on measured DRAM bandwidth utilization; this simulator
// uses the port's accuracy feedback as the congestion proxy, which is the
// same signal FDP throttles on.

const (
	dspPages    = 32   // active-page buffer entries
	dspTable    = 256  // pattern-table entries (direct-mapped, PC-hashed)
	dspDegree   = 8    // max prefetches per trigger (issue quota)
	dspAccLow   = 0.50 // accuracy below this selects AccP (congestion proxy)
	dspAccHysUp = 0.65 // ... and back to CovP only above this (hysteresis)
)

// dspPage is one active page being observed.
type dspPage struct {
	page    mem.Page
	sig     uint32 // pattern-table index the footprint commits to
	trigger int    // block index of the first access (rotation anchor)
	bitmap  uint64 // observed footprint, absolute block-index bits
	valid   bool
}

// dspEntry is one trigger-relative dual pattern.
type dspEntry struct {
	covP  uint64 // OR of committed footprints (coverage-biased)
	accP  uint64 // AND of committed footprints (accuracy-biased)
	valid bool
}

// DSPatch is the dual spatial-pattern prefetcher.
type DSPatch struct {
	pages   []dspPage
	pageClk int // round-robin eviction cursor for the page buffer
	table   []dspEntry
	useAcc  bool // current pattern selection: false = CovP, true = AccP
}

// NewDSPatch returns a DSPatch prefetcher starting in coverage mode.
func NewDSPatch() *DSPatch {
	return &DSPatch{
		pages: make([]dspPage, dspPages),
		table: make([]dspEntry, dspTable),
	}
}

// Name implements Prefetcher.
func (d *DSPatch) Name() string { return "dspatch" }

// UsingAccuracy reports whether the accuracy-biased pattern is selected,
// for tests.
func (d *DSPatch) UsingAccuracy() bool { return d.useAcc }

// dspSig hashes a trigger PC to a pattern-table index.
func dspSig(pc uint64) uint32 {
	h := pc >> 2
	h ^= h >> 7
	h ^= h >> 13
	return uint32(h) & (dspTable - 1)
}

// rotr rotates a 64-bit footprint right by k, mapping absolute block-index
// bits to trigger-relative bits (bit trigger -> bit 0).
func rotr(bm uint64, k int) uint64 { return bits.RotateLeft64(bm, -k) }

// rotl maps a trigger-relative pattern back to absolute block-index bits
// for a new trigger offset.
func rotl(bm uint64, k int) uint64 { return bits.RotateLeft64(bm, k) }

// commit folds an observed page footprint into its pattern-table entry,
// rotated to trigger-relative form.
func (d *DSPatch) commit(p *dspPage) {
	rel := rotr(p.bitmap, p.trigger)
	e := &d.table[p.sig]
	if !e.valid {
		e.covP, e.accP, e.valid = rel, rel, true
		return
	}
	e.covP |= rel
	e.accP &= rel
}

// PatternFor returns the stored (coverage, accuracy) trigger-relative
// patterns for a trigger PC, for tests.
func (d *DSPatch) PatternFor(pc uint64) (covP, accP uint64, ok bool) {
	e := d.table[dspSig(pc)]
	return e.covP, e.accP, e.valid
}

// Observe implements Prefetcher. A hit in the active-page buffer records
// the footprint bit; a new page commits the evicted footprint, opens a new
// one, and predicts the incoming page from the stored pattern — rotated to
// the new trigger and issued nearest-first up to the degree quota.
func (d *DSPatch) Observe(ev Event, out []mem.Block) []mem.Block {
	page := mem.PageOfBlock(ev.Block)
	idx := mem.BlockIndexInPage(ev.Block)
	for i := range d.pages {
		if d.pages[i].valid && d.pages[i].page == page {
			d.pages[i].bitmap |= 1 << uint(idx)
			return out
		}
	}
	// New page: retire the slot under the clock hand first.
	slot := &d.pages[d.pageClk]
	d.pageClk = (d.pageClk + 1) % len(d.pages)
	if slot.valid {
		d.commit(slot)
	}
	sig := dspSig(ev.PC)
	*slot = dspPage{page: page, sig: sig, trigger: idx, bitmap: 1 << uint(idx), valid: true}

	e := d.table[sig]
	if !e.valid {
		return out
	}
	pattern := e.covP
	if d.useAcc {
		pattern = e.accP
	}
	abs := rotl(pattern, idx) &^ (1 << uint(idx)) // demand covers the trigger itself
	// Issue nearest-first from the trigger so the quota spends itself on the
	// blocks the program reaches soonest.
	first := int64(ev.Block) - int64(idx) // first block of the page
	issued := 0
	for dist := 1; dist < mem.BlocksPerPage && issued < dspDegree; dist++ {
		for _, off := range [2]int{idx + dist, idx - dist} {
			if off < 0 || off >= mem.BlocksPerPage || abs&(1<<uint(off)) == 0 {
				continue
			}
			out = append(out, mem.Block(first+int64(off)))
			issued++
			if issued >= dspDegree {
				break
			}
		}
	}
	return out
}

// Epoch implements Prefetcher: the bandwidth-aware pattern selector. Low
// prefetch accuracy means issued traffic is not turning into hits — the
// congestion signature — so prediction tightens to AccP; sustained high
// accuracy relaxes back to CovP. The two thresholds give the selector
// hysteresis so it does not flap on noise around a single cut-off.
func (d *DSPatch) Epoch(fb Feedback) {
	if fb.Issued == 0 {
		return
	}
	acc := float64(fb.Used) / float64(fb.Issued)
	if d.useAcc {
		if acc >= dspAccHysUp {
			d.useAcc = false
		}
	} else if acc < dspAccLow {
		d.useAcc = true
	}
}
