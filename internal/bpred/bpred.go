// Package bpred models the branch direction predictor of the front end.
// Table I specifies a 64 KB L-TAGE predictor with an 8K+8K BTB; by default
// the simulator models its *effect* statistically (per-workload mispredict
// rates, as the paper's characterization provides), and this package is the
// structural alternative: a gshare direction predictor plus a BTB whose
// misses cost a front-end bubble. A run that models it
// (sim.RunSpec.ModelBranchPredictor) gives each core of its machine one, which
// the core borrows (cpu.NewWithOptions) and which replaces the trace's
// statistical mispredict flags with modelled outcomes derived from actual
// branch directions.
package bpred

// Predictor is a gshare direction predictor with a direct-mapped BTB.
type Predictor struct {
	pht      []uint8 // 2-bit saturating counters
	history  uint64
	histBits uint

	btbTags []uint64
	btbMask uint64

	// Statistics.
	Lookups     uint64
	Mispredicts uint64
	BTBMisses   uint64
}

// Config sizes the predictor.
type Config struct {
	PHTEntries  int // pattern history table size (power of two)
	HistoryBits int
	BTBEntries  int // power of two
}

// TableI returns a configuration in the spirit of Table I's 64 KB L-TAGE +
// 8K-entry BTB (a gshare of the same storage class).
func TableI() Config {
	return Config{PHTEntries: 1 << 15, HistoryBits: 12, BTBEntries: 1 << 13}
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	if cfg.PHTEntries <= 0 || cfg.PHTEntries&(cfg.PHTEntries-1) != 0 {
		panic("bpred: PHT entries must be a positive power of two")
	}
	if cfg.BTBEntries <= 0 || cfg.BTBEntries&(cfg.BTBEntries-1) != 0 {
		panic("bpred: BTB entries must be a positive power of two")
	}
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 32 {
		panic("bpred: history bits must be in 1..32")
	}
	tb := newTables(cfg.PHTEntries, cfg.BTBEntries)
	p := &Predictor{
		pht:      tb.pht,
		histBits: uint(cfg.HistoryBits),
		btbTags:  tb.btbTags,
		btbMask:  uint64(cfg.BTBEntries - 1),
	}
	// Initialize counters to weakly taken: loops predict well immediately.
	for i := range p.pht {
		p.pht[i] = 2
	}
	return p
}

func (p *Predictor) index(pc uint64) uint64 {
	h := p.history & ((1 << p.histBits) - 1)
	return ((pc >> 2) ^ h) & uint64(len(p.pht)-1)
}

// Predict returns the predicted direction for the branch at pc and whether
// the BTB knew the branch at all (a BTB miss costs a fetch bubble even on a
// correct direction guess).
func (p *Predictor) Predict(pc uint64) (taken, btbHit bool) {
	p.Lookups++
	taken = p.pht[p.index(pc)] >= 2
	slot := (pc >> 2) & p.btbMask
	btbHit = p.btbTags[slot] == pc
	if !btbHit {
		p.BTBMisses++
	}
	return taken, btbHit
}

// Update trains the predictor with the branch's actual direction and
// reports whether the prediction had been wrong. Call exactly once per
// executed branch, after Predict.
func (p *Predictor) Update(pc uint64, taken bool) (mispredicted bool) {
	if mispredicted = (p.pht[p.index(pc)] >= 2) != taken; mispredicted {
		p.Mispredicts++
	}
	p.Warm(pc, taken)
	return mispredicted
}

// Warm trains the predictor with a branch outcome: the PHT counter, the
// global history and the BTB. It is Update's training without the
// mispredict check and counter, so functional warming (DESIGN.md §12) calls
// it directly.
func (p *Predictor) Warm(pc uint64, taken bool) {
	idx := p.index(pc)
	if taken && p.pht[idx] < 3 {
		p.pht[idx]++
	}
	if !taken && p.pht[idx] > 0 {
		p.pht[idx]--
	}
	p.history = p.history<<1 | b2u(taken)
	p.btbTags[(pc>>2)&p.btbMask] = pc
}

// MispredictRate returns mispredicts / lookups, or 0 when idle.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
