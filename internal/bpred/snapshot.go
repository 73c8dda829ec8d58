package bpred

import (
	"fmt"

	"spb/internal/pool"
)

// Warm-start support (DESIGN.md §12): deep snapshot/restore for a warm
// group's in-memory snapshot, and pooled tables so repeated Runner
// invocations stop allocating the PHT and BTB arrays. Functional warming
// trains through Warm (bpred.go).

// Snapshot is a deep copy of a predictor's mutable state.
type Snapshot struct {
	PHT     []uint8
	History uint64
	BTBTags []uint64

	Lookups, Mispredicts, BTBMisses uint64
}

// Snapshot deep-copies the predictor's mutable state.
func (p *Predictor) Snapshot() *Snapshot {
	return &Snapshot{
		PHT:         append([]uint8(nil), p.pht...),
		History:     p.history,
		BTBTags:     append([]uint64(nil), p.btbTags...),
		Lookups:     p.Lookups,
		Mispredicts: p.Mispredicts,
		BTBMisses:   p.BTBMisses,
	}
}

// Restore overwrites the predictor's mutable state with the snapshot's. The
// predictor must have the same geometry as the snapshot's source.
func (p *Predictor) Restore(s *Snapshot) {
	if len(s.PHT) != len(p.pht) || len(s.BTBTags) != len(p.btbTags) {
		panic(fmt.Sprintf("bpred: snapshot does not have the predictor's %d-entry PHT and %d-entry BTB", len(p.pht), len(p.btbTags)))
	}
	copy(p.pht, s.PHT)
	p.history = s.History
	copy(p.btbTags, s.BTBTags)
	p.Lookups = s.Lookups
	p.Mispredicts = s.Mispredicts
	p.BTBMisses = s.BTBMisses
}

// tables is the pooled backing storage of one predictor geometry.
type tables struct {
	pht     []uint8
	btbTags []uint64
}

var tablePool pool.Keyed[[2]int, *tables] // by {PHT, BTB} entries

// newTables returns zeroed PHT/BTB arrays, reusing released ones of the same
// geometry when available.
func newTables(pht, btb int) *tables {
	if t, ok := tablePool.Get([2]int{pht, btb}); ok {
		clear(t.pht)
		clear(t.btbTags)
		return t
	}
	return &tables{pht: make([]uint8, pht), btbTags: make([]uint64, btb)}
}

// Release returns the PHT/BTB arrays to the geometry's shared pool. The
// predictor must not be used afterwards; skipping Release is always safe.
func (p *Predictor) Release() {
	if p.pht == nil {
		return
	}
	tablePool.Put([2]int{len(p.pht), len(p.btbTags)}, &tables{pht: p.pht, btbTags: p.btbTags})
	p.pht = nil
	p.btbTags = nil
}
