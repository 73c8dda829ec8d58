package figures

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"spb/internal/sim"
)

// structurallyZero lists the stats-JSON keys that read 0 on every point of
// the counter grid, each with the reason and the roadmap item that will make
// it move. The table may only shrink: a listed key that moves fails the test
// too, so its row goes the day its item lands.
var structurallyZero = map[string]string{
	"cpu.forwardedLoads":  "no workload loads a block a buffered store wrote; item 5(a)'s read-after-write rows",
	"cpu.partialForwards": "every store is 8 bytes and no load reads one back; item 5(a)'s mixed widths and read-after-write rows",
}

// counterGrid is the points of the eleven claims at the SB-bound scale
// (spbverify's grid) and Fig. 18's PARSEC points, each once.
func counterGrid(t *testing.T) []sim.RunSpec {
	rec := &recorder{}
	h := NewHarnessOn(context.Background(), Scale{Insts: 20_000, SBBoundOnly: true}, rec)
	h.Verify()
	if _, err := h.Fig18(); err != nil {
		t.Fatal(err)
	}
	var specs []sim.RunSpec
	for _, batch := range rec.batches {
		for _, s := range batch {
			if s = s.Normalized(); !slices.Contains(specs, s) {
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// TestEveryCounterMoves fails when a key of the stats JSON reads 0 on every
// point of the counter grid, unless structurallyZero says why: a figure,
// claim or metric cannot depend on a mechanism that never runs. It also
// guards the counters the memory system's transitions report and its timed
// path charges: back-invalidations, invalidations and DRAM writes (the last
// two move only on PARSEC points, DRAM writes on three of them).
func TestEveryCounterMoves(t *testing.T) {
	specs := counterGrid(t)
	rs, err := sim.NewRunner().GetAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{}
	for _, r := range rs {
		raw, err := r.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		var stats map[string]uint64
		if err := json.Unmarshal(raw, &stats); err != nil {
			t.Fatal(err)
		}
		for k, v := range stats {
			moved[k] = moved[k] || v != 0
		}
	}
	for k, m := range moved {
		if why, tabled := structurallyZero[k]; m && tabled {
			t.Errorf("%s moves on the grid: delete its structurallyZero row (%s)", k, why)
		} else if !m && !tabled {
			t.Errorf("%s reads 0 on all %d points: make it move, delete it, or table why", k, len(specs))
		}
	}
	for k := range structurallyZero {
		if _, ok := moved[k]; !ok {
			t.Errorf("structurallyZero row %s names no stats key", k)
		}
	}
}
