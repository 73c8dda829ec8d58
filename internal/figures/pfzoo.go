package figures

import (
	"spb/internal/config"
)

// PFZoo extends Figure 16 to the full prefetcher zoo: the store-prefetch
// policies under every generic L1 prefetcher — none, the baseline stream,
// Best-Offset, DSPatch and the hybrid arbiter — at the stressful 14-entry
// SB. Normalization is per-prefetcher, Fig. 16 style: each policy is
// divided into the Ideal SB running the SAME prefetcher, so the columns
// isolate how much of the remaining store-stall gap each policy closes
// given that prefetcher, rather than how good the prefetcher itself is.
func (h *Harness) PFZoo() ([]Table, error) {
	kinds := []config.PrefetcherKind{
		config.PrefetchNone, config.PrefetchStream, config.PrefetchBOP,
		config.PrefetchDSPatch, config.PrefetchHybrid,
	}
	r, err := h.prefetcherSweep(kinds, []int{14})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Prefetcher zoo (SB14): policies normalized per-prefetcher to Ideal with the same prefetcher",
		Cols: []string{
			"at-commit ALL", "at-commit SB-BOUND", "spb ALL", "spb SB-BOUND",
		},
		Note: "rows are generic L1 prefetchers; a column value of 1.0 means the policy fully hides store stalls under that prefetcher",
	}
	for _, k := range kinds {
		row := Row{Name: k.String()}
		for _, p := range comparedPair {
			all, bound := r.vsIdeal(h.suite(), h.underPrefetcher(k), p, 14)
			row.Vals = append(row.Vals, all, bound)
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
