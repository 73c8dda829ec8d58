package figures

import (
	"spb/internal/core"
	"spb/internal/sim"
)

// variant is one named modification of the plain SPB point.
type variant struct {
	name string
	mut  func(*sim.RunSpec)
}

// ablation fills t with one row per variant: the SB-bound suite's geomean
// performance at SB size sq, normalized to the ideal SB of that size.
func (h *Harness) ablation(t Table, sq int, variants []variant) ([]Table, error) {
	of := func(w string, v variant) sim.RunSpec {
		s := h.spec(w, core.PolicySPB, sq)
		v.mut(&s)
		return s
	}
	r, err := h.sweep(boundSPEC(), func(w string) []sim.RunSpec {
		specs := []sim.RunSpec{h.spec(w, core.PolicyIdeal, sq)}
		for _, v := range variants {
			specs = append(specs, of(w, v))
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		_, bound := over(boundSPEC(), geomean, func(w string) (float64, bool) {
			return r.perf(of(w, v), h.spec(w, core.PolicyIdeal, sq)), true
		})
		t.Rows = append(t.Rows, Row{Name: v.name, Vals: []float64{bound}})
	}
	return []Table{t}, nil
}

// Extensions runs the ablation study of the variants the paper mentions but
// does not evaluate: backward bursts (§IV.A), cross-page bursts (footnote
// 2), the dynamic store-size threshold (§IV.C), and the related-work
// store-coalescing SB (§VII.B) — each against plain SPB and the at-commit
// baseline on the SB-bound suite with a 14-entry SB.
func (h *Harness) Extensions() ([]Table, error) {
	return h.ablation(Table{
		Title: "Extensions ablation (SB14, SB-bound apps, performance normalized to Ideal)",
		Cols:  []string{"SB-BOUND"},
		Note:  "variants the paper discusses but does not evaluate, plus the coalescing-SB alternative from related work",
	}, 14, []variant{
		{"at-commit", func(s *sim.RunSpec) { s.Policy = core.PolicyAtCommit }},
		{"spb (paper)", func(s *sim.RunSpec) {}},
		{"spb + backward bursts", func(s *sim.RunSpec) { s.BackwardBursts = true }},
		{"spb + cross-page bursts", func(s *sim.RunSpec) { s.CrossPageBursts = true }},
		{"spb + dynamic-S", func(s *sim.RunSpec) { s.DynamicSPB = true }},
		{"spb + coalescing SB", func(s *sim.RunSpec) { s.CoalesceSB = true }},
		{"at-commit + coalescing SB", func(s *sim.RunSpec) {
			s.Policy = core.PolicyAtCommit
			s.CoalesceSB = true
		}},
	})
}
