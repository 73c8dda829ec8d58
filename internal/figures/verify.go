package figures

import "fmt"

// Expectation is one checkable claim of the paper: the value the paper
// reports, the cell of the reproduction that measures it, and the band that
// cell must land in at the harness's scale (bands are wider than the
// paper-vs-full-scale gap because the verifier also runs at reduced scale).
type Expectation struct {
	// ID names the experiment the claim comes from.
	ID string
	// Claim is the human-readable statement.
	Claim string
	// Paper is the value the paper reports (for display).
	Paper float64
	// Lo and Hi bound the acceptable measured value.
	Lo, Hi float64
	// Table, Row and Col name the measured cell: the experiment's table
	// whose title starts with Table ("" for a single-table experiment), its
	// row Row, its column Col.
	Table, Row, Col string
	// Over, when set, names a second column of the same row: the measured
	// value is then the ratio Col / Over.
	Over string
}

// VerifyResult is the outcome of checking one expectation.
type VerifyResult struct {
	Expectation
	Measured float64
	Pass     bool
	Err      error
}

// measure reads the claim's value out of its experiment's tables.
func (e Expectation) measure(tabs []Table) (float64, error) {
	t, err := Find(tabs, e.Table)
	if err != nil {
		return 0, err
	}
	v, err := t.Cell(e.Row, e.Col)
	if err != nil || e.Over == "" {
		return v, err
	}
	den, err := t.Cell(e.Row, e.Over)
	if err != nil {
		return 0, err
	}
	if den == 0 {
		return 0, fmt.Errorf("figures: %s is 0 in row %q of %q: no ratio to take", e.Over, e.Row, t.Title)
	}
	return v / den, nil
}

// Verify evaluates every expectation against the harness, generating each
// experiment once however many claims read it.
func (h *Harness) Verify() []VerifyResult {
	type generated struct {
		tabs []Table
		err  error
	}
	done := map[string]generated{}
	var out []VerifyResult
	for _, e := range Expectations() {
		g, ok := done[e.ID]
		if !ok {
			if exp, known := ExperimentByID(e.ID); known {
				g.tabs, g.err = exp.Gen(h)
			} else {
				g.err = fmt.Errorf("figures: no experiment %q", e.ID)
			}
			done[e.ID] = g
		}
		r := VerifyResult{Expectation: e, Err: g.err}
		if r.Err == nil {
			r.Measured, r.Err = e.measure(g.tabs)
		}
		r.Pass = r.Err == nil && r.Measured >= e.Lo && r.Measured <= e.Hi
		out = append(out, r)
	}
	return out
}
