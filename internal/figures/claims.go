package figures

// Expectations lists the paper's headline claims as checkable bands. A claim
// is one row: the experiment that measures it, the paper's value, the band,
// and the cell by name (TestExpectationsWellFormed resolves every name).
func Expectations() []Expectation {
	return []Expectation{
		{ID: "fig1", Claim: "SB stalls grow as the SB shrinks (SB14/SB56 stall ratio, SB-bound)",
			Paper: 3.0, Lo: 1.3, Hi: 20, Row: "SB-Bound", Col: "SB14", Over: "SB56"},
		{ID: "fig5", Claim: "at-commit at SB14 (SB-bound, vs ideal)",
			Paper: 0.701, Lo: 0.55, Hi: 0.85, Table: "Fig. 5 (SB14)", Row: "at-commit", Col: "SB-BOUND"},
		{ID: "fig5", Claim: "SPB at SB14 (SB-bound, vs ideal)",
			Paper: 0.926, Lo: 0.85, Hi: 1.05, Table: "Fig. 5 (SB14)", Row: "spb", Col: "SB-BOUND"},
		{ID: "fig5", Claim: "at-commit at SB56 (SB-bound, vs ideal)",
			Paper: 0.955, Lo: 0.88, Hi: 1.02, Table: "Fig. 5 (SB56)", Row: "at-commit", Col: "SB-BOUND"},
		{ID: "fig5", Claim: "SPB at SB56 (SB-bound, vs ideal)",
			Paper: 1.023, Lo: 0.93, Hi: 1.08, Table: "Fig. 5 (SB56)", Row: "spb", Col: "SB-BOUND"},
		{ID: "fig8", Claim: "SPB reduces SB stalls vs at-commit (SB14, SB-bound ratio)",
			Paper: 0.66, Lo: 0.0, Hi: 0.9, Row: "spb", Col: "SB14 SB-BOUND"},
		{ID: "fig11", Claim: "SPB prefetches are mostly timely at SB14 (successful fraction)",
			Paper: 0.47, Lo: 0.30, Hi: 0.95, Table: "Fig. 11 (SB14)", Row: "spb", Col: "successful"},
		{ID: "fig11", Claim: "at-commit prefetches are mostly late at SB14 (late fraction)",
			Paper: 0.90, Lo: 0.55, Hi: 1.0, Table: "Fig. 11 (SB14)", Row: "at-commit", Col: "late"},
		{ID: "fig12", Claim: "SPB raises prefetch requests moderately (REQ ratio, SB-bound, SB14)",
			Paper: 1.1, Lo: 1.0, Hi: 1.6, Row: "SB14", Col: "REQ SB-BOUND"},
		{ID: "fig7", Claim: "SPB saves net energy at SB14 (total, SB-bound, vs at-commit)",
			Paper: 0.832, Lo: 0.6, Hi: 1.0, Table: "Fig. 7 (SB14)", Row: "spb", Col: "total SB-BOUND"},
		{ID: "sb20", Claim: "a 20-entry SB with SPB matches the standard 56-entry SB",
			Paper: 1.0, Lo: 0.9, Hi: 1.15, Row: "spb SB20", Col: "ALL"},
	}
}
