package figures

import (
	"strings"
	"testing"

	"spb/internal/core"
	"spb/internal/sim"
)

// tiny returns a harness small enough for unit tests.
func tiny() *Harness {
	return NewHarness(Scale{Insts: 40_000, SBBoundOnly: true})
}

// cell reads a table by (row, column) name; a name the table does not have
// fails the test.
func cell(t *testing.T, tab Table, row, col string) float64 {
	t.Helper()
	v, err := tab.Cell(row, col)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// find picks the table whose title starts with prefix.
func find(t *testing.T, tabs []Table, prefix string) Table {
	t.Helper()
	tab, err := Find(tabs, prefix)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestCellAndFind(t *testing.T) {
	tabs := []Table{
		{Title: "Fig. X (SB56): demo", Cols: []string{"a", "b"}, Rows: []Row{{Name: "r1", Vals: []float64{1, 2}}}},
		{Title: "Fig. X (SB14): demo", Cols: []string{"a", "b"}, Rows: []Row{{Name: "r1", Vals: []float64{3}}}},
	}
	if v := cell(t, find(t, tabs, "Fig. X (SB56)"), "r1", "b"); v != 2 {
		t.Fatalf("Cell(r1, b) = %v, want 2", v)
	}
	for _, prefix := range []string{"Fig. X", "Fig. Y", ""} {
		if _, err := Find(tabs, prefix); err == nil {
			t.Fatalf("Find(%q) must fail: it does not name exactly one table", prefix)
		}
	}
	short := find(t, tabs, "Fig. X (SB14)")
	for _, rc := range [][2]string{{"r2", "a"}, {"r1", "c"}, {"r1", "b"}} {
		if _, err := short.Cell(rc[0], rc[1]); err == nil {
			t.Fatalf("Cell(%q, %q) must fail: no such cell", rc[0], rc[1])
		}
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{
		Title: "demo",
		Cols:  []string{"a", "b"},
		Rows:  []Row{{Name: "r1", Vals: []float64{1, 0.5}}},
		Note:  "hello",
	}
	out := tab.Format()
	for _, want := range []string{"demo", "a", "b", "r1", "1.000", "0.500", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

// TestReadOfUnsweptPointPanics: a figure that reads a point its sweep did
// not run is a bug, and says so instead of reading a zero.
func TestReadOfUnsweptPointPanics(t *testing.T) {
	h := NewHarness(Scale{Insts: 5_000, SBBoundOnly: true})
	r, err := h.sweep(boundSPEC()[:1], func(w string) []sim.RunSpec {
		return []sim.RunSpec{h.spec(w, core.PolicySPB, 14)}
	})
	if err != nil {
		t.Fatal(err)
	}
	w := boundSPEC()[0].name
	// Defaulted and explicit spellings of the swept point are the same point.
	explicit := h.spec(w, core.PolicySPB, 14)
	explicit.Cores, explicit.WindowN, explicit.Seed = 1, 48, 1
	if r.of(explicit).CPU.Committed != 5_000 {
		t.Fatal("the swept point did not come back under its normalized spec")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading an unswept point must panic")
		}
	}()
	r.of(h.spec(w, core.PolicySPB, 28))
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("geomean of empty should be 0")
	}
	if geomean([]float64{1, 0}) != 0 {
		t.Fatal("geomean with zero should be 0, not NaN")
	}
}

func TestArith(t *testing.T) {
	if a := arith([]float64{1, 3}); a != 2 {
		t.Fatalf("arith = %v, want 2", a)
	}
	if arith(nil) != 0 {
		t.Fatal("arith of empty should be 0")
	}
}

func TestRatio(t *testing.T) {
	if ratio(6, 3) != 2 {
		t.Fatal("ratio(6,3) != 2")
	}
	if ratio(0, 0) != 1 {
		t.Fatal("ratio(0,0) should be 1 (no change)")
	}
	if ratio(5, 0) != 5 {
		t.Fatal("ratio(n,0) should degrade to n")
	}
}

func TestTableIStatic(t *testing.T) {
	tabs, err := tiny().TableI()
	if err != nil || len(tabs) != 1 {
		t.Fatalf("TableI: %v (%d tables)", err, len(tabs))
	}
	out := tabs[0].Format()
	for _, want := range []string{"224", "97", "72", "56", "67"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %s:\n%s", want, out)
		}
	}
}

func TestTableIIStatic(t *testing.T) {
	tabs, err := tiny().TableII()
	if err != nil {
		t.Fatal(err)
	}
	out := tabs[0].Format()
	for _, name := range []string{"SLM", "NHL", "HSW", "SKL", "SNC"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table II missing %s", name)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tabs, err := tiny().Fig1()
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 2 || len(tab.Cols) != 3 {
		t.Fatalf("Fig1 shape wrong: %+v", tab)
	}
	// SB stalls must grow monotonically as the SB shrinks (the paper's
	// headline motivation).
	sb56, sb28, sb14 := cell(t, tab, "SB-Bound", "SB56"), cell(t, tab, "SB-Bound", "SB28"), cell(t, tab, "SB-Bound", "SB14")
	if !(sb56 < sb28 && sb28 < sb14) {
		t.Fatalf("SB-bound stall ratio must grow 56->28->14, got %v %v %v", sb56, sb28, sb14)
	}
	if sb56 <= 0.02 {
		t.Fatalf("SB-bound set must exceed the 2%% criterion at SB56, got %v", sb56)
	}
}

func TestFig5Shape(t *testing.T) {
	h := tiny()
	tabs, err := h.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("Fig5 should have one table per SB size, got %d", len(tabs))
	}
	// In every table: spb beats at-commit, and both are <= ~ideal (1.0
	// within noise).
	for _, tab := range tabs {
		atCommit, spb := cell(t, tab, "at-commit", "SB-BOUND"), cell(t, tab, "spb", "SB-BOUND")
		if spb <= atCommit {
			t.Fatalf("%s: spb (%v) must beat at-commit (%v)", tab.Title, spb, atCommit)
		}
		if spb > 1.25 || atCommit > 1.15 {
			t.Fatalf("%s: normalized perf above ideal by too much (spb %v, at-commit %v)",
				tab.Title, spb, atCommit)
		}
	}
	// The at-commit gap must widen as the SB shrinks.
	ac56 := cell(t, find(t, tabs, "Fig. 5 (SB56)"), "at-commit", "SB-BOUND")
	ac14 := cell(t, find(t, tabs, "Fig. 5 (SB14)"), "at-commit", "SB-BOUND")
	if ac14 >= ac56 {
		t.Fatalf("at-commit at SB14 (%v) must be worse than at SB56 (%v)", ac14, ac56)
	}
}

func TestFig3RegionsSumToOne(t *testing.T) {
	tabs, err := tiny().Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tabs[0].Rows {
		sum := 0.0
		for _, region := range []string{"app", "lib", "kernel"} {
			sum += cell(t, tabs[0], r.Name, region)
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: region fractions sum to %v, want 1", r.Name, sum)
		}
	}
}

func TestFig8SPBReducesStalls(t *testing.T) {
	tabs, err := tiny().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// Every column is normalized to at-commit; SPB must cut stalls.
	for _, col := range tabs[0].Cols {
		if v := cell(t, tabs[0], "spb", col); v >= 1.0 {
			t.Fatalf("spb stall ratio %s = %v, want < 1", col, v)
		}
	}
}

func TestFig11FractionsBounded(t *testing.T) {
	tabs, err := tiny().Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		for _, r := range tab.Rows {
			sum := 0.0
			for _, v := range r.Vals {
				if v < 0 || v > 1.001 {
					t.Fatalf("%s/%s: fraction %v out of range", tab.Title, r.Name, v)
				}
				sum += v
			}
			if sum > 1.01 {
				t.Fatalf("%s/%s: fractions sum to %v > 1", tab.Title, r.Name, sum)
			}
		}
	}
}

func TestFig12SPBIssuesMoreTraffic(t *testing.T) {
	tabs, err := tiny().Fig12()
	if err != nil {
		t.Fatal(err)
	}
	// SPB adds burst requests on top of at-commit's per-store requests:
	// REQ (SB-bound column) must exceed 1.
	for _, r := range tabs[0].Rows {
		if req := cell(t, tabs[0], r.Name, "REQ SB-BOUND"); req <= 1.0 {
			t.Fatalf("%s: SPB REQ ratio %v, want > 1 (bursts add requests)", r.Name, req)
		}
	}
}

func TestSB20Claim(t *testing.T) {
	tabs, err := tiny().SB20()
	if err != nil {
		t.Fatal(err)
	}
	// Performance must improve monotonically with SPB SB size, and SPB
	// SB20 must be within a few percent of the standard at-commit SB56.
	sb20, sb56 := cell(t, tabs[0], "spb SB20", "ALL"), cell(t, tabs[0], "spb SB56", "ALL")
	if sb20 < 0.90 {
		t.Fatalf("SPB SB20 vs at-commit SB56 = %v, want >= 0.90 (paper: ~1.0)", sb20)
	}
	if sb56 < sb20 {
		t.Fatalf("SPB SB56 (%v) should not lose to SPB SB20 (%v)", sb56, sb20)
	}
}

// TestPFZooShape runs the prefetcher-zoo grid end to end at test scale and
// checks the per-prefetcher normalization is sane: one row per kind, every
// value positive, and nothing wildly above Ideal (a policy can exceed 1.0
// only by measurement noise, not by construction).
func TestPFZooShape(t *testing.T) {
	h := tiny()
	tabs, err := h.PFZoo()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 {
		t.Fatalf("PFZoo returned %d tables, want 1", len(tabs))
	}
	tab := tabs[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("PFZoo has %d rows, want one per prefetcher kind (5)", len(tab.Rows))
	}
	wantRows := []string{"none", "stream", "bop", "dspatch", "hybrid"}
	for i, r := range tab.Rows {
		if r.Name != wantRows[i] {
			t.Fatalf("row %d = %q, want %q", i, r.Name, wantRows[i])
		}
		if len(r.Vals) != len(tab.Cols) {
			t.Fatalf("row %q has %d vals for %d cols", r.Name, len(r.Vals), len(tab.Cols))
		}
		for j, v := range r.Vals {
			if v <= 0 || v > 1.10 {
				t.Fatalf("row %q col %q = %v, want in (0, 1.10]", r.Name, tab.Cols[j], v)
			}
		}
		// SPB must close at least as much of the store-stall gap as
		// at-commit under every prefetcher (the paper's core claim, which
		// generic prefetching must not undo).
		if spb, atCommit := cell(t, tab, r.Name, "spb ALL"), cell(t, tab, r.Name, "at-commit ALL"); spb < atCommit*0.98 {
			t.Fatalf("row %q: spb %v worse than at-commit %v", r.Name, spb, atCommit)
		}
	}
}

func TestHarnessMemoizesAcrossFigures(t *testing.T) {
	h := tiny()
	if _, err := h.Fig5(); err != nil {
		t.Fatal(err)
	}
	// Fig 8 reads the same sweep; thanks to memoization this should be
	// nearly instant and, more importantly, identical.
	a, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Format() != b[0].Format() {
		t.Fatal("repeated figure generation must be deterministic")
	}
}
