package figures

import (
	"testing"
)

// micro is an even smaller harness for exercising the expensive sweeps.
func micro() *Harness {
	return NewHarness(Scale{Insts: 15_000, SBBoundOnly: true})
}

func TestFig6PerAppTables(t *testing.T) {
	tabs, err := tiny().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("Fig6 should render 3 tables (SB14/28/56), got %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 8 {
			t.Fatalf("%s: %d rows, want the 8 SB-bound apps", tab.Title, len(tab.Rows))
		}
		for _, r := range tab.Rows {
			if len(r.Vals) != 3 {
				t.Fatalf("%s/%s: %d policies, want 3", tab.Title, r.Name, len(r.Vals))
			}
			for _, v := range r.Vals {
				if v <= 0 || v > 1.5 {
					t.Fatalf("%s/%s: normalized perf %v out of range", tab.Title, r.Name, v)
				}
			}
		}
	}
}

func TestFig7EnergyTables(t *testing.T) {
	tabs, err := tiny().Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("Fig7 should render 3 tables, got %d", len(tabs))
	}
	for _, tab := range tabs {
		for _, r := range tab.Rows {
			for i, v := range r.Vals {
				if v <= 0.2 || v > 3 {
					t.Fatalf("%s/%s %s: energy ratio %v implausible", tab.Title, r.Name, tab.Cols[i], v)
				}
			}
		}
	}
}

func TestFig9Tables(t *testing.T) {
	tabs, err := tiny().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("Fig9 should render 3 tables, got %d", len(tabs))
	}
}

func TestFig10NetParts(t *testing.T) {
	tabs, err := tiny().Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		for _, r := range tab.Rows {
			if len(r.Vals) != 3 {
				t.Fatalf("%s/%s: want SB/Other/Net", tab.Title, r.Name)
			}
			sb, other, net := cell(t, tab, r.Name, "SB part"), cell(t, tab, r.Name, "Other part"), cell(t, tab, r.Name, "Net")
			if sb+other != net {
				t.Fatalf("%s/%s: Net %v != SB %v + Other %v", tab.Title, r.Name, net, sb, other)
			}
		}
	}
}

func TestFig13And14Ratios(t *testing.T) {
	h := tiny()
	for name, gen := range map[string]func() ([]Table, error){
		"fig13": h.Fig13,
		"fig14": h.Fig14,
	} {
		tabs, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range tabs[0].Rows {
			for _, v := range r.Vals {
				if v <= 0 || v > 3 {
					t.Fatalf("%s/%s: ratio %v implausible", name, r.Name, v)
				}
			}
		}
	}
}

func TestFig15Tables(t *testing.T) {
	tabs, err := tiny().Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("Fig15 should render 3 tables, got %d", len(tabs))
	}
}

func TestFig16AcrossPrefetchers(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	tabs, err := micro().Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("Fig16 should render one table per prefetcher, got %d", len(tabs))
	}
	for _, tab := range tabs {
		atCommit, spb := cell(t, tab, "at-commit", "SB14 SB-BOUND"), cell(t, tab, "spb", "SB14 SB-BOUND")
		// The paper's §VI.D point: SPB is still needed on top of any
		// generic prefetcher.
		if spb <= atCommit {
			t.Fatalf("%s: spb (%v) must beat at-commit (%v) at SB14", tab.Title, spb, atCommit)
		}
	}
}

func TestFig17CoreSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	tabs, err := micro().Fig17()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("Fig17 should render full/half SB tables, got %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 5 {
			t.Fatalf("%s: want 5 cores", tab.Title)
		}
		for _, r := range tab.Rows {
			if spb, atCommit := cell(t, tab, r.Name, "spb"), cell(t, tab, r.Name, "at-commit"); spb <= atCommit*0.9 {
				t.Fatalf("%s/%s: spb (%v) far below at-commit (%v)", tab.Title, r.Name, spb, atCommit)
			}
		}
	}
}

func TestFig18Parsec(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	tabs, err := micro().Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("Fig18 should render SB56/SB14 tables, got %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 3 {
			t.Fatalf("%s: want 3 policies", tab.Title)
		}
	}
}

func TestSensNWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	tabs, err := micro().SensN()
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 7 { // 6 window sizes + dynamic
		t.Fatalf("SensN should list 6 N values + dynamic, got %d", len(rows))
	}
	for _, r := range rows {
		if v := cell(t, tabs[0], r.Name, "SB-BOUND"); v <= 0.3 || v > 1.3 {
			t.Fatalf("%s: normalized perf %v implausible", r.Name, v)
		}
	}
}
