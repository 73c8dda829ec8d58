// Benchmarks that regenerate every table and figure of the paper at a
// reduced scale (the SB-bound suite, ~120k instructions per run). Each
// benchmark reports the figure's headline number as a custom metric, so
// `go test -bench=. -benchmem` doubles as a shape check of the whole
// reproduction. Full-scale tables come from `go run ./cmd/spbtables`.
package spb

import (
	"testing"

	"spb/internal/core"
	"spb/internal/figures"
	"spb/internal/sim"
)

// benchHarness builds a fresh harness per benchmark; within one benchmark
// the underlying runner memoizes, so iterations beyond the first are cheap.
func benchHarness() *figures.Harness {
	return figures.NewHarness(figures.Quick)
}

// runFigure executes gen b.N times, reporting vals from the last run via
// report (which maps a figure's tables to named headline metrics).
func runFigure(b *testing.B, gen func() ([]figures.Table, error),
	report func(b *testing.B, tabs []figures.Table)) {
	b.Helper()
	var tabs []figures.Table
	var err error
	for i := 0; i < b.N; i++ {
		tabs, err = gen()
		if err != nil {
			b.Fatal(err)
		}
	}
	if report != nil {
		report(b, tabs)
	}
}

// cell reads a headline number by name: the table of tabs whose title starts
// with table ("" for a single-table figure), its row, its column. A name the
// figure does not have fails the benchmark rather than reporting a
// neighbour's value.
func cell(b *testing.B, tabs []figures.Table, table, row, col string) float64 {
	b.Helper()
	tab, err := figures.Find(tabs, table)
	if err != nil {
		b.Fatal(err)
	}
	v, err := tab.Cell(row, col)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func BenchmarkTableI_Config(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.TableI, nil)
}

func BenchmarkTableII_Cores(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.TableII, nil)
}

func BenchmarkFig01_SBStallRatio(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig1, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "", "SB-Bound", "SB56"), "stall-ratio-SB56")
		b.ReportMetric(cell(b, tabs, "", "SB-Bound", "SB14"), "stall-ratio-SB14")
	})
}

func BenchmarkFig03_StallPCs(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig3, func(b *testing.B, tabs []figures.Table) {
		if rows := tabs[0].Rows; len(rows) > 0 {
			// Fraction of stalls in library code for the first app.
			b.ReportMetric(cell(b, tabs, "", rows[0].Name, "lib"), "lib-frac")
		}
	})
}

func reportFig5(b *testing.B, tabs []figures.Table) {
	for _, sb := range []string{"SB56", "SB28", "SB14"} {
		b.ReportMetric(cell(b, tabs, "Fig. 5 ("+sb+")", "spb", "SB-BOUND"), "spb-vs-ideal-"+sb)
	}
}

func BenchmarkFig05_NormPerf(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig5, reportFig5)
}

func BenchmarkFig06_PerApp(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig6, nil)
}

func BenchmarkFig07_Energy(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig7, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "Fig. 7 (SB14)", "spb", "total SB-BOUND"), "spb-energy-vs-atcommit-SB14")
	})
}

func BenchmarkFig08_SBStalls(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig8, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "", "spb", "SB14 SB-BOUND"), "spb-stalls-vs-atcommit-SB14")
	})
}

func BenchmarkFig09_PerAppStalls(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig9, nil)
}

func BenchmarkFig10_IssueStalls(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig10, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "Fig. 10 (SB14)", "spb", "Net"), "spb-net-stalls-SB14")
	})
}

func BenchmarkFig11_PrefetchAccuracy(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig11, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "Fig. 11 (SB56)", "at-commit", "successful"), "atcommit-success-frac")
		b.ReportMetric(cell(b, tabs, "Fig. 11 (SB56)", "spb", "successful"), "spb-success-frac")
	})
}

func BenchmarkFig12_Traffic(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig12, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "", "SB14", "REQ SB-BOUND"), "spb-req-ratio-SB14")
	})
}

func BenchmarkFig13_TagOverhead(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig13, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "", "SB14", "SB-BOUND"), "spb-tag-ratio-SB14")
	})
}

func BenchmarkFig14_ExecStalls(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig14, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "", "SB14 (spb)", "SB-BOUND"), "spb-l1dstalls-ratio-SB14")
	})
}

func BenchmarkFig15_PerAppExecStalls(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig15, nil)
}

func BenchmarkFig16_GenericPrefetchers(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig16, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "Fig. 16 (adaptive prefetcher)", "spb", "SB14 SB-BOUND"), "spb-vs-ideal-adaptive-SB14")
	})
}

func BenchmarkFig17_CoreSweep(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig17, func(b *testing.B, tabs []figures.Table) {
		// SLM at half SB: the paper's worst case for at-commit.
		b.ReportMetric(cell(b, tabs, "Fig. 17 (half SB)", "SLM", "at-commit"), "atcommit-SLM-halfSB")
		b.ReportMetric(cell(b, tabs, "Fig. 17 (half SB)", "SLM", "spb"), "spb-SLM-halfSB")
	})
}

func BenchmarkFig18_Parsec(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Fig18, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "Fig. 18 (SB14)", "spb", "SB-BOUND"), "spb-vs-ideal-SB14-bound")
	})
}

func BenchmarkClaim_SB20EqualsSB56(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.SB20, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "", "spb SB20", "ALL"), "spb-SB20-vs-atcommit-SB56")
	})
}

func BenchmarkAblation_WindowN(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.SensN, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "", "N=48", "SB-BOUND"), "spb-N48-vs-ideal")
	})
}

func BenchmarkAblation_Extensions(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.Extensions, func(b *testing.B, tabs []figures.Table) {
		b.ReportMetric(cell(b, tabs, "", "spb (paper)", "SB-BOUND"), "spb-plain")
		b.ReportMetric(cell(b, tabs, "", "spb + backward bursts", "SB-BOUND"), "spb-backward")
		b.ReportMetric(cell(b, tabs, "", "spb + coalescing SB", "SB-BOUND"), "spb-coalesce")
	})
}

func BenchmarkZoo_Prefetchers(b *testing.B) {
	h := benchHarness()
	runFigure(b, h.PFZoo, func(b *testing.B, tabs []figures.Table) {
		for _, k := range []string{"bop", "dspatch", "hybrid"} {
			b.ReportMetric(cell(b, tabs, "", k, "spb SB-BOUND"), "spb-"+k+"-sbbound")
		}
	})
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per wall-clock second for one representative run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec := sim.RunSpec{
		Workload: "roms", Policy: core.PolicySPB, SQSize: 28, Insts: 100_000,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spec.Insts)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}
