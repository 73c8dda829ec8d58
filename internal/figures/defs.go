package figures

import (
	"fmt"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/cpu"
	"spb/internal/energy"
	"spb/internal/sim"
	"spb/internal/workloads"
)

// sbSizes are the store-buffer sizes of the main evaluation.
var sbSizes = config.StandardSQSizes // 56, 28, 14

// sweptPolicies are the store-prefetch policies every normalized figure
// sweeps: the compared ones, then ideal, their normalization target.
// Figs. 16-17 and the prefetcher zoo leave at-execute out (the pair).
var (
	sweptPolicies    = []core.Policy{core.PolicyAtExecute, core.PolicyAtCommit, core.PolicySPB, core.PolicyIdeal}
	comparedPolicies = []core.Policy{core.PolicyAtExecute, core.PolicyAtCommit, core.PolicySPB}
	sweptPair        = []core.Policy{core.PolicyAtCommit, core.PolicySPB, core.PolicyIdeal}
	comparedPair     = []core.Policy{core.PolicyAtCommit, core.PolicySPB}
)

// TableI renders the machine configuration (Table I).
func (h *Harness) TableI() ([]Table, error) {
	m := config.Skylake()
	c := m.Core
	t := Table{
		Title: "Table I: configuration parameters (Skylake-X-like, Table I of the paper)",
		Cols:  []string{"value"},
		Rows: []Row{
			{Name: "width (fetch/dispatch/issue/commit)", Vals: []float64{float64(c.Width)}},
			{Name: "ROB entries", Vals: []float64{float64(c.ROBSize)}},
			{Name: "issue queue entries", Vals: []float64{float64(c.IQSize)}},
			{Name: "load queue entries", Vals: []float64{float64(c.LQSize)}},
			{Name: "store queue (SB) entries", Vals: []float64{float64(c.SQSize)}},
			{Name: "int add/mul/div latency", Vals: []float64{float64(c.IntAddLat), float64(c.IntMulLat), float64(c.IntDivLat)}},
			{Name: "fp add/mul/div latency", Vals: []float64{float64(c.FPAddLat), float64(c.FPMulLat), float64(c.FPDivLat)}},
			{Name: "L1D size KB / ways / latency", Vals: []float64{float64(m.L1D.SizeBytes >> 10), float64(m.L1D.Ways), float64(m.L1D.LatencyCyc)}},
			{Name: "L2 size KB / ways / latency", Vals: []float64{float64(m.L2.SizeBytes >> 10), float64(m.L2.Ways), float64(m.L2.LatencyCyc)}},
			{Name: "L3 size KB / ways / latency", Vals: []float64{float64(m.L3.SizeBytes >> 10), float64(m.L3.Ways), float64(m.L3.LatencyCyc)}},
			{Name: "MSHRs per cache", Vals: []float64{float64(m.L1D.MSHRs)}},
			{Name: "DRAM latency / cycles-per-block", Vals: []float64{float64(m.DRAM.LatencyCyc), float64(m.DRAM.CyclesPerBlock)}},
			{Name: "SPB window N / storage bits", Vals: []float64{float64(m.SPB.WindowN), float64(core.StorageBits)}},
		},
	}
	return []Table{t}, nil
}

// TableII renders the five core configurations of Table II.
func (h *Harness) TableII() ([]Table, error) {
	t := Table{
		Title: "Table II: configurations for the sensitivity analysis",
		Cols:  []string{"ROB", "IQ", "LQ", "SQ", "Width"},
	}
	for _, c := range config.Cores() {
		t.Rows = append(t.Rows, Row{Name: c.Name, Vals: []float64{
			float64(c.ROBSize), float64(c.IQSize), float64(c.LQSize),
			float64(c.SQSize), float64(c.Width),
		}})
	}
	return []Table{t}, nil
}

// Fig1 reproduces Figure 1: the ratio of stall cycles due to a full SB under
// the default (at-commit) prefetch policy, as the SB shrinks 56 -> 28 -> 14.
func (h *Harness) Fig1() ([]Table, error) {
	r, err := h.sweep(h.suite(), func(w string) []sim.RunSpec {
		return grid(w, sbSizes, []core.Policy{core.PolicyAtCommit}, h.spec)
	})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Fig. 1: ratio of stall cycles due to a full SB (at-commit)",
		Cols:  []string{"SB56", "SB28", "SB14"},
		Rows:  []Row{{Name: "All"}, {Name: "SB-Bound"}},
		Note:  "arithmetic mean of per-application SB-stall ratios",
	}
	for _, sq := range sbSizes {
		all, bound := over(h.suite(), arith, func(w string) (float64, bool) {
			return r.of(h.spec(w, core.PolicyAtCommit, sq)).TD.SBStallRatio, true
		})
		t.Rows[0].Vals = append(t.Rows[0].Vals, all)
		t.Rows[1].Vals = append(t.Rows[1].Vals, bound)
	}
	return []Table{t}, nil
}

// Fig3 reproduces Figure 3: where the stores causing SB stalls live
// (application vs C library vs kernel), per SB-bound application.
func (h *Harness) Fig3() ([]Table, error) {
	r, err := h.sweep(boundSPEC(), func(w string) []sim.RunSpec {
		return []sim.RunSpec{h.spec(w, core.PolicyAtCommit, 56)}
	})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Fig. 3: location of stores causing SB-induced stalls (at-commit, SB56)",
		Cols:  []string{"app", "lib", "kernel"},
		Note:  "fraction of SB-stall cycles attributed to the blocking store's PC region",
	}
	for _, a := range boundSPEC() {
		c := r.of(h.spec(a.name, core.PolicyAtCommit, 56)).CPU
		total := float64(c.SBStallApp + c.SBStallLib + c.SBStallKernel)
		if total == 0 {
			// No attributed stalls at this scale: nothing to break down.
			continue
		}
		t.Rows = append(t.Rows, Row{Name: a.name, Vals: []float64{
			float64(c.SBStallApp) / total,
			float64(c.SBStallLib) / total,
			float64(c.SBStallKernel) / total,
		}})
	}
	return []Table{t}, nil
}

// policySweep runs every compared policy and the ideal SB at the standard SB
// sizes over the suite: the one sweep Figs. 5-15 all read, each through its
// own metric (the runner simulates it once).
func (h *Harness) policySweep() (results, error) {
	return h.sweep(h.suite(), func(w string) []sim.RunSpec { return grid(w, sbSizes, sweptPolicies, h.spec) })
}

// normPerfTables renders one table per SB size: each compared policy's
// performance normalized to the ideal SB, geomean over ALL and over SB-BOUND
// apps (the shape of Figs. 5 and 18). title takes the SB size.
func (h *Harness) normPerfTables(title string, apps []app, sizes []int, at point) ([]Table, error) {
	r, err := h.sweep(apps, func(w string) []sim.RunSpec { return grid(w, sizes, sweptPolicies, at) })
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, sq := range sizes {
		t := Table{Title: fmt.Sprintf(title, sq), Cols: []string{"ALL", "SB-BOUND"}}
		for _, p := range comparedPolicies {
			all, bound := r.vsIdeal(apps, at, p, sq)
			t.Rows = append(t.Rows, Row{Name: p.String(), Vals: []float64{all, bound}})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// vsAtCommit is one counter of app w under policy p divided, by div, by the
// same counter under at-commit at the same SB size.
func (h *Harness) vsAtCommit(r results, w string, p core.Policy, sq int,
	div func(a, b uint64) float64, counter func(sim.Result) uint64) float64 {
	return div(counter(r.of(h.spec(w, p, sq))), counter(r.of(h.spec(w, core.PolicyAtCommit, sq))))
}

// perStall is a/b for stall cycles; an at-commit baseline that never stalled
// counts as one cycle, so a is reported as it is.
func perStall(a, b uint64) float64 {
	if b == 0 {
		b = 1
	}
	return float64(a) / float64(b)
}

func sbStalls(r sim.Result) uint64   { return r.CPU.SBStallCycles }
func l1dPending(r sim.Result) uint64 { return r.CPU.ExecStallL1DPending }

// Fig5 reproduces Figure 5: performance normalized to the ideal SB for each
// policy and SB size, geomean over ALL and over SB-bound applications.
func (h *Harness) Fig5() ([]Table, error) {
	return h.normPerfTables("Fig. 5 (SB%d): performance normalized to Ideal", h.suite(), sbSizes, h.spec)
}

// perAppSizes is the SB-size order of the per-application figures (6, 9 and
// 15): the paper shows the smallest SB first.
var perAppSizes = []int{14, 28, 56}

// Fig6 reproduces Figure 6: per-SB-bound-application performance normalized
// to the ideal SB, one table per SB size (a=14, b=28, c=56).
func (h *Harness) Fig6() ([]Table, error) {
	r, err := h.policySweep()
	if err != nil {
		return nil, err
	}
	var tables []Table
	for i, sq := range perAppSizes {
		t := Table{
			Title: fmt.Sprintf("Fig. 6(%c): per-application performance normalized to Ideal (SB%d)", 'a'+i, sq),
			Cols:  []string{"at-execute", "at-commit", "spb"},
		}
		for _, a := range boundSPEC() {
			row := Row{Name: a.name}
			for _, p := range comparedPolicies {
				row.Vals = append(row.Vals, r.perf(h.spec(a.name, p, sq), h.spec(a.name, core.PolicyIdeal, sq)))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig7 reproduces Figure 7: energy normalized to at-commit, broken into
// cache dynamic, core dynamic and total (dynamic+static).
func (h *Harness) Fig7() ([]Table, error) {
	r, err := h.policySweep()
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, sq := range sbSizes {
		t := Table{
			Title: fmt.Sprintf("Fig. 7 (SB%d): energy normalized to at-commit (less is better)", sq),
			Cols:  []string{"cacheDyn ALL", "coreDyn ALL", "total ALL", "total SB-BOUND"},
		}
		for _, p := range []core.Policy{core.PolicyAtExecute, core.PolicySPB} {
			vs := func(part func(energy.Breakdown) float64) (all, bound float64) {
				return over(h.suite(), geomean, func(w string) (float64, bool) {
					return part(r.of(h.spec(w, p, sq)).Energy) / part(r.of(h.spec(w, core.PolicyAtCommit, sq)).Energy), true
				})
			}
			cache, _ := vs(func(e energy.Breakdown) float64 { return e.CacheDynamic })
			coreDyn, _ := vs(func(e energy.Breakdown) float64 { return e.CoreDynamic })
			total, totalBound := vs(energy.Breakdown.Total)
			t.Rows = append(t.Rows, Row{Name: p.String(), Vals: []float64{cache, coreDyn, total, totalBound}})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig8 reproduces Figure 8: SB stalls normalized to at-commit.
func (h *Harness) Fig8() ([]Table, error) {
	r, err := h.policySweep()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Fig. 8: SB stall cycles normalized to at-commit (less is better)",
		Cols:  []string{"SB56 ALL", "SB56 SB-BOUND", "SB28 ALL", "SB28 SB-BOUND", "SB14 ALL", "SB14 SB-BOUND"},
	}
	for _, p := range []core.Policy{core.PolicyAtExecute, core.PolicySPB} {
		row := Row{Name: p.String()}
		for _, sq := range sbSizes {
			all, bound := over(h.suite(), arith, func(w string) (float64, bool) {
				return h.vsAtCommit(r, w, p, sq, perStall, sbStalls), true
			})
			row.Vals = append(row.Vals, all, bound)
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// perAppVsAtCommit renders one table per SB size with a row per SB-bound
// application: a counter under at-execute and under SPB, normalized to
// at-commit (the shape of Figs. 9 and 15).
func (h *Harness) perAppVsAtCommit(title string, div func(a, b uint64) float64, counter func(sim.Result) uint64) ([]Table, error) {
	r, err := h.policySweep()
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, sq := range perAppSizes {
		t := Table{Title: fmt.Sprintf(title, sq), Cols: []string{"at-execute", "spb"}}
		for _, a := range boundSPEC() {
			t.Rows = append(t.Rows, Row{Name: a.name, Vals: []float64{
				h.vsAtCommit(r, a.name, core.PolicyAtExecute, sq, div, counter),
				h.vsAtCommit(r, a.name, core.PolicySPB, sq, div, counter),
			}})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig9 reproduces Figure 9: per-SB-bound-application SB stalls normalized to
// at-commit, one table per SB size.
func (h *Harness) Fig9() ([]Table, error) {
	return h.perAppVsAtCommit("Fig. 9 (SB%d): per-application SB stalls normalized to at-commit", perStall, sbStalls)
}

// Fig10 reproduces Figure 10: issue stalls normalized to at-commit, broken
// into SB-caused and other-resource-caused parts.
func (h *Harness) Fig10() ([]Table, error) {
	r, err := h.policySweep()
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, sq := range sbSizes {
		t := Table{
			Title: fmt.Sprintf("Fig. 10 (SB%d): issue stalls normalized to at-commit", sq),
			Cols:  []string{"SB part", "Other part", "Net"},
		}
		for _, p := range []core.Policy{core.PolicyAtExecute, core.PolicySPB, core.PolicyIdeal} {
			part := func(stalls func(*cpu.Stats) uint64) float64 {
				all, _ := over(h.suite(), arith, func(w string) (float64, bool) {
					run, atCommit := r.of(h.spec(w, p, sq)).CPU, r.of(h.spec(w, core.PolicyAtCommit, sq)).CPU
					return perStall(stalls(&run), atCommit.IssueStallCycles()), true
				})
				return all
			}
			sb := part(func(c *cpu.Stats) uint64 { return c.SBStallCycles })
			other := part((*cpu.Stats).OtherStallCycles)
			t.Rows = append(t.Rows, Row{Name: p.String(), Vals: []float64{sb, other, sb + other}})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig11 reproduces Figure 11: the breakdown of store-prefetch outcomes
// (successful, late, early, never used) for at-commit and SPB.
func (h *Harness) Fig11() ([]Table, error) {
	r, err := h.policySweep()
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, sq := range sbSizes {
		t := Table{
			Title: fmt.Sprintf("Fig. 11 (SB%d): store-prefetch outcome breakdown (fractions of usable prefetches)", sq),
			Cols:  []string{"successful", "late", "early", "never-used"},
			Note:  "denominator excludes requests discarded because the block was already owned (PopReq)",
		}
		for _, p := range []core.Policy{core.PolicyAtCommit, core.PolicySPB} {
			// An app that issued no usable prefetch has no breakdown and is
			// left out of the mean.
			frac := func(outcome func(sim.MemStats) uint64) float64 {
				all, _ := over(h.suite(), arith, func(w string) (float64, bool) {
					m := r.of(h.spec(w, p, sq)).Mem
					usable := float64(m.SPFIssued - m.SPFDiscarded)
					return float64(outcome(m)) / usable, usable > 0
				})
				return all
			}
			t.Rows = append(t.Rows, Row{Name: p.String(), Vals: []float64{
				frac(func(m sim.MemStats) uint64 { return m.SPFSuccessful }),
				frac(func(m sim.MemStats) uint64 { return m.SPFLate }),
				frac(func(m sim.MemStats) uint64 { return m.SPFEarly }),
				frac(sim.MemStats.SPFNeverUsed),
			}})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// spbVsAtCommit renders one table with a row per SB size: for each counter,
// SPB's count normalized to at-commit's, averaged over ALL and over SB-BOUND
// (the shape of Figs. 12-14).
func (h *Harness) spbVsAtCommit(title string, cols []string, rowName string, counters ...func(sim.Result) uint64) ([]Table, error) {
	r, err := h.policySweep()
	if err != nil {
		return nil, err
	}
	t := Table{Title: title, Cols: cols}
	for _, sq := range sbSizes {
		row := Row{Name: fmt.Sprintf(rowName, sq)}
		for _, counter := range counters {
			all, bound := over(h.suite(), arith, func(w string) (float64, bool) {
				return h.vsAtCommit(r, w, core.PolicySPB, sq, ratio, counter), true
			})
			row.Vals = append(row.Vals, all, bound)
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Fig12 reproduces Figure 12: prefetch traffic normalized to at-commit —
// requests from the CPU to the L1 controller (REQ) and the subset missing to
// the L2 (MISS).
func (h *Harness) Fig12() ([]Table, error) {
	return h.spbVsAtCommit("Fig. 12: SPB prefetch traffic normalized to at-commit",
		[]string{"REQ ALL", "REQ SB-BOUND", "MISS ALL", "MISS SB-BOUND"}, "SB%d",
		func(r sim.Result) uint64 { return r.Mem.SPFIssued },
		func(r sim.Result) uint64 { return r.Mem.SPFMissToL2 })
}

// Fig13 reproduces Figure 13: L1D tag-access overhead of SPB vs at-commit.
func (h *Harness) Fig13() ([]Table, error) {
	return h.spbVsAtCommit("Fig. 13: L1D tag accesses normalized to at-commit",
		[]string{"ALL", "SB-BOUND"}, "SB%d",
		func(r sim.Result) uint64 { return r.Mem.L1TagAccesses })
}

// Fig14 reproduces Figure 14: execution stalls with L1D misses pending,
// normalized to at-commit.
func (h *Harness) Fig14() ([]Table, error) {
	return h.spbVsAtCommit("Fig. 14: execution stalls with L1D misses pending, normalized to at-commit",
		[]string{"ALL", "SB-BOUND"}, "SB%d (spb)", l1dPending)
}

// Fig15 reproduces Figure 15: the per-SB-bound-application version of
// Fig. 14 (including the roms pathology).
func (h *Harness) Fig15() ([]Table, error) {
	return h.perAppVsAtCommit("Fig. 15 (SB%d): per-application execution stalls with L1D misses pending (norm. to at-commit)", ratio, l1dPending)
}

// underPrefetcher is Harness.spec with generic L1 prefetcher k.
func (h *Harness) underPrefetcher(k config.PrefetcherKind) point {
	return func(w string, p core.Policy, sq int) sim.RunSpec {
		s := h.spec(w, p, sq)
		s.Prefetcher = k
		return s
	}
}

// prefetcherSweep runs at-commit, SPB and the ideal SB under each generic L1
// prefetcher at each SB size (the sweep of Fig. 16 and of the zoo).
func (h *Harness) prefetcherSweep(kinds []config.PrefetcherKind, sizes []int) (results, error) {
	return h.sweep(h.suite(), func(w string) []sim.RunSpec {
		var specs []sim.RunSpec
		for _, k := range kinds {
			specs = append(specs, grid(w, sizes, sweptPair, h.underPrefetcher(k))...)
		}
		return specs
	})
}

// Fig16 reproduces Figure 16: at-commit and SPB under each generic L1
// prefetcher (stream, aggressive, adaptive), normalized to the ideal SB with
// the same prefetcher.
func (h *Harness) Fig16() ([]Table, error) {
	kinds := []config.PrefetcherKind{config.PrefetchStream, config.PrefetchAggressive, config.PrefetchAdaptive}
	sizes := []int{56, 14}
	r, err := h.prefetcherSweep(kinds, sizes)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, k := range kinds {
		t := Table{
			Title: fmt.Sprintf("Fig. 16 (%s prefetcher): performance normalized to Ideal+%s", k, k),
			Cols:  []string{"SB56 ALL", "SB56 SB-BOUND", "SB14 ALL", "SB14 SB-BOUND"},
		}
		for _, p := range comparedPair {
			row := Row{Name: p.String()}
			for _, sq := range sizes {
				all, bound := r.vsIdeal(h.suite(), h.underPrefetcher(k), p, sq)
				row.Vals = append(row.Vals, all, bound)
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig17 reproduces Figure 17: at-commit and SPB across the five Table II
// cores, at the full and half SB sizes, normalized to the ideal SB.
func (h *Harness) Fig17() ([]Table, error) {
	onCore := func(c config.CoreConfig) point {
		return func(w string, p core.Policy, sq int) sim.RunSpec {
			s := h.spec(w, p, sq)
			s.CoreName = c.Name
			return s
		}
	}
	r, err := h.sweep(h.suite(), func(w string) []sim.RunSpec {
		var specs []sim.RunSpec
		for _, c := range config.Cores() {
			specs = append(specs, grid(w, []int{c.SQSize, c.SQSize / 2}, sweptPair, onCore(c))...)
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	var tables []Table
	for i, label := range []string{"full SB", "half SB"} {
		t := Table{
			Title: fmt.Sprintf("Fig. 17 (%s): performance normalized to Ideal across core configurations", label),
			Cols:  []string{"at-commit", "spb"},
		}
		for _, c := range config.Cores() {
			row := Row{Name: c.Name}
			for _, p := range comparedPair {
				all, _ := r.vsIdeal(h.suite(), onCore(c), p, c.SQSize/(i+1))
				row.Vals = append(row.Vals, all)
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig18 reproduces Figure 18: the PARSEC-like 8-thread suite, performance
// normalized to the ideal SB for SB56 and SB14.
func (h *Harness) Fig18() ([]Table, error) {
	var suite []app
	for _, p := range workloads.PARSEC() {
		suite = append(suite, app{p.Name, p.SBBound})
	}
	insts := h.scale.Insts / 4 // per thread; parallel runs are 8x the work
	if insts < 20_000 {
		insts = 20_000
	}
	return h.normPerfTables("Fig. 18 (SB%d): PARSEC (8 threads) performance normalized to Ideal", suite, []int{56, 14},
		func(w string, p core.Policy, sq int) sim.RunSpec {
			s := h.spec(w, p, sq)
			s.Cores, s.Insts = 8, insts
			return s
		})
}

// SB20 reproduces the §VI.A claim that a 20-entry SB with SPB matches the
// average performance of a standard 56-entry SB with at-commit.
func (h *Harness) SB20() ([]Table, error) {
	sizes := []int{14, 20, 28, 56}
	r, err := h.sweep(h.suite(), func(w string) []sim.RunSpec {
		specs := []sim.RunSpec{h.spec(w, core.PolicyAtCommit, 56)}
		for _, sq := range sizes {
			specs = append(specs, h.spec(w, core.PolicySPB, sq))
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Claim (§VI.A): SPB SB-size sweep vs the standard at-commit SB56 (performance normalized to at-commit SB56)",
		Cols:  []string{"ALL"},
		Note:  ">= 1.0 means the SPB configuration matches or beats the standard 56-entry SB",
	}
	for _, sq := range sizes {
		all, _ := over(h.suite(), geomean, func(w string) (float64, bool) {
			return r.perf(h.spec(w, core.PolicySPB, sq), h.spec(w, core.PolicyAtCommit, 56)), true
		})
		t.Rows = append(t.Rows, Row{Name: fmt.Sprintf("spb SB%d", sq), Vals: []float64{all}})
	}
	return []Table{t}, nil
}

// SensN reproduces the §IV.C sensitivity analysis: the SPB window N and the
// dynamic store-size ablation, on the SB-bound set.
func (h *Harness) SensN() ([]Table, error) {
	var variants []variant
	for _, n := range []int{8, 16, 24, 32, 48, 64} {
		variants = append(variants, variant{fmt.Sprintf("N=%d", n), func(s *sim.RunSpec) { s.WindowN = n }})
	}
	variants = append(variants, variant{"dynamic-S (N=48)", func(s *sim.RunSpec) { s.DynamicSPB = true }})
	return h.ablation(Table{
		Title: "§IV.C sensitivity: SPB window N and the dynamic-S ablation (SB28, SB-bound apps, normalized to Ideal)",
		Cols:  []string{"SB-BOUND"},
	}, 28, variants)
}

// Experiment is one registered generator of tables.
type Experiment struct {
	ID  string
	Gen func(*Harness) ([]Table, error)
}

// Experiments is every experiment in presentation order: the one list that
// `spbtables` (-list, -exp and the default run), Verify and spb.Experiments
// are derived from.
var Experiments = []Experiment{
	{"tableI", (*Harness).TableI},
	{"tableII", (*Harness).TableII},
	{"fig1", (*Harness).Fig1},
	{"fig3", (*Harness).Fig3},
	{"fig5", (*Harness).Fig5},
	{"fig6", (*Harness).Fig6},
	{"fig7", (*Harness).Fig7},
	{"fig8", (*Harness).Fig8},
	{"fig9", (*Harness).Fig9},
	{"fig10", (*Harness).Fig10},
	{"fig11", (*Harness).Fig11},
	{"fig12", (*Harness).Fig12},
	{"fig13", (*Harness).Fig13},
	{"fig14", (*Harness).Fig14},
	{"fig15", (*Harness).Fig15},
	{"fig16", (*Harness).Fig16},
	{"fig17", (*Harness).Fig17},
	{"fig18", (*Harness).Fig18},
	{"sb20", (*Harness).SB20},
	{"sensN", (*Harness).SensN},
	{"extensions", (*Harness).Extensions},
	{"pfzoo", (*Harness).PFZoo},
}

// ExperimentByID finds a registered experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
