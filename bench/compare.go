package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// simulated lists the metrics that come from the program's own counters and
// therefore repeat exactly for a given workload and seed: two sets of runs of
// the same code must agree on them bit for bit.
var simulated = map[string]bool{
	"paper_err_pct": true, "figures.claims_failed": true, "core.spb_speedup_sb14": true,
	"trace.mem_op_frac": true, "trace.store_frac": true, "stats.statsjson_bytes": true,
	"cpu.sim_cycles": true, "cpu.ipc": true, "cpu.sb_stall_frac": true, "cpu.other_stall_frac": true,
	"cpu.frontend_stall_frac": true, "cpu.mispredicts_pki": true, "storebuf.forward_hit_frac": true,
	"core.bursts_per_kstore": true, "core.burst_blocks_avg": true, "core.spf_issued_pki": true,
	"core.spf_useful_frac": true, "core.spf_late_frac": true, "cache.l1_hit_frac": true,
	"memsys.l1_mpki": true, "memsys.l3_apki": true, "memsys.invalidations_pki": true,
	"memsys.gpf_useful_frac": true, "dram.reads_pki": true,
	"sim.warm_groups": true, "sim.warm_forks": true, "sim.warm_insts_saved": true,
	"sim.insts_simulated": true, "sim.sample_intervals": true, "sim.sample_insts_skipped": true,
	"sim.sample_ipc_ci_pct": true,
}

// cmdCompare applies the benchmark's bounds to two result sets: per workload
// and end-to-end metric it prints ok, regressed, or unresolved (run-to-run
// spread wider than the bound), and it requires simulated counts of matching
// runs to be identical. Exit status 1 if anything is not ok.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: spbbench compare A.json B.json   (A = parent or first set, B = change or second set)")
		return 2
	}
	var sets [2]resultSet
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "spbbench: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := sets[0], sets[1]
	if a.Traced != b.Traced {
		fmt.Fprintln(os.Stderr, "spbbench: one set is traced and the other is not")
		return 2
	}
	if a.Host != b.Host {
		fmt.Printf("note: host facts differ\n  A: %+v\n  B: %+v\n", a.Host, b.Host)
	}
	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tspread A / B\tB vs A\tbound\tverdict")
	for _, w := range workloadDefs {
		for _, d := range endToEndDefs {
			va, vb := valuesOf(a, w.Name, d.Name), valuesOf(b, w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse := judge(d, va, vb)
			if verdict != "ok" {
				bad++
			}
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%.1f%% / %.1f%%\t%+.1f%% worse\t%.0f%%\t%s\n",
				w.Name, d.Name, median(va), qa1, qa3, median(vb), qb1, qb3, spread(va)*100, spread(vb)*100, worse*100, d.Bound*100, verdict)
		}
	}
	tw.Flush()

	// Simulated counts: identical for the same workload and seed.
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for name, ma := range ra.Result.Metrics {
				if mb, ok := rb.Result.Metrics[name]; ok && simulated[name] && ma.Value != mb.Value {
					fmt.Printf("differs: %s seed %d %s: %v vs %v (simulated, must repeat exactly)\n",
						ra.Workload, ra.Seed, name, ma.Value, mb.Value)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d finding(s)\n", bad)
		return 1
	}
	fmt.Println("all ok")
	return 0
}

func valuesOf(s resultSet, workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge compares side B with side A for one metric. worse is how much worse
// B's median is, as a share of A's (negative = better).
func judge(d metricDef, a, b []float64) (verdict string, worse float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == higher {
			worse = -worse
		}
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		// Too noisy to call, unless every run of B beats every run of A.
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if d.Better == higher {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if allBetter {
			return "ok", worse
		}
		return "unresolved (spread wider than bound)", worse
	}
	if worse > d.Bound {
		return "regressed", worse
	}
	return "ok", worse
}
