// Command spbsweep runs a parameter sweep and emits one CSV row per
// simulation point, ready for plotting: every workload of the selected
// suite × every requested policy × every requested SB size.
//
// Examples:
//
//	spbsweep -sb 8,14,20,28,40,56 -policies at-commit,spb,ideal > sweep.csv
//	spbsweep -suite parsec -cores 8 -sb 14,56 > parsec.csv
//	spbsweep -suite sbbound -insts 1000000 -spb-n 8,16,24,32,48,64
//	spbsweep -server http://h1:7077,http://h2:7077 -suite parsec > parsec.csv
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"spb/internal/client"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/prof"
	"spb/internal/sim"
	"spb/internal/workloads"
)

// parseList splits a comma-separated flag value and parses each element
// with parse: strconv.Atoi, core.ParsePolicy or config.ParsePrefetcher, the
// parsers every surface that takes these names shares.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// column is one column of the CSV: its header and how a result fills it.
type column struct {
	name  string
	value func(r sim.Result) string
}

func itoa(v int) string     { return strconv.Itoa(v) }
func utoa(v uint64) string  { return strconv.FormatUint(v, 10) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// columns is the CSV, left to right.
var columns = []column{
	{"workload", func(r sim.Result) string { return r.Spec.Workload }},
	{"policy", func(r sim.Result) string { return r.Spec.Policy.String() }},
	{"prefetcher", func(r sim.Result) string { return r.Spec.Prefetcher.String() }},
	{"sb", func(r sim.Result) string { return itoa(r.Spec.SQSize) }},
	{"spb_n", func(r sim.Result) string { return itoa(r.Spec.WindowN) }},
	{"cores", func(r sim.Result) string { return itoa(r.Spec.Cores) }},
	{"insts", func(r sim.Result) string { return utoa(r.Spec.Insts) }},
	{"cycles", func(r sim.Result) string { return utoa(r.CPU.Cycles) }},
	{"ipc", func(r sim.Result) string { return ftoa(r.IPC()) }},
	{"sb_stall_ratio", func(r sim.Result) string { return ftoa(r.TD.SBStallRatio) }},
	{"sb_stall_cycles", func(r sim.Result) string { return utoa(r.CPU.SBStallCycles) }},
	{"other_stall_cycles", func(r sim.Result) string { return utoa(r.CPU.OtherStallCycles()) }},
	{"exec_stall_l1d_pending", func(r sim.Result) string { return utoa(r.CPU.ExecStallL1DPending) }},
	{"spb_bursts", func(r sim.Result) string { return utoa(r.CPU.SPBBursts) }},
	{"spf_issued", func(r sim.Result) string { return utoa(r.Mem.SPFIssued) }},
	{"spf_successful", func(r sim.Result) string { return utoa(r.Mem.SPFSuccessful) }},
	{"spf_late", func(r sim.Result) string { return utoa(r.Mem.SPFLate) }},
	{"spf_early", func(r sim.Result) string { return utoa(r.Mem.SPFEarly) }},
	{"l1_tag_accesses", func(r sim.Result) string { return utoa(r.Mem.L1TagAccesses) }},
	{"dram_reads", func(r sim.Result) string { return utoa(r.Mem.DRAMReads) }},
	{"invalidations", func(r sim.Result) string { return utoa(r.Mem.Invalidations) }},
	{"energy_cache_dyn_j", func(r sim.Result) string { return ftoa(r.Energy.CacheDynamic) }},
	{"energy_core_dyn_j", func(r sim.Result) string { return ftoa(r.Energy.CoreDynamic) }},
	{"energy_static_j", func(r sim.Result) string { return ftoa(r.Energy.Static) }},
	{"energy_total_j", func(r sim.Result) string { return ftoa(r.Energy.Total()) }},
	{"sample_intervals", func(r sim.Result) string { return utoa(r.Sample.Intervals) }},
	{"sample_ipc_mean_ppm", func(r sim.Result) string { return utoa(r.Sample.IPCMeanPPM) }},
	{"sample_ipc_ci95_ppm", func(r sim.Result) string { return utoa(r.Sample.IPCCI95PPM) }},
	{"sample_sb_stall_pi_mean_ppm", func(r sim.Result) string { return utoa(r.Sample.SBStallPerInstMeanPPM) }},
	{"sample_sb_stall_pi_ci95_ppm", func(r sim.Result) string { return utoa(r.Sample.SBStallPerInstCI95PPM) }},
}

func main() {
	var (
		suite    = flag.String("suite", "spec", "workload suite: spec|sbbound|parsec")
		sbList   = flag.String("sb", "14,28,56", "comma-separated SB sizes")
		policies = flag.String("policies", "at-commit,spb,ideal", "comma-separated policies")
		pfList   = flag.String("prefetchers", "stream", "comma-separated generic L1 prefetchers: "+config.PrefetcherNames)
		nList    = flag.String("spb-n", "48", "comma-separated SPB window sizes")
		cores    = flag.Int("cores", 0, "core count (default: 1 for spec, 8 for parsec)")
		insts    = flag.Uint64("insts", 200_000, "committed instructions per core")
		warmup   = flag.Uint64("warmup", 0, "functional-warming instructions per core before the measured interval")
		sampling = sim.SamplingFlags(flag.CommandLine)
		seed     = flag.Uint64("seed", 1, "workload seed")
		pool     = client.PoolFlags(flag.CommandLine, "the sweep executes")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this address while the sweep runs (empty disables)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(1)
	}
	defer stopProf()
	if *debugAddr != "" {
		dbg, err := prof.DebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbsweep:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "spbsweep: pprof on http://%s/debug/pprof/\n", dbg)
	}

	sbs, err := parseList(*sbList, strconv.Atoi)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(2)
	}
	pols, err := parseList(*policies, core.ParsePolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(2)
	}
	ns, err := parseList(*nList, strconv.Atoi)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(2)
	}
	pfs, err := parseList(*pfList, config.ParsePrefetcher)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(2)
	}

	var names []string
	nCores := *cores
	switch *suite {
	case "spec":
		for _, w := range workloads.SPEC() {
			names = append(names, w.Name)
		}
		if nCores == 0 {
			nCores = 1
		}
	case "sbbound":
		for _, w := range workloads.SBBoundSPEC() {
			names = append(names, w.Name)
		}
		if nCores == 0 {
			nCores = 1
		}
	case "parsec":
		for _, p := range workloads.PARSEC() {
			names = append(names, p.Name)
		}
		if nCores == 0 {
			nCores = 8
		}
	default:
		fmt.Fprintf(os.Stderr, "spbsweep: unknown suite %q (want spec|sbbound|parsec)\n", *suite)
		os.Exit(2)
	}

	var specs []sim.RunSpec
	for _, name := range names {
		for _, sb := range sbs {
			for _, p := range pols {
				for _, pf := range pfs {
					for _, n := range ns {
						specs = append(specs, sim.RunSpec{
							Workload: name, Policy: p, SQSize: sb,
							Prefetcher: pf,
							Cores:      nCores, Insts: *insts, WarmupInsts: *warmup,
							WindowN: n, Sampling: sampling(), Seed: *seed,
						})
					}
				}
			}
		}
	}

	// Ctrl-C cancels everything still queued or running, locally or on the
	// remote daemons.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	remote, err := pool()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(2)
	}
	var results []sim.Result
	if remote != nil {
		results, err = remote.GetAllCtx(ctx, specs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbsweep:", err)
			os.Exit(1)
		}
	} else {
		runner := sim.NewRunner()
		results, err = runner.GetAllCtx(ctx, specs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbsweep:", err)
			os.Exit(1)
		}
		ss := runner.SimStats()
		if ss.WarmGroups > 0 || *warmup > 0 {
			fmt.Fprintf(os.Stderr,
				"spbsweep: warmstart: groups=%d forks=%d insts_saved=%d insts=%d\n",
				ss.WarmGroups, ss.WarmForks, ss.WarmInstsSaved, ss.InstsSimulated)
		}
		if ss.SampledRuns > 0 {
			fmt.Fprintf(os.Stderr,
				"spbsweep: sampling: runs=%d intervals=%d insts_skipped=%d insts=%d\n",
				ss.SampledRuns, ss.SampleIntervals, ss.SampleInstsSkipped, ss.InstsSimulated)
		}
	}

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	header := make([]string, len(columns))
	for i, c := range columns {
		header[i] = c.name
	}
	if err := w.Write(header); err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(1)
	}
	for _, r := range results {
		row := make([]string, len(columns))
		for i, c := range columns {
			row[i] = c.value(r)
		}
		if err := w.Write(row); err != nil {
			fmt.Fprintln(os.Stderr, "spbsweep:", err)
			os.Exit(1)
		}
	}
}
