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

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parsePolicies(s string) ([]core.Policy, error) {
	var out []core.Policy
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for _, p := range core.Policies {
			if p.String() == part {
				out = append(out, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown policy %q", part)
		}
	}
	return out, nil
}

func parsePrefetchers(s string) ([]config.PrefetcherKind, error) {
	var out []config.PrefetcherKind
	for _, part := range strings.Split(s, ",") {
		k, err := config.ParsePrefetcher(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
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
		sample   = flag.Bool("sample", false, "SMARTS sampling at the validated default (125k-inst period, 8k detailed, 12k warm)")
		sampleI  = flag.Uint64("sample-interval", 0, "sampling period in instructions per core (overrides -sample's default; 0 = off)")
		sampleD  = flag.Uint64("sample-detailed", 0, "detailed-window length per sample (0 = engine default)")
		sampleW  = flag.Uint64("sample-warm", 0, "detailed warming before each window (0 = engine default)")
		sampleH  = flag.Uint64("sample-history", 0, "bound full warming to the last N insts of each skip; the LLC+directory stay warm throughout (0 = full-warm the whole skip)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		server   = flag.String("server", "", "comma-separated spbd base URLs; the sweep executes remotely via the sharded client pool")
		discover = flag.Bool("cluster", false, "expand -server via the daemons' gossip membership: any one live node discovers the fleet")

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

	sbs, err := parseInts(*sbList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(2)
	}
	pols, err := parsePolicies(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(2)
	}
	ns, err := parseInts(*nList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(2)
	}
	pfs, err := parsePrefetchers(*pfList)
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

	sampling := sim.SamplingConfig{
		IntervalInsts: *sampleI, DetailedInsts: *sampleD,
		WarmInsts: *sampleW, HistoryInsts: *sampleH,
	}
	if *sample && !sampling.Enabled() {
		sampling = sim.DefaultSampling
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
							WindowN: n, Sampling: sampling, Seed: *seed,
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

	var results []sim.Result
	if *server != "" {
		seeds := strings.Split(*server, ",")
		var pool *client.Pool
		var err error
		if *discover {
			pool, err = client.NewClusterPool(ctx, seeds, client.PoolOptions{})
		} else {
			pool, err = client.NewPool(seeds, client.PoolOptions{})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbsweep:", err)
			os.Exit(2)
		}
		if bs := pool.Backends(); *discover && len(bs) > len(seeds) {
			fmt.Fprintf(os.Stderr, "spbsweep: cluster discovery: sweeping across %d backends\n", len(bs))
		}
		results, err = pool.GetAllCtx(ctx, specs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbsweep:", err)
			os.Exit(1)
		}
	} else {
		runner := sim.NewRunner()
		var err error
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
	header := []string{
		"workload", "policy", "prefetcher", "sb", "spb_n", "cores", "insts",
		"cycles", "ipc", "sb_stall_ratio", "sb_stall_cycles", "other_stall_cycles",
		"exec_stall_l1d_pending", "spb_bursts",
		"spf_issued", "spf_successful", "spf_late", "spf_early",
		"l1_tag_accesses", "dram_reads", "invalidations",
		"energy_cache_dyn_j", "energy_core_dyn_j", "energy_static_j", "energy_total_j",
		"sample_intervals", "sample_ipc_mean_ppm", "sample_ipc_ci95_ppm",
		"sample_sb_stall_pi_mean_ppm", "sample_sb_stall_pi_ci95_ppm",
	}
	if err := w.Write(header); err != nil {
		fmt.Fprintln(os.Stderr, "spbsweep:", err)
		os.Exit(1)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, r := range results {
		row := []string{
			r.Spec.Workload,
			r.Spec.Policy.String(),
			r.Spec.Prefetcher.String(),
			strconv.Itoa(r.Spec.SQSize),
			strconv.Itoa(r.Spec.WindowN),
			strconv.Itoa(r.Spec.Cores),
			u(r.Spec.Insts),
			u(r.CPU.Cycles),
			f(r.IPC()),
			f(r.TD.SBStallRatio),
			u(r.CPU.SBStallCycles),
			u(r.CPU.OtherStallCycles()),
			u(r.CPU.ExecStallL1DPending),
			u(r.CPU.SPBBursts),
			u(r.Mem.SPFIssued),
			u(r.Mem.SPFSuccessful),
			u(r.Mem.SPFLate),
			u(r.Mem.SPFEarly),
			u(r.Mem.L1TagAccesses),
			u(r.Mem.DRAMReads),
			u(r.Mem.Invalidations),
			f(r.Energy.CacheDynamic),
			f(r.Energy.CoreDynamic),
			f(r.Energy.Static),
			f(r.Energy.Total()),
			u(r.Sample.Intervals),
			u(r.Sample.IPCMeanPPM),
			u(r.Sample.IPCCI95PPM),
			u(r.Sample.SBStallPerInstMeanPPM),
			u(r.Sample.SBStallPerInstCI95PPM),
		}
		if err := w.Write(row); err != nil {
			fmt.Fprintln(os.Stderr, "spbsweep:", err)
			os.Exit(1)
		}
	}
}
