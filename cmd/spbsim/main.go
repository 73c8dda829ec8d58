// Command spbsim runs a single simulation point and prints its statistics:
// one workload, one store-prefetch policy, one store-buffer size.
//
// Examples:
//
//	spbsim -workload bwaves -policy spb -sb 14
//	spbsim -workload dedup -cores 8 -policy at-commit -sb 56 -insts 500000
package main

import (
	"flag"
	"fmt"
	"os"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/sim"
)

func main() {
	var (
		workload   = flag.String("workload", "bwaves", "workload name (SPEC-like for 1 core, PARSEC-like for >1)")
		policy     = flag.String("policy", "spb", "store-prefetch policy: none|at-execute|at-commit|spb|ideal")
		sb         = flag.Int("sb", 56, "store-buffer (store-queue) entries")
		prefetcher = flag.String("prefetcher", "stream", "generic L1 prefetcher: "+config.PrefetcherNames)
		coreName   = flag.String("core", "", "Table II core config (SLM|NHL|HSW|SKL|SNC); empty = Table I Skylake")
		cores      = flag.Int("cores", 1, "core count (PARSEC workloads)")
		insts      = flag.Uint64("insts", 500_000, "committed instructions per core")
		warmup     = flag.Uint64("warmup", 0, "functional-warming instructions per core before the measured interval")
		windowN    = flag.Int("spb-n", 48, "SPB window N")
		dynamic    = flag.Bool("spb-dynamic", false, "enable the dynamic store-size SPB ablation")
		backward   = flag.Bool("spb-backward", false, "enable the backward-burst extension (paper §IV.A)")
		crossPage  = flag.Bool("spb-crosspage", false, "enable the cross-page burst extension (paper footnote 2)")
		coalesce   = flag.Bool("coalesce-sb", false, "enable the store-coalescing SB ablation (related work)")
		sampling   = sim.SamplingFlags(flag.CommandLine)
		seed       = flag.Uint64("seed", 1, "workload seed")
		jsonOut    = flag.Bool("json", false, "emit the full exported stats set as canonical JSON (the spbd service serialization) and nothing else")
	)
	flag.Parse()

	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsim:", err)
		os.Exit(2)
	}
	pf, err := config.ParsePrefetcher(*prefetcher)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsim:", err)
		os.Exit(2)
	}
	res, err := sim.Run(sim.RunSpec{
		Workload:        *workload,
		Policy:          pol,
		SQSize:          *sb,
		Prefetcher:      pf,
		CoreName:        *coreName,
		Cores:           *cores,
		Insts:           *insts,
		WarmupInsts:     *warmup,
		WindowN:         *windowN,
		DynamicSPB:      *dynamic,
		BackwardBursts:  *backward,
		CrossPageBursts: *crossPage,
		CoalesceSB:      *coalesce,
		Sampling:        sampling(),
		Seed:            *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbsim:", err)
		os.Exit(1)
	}

	if *jsonOut {
		// The canonical stats serialization shared with the spbd service:
		// identical spec → byte-identical output, whether simulated locally
		// or served remotely.
		data, err := res.StatsJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbsim:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}

	c, m := res.CPU, res.Mem
	fmt.Printf("workload            %s (policy %s, SB %d, %s prefetcher)\n",
		*workload, pol, *sb, pf)
	fmt.Printf("cycles              %d\n", c.Cycles)
	fmt.Printf("committed           %d (IPC %.3f)\n", c.Committed, res.IPC())
	if sp := res.Sample; res.Spec.Sampling.Enabled() {
		ppm := func(v uint64) float64 { return float64(v) / 1e6 }
		fmt.Printf("sampling            %d windows: measured %d insts, detailed %d, fast-forwarded %d\n",
			sp.Intervals, sp.MeasuredInsts, sp.DetailedInsts, sp.FastForwardInsts)
		fmt.Printf("  ipc               %.3f ± %.3f (95%% CI)\n", ppm(sp.IPCMeanPPM), ppm(sp.IPCCI95PPM))
		fmt.Printf("  sbStall/inst      %.4f ± %.4f\n", ppm(sp.SBStallPerInstMeanPPM), ppm(sp.SBStallPerInstCI95PPM))
		fmt.Printf("  otherStall/inst   %.4f ± %.4f\n", ppm(sp.OtherStallPerInstMeanPPM), ppm(sp.OtherStallPerInstCI95PPM))
		fmt.Printf("  l1Miss/inst       %.4f ± %.4f\n", ppm(sp.L1MissPerInstMeanPPM), ppm(sp.L1MissPerInstCI95PPM))
		fmt.Printf("  dram/inst         %.4f ± %.4f\n", ppm(sp.DRAMPerInstMeanPPM), ppm(sp.DRAMPerInstCI95PPM))
	}
	fmt.Printf("loads/stores        %d / %d (forwarded %d, partial %d)\n",
		c.Loads, c.Stores, c.ForwardedLoads, c.PartialForwards)
	fmt.Printf("branches            %d (mispredicted %d, wrong-path insts %d)\n",
		c.Branches, c.Mispredicts, c.WrongPathInsts)
	fmt.Printf("SB stalls           %d cycles (%.2f%% of cycles; app %d, lib %d, kernel %d)\n",
		c.SBStallCycles, 100*res.TD.SBStallRatio, c.SBStallApp, c.SBStallLib, c.SBStallKernel)
	fmt.Printf("other stalls        ROB %d, IQ %d, LQ %d, frontend %d\n",
		c.ROBStallCycles, c.IQStallCycles, c.LQStallCycles, c.FrontendStallCycles)
	fmt.Printf("exec stalls w/ L1D miss pending  %d (%.2f%%)\n",
		c.ExecStallL1DPending, 100*res.TD.ExecStallL1DPendingRatio)
	fmt.Printf("SB-bound            %v (threshold %.0f%%)\n", res.TD.SBBound, 100.0*2/100)
	fmt.Printf("SPB bursts          %d\n", c.SPBBursts)
	fmt.Printf("store prefetches    issued %d (burst %d), discarded %d, to-L2 %d\n",
		m.SPFIssued, m.SPFBurst, m.SPFDiscarded, m.SPFMissToL2)
	fmt.Printf("  outcomes          successful %d, late %d, early %d, never-used %d\n",
		m.SPFSuccessful, m.SPFLate, m.SPFEarly, m.SPFNeverUsed())
	fmt.Printf("generic prefetches  issued %d, used %d, late %d, polluted %d\n",
		m.GPFIssued, m.GPFUsed, m.GPFLate, m.GPFPolluted)
	fmt.Printf("L1D                 tags %d, hits %d, misses %d\n",
		m.L1TagAccesses, m.L1Hits, m.L1Misses)
	fmt.Printf("L2/L3/DRAM          %d / %d / %d reads + %d writes\n",
		m.L2Accesses, m.L3Accesses, m.DRAMReads, m.DRAMWrites)
	fmt.Printf("coherence           %d invalidations, %d writebacks\n",
		m.Invalidations, m.Writebacks)
	fmt.Printf("energy              cache %.3g J, core %.3g J, static %.3g J, total %.3g J\n",
		res.Energy.CacheDynamic, res.Energy.CoreDynamic, res.Energy.Static, res.Energy.Total())
}
