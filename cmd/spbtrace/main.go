// Command spbtrace records a workload's instruction stream to a compact
// trace file, inspects a recorded trace, or replays one through the
// simulator — the usual decoupling between trace capture and timing runs. A
// replay is the run spbsim makes of the same stream: sim's plan, on a Program
// whose one leaf replays the trace.
//
// Examples:
//
//	spbtrace record -workload bwaves -insts 500000 -o bwaves.spbt
//	spbtrace info bwaves.spbt
//	spbtrace replay -policy spb -sb 14 bwaves.spbt
package main

import (
	"flag"
	"fmt"
	"os"

	"spb/internal/core"
	"spb/internal/sim"
	"spb/internal/trace"
	"spb/internal/workloads"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: spbtrace record|info|replay [flags] [file]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	workload := fs.String("workload", "bwaves", "SPEC-like workload name")
	insts := fs.Uint64("insts", 500_000, "instructions to record")
	seed := fs.Uint64("seed", 1, "workload seed")
	out := fs.String("o", "trace.spbt", "output file")
	fs.Parse(args)

	w, err := workloads.SPECByName(*workload)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	n, err := trace.WriteTrace(f, w.Build(*seed), *insts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d instructions of %s to %s\n", n, *workload, *out)
}

// open parses args into fs and decodes the one trace file they name.
func open(fs *flag.FlagSet, args []string) []trace.Inst {
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	recs, err := trace.OpenTrace(f)
	if err != nil {
		fatal(err)
	}
	return recs
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	recs := open(fs, args)
	total := uint64(len(recs))
	kinds := map[trace.Kind]uint64{}
	regions := map[trace.Region]uint64{}
	for _, in := range recs {
		kinds[in.Kind]++
		if in.Kind.IsMem() {
			regions[trace.RegionOf(in.PC)]++
		}
	}
	fmt.Printf("%s: %d instructions\n", fs.Arg(0), total)
	for k := trace.Kind(0); int(k) < trace.NumKinds; k++ {
		if kinds[k] > 0 {
			fmt.Printf("  %-8s %10d (%.1f%%)\n", k, kinds[k], 100*float64(kinds[k])/float64(total))
		}
	}
	for _, r := range []trace.Region{trace.RegionApp, trace.RegionLib, trace.RegionKernel} {
		if regions[r] > 0 {
			fmt.Printf("  mem in %-7s %10d\n", r, regions[r])
		}
	}
}

// replay runs a recorded trace through the simulator: the plan sim.Run
// follows, on a Program of one replay leaf, for as many instructions as the
// trace holds.
func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	policy := fs.String("policy", "spb", "store-prefetch policy")
	sb := fs.Int("sb", 56, "store-buffer entries")
	recs := open(fs, args)
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("%s holds no instructions", fs.Arg(0)))
	}
	prog := trace.NewProgram(trace.NewRNG(1), trace.Phase{Weight: 1, Leaves: []trace.Leaf{{Op: trace.OpReplay, Records: recs}}})
	res, err := sim.RunPrograms(sim.RunSpec{Workload: fs.Arg(0), Policy: pol, SQSize: *sb, Insts: uint64(len(recs))}, []*trace.Program{prog})
	if err != nil {
		fatal(err)
	}
	st := res.CPU
	fmt.Printf("replayed %d instructions (policy %s, SB %d)\n", st.Committed, pol, *sb)
	fmt.Printf("cycles %d, IPC %.3f, SB stalls %d (%.1f%%), SPB bursts %d\n",
		st.Cycles, st.IPC(), st.SBStallCycles,
		100*float64(st.SBStallCycles)/float64(st.Cycles), st.SPBBursts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spbtrace:", err)
	os.Exit(1)
}
