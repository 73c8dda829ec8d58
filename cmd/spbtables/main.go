// Command spbtables regenerates the paper's tables and figures from the
// simulator. With no flags it runs every experiment at full scale; -exp
// selects a single one, -quick switches to the reduced benchmark scale, and
// -server routes every sweep through one or more spbd daemons — producing
// byte-identical tables, since the daemons return the full simulation
// results the harness would have computed in-process.
//
// Examples:
//
//	spbtables -exp fig5
//	spbtables -quick
//	spbtables -list
//	spbtables -exp fig5 -server http://h1:7077,http://h2:7077,http://h3:7077
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"spb/internal/client"
	"spb/internal/figures"
	"spb/internal/prof"
	"spb/internal/sim"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (tableI, fig1, fig5, ... sensN); empty = all")
		quick      = flag.Bool("quick", false, "reduced scale (SB-bound apps only, fewer instructions)")
		insts      = flag.Uint64("insts", 0, "override the per-run instruction budget")
		warmup     = flag.Uint64("warmup", 0, "functional-warming instructions per core before each measured interval (stock scales use 0)")
		sampling   = sim.SamplingFlags(flag.CommandLine)
		list       = flag.Bool("list", false, "list experiment ids and exit")
		pool       = client.PoolFlags(flag.CommandLine, "sweeps execute")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Lookup("sample").Usage += "; figure values become sampled estimates"
	flag.Parse()

	exps := figures.Experiments
	if *list {
		for _, e := range exps {
			fmt.Println(e.ID)
		}
		return
	}
	if *exp != "" {
		e, ok := figures.ExperimentByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "spbtables: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		exps = []figures.Experiment{e}
	}

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbtables:", err)
		os.Exit(1)
	}
	defer stop()

	scale := figures.Full
	if *quick {
		scale = figures.Quick
	}
	if *insts > 0 {
		scale.Insts = *insts
	}
	if *warmup > 0 {
		scale.Warmup = *warmup
	}
	scale.Sampling = sampling()

	// Ctrl-C cancels the harness context: every queued and in-flight
	// simulation — local worker pool or remote daemons — stops.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var exec figures.Executor // nil (in-process) without -server
	p, err := pool()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbtables:", err)
		os.Exit(2)
	}
	if p != nil {
		exec = p
	}
	h := figures.NewHarnessOn(ctx, scale, exec)
	for _, e := range exps {
		tables, err := e.Gen(h)
		if err != nil {
			stop()
			fmt.Fprintf(os.Stderr, "spbtables: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	}
}
