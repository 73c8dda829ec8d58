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
	"strings"
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
		sample     = flag.Bool("sample", false, "SMARTS sampling at the validated default (125k-inst period, 8k detailed, 12k warm); figure values become sampled estimates")
		sampleI    = flag.Uint64("sample-interval", 0, "sampling period in instructions per core (overrides -sample's default; 0 = off)")
		sampleD    = flag.Uint64("sample-detailed", 0, "detailed-window length per sample (0 = engine default)")
		sampleW    = flag.Uint64("sample-warm", 0, "detailed warming before each window (0 = engine default)")
		sampleH    = flag.Uint64("sample-history", 0, "bound full warming to the last N insts of each skip; the LLC+directory stay warm throughout (0 = full-warm the whole skip)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		server     = flag.String("server", "", "comma-separated spbd base URLs; sweeps execute remotely via the sharded client pool")
		discover   = flag.Bool("cluster", false, "expand -server via the daemons' gossip membership: any one live node discovers the fleet")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(figures.Order, "\n"))
		return
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
	scale.Sampling = sim.SamplingConfig{
		IntervalInsts: *sampleI, DetailedInsts: *sampleD,
		WarmInsts: *sampleW, HistoryInsts: *sampleH,
	}
	if *sample && !scale.Sampling.Enabled() {
		scale.Sampling = sim.DefaultSampling
	}

	// Ctrl-C cancels the harness context: every queued and in-flight
	// simulation — local worker pool or remote daemons — stops.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var exec figures.Executor
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
			fmt.Fprintln(os.Stderr, "spbtables:", err)
			os.Exit(2)
		}
		if bs := pool.Backends(); *discover && len(bs) > len(seeds) {
			fmt.Fprintf(os.Stderr, "spbtables: cluster discovery: sweeping across %d backends\n", len(bs))
		}
		exec = pool
	}
	h := figures.NewHarnessOn(ctx, scale, exec)
	all := h.All()

	ids := figures.Order
	if *exp != "" {
		if _, ok := all[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "spbtables: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		ids = []string{*exp}
	}
	for _, id := range ids {
		tables, err := all[id]()
		if err != nil {
			stop()
			fmt.Fprintf(os.Stderr, "spbtables: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	}
}
