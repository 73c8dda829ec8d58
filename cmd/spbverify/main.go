// Command spbverify re-runs the paper's headline claims and checks every
// measured value against its expected band: a one-command answer to "does
// this reproduction still reproduce the paper?". Exit status 0 means every
// claim holds.
//
// Examples:
//
//	spbverify            # reduced scale (SB-bound suite), about a second on 2 vCPUs
//	spbverify -insts 400000 -full
package main

import (
	"flag"
	"fmt"
	"os"

	"spb/internal/figures"
)

func main() {
	var (
		insts = flag.Uint64("insts", 150_000, "committed instructions per run")
		full  = flag.Bool("full", false, "run the whole SPEC-like suite, not just the SB-bound set")
	)
	flag.Parse()

	scale := figures.Scale{Insts: *insts, SBBoundOnly: !*full}
	h := figures.NewHarness(scale)

	results := h.Verify()
	failed := 0
	fmt.Printf("%-6s %-62s %8s %10s %14s\n", "", "claim", "paper", "measured", "accepted band")
	for _, r := range results {
		status := "  OK"
		switch {
		case r.Err != nil:
			status = "ERROR"
			failed++
		case !r.Pass:
			status = "DRIFT"
			failed++
		}
		if r.Err != nil {
			fmt.Printf("%-6s %-62s %8.3f %10s %14s  (%v)\n",
				status, r.Claim, r.Paper, "-", "-", r.Err)
			continue
		}
		fmt.Printf("%-6s %-62s %8.3f %10.3f  [%.2f, %.2f]\n",
			status, r.Claim, r.Paper, r.Measured, r.Lo, r.Hi)
	}
	fmt.Println()
	if failed > 0 {
		fmt.Printf("spbverify: %d of %d claims FAILED\n", failed, len(results))
		os.Exit(1)
	}
	fmt.Printf("spbverify: all %d claims hold\n", len(results))
}
