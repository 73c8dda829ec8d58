package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spb"
)

// Service workload sizes (requests, not instructions, so the smoke test's
// scale leaves the minimum to the caller).
const (
	minColdReq  = 150  // requests the measured loop must at least make
	measureFrom = 1000 // first spec index of a measured loop; warm-ups stay below
)

// requests scales a request count with the run's scale (never up, never below min).
func (c runConfig) requests(n float64, min int) int {
	return int(math.Max(float64(min), n*math.Min(1, c.scale)))
}

func (c runConfig) minCold() int { return c.requests(minColdReq, 20) }

// svcSetUp starts a fresh daemon and warms it: a handful of cold requests
// through every client connection.
func svcSetUp(cfg runConfig, bin, dir string, trace bool, o *ops) (*daemon, error) {
	d, err := startDaemon(bin, dir, trace)
	if err != nil {
		return nil, err
	}
	base := svcBase(cfg.scale)
	warm := closedLoop(d, loopOpts{phase: "warm-up", specAt: func(i int) spb.RunSpec { return svcSpec(base, cfg.seed, i) },
		maxReq: 4 * runtime.NumCPU()})
	for _, e := range warm.errs {
		o.fail("set-up: %s", e)
	}
	return d, nil
}

func serviceEndToEnd(cfg runConfig, o *ops) (map[string]float64, error) {
	bin, err := ensureSpbd(cfg.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.tmpDir())
	var d *daemon
	defer func() { d.stop() }()
	setup := make([]float64, setUps)
	for k := range setup {
		d.stop()
		t0 := time.Now()
		d, err = svcSetUp(cfg, bin, filepath.Join(cfg.tmpDir(), fmt.Sprintf("setup%d", k)), false, o)
		if err != nil {
			return nil, err
		}
		setup[k] = time.Since(t0).Seconds()
	}
	// Daemon memory is the mean resident set over the loop, not its peak: the
	// workers' pooled simulator arenas come in 20 MB steps as a collection
	// empties the pools, so the peak after 25 s is 124, 143 or 162 MB as luck
	// has it, and ten runs of it spread up to 18 %.
	meanRSS := d.watchRSS()
	res := measuredLoop(cfg, d, cfg.seconds)
	rss := meanRSS()
	d.stop()
	account(res, o)
	if res.ok == 0 {
		return nil, fmt.Errorf("%s: no request succeeded", cfg.workload)
	}
	perSecond, p50 := res.steady()
	return map[string]float64{
		"setup_s":     median(setup),
		"sim_mips":    perSecond * float64(res.insts) / float64(res.ok) / 1e6,
		"req_p50_ms":  p50,
		"peak_rss_mb": rss,
	}, nil
}

// compareReplies byte-compares retained service replies with in-process
// Result.StatsJSON of the same specs (each distinct spec simulated once).
func compareReplies(kept []reply, o *ops) {
	var specs []spb.RunSpec
	at := map[spb.RunSpec]int{}
	for _, r := range kept {
		if _, ok := at[r.spec]; !ok {
			at[r.spec] = len(specs)
			specs = append(specs, r.spec)
		}
	}
	if len(specs) == 0 {
		return
	}
	results, err := spb.NewRunner().GetAll(specs)
	if err != nil {
		o.fail("in-process reference runs: %v", err)
		return
	}
	for _, r := range kept {
		want, err := results[at[r.spec]].StatsJSON()
		if err != nil || !bytes.Equal(want, r.stats) {
			o.fail("reply %d (%s/%v seed %d): stats bytes differ from in-process StatsJSON (%v)",
				r.index, r.spec.Workload, r.spec.Policy, r.spec.Seed, err)
		}
	}
}

// measuredLoop is the closed loop svc-cold times: never-seen specs with 1 in
// 10 submitted by every client at once.
func measuredLoop(cfg runConfig, d *daemon, seconds float64) loopResult {
	base := svcBase(cfg.scale)
	return closedLoop(d, loopOpts{phase: "cold", specAt: func(i int) spb.RunSpec { return svcSpec(base, cfg.seed, measureFrom+i) },
		shareEvery: 10, minReq: cfg.minCold(), seconds: seconds, keep: func(i int) bool { return i%checkEvery == 0 }})
}

// book counts a closed loop's requests as operations.
func (o *ops) book(res loopResult) {
	o.attempted += res.ok + res.failed
	o.failed += res.failed
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
}

// account books a measured loop's requests and byte-compares its retained
// replies with in-process results. The check is only worth its name if it
// sees the SPB path as well as the baseline, so that is itself checked.
func account(res loopResult, o *ops) {
	o.book(res)
	policies := map[spb.Policy]bool{}
	for _, r := range res.kept {
		policies[r.spec.Policy] = true
	}
	o.check(policies[spb.PolicyAtCommit] && policies[spb.PolicySPB], "the %d checked replies do not cover both at-commit and spb", len(res.kept))
	compareReplies(res.kept, o)
}
