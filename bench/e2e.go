package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spb"
	"spb/internal/config"
	"spb/internal/figures"
)

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    float64 // 1 = the recorded budgets; the smoke test runs at 1/50
	root     string  // checkout root
}

func (c runConfig) isService() bool { return c.workload == "svc-cold" }

// tmpDir is this process's scratch space for daemon caches and journals.
func (c runConfig) tmpDir() string {
	return filepath.Join(buildDir(c.root), "tmp", fmt.Sprintf("%d", os.Getpid()))
}

// ops counts operations attempted and failed; a failed operation makes the
// run incorrect and the process exit non-zero.
type ops struct {
	attempted, failed int
}

func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

func (o *ops) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// setUps is how many times a run sets up; setup_s is their median.
const setUps = 5

// minReps is the fewest timed repetitions a sim workload reports a median of.
const minReps = 5

// runEndToEnd measures every end-to-end metric for cfg.workload with tracing
// off.
func runEndToEnd(cfg runConfig, o *ops) (map[string]float64, error) {
	var m map[string]float64
	var err error
	if cfg.isService() {
		m, err = serviceEndToEnd(cfg, o)
	} else {
		m = simEndToEnd(cfg, o)
	}
	if err != nil {
		return nil, err
	}
	fid := runFidelity(cfg.scale, o)
	m["paper_err_pct"] = fid.errPct
	return m, nil
}

func simEndToEnd(cfg runConfig, o *ops) map[string]float64 {
	var w simWorkload
	setup := make([]float64, setUps)
	for k := range setup {
		t0 := time.Now()
		w = newSimWorkload(cfg.workload, cfg.seed, cfg.scale)
		for _, err := range w.warmUp() {
			o.fail("warm-up: %v", err)
		}
		setup[k] = time.Since(t0).Seconds()
		runtime.GC()
	}

	// lat[p] collects request p's latency over the repetitions (a request is
	// a point, or the whole grid for the sweep).
	var lat [][]float64
	var first repetition
	start := time.Now()
	for n := 0; ; n++ {
		// Stop within half a repetition of the window. On a stalled host give up
		// on minReps at three windows: the driver allows a run 180 s.
		el := time.Since(start).Seconds()
		if n >= minReps && el+0.5*el/float64(n) >= cfg.seconds || n >= 1 && el >= 3*cfg.seconds {
			break
		}
		rep := w.run(nil, "")
		// Collect between repetitions, outside the timed calls: each then starts
		// from a collected heap, as a user's one run per process does. Left to
		// its own pacing the collector runs once or twice at random points of a
		// repetition over the garbage of earlier ones, which widened the
		// run-to-run spread of the sweep from 4 % to 10 % and of its peak RSS
		// from 0.2 % to 16 %.
		runtime.GC()
		o.attempted += len(w.specs)
		for _, err := range rep.errs {
			o.fail("point: %v", err)
		}
		if n == 0 {
			first = rep
			lat = make([][]float64, len(rep.latMS))
		} else {
			o.check(rep.digest == first.digest, "repetition %d: stats digest %x differs from the first repetition's %x", n, rep.digest[:6], first.digest[:6])
		}
		for p := range lat {
			if p < len(rep.latMS) {
				lat[p] = append(lat[p], rep.latMS[p])
			}
		}
	}
	// The median is taken per request, not per repetition: a disturbance of
	// the host that lasts one point then costs one sample of one point, not a
	// whole repetition. A repetition's wall time is the sum of its requests'.
	typical := make([]float64, len(lat))
	total := 0.0
	for p := range lat {
		typical[p] = median(lat[p])
		total += typical[p] / 1000
	}
	return map[string]float64{
		"setup_s":     median(setup),
		"sim_mips":    float64(delivered(w.specs)) / total / 1e6,
		"req_p50_ms":  percentile(typical, 0.50),
		"peak_rss_mb": selfPeakRSSMiB(),
	}
}

// fidelity is the outcome of the paper-claims step.
type fidelity struct {
	errPct  float64 // mean |measured - paper| / paper x 100 over the claims
	claims  int
	outside int // claims outside their band
	wall    time.Duration
	speedup float64 // cycles at-commit / cycles spb at SB14, geomean of bwaves and roms
}

// fidelityInsts is the harness scale the claim bands hold at.
const fidelityInsts = 150_000

// runFidelity regenerates the paper's claims at a reduced scale and compares
// them with the paper's own values: the repository holds no hardware
// reference. The bands are enforced at full scale only; a scaled-down smoke
// run still exercises the step but its claims are not expected to hold.
func runFidelity(scale float64, o *ops) fidelity {
	n := uint64(fidelityInsts * math.Min(1, scale))
	if n < 5000 {
		n = 5000
	}
	t0 := time.Now()
	h := figures.NewHarness(figures.Scale{Insts: n, SBBoundOnly: true})
	var f fidelity
	sum := 0.0
	for _, r := range h.Verify() {
		f.claims++
		if r.Err != nil {
			o.check(false, "claim %s (%s): %v", r.ID, r.Claim, r.Err)
			f.outside++
			continue
		}
		sum += math.Abs(r.Measured-r.Paper) / r.Paper * 100
		if !r.Pass {
			f.outside++
		}
		if scale >= 1 {
			o.check(r.Pass, "claim %s (%s): measured %.4f outside [%.3f, %.3f]", r.ID, r.Claim, r.Measured, r.Lo, r.Hi)
		}
	}
	f.errPct = sum / float64(f.claims)
	f.wall = time.Since(t0)

	logSum := 0.0
	for _, w := range []string{"bwaves", "roms"} {
		var cyc [2]float64
		for i, p := range []spb.Policy{spb.PolicyAtCommit, spb.PolicySPB} {
			// The spec the harness itself runs, so this is a memo hit.
			res, err := h.Runner().Get(spb.RunSpec{Workload: w, Policy: p, SQSize: 14, Prefetcher: config.PrefetchStream, Insts: n})
			if err != nil {
				o.fail("spb_speedup_sb14 %s/%v: %v", w, p, err)
				return f
			}
			cyc[i] = float64(res.CPU.Cycles)
		}
		logSum += math.Log(cyc[0] / cyc[1])
	}
	f.speedup = math.Exp(logSum / 2)
	return f
}
