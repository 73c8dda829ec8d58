package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"spb"
)

// simWorkload is one of the three in-process workloads: a fixed list of
// points run either one by one through spb.Run on this goroutine (the detail-*
// workloads) or as one Runner.GetAll over the whole grid (the sweep).
type simWorkload struct {
	name  string
	specs []spb.RunSpec
	batch bool
}

func newSimWorkload(name string, seed uint64, scale float64) simWorkload {
	if name == "sweep-warm-sampled" {
		grid, _ := sweepSpecs(seed, scale)
		return simWorkload{name, grid, true}
	}
	return simWorkload{name, detailSpecs(name, seed, scale), false}
}

// delivered is the simulated instructions a set of specs stands for.
func delivered(specs []spb.RunSpec) uint64 {
	var n uint64
	for _, s := range specs {
		s = s.Normalized()
		n += s.Insts * uint64(s.Cores)
	}
	return n
}

// repetition is the outcome of running every point of a workload once.
type repetition struct {
	wall    time.Duration
	latMS   []float64 // per request: a point, or the whole grid for a batch
	results []spb.Result
	digest  [sha256.Size]byte // over the canonical stats JSON of every point
	errs    []error
}

// run executes one repetition. rec, when non-nil, gets a span for the
// repetition and one per call into the spb facade.
func (w simWorkload) run(rec *recorder, traceID string) repetition {
	var rep repetition
	root := rec.start(traceID, w.name, 0)
	t0 := time.Now()
	if w.batch {
		sp := rec.start(traceID, "spb.Runner.GetAll", root.id)
		results, err := spb.NewRunner().GetAll(w.specs)
		sp.end()
		if err != nil {
			rep.errs = append(rep.errs, err)
		}
		rep.results = results
		rep.latMS = []float64{ms(time.Since(t0))}
	} else {
		// One goroutine on one P: with more, the scheduler moves the goroutine
		// between Ps, a sync.Pool arena put back on one P is then missed on
		// the other, and peak RSS becomes bimodal (a whole extra memsys arena
		// in about one run in three).
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for _, s := range w.specs {
			sp := rec.start(traceID, "spb.Run "+s.Workload+"/"+s.Policy.String(), root.id)
			t1 := time.Now()
			res, err := spb.Run(s)
			rep.latMS = append(rep.latMS, ms(time.Since(t1)))
			sp.end()
			if err != nil {
				rep.errs = append(rep.errs, fmt.Errorf("%s/%v: %w", s.Workload, s.Policy, err))
				continue
			}
			rep.results = append(rep.results, res)
		}
	}
	rep.wall = time.Since(t0)
	root.end()
	h := sha256.New()
	for _, res := range rep.results {
		js, err := res.StatsJSON()
		if err != nil {
			rep.errs = append(rep.errs, err)
			continue
		}
		h.Write(js)
	}
	h.Sum(rep.digest[:0])
	return rep
}

// warmUp is the untimed repetition of a set-up: the same points at a quarter
// of the instruction budget, enough to fill the arena pools and fault in the
// pages the timed repetitions will reuse.
func (w simWorkload) warmUp() []error {
	q := simWorkload{w.name, make([]spb.RunSpec, len(w.specs)), w.batch}
	for i, s := range w.specs {
		s.Insts /= 4
		s.WarmupInsts /= 4
		if min := 2 * s.Sampling.IntervalInsts; s.Insts < min {
			s.Insts = min
		}
		q.specs[i] = s
	}
	return q.run(nil, "").errs
}

// counts is the canonical stats of a set of points, summed per counter, plus
// coreCycles: cycles x cores summed over the points. A multi-core point
// reports the cycles of its slowest core but stall cycles summed over its
// cores, so stall shares are taken of core-cycles.
type counts map[string]float64

const coreCycles = "bench.coreCycles"

// addStats adds one point's canonical stats JSON.
func (c counts) addStats(js []byte, cores int) error {
	var m map[string]uint64
	if err := json.Unmarshal(js, &m); err != nil {
		return err
	}
	for k, v := range m {
		c[k] += float64(v)
	}
	c[coreCycles] += float64(m["cpu.cycles"]) * float64(cores)
	return nil
}

func countsOf(results []spb.Result) (counts, error) {
	c := counts{}
	for _, r := range results {
		js, err := r.StatsJSON()
		if err != nil {
			return nil, err
		}
		if err := c.addStats(js, r.Spec.Normalized().Cores); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts derives the simulated per-layer metrics from summed canonical
// stats. They come from the program's own counters and repeat exactly for a
// given seed.
func layerCounts(c counts) map[string]float64 {
	kinst := c["cpu.committed"] / 1000
	return map[string]float64{
		"cpu.sim_cycles":            c["cpu.cycles"],
		"cpu.ipc":                   ratio(c["cpu.committed"], c[coreCycles]),
		"cpu.sb_stall_frac":         ratio(c["cpu.sbStallCycles"], c[coreCycles]),
		"cpu.other_stall_frac":      ratio(c["cpu.robStallCycles"]+c["cpu.iqStallCycles"]+c["cpu.lqStallCycles"], c[coreCycles]),
		"cpu.frontend_stall_frac":   ratio(c["cpu.frontendStallCycles"], c[coreCycles]),
		"cpu.mispredicts_pki":       ratio(c["cpu.mispredicts"], kinst),
		"storebuf.forward_hit_frac": ratio(c["cpu.forwardedLoads"]+c["cpu.partialForwards"], c["cpu.loads"]),
		"core.bursts_per_kstore":    ratio(c["cpu.spbBursts"], c["cpu.stores"]/1000),
		"core.burst_blocks_avg":     ratio(c["mem.spfBurst"], c["cpu.spbBursts"]),
		"core.spf_issued_pki":       ratio(c["mem.spfIssued"], kinst),
		"core.spf_useful_frac":      ratio(c["mem.spfSuccessful"], c["mem.spfIssued"]),
		"core.spf_late_frac":        ratio(c["mem.spfLate"], c["mem.spfIssued"]),
		"cache.l1_hit_frac":         ratio(c["mem.l1Hits"], c["mem.l1Hits"]+c["mem.l1Misses"]),
		"memsys.l1_mpki":            ratio(c["mem.l1Misses"], kinst),
		"memsys.l3_apki":            ratio(c["mem.l3Accesses"], kinst),
		"memsys.invalidations_pki":  ratio(c["mem.invalidations"], kinst),
		"memsys.gpf_useful_frac":    ratio(c["mem.gpfUsed"], c["mem.gpfIssued"]),
		"dram.reads_pki":            ratio(c["mem.dramReads"], kinst),
	}
}
