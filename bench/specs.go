package main

import (
	"spb"
	"spb/internal/config"
	"spb/internal/sim"
	"spb/internal/workloads"
)

// insts applies the run's scale (1, or the smoke test's 1/50) to one of ISSUE
// 12's instruction budgets.
func insts(n float64, scale float64) uint64 {
	v := uint64(n * scale)
	if v < 1000 {
		v = 1000
	}
	return v
}

func point(w string, p spb.Policy, sq int, pf config.PrefetcherKind, n uint64, cores int, seed uint64) spb.RunSpec {
	return spb.RunSpec{Workload: w, Policy: p, SQSize: sq, Prefetcher: pf, Insts: n, Cores: cores, Seed: seed}
}

// detailSpecs returns the points of one of the two batch workloads that run
// point by point through spb.Run.
func detailSpecs(workload string, seed uint64, scale float64) []spb.RunSpec {
	const S = config.PrefetchStream
	ac, sp := spb.PolicyAtCommit, spb.PolicySPB
	switch workload {
	case "detail-sbbound":
		n := insts(3e6, scale)
		return []spb.RunSpec{
			point("bwaves", ac, 14, S, n, 1, seed), point("bwaves", sp, 14, S, n, 1, seed),
			point("roms", ac, 14, S, n, 1, seed), point("roms", sp, 14, S, n, 1, seed),
			point("x264", sp, 14, S, n, 1, seed), point("fotonik3d", sp, 14, S, n, 1, seed),
		}
	case "detail-membound":
		// The two 8-core points are ISSUE 12's multicore-parsec, folded in when
		// the workload count was cut: the only end-to-end cover of shared
		// lines, invalidations and the lock-step multi-core loop.
		n, nPar := insts(1.5e6, scale), insts(150e3, scale)
		return []spb.RunSpec{
			point("mcf", ac, 14, S, n, 1, seed), point("mcf", sp, 14, S, n, 1, seed),
			point("omnetpp", sp, 14, config.PrefetchAdaptive, n, 1, seed),
			point("lbm", sp, 14, config.PrefetchHybrid, n, 1, seed),
			point("dedup", sp, 14, S, nPar, 8, seed), point("canneal", sp, 14, S, nPar, 8, seed),
		}
	}
	return nil
}

// sweepSpecs returns grid A (warm-start: SB-bound SPEC x SB{14,28,56} x
// {at-commit,spb,ideal}, short detailed interval behind a long shared
// warm-up) followed by grid B (SB-bound SPEC x SB14 x {at-commit,spb},
// SMARTS-sampled), and the length of grid A.
func sweepSpecs(seed uint64, scale float64) (grid []spb.RunSpec, nA int) {
	const S = config.PrefetchStream
	for _, w := range workloads.SBBoundSPEC() {
		for _, sq := range []int{14, 28, 56} {
			for _, p := range []spb.Policy{spb.PolicyAtCommit, spb.PolicySPB, spb.PolicyIdeal} {
				s := point(w.Name, p, sq, S, insts(50e3, scale), 1, seed)
				s.WarmupInsts = insts(1e6, scale)
				grid = append(grid, s)
			}
		}
	}
	nA = len(grid)
	// The sampled points keep at least two sampling periods at any scale.
	nB := insts(4e6, scale)
	if min := 2 * sim.DefaultSampling.IntervalInsts; nB < min {
		nB = min
	}
	for _, w := range workloads.SBBoundSPEC() {
		for _, p := range []spb.Policy{spb.PolicyAtCommit, spb.PolicySPB} {
			s := point(w.Name, p, 14, S, nB, 1, seed)
			s.Sampling = sim.DefaultSampling
			grid = append(grid, s)
		}
	}
	return grid, nA
}

// svcBase is the six base points of the service workloads; a request is one
// of them under a Seed of its own.
func svcBase(scale float64) []spb.RunSpec {
	n := insts(200e3, scale)
	var out []spb.RunSpec
	for _, w := range []string{"bwaves", "mcf", "exchange2"} {
		for _, p := range []spb.Policy{spb.PolicyAtCommit, spb.PolicySPB} {
			out = append(out, point(w, p, 14, config.PrefetchStream, n, 1, 0))
		}
	}
	return out
}

// checkEvery is the stride of the service output check: every checkEvery-th
// reply is retained and byte-compared with the in-process result.
const checkEvery = 10

// svcSpec is request i of the service workloads' spec sequence: the base
// points in turn, each under a Seed no earlier request of the run used. The
// turn skips one point every checkEvery requests: plain i%len(base) shares
// the factor 2 with the check stride, and the checked replies would then all
// be at-commit points.
func svcSpec(base []spb.RunSpec, seed uint64, i int) spb.RunSpec {
	s := base[(i+i/checkEvery)%len(base)]
	s.Seed = seed*1_000_003 + uint64(i) + 1
	return s
}

// streamsOf lists the distinct single-core instruction streams a workload's
// specs draw on, in first-use order: the inputs of the bench/layers drivers.
// PARSEC workloads contribute their thread-0 stream here and all eight
// threads to the shared-port driver.
func streamNames(specs []spb.RunSpec) (spec []string, parsec []string) {
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Workload] {
			continue
		}
		seen[s.Workload] = true
		if s.Cores > 1 {
			parsec = append(parsec, s.Workload)
		} else {
			spec = append(spec, s.Workload)
		}
	}
	return spec, parsec
}
