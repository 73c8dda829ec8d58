// Package spb is a simulator-based reproduction of "Boosting Store Buffer
// Efficiency with Store-Prefetch Bursts" (Cebrián, Kaxiras, Ros — MICRO
// 2020): a trace-driven out-of-order CPU and MESI memory-hierarchy model, a
// faithful implementation of the SPB detector (67 bits of state), the
// store-prefetch policies it is evaluated against (none, at-execute,
// at-commit, ideal), synthetic SPEC CPU 2017-like and PARSEC-like workload
// suites, and a harness that regenerates every table and figure of the
// paper's evaluation.
//
// This file is the public facade: the implementation lives under internal/
// (one package per subsystem, see DESIGN.md), and the types below alias the
// pieces an external user needs to run experiments.
//
// Quick start:
//
//	res, err := spb.Run(spb.RunSpec{
//		Workload: "bwaves",
//		Policy:   spb.PolicySPB,
//		SQSize:   14,
//		Insts:    1_000_000,
//	})
//
// or regenerate a paper figure and read its values by (row, column) name:
//
//	h := spb.NewHarness(spb.FullScale)
//	tables, err := h.Fig5() // one table per SB size
//	for _, t := range tables {
//		v, err := t.Cell("spb", "SB-BOUND")
//	}
//
// Experiments lists the ids `spbtables -exp` accepts, in presentation order;
// h.Verify checks the paper's headline claims, each one row naming a table
// cell and the band it must land in.
package spb

import (
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/figures"
	"spb/internal/sim"
	"spb/internal/workloads"
)

// Policy selects when (and whether) stores prefetch write permission.
type Policy = core.Policy

// Store-prefetch policies, in the paper's evaluation order.
const (
	// PolicyNone issues no store prefetch.
	PolicyNone = core.PolicyNone
	// PolicyAtExecute prefetches when the store's address is computed.
	PolicyAtExecute = core.PolicyAtExecute
	// PolicyAtCommit prefetches when the store commits (the baseline).
	PolicyAtCommit = core.PolicyAtCommit
	// PolicySPB is at-commit plus the store-prefetch-burst detector.
	PolicySPB = core.PolicySPB
	// PolicyIdeal is the never-stalling reference store buffer.
	PolicyIdeal = core.PolicyIdeal
)

// Detector is the paper's 67-bit store-prefetch-burst detector; it can be
// embedded in other simulators via NewDetector and Observe.
type Detector = core.Detector

// Burst is the page-bounded block range a triggered detector asks the L1
// controller to prefetch for ownership.
type Burst = core.Burst

// NewDetector returns an SPB detector with the given window N (the paper
// uses 48); dynamic selects the §IV.C store-size ablation.
func NewDetector(windowN int, dynamic bool) *Detector {
	return core.NewDetector(windowN, dynamic)
}

// DetectorStorageBits is the hardware state of the detector (67).
const DetectorStorageBits = core.StorageBits

// MachineConfig describes a complete machine; Skylake() is Table I.
type MachineConfig = config.MachineConfig

// CoreConfig describes one out-of-order core; Cores() lists Table II.
type CoreConfig = config.CoreConfig

// PrefetcherKind selects the generic L1 prefetcher.
type PrefetcherKind = config.PrefetcherKind

// Generic L1 prefetcher schemes (§VI.D).
const (
	PrefetchStream     = config.PrefetchStream
	PrefetchAggressive = config.PrefetchAggressive
	PrefetchAdaptive   = config.PrefetchAdaptive
	PrefetchNone       = config.PrefetchNone
)

// Skylake returns the paper's Table I machine configuration.
func Skylake() MachineConfig { return config.Skylake() }

// TableIICores returns the five core configurations of Table II.
func TableIICores() []CoreConfig { return config.Cores() }

// RunSpec identifies one simulation point (workload, policy, SB size, ...).
type RunSpec = sim.RunSpec

// Result is the outcome of one simulation point.
type Result = sim.Result

// Runner memoizes and parallelizes simulation points.
type Runner = sim.Runner

// Run executes one simulation point.
func Run(spec RunSpec) (Result, error) { return sim.Run(spec) }

// NewRunner returns an empty memoizing runner.
func NewRunner() *Runner { return sim.NewRunner() }

// SPECWorkloads returns the SPEC CPU 2017-like suite.
func SPECWorkloads() []workloads.Workload { return workloads.SPEC() }

// PARSECWorkloads returns the PARSEC-like multithreaded suite.
func PARSECWorkloads() []workloads.Parallel { return workloads.PARSEC() }

// Harness regenerates the paper's tables and figures.
type Harness = figures.Harness

// Scale controls how much simulation a harness performs.
type Scale = figures.Scale

// Harness scales: QuickScale for smoke runs, FullScale for paper-quality
// sweeps.
var (
	QuickScale = figures.Quick
	FullScale  = figures.Full
)

// NewHarness returns a figure harness at the given scale.
func NewHarness(scale Scale) *Harness { return figures.NewHarness(scale) }

// Experiments lists the experiment ids in presentation order.
func Experiments() []string {
	var ids []string
	for _, e := range figures.Experiments {
		ids = append(ids, e.ID)
	}
	return ids
}
