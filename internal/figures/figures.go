// Package figures regenerates every table and figure of the paper's
// evaluation from simulation sweeps: the same rows and series, computed from
// this repository's simulator instead of the authors' gem5 testbed. Each
// FigNN function returns one or more Tables; cmd/spbtables prints them and
// bench_test.go wraps each in a benchmark.
package figures

import (
	"context"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/sim"
	"spb/internal/workloads"
)

// Scale controls how much simulation a harness invocation performs.
type Scale struct {
	// Insts is the committed-instruction budget per core per run.
	Insts uint64
	// Warmup is the per-core functional-warming prefix applied before the
	// detailed interval (sim.RunSpec.WarmupInsts). The stock Quick/Full
	// scales keep it 0 so published figure output stays byte-identical with
	// earlier releases; sweeps that opt in share one warmup per
	// warmup-equivalence group through the runner's warm-start fork engine.
	Warmup uint64
	// Sampling, when enabled, runs every sweep point as a SMARTS-sampled
	// simulation (sim.RunSpec.Sampling): figure values become sampled
	// estimates, so the stock Quick/Full scales keep it disabled.
	Sampling sim.SamplingConfig
	// SBBoundOnly restricts sweeps to the paper's SB-bound set where the
	// full suite is not required (fast mode for benchmarks).
	SBBoundOnly bool
}

// Quick is the reduced scale used by the go-test benchmarks.
var Quick = Scale{Insts: 120_000, SBBoundOnly: true}

// Full is the scale used by cmd/spbtables.
var Full = Scale{Insts: 1_000_000}

// Table is one rendered result table.
type Table struct {
	Title string
	Cols  []string
	Rows  []Row
	Note  string
}

// Row is one labelled series of values.
type Row struct {
	Name string
	Vals []float64
}

// Cell returns the value in the row named row under the column named col.
func (t Table) Cell(row, col string) (float64, error) {
	for _, r := range t.Rows {
		if r.Name != row {
			continue
		}
		for i, c := range t.Cols {
			if c == col && i < len(r.Vals) {
				return r.Vals[i], nil
			}
		}
		return 0, fmt.Errorf("figures: row %q of %q has no column %q", row, t.Title, col)
	}
	return 0, fmt.Errorf("figures: %q has no row %q", t.Title, row)
}

// Find returns the one table of tabs whose title starts with prefix ("" picks
// the table of a single-table experiment).
func Find(tabs []Table, prefix string) (Table, error) {
	var found []Table
	for _, t := range tabs {
		if strings.HasPrefix(t.Title, prefix) {
			found = append(found, t)
		}
	}
	if len(found) != 1 {
		return Table{}, fmt.Errorf("figures: %d of %d tables have a title starting with %q, want 1", len(found), len(tabs), prefix)
	}
	return found[0], nil
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s\n", strings.Join(append([]string{""}, t.Cols...), "\t"))
	for _, r := range t.Rows {
		cells := make([]string, 0, len(r.Vals)+1)
		cells = append(cells, r.Name)
		for _, v := range r.Vals {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		fmt.Fprintf(w, "%s\n", strings.Join(cells, "\t"))
	}
	w.Flush()
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Executor runs a batch of simulation points and returns results in spec
// order. sim.Runner is the in-process implementation; the spbd client pool
// is the distributed one. Both compute identical results, so every figure
// is byte-identical regardless of where its sweeps execute.
type Executor interface {
	GetAllCtx(ctx context.Context, specs []sim.RunSpec) ([]sim.Result, error)
}

// Harness runs sweeps against one executor: an in-process memoizing runner,
// or the Executor NewHarnessOn was given.
type Harness struct {
	runner *sim.Runner // the executor when it runs in process, else nil
	exec   Executor
	ctx    context.Context
	scale  Scale
}

// NewHarness returns an in-process harness at the given scale.
func NewHarness(scale Scale) *Harness {
	return NewHarnessOn(context.Background(), scale, nil)
}

// NewHarnessOn returns a harness whose sweeps execute on exec (nil = an
// in-process runner) and are cancelled when ctx is: interrupting a figure
// regeneration stops every in-flight and queued simulation, local or
// remote.
func NewHarnessOn(ctx context.Context, scale Scale, exec Executor) *Harness {
	h := &Harness{exec: exec, ctx: ctx, scale: scale}
	if exec == nil {
		h.runner = sim.NewRunner()
		h.exec = h.runner
	}
	return h
}

// Runner returns the harness's in-process runner, whose accounting callers
// read, or nil when the harness executes on an external Executor.
func (h *Harness) Runner() *sim.Runner {
	return h.runner
}

// app is what a figure needs to know of one workload of a suite.
type app struct {
	name  string
	bound bool // the paper's SB-bound classification
}

// specApps is the SPEC-like suite, or only its SB-bound members.
func specApps(boundOnly bool) []app {
	var apps []app
	for _, w := range workloads.SPEC() {
		if w.SBBound || !boundOnly {
			apps = append(apps, app{w.Name, w.SBBound})
		}
	}
	return apps
}

// suite is the SPEC-like suite the harness's scale selects.
func (h *Harness) suite() []app { return specApps(h.scale.SBBoundOnly) }

// boundSPEC is the paper's SB-bound subset: part of every suite, and the
// whole of it at SBBoundOnly scales.
func boundSPEC() []app { return specApps(true) }

// spec is the point (workload, policy, SB size) at the harness's scale on the
// Table I machine; experiments that vary anything else override that field.
func (h *Harness) spec(w string, p core.Policy, sq int) sim.RunSpec {
	return sim.RunSpec{
		Workload:    w,
		Policy:      p,
		SQSize:      sq,
		Prefetcher:  config.PrefetchStream,
		Insts:       h.scale.Insts,
		WarmupInsts: h.scale.Warmup,
		Sampling:    h.scale.Sampling,
	}
}

// point names the simulation of workload w under policy p with an sq-entry
// SB; Harness.spec is the one on the Table I machine.
type point func(w string, p core.Policy, sq int) sim.RunSpec

// grid lists the points of workload w under every policy at every SB size,
// size by size.
func grid(w string, sizes []int, policies []core.Policy, at point) []sim.RunSpec {
	var specs []sim.RunSpec
	for _, sq := range sizes {
		for _, p := range policies {
			specs = append(specs, at(w, p, sq))
		}
	}
	return specs
}

// results holds what one sweep measured, keyed by the normalized spec that
// asked for it: a figure reads a point by saying which point, never by where
// the sweep happened to put it.
type results map[sim.RunSpec]sim.Result

// sweep runs, as one executor batch, the points mk names for every app (app
// by app, in suite order).
func (h *Harness) sweep(apps []app, mk func(w string) []sim.RunSpec) (results, error) {
	var specs []sim.RunSpec
	for _, a := range apps {
		specs = append(specs, mk(a.name)...)
	}
	rs, err := h.exec.GetAllCtx(h.ctx, specs)
	if err != nil {
		return nil, err
	}
	out := make(results, len(specs))
	for i, s := range specs {
		out[s.Normalized()] = rs[i]
	}
	return out, nil
}

// of returns the result of point s. Reading a point the sweep did not run is
// a bug in the figure, not a condition to handle.
func (r results) of(s sim.RunSpec) sim.Result {
	res, ok := r[s.Normalized()]
	if !ok {
		panic(fmt.Sprintf("figures: read of a point the sweep did not run: %+v", s))
	}
	return res
}

// perf is the performance of point s normalized to point ref (ref's cycles
// over s's).
func (r results) perf(s, ref sim.RunSpec) float64 {
	return float64(r.of(ref).CPU.Cycles) / float64(r.of(s).CPU.Cycles)
}

// over evaluates f for every app, in suite order, and returns the mean over
// all apps and over the SB-bound ones. An app for which f reports !ok has
// nothing to contribute and is left out of both.
func over(apps []app, mean func([]float64) float64, f func(w string) (v float64, ok bool)) (all, bound float64) {
	var av, bv []float64
	for _, a := range apps {
		v, ok := f(a.name)
		if !ok {
			continue
		}
		av = append(av, v)
		if a.bound {
			bv = append(bv, v)
		}
	}
	return mean(av), mean(bv)
}

// vsIdeal returns the ALL and SB-BOUND geomeans of the apps' performance
// under policy p normalized to the ideal SB at the same point.
func (r results) vsIdeal(apps []app, at point, p core.Policy, sq int) (all, bound float64) {
	return over(apps, geomean, func(w string) (float64, bool) {
		return r.perf(at(w, p, sq), at(w, core.PolicyIdeal, sq)), true
	})
}

// geomean of a slice (zero-safe).
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// arith is the arithmetic mean, for ratios that may legitimately be zero.
func arith(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b for counters: 1 when neither side counted anything (no
// change), a itself when only the baseline is empty.
func ratio(a, b uint64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return float64(a)
	}
	return float64(a) / float64(b)
}
