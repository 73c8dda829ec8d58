package sim

import "context"

// Warm-start groups (DESIGN.md §12, "Where a run may start").
//
// The warmed architectural state — cache tags and recency, coherence
// directory, TLB entries, stream cursors — depends
// only on the instruction stream and the machine geometry, never on the
// store-buffer size, drain policy or prefetcher knobs a sweep varies (those
// units are inert during the warm-up segment). So every spec in a sweep that
// agrees on the warmup-equivalent projection (warmKey) shares one warm-up: the
// Runner executes segment 0 once, keeps the machine's state at that edge, and
// starts every member at segment 1 from it. sim.Run executes the same segment
// in place, so the two produce byte-identical statistics; only wall-clock
// differs.

// warmKey is the warmup-equivalent projection of a RunSpec: everything that
// shapes the functionally-warmed state, and nothing else. Policy, SQ size,
// prefetcher and SPB knobs are deliberately absent — the units they
// configure are untouched by warming.
type warmKey struct {
	workload string
	coreName string
	cores    int
	seed     uint64
	warmup   uint64
}

func warmKeyOf(spec RunSpec) warmKey {
	return warmKey{
		workload: spec.Workload,
		coreName: spec.CoreName,
		cores:    spec.Cores,
		seed:     spec.Seed,
		warmup:   spec.WarmupInsts,
	}
}

// maxWarmGroups bounds the snapshots a Runner keeps, so a daemon fed warmed
// specs under ever-new seeds does not grow without limit. A snapshot costs what
// its warm-up left live: about 5 B per occupied cache line, packed
// (cache.Snapshot.Records), plus, per core, 0.17 MB that does not depend on it
// — the per-set recency words and live masks — and the TLB; recent-eviction
// sets, which warming never fills, cost nothing.
// Measured on the eight SB-bound SPEC groups' memory systems: 0.35 MB (x264)
// to 0.77 MB (roms) after a 1 M warm-up, 4.6 MB in all; 0.35 to 1.58 MB after
// 10 M, where roms has filled the L3 (262 144 L3 + 16 384 L2 + 512 L1 lines,
// 8.93 MB as 32-byte Lines). The bound sits above the most groups any in-tree
// sweep holds at once — a full-scale harness run of every experiment with
// -warmup is 138 (fig17 alone 115) — so no figure or benchmark grid warms a
// group twice; 160 groups at roms' 10 M cost pin 253 MB.
const maxWarmGroups = 160

// warmGroup is one group's snapshot: a start point at the edge after the
// warm-up segment. The start is immutable once published — runs only read it
// (restore clones the cursors and copies the arrays) — so any number may start
// from it concurrently; the bookkeeping beside it is guarded by Runner.warmMu.
type warmGroup struct {
	start *startPoint
	forks uint64 // runs started from it
	used  uint64 // Runner.warmClock at the latest of them
}

// warmCall is one in-flight warm-up other members of the same group wait on.
type warmCall struct {
	done chan struct{}
	g    *warmGroup
	err  error
}

// execute runs one normalized spec from wherever its machine can start: a
// spec with a warm-up starts at segment 1 from its group's snapshot, and one
// without starts cold.
func (r *Runner) execute(ctx context.Context, spec RunSpec, onProgress func(Progress)) (Result, error) {
	var start *startPoint
	if spec.WarmupInsts > 0 {
		var err error
		if start, err = r.warmFor(ctx, spec); err != nil {
			return Result{}, err
		}
	}
	res, err := runPlan(ctx, spec, start, nil, onProgress)
	if err == nil {
		r.finished(res)
	}
	return res, err
}

// finished books a completed run in the runner's counters. The warm-up prefix
// is not counted here: buildWarm counted it, once for the group.
func (r *Runner) finished(res Result) {
	if !res.Spec.Sampling.Enabled() {
		r.instsSimulated.Add(res.CPU.Committed)
		return
	}
	// CPU.Committed only covers measured windows; Sample carries the full
	// detailed (incl. per-interval warming) and functional counts.
	r.instsSimulated.Add(res.Sample.DetailedInsts + res.Sample.FastForwardInsts)
	r.sampledRuns.Add(1)
	r.sampleIntervals.Add(res.Sample.Intervals)
	r.sampleInstsSkipped.Add(res.Sample.FastForwardInsts)
}

// warmFor returns the start point of spec's group, warming the group if its
// snapshot is not held, and books the fork.
func (r *Runner) warmFor(ctx context.Context, spec RunSpec) (*startPoint, error) {
	g, err := r.warmGroup(ctx, spec)
	if err != nil {
		return nil, err
	}
	r.warmMu.Lock()
	r.warmClock++
	g.used = r.warmClock
	g.forks++
	first := g.forks == 1
	r.warmMu.Unlock()

	r.warmForks.Add(1)
	if !first {
		// Every run after the group's first rides a warm-up it would otherwise
		// have simulated itself.
		r.warmInstsSaved.Add(spec.WarmupInsts * uint64(spec.Cores))
	}
	return g.start, nil
}

// warmGroup returns spec's group: the held snapshot, or else one built by
// executing the warm-up (per-group singleflight: a caller that finds the
// group's warm-up in flight waits for it, under its own ctx, rather than
// re-warming). A group built is held, and the least recently built or forked
// group beyond the bound is evicted; one evicted while members are still to
// come is warmed again: slower, same bytes.
func (r *Runner) warmGroup(ctx context.Context, spec RunSpec) (*warmGroup, error) {
	key := warmKeyOf(spec)
	r.warmMu.Lock()
	if g := r.warmCache[key]; g != nil {
		r.warmMu.Unlock()
		return g, nil
	}
	if call, inflight := r.warmInflight[key]; inflight {
		r.warmMu.Unlock()
		r.warmStalls.Add(1)
		select {
		case <-call.done:
			return call.g, call.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	call := &warmCall{done: make(chan struct{})}
	r.warmInflight[key] = call
	r.warmMu.Unlock()
	call.g, call.err = r.buildWarm(ctx, spec)

	r.warmMu.Lock()
	delete(r.warmInflight, key)
	if call.err == nil {
		r.warmClock++
		call.g.used = r.warmClock
		r.warmCache[key] = call.g
		for len(r.warmCache) > r.warmMax {
			oldest, at := key, call.g.used
			for k, c := range r.warmCache {
				if c.used < at {
					oldest, at = k, c.used
				}
			}
			delete(r.warmCache, oldest)
		}
	}
	r.warmMu.Unlock()
	close(call.done)
	return call.g, call.err
}

// buildWarm executes one group's warm-up segment on a cold machine — no core
// is ever built — and keeps the state at its edge. The generic prefetchers
// are not part of it: the segment never trains them, and the members that
// start from it differ in prefetcher kind.
func (r *Runner) buildWarm(ctx context.Context, spec RunSpec) (*warmGroup, error) {
	m, err := newMachine(spec, nil)
	if err != nil {
		return nil, err
	}
	defer m.release()
	if err := m.functional(ctx, spec.warmup()); err != nil {
		return nil, err
	}
	ff := spec.WarmupInsts * uint64(spec.Cores)
	r.warmGroups.Add(1)
	r.instsSimulated.Add(ff)
	return &warmGroup{start: &startPoint{Cur: cursor{Seg: 1, FFInsts: ff}, State: m.state()}}, nil
}
