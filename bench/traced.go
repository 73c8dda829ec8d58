package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"spb"
	"spb/bench/layers"
	"spb/internal/config"
	"spb/internal/figures"
	"spb/internal/obs"
	"spb/internal/server"
	"spb/internal/sim"
)

// runTraced is the separate traced run: benchmark spans on, spbd started with
// -trace=true. It yields every per-layer metric and writes the spans to
// bench/out/trace-<workload>.ndjson. Layers a workload does not itself exercise are
// still measured (on the workload's own streams where the layer sees
// instructions, on fixed probes elsewhere), so every traced run reports the
// full budget; README.md says which numbers are workload-specific.
func runTraced(cfg runConfig, o *ops) (map[string]float64, error) {
	rec := &recorder{}
	m := map[string]float64{}
	bin, err := ensureSpbd(cfg.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.tmpDir())

	var specs []spb.RunSpec // the workload's points: inputs of the layer drivers
	var first spb.Result    // one of its results, for the stats encoder
	if cfg.isService() {
		base := svcBase(cfg.scale)
		for i := range base {
			specs = append(specs, svcSpec(base, cfg.seed, i))
		}
		if first, err = serviceTraced(cfg, bin, rec, o, m); err != nil {
			return nil, err
		}
	} else {
		w := newSimWorkload(cfg.workload, cfg.seed, cfg.scale)
		specs = w.specs
		if first, err = simTraced(cfg, w, rec, o, m); err != nil {
			return nil, err
		}
		if err := serviceProbe(cfg, bin, rec, o, m); err != nil {
			return nil, err
		}
	}
	if err := layerDrivers(cfg, specs, rec, m); err != nil {
		return nil, err
	}
	if err := simProbes(cfg, specs[0], rec, o, m); err != nil {
		return nil, err
	}
	figuresProbes(cfg, rec, o, m)
	if err := directProbes(cfg, specs[0], first, rec, m); err != nil {
		return nil, err
	}
	out := filepath.Join(cfg.root, "bench", "out", "trace-"+cfg.workload+".ndjson")
	if err := rec.write(out); err != nil {
		return nil, fmt.Errorf("write %s: %w", out, err)
	}
	return m, nil
}

// overheadPct is how much slower the traced side ran, as a share of the
// untraced throughput.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (untraced - traced) / untraced * 100
}

// simTraced runs untraced and traced repetitions of an in-process workload:
// their difference is the tracing overhead, and the traced repetition's
// results give the simulated counts.
func simTraced(cfg runConfig, w simWorkload, rec *recorder, o *ops, m map[string]float64) (spb.Result, error) {
	for _, err := range w.warmUp() {
		o.fail("warm-up: %v", err)
	}
	// Two untraced and two traced repetitions in the order plain, traced,
	// traced, plain, each from a collected heap, so that neither drift of the
	// host nor the garbage of the repetition before reads as tracing overhead.
	var before, after runtime.MemStats
	var plain, traced repetition
	var plainS, tracedS float64
	runPlain := func() {
		runtime.GC()
		plain = w.run(nil, "")
		plainS += plain.wall.Seconds()
	}
	runTraced := func(pair int) {
		runtime.GC()
		runtime.ReadMemStats(&before)
		traced = w.run(rec, fmt.Sprintf("%s/rep%d", cfg.workload, pair))
		runtime.ReadMemStats(&after)
		tracedS += traced.wall.Seconds()
	}
	for pair := 0; pair < 2; pair++ {
		if pair == 0 {
			runPlain()
			runTraced(pair)
		} else {
			runTraced(pair)
			runPlain()
		}
		o.attempted += 2 * len(w.specs)
		for _, err := range append(plain.errs, traced.errs...) {
			o.fail("point: %v", err)
		}
		o.check(plain.digest == traced.digest, "traced repetition's stats digest differs from the untraced one's")
	}
	if len(traced.results) == 0 {
		return spb.Result{}, fmt.Errorf("%s: no point succeeded", cfg.workload)
	}
	insts := float64(delivered(w.specs))
	m["obs.trace_overhead_pct"] = overheadPct(1/plainS, 1/tracedS)
	m["sim.alloc_bytes_per_kinst"] = float64(after.TotalAlloc-before.TotalAlloc) / (insts / 1000)
	// A request is a point, or the whole grid for the sweep.
	m["makespan_s"] = plain.wall.Seconds()
	m["req_p90_ms"], m["req_p99_ms"] = percentile(plain.latMS, 0.90), percentile(plain.latMS, 0.99)
	m["req_per_s"] = float64(len(plain.latMS)) / plain.wall.Seconds()
	c, err := countsOf(traced.results)
	if err != nil {
		return spb.Result{}, err
	}
	for k, v := range layerCounts(c) {
		m[k] = v
	}
	return traced.results[0], nil
}

// serviceTraced measures svc-cold against an untraced and then a traced
// daemon, and reads the traced daemon's spans and counters.
func serviceTraced(cfg runConfig, bin string, rec *recorder, o *ops, m map[string]float64) (spb.Result, error) {
	seconds := cfg.seconds / 4
	var d *daemon
	defer func() { d.stop() }()
	d, err := svcSetUp(cfg, bin, filepath.Join(cfg.tmpDir(), "untraced"), false, o)
	if err != nil {
		return spb.Result{}, err
	}
	plain := measuredLoop(cfg, d, seconds)
	d.stop()
	account(plain, o)

	if d, err = svcSetUp(cfg, bin, filepath.Join(cfg.tmpDir(), "traced"), true, o); err != nil {
		return spb.Result{}, err
	}
	traced := measuredLoop(cfg, d, seconds)
	daemonSpans(d, traced.spans, rec, o, m)
	if traced.ok == 0 || plain.ok == 0 {
		return spb.Result{}, fmt.Errorf("%s: no request succeeded", cfg.workload)
	}
	plainRate, _ := plain.steady()
	tracedRate, _ := traced.steady()
	m["obs.trace_overhead_pct"] = overheadPct(plainRate, tracedRate)
	m["makespan_s"] = float64(cfg.minCold()) / plainRate
	m["req_p90_ms"], m["req_p99_ms"] = percentile(plain.latMS, 0.90), percentile(plain.latMS, 0.99)
	m["req_per_s"] = plainRate

	// The simulated counts come from the replies retained for the byte
	// comparison, one per distinct spec among the minimum request count every
	// run reaches (so that they repeat exactly whatever the request rate); the
	// in-process reference runs of that comparison give the allocation rate.
	c := counts{}
	var refInsts uint64
	seen := map[spb.RunSpec]bool{}
	for _, r := range traced.kept {
		if seen[r.spec] {
			continue
		}
		seen[r.spec] = true
		refInsts += delivered([]spb.RunSpec{r.spec})
		if r.index >= cfg.minCold() {
			continue
		}
		if err := c.addStats(r.stats, 1); err != nil {
			o.fail("reply %d: stats do not parse: %v", r.index, err)
		}
	}
	for k, v := range layerCounts(c) {
		m[k] = v
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	account(traced, o)
	runtime.ReadMemStats(&after)
	m["sim.alloc_bytes_per_kinst"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(refInsts)/1000)

	nCached := cfg.minCold()
	if traced.indices < nCached {
		nCached = traced.indices
	}
	base := svcBase(cfg.scale)
	cachedAt := func(i int) spb.RunSpec { return svcSpec(base, cfg.seed, measureFrom+i%nCached) }
	d, err = serviceTail(cfg, bin, d, cachedAt, nCached, plain.refused+traced.refused, rec, o, m)
	if err != nil {
		return spb.Result{}, err
	}
	return spb.Run(cachedAt(0))
}

// serviceProbe gives an in-process workload its server and client numbers: a
// traced daemon, a short cold loop over the service workloads' spec sequence,
// then the same tail every traced run ends with.
func serviceProbe(cfg runConfig, bin string, rec *recorder, o *ops, m map[string]float64) error {
	d, err := startDaemon(bin, filepath.Join(cfg.tmpDir(), "probe"), true)
	if err != nil {
		return err
	}
	defer func() { d.stop() }()
	base := svcBase(cfg.scale)
	specAt := func(i int) spb.RunSpec { return svcSpec(base, cfg.seed, i) }
	cold := closedLoop(d, loopOpts{phase: "probe-cold", specAt: specAt, shareEvery: 10, minReq: 12 * runtime.NumCPU()})
	o.book(cold)
	daemonSpans(d, cold.spans, rec, o, m)
	d, err = serviceTail(cfg, bin, d, func(i int) spb.RunSpec { return specAt(i % cold.indices) }, cold.indices, cold.refused, rec, o, m)
	return err
}

// daemonSpans fetches the daemon's own spans for a sample of finished jobs,
// re-parents them under the client call that caused them, and reports the
// median duration of each phase.
func daemonSpans(d *daemon, calls []clientSpan, rec *recorder, o *ops, m map[string]float64) {
	const sample = 48
	names := map[string]string{
		"submit": "server.submit_us", "queue-wait": "server.queue_wait_ms", "run": "server.run_ms",
		"run.build": "server.run_build_ms", "run.sim": "server.run_sim_ms",
		"run.collect": "server.run_collect_ms", "store-write": "server.store_write_ms",
	}
	durMS := map[string][]float64{}
	cl := d.newClient()
	step := len(calls)/sample + 1
	for i := len(calls) - 1; i >= 0; i -= step {
		call := calls[i]
		tv, err := cl.JobTrace(context.Background(), call.jobID)
		if err != nil {
			o.check(false, "trace of job %s: %v", call.jobID, err)
			continue
		}
		clientSpan := rec.add(call.jobID, "client.Run", 0, call.start, call.end)
		ids := map[string]int{}
		// Top-level phases first, so that "run.sim" finds its "run".
		for _, nested := range []bool{false, true} {
			for _, s := range tv.Spans {
				if _, ok := names[s.Name]; !ok || s.Nested() != nested {
					continue
				}
				parent := clientSpan
				if phase, _, _ := strings.Cut(s.Name, "."); nested && ids[phase] != 0 {
					parent = ids[phase]
				}
				ids[s.Name] = rec.add(call.jobID, "spbd."+s.Name, parent, s.Start, s.End)
				durMS[s.Name] = append(durMS[s.Name], float64(s.DurNS)/1e6)
			}
		}
	}
	for span, metric := range names {
		v := median(durMS[span])
		o.check(len(durMS[span]) > 0, "no sampled job carried a %q span", span)
		if span == "submit" {
			v *= 1000
		}
		m[metric] = v
	}
}

// serviceTail is the part of a traced service session every workload shares:
// a short run of memory hits between two /metrics scrapes (handler and client
// cost per request), a SIGTERM + restart on the same cache and journal
// (readiness time, disk hits) and one batch request. It returns the daemon
// now running; the caller stops it.
func serviceTail(cfg runConfig, bin string, d *daemon, cachedAt func(i int) spb.RunSpec, nCached, refused int,
	rec *recorder, o *ops, m map[string]float64) (*daemon, error) {
	before, err := scrape(d)
	if err != nil {
		return d, err
	}
	sp := rec.start("service-tail", "memory-hits", 0)
	hits := closedLoop(d, loopOpts{phase: "memory-hits", specAt: cachedAt, maxReq: cfg.requests(1000, 50), wantCached: "memory"})
	sp.end()
	after, err := scrape(d)
	if err != nil {
		return d, err
	}
	m["server.handler_p50_us"] = handlerP50US(before, after)
	m["client.overhead_us"] = percentile(hits.latMS, 0.5)*1000 - m["server.handler_p50_us"]
	m["server.mem_hits"] = after[`spbd_cache_hits_total{tier="memory"}`]
	m["server.coalesced"] = after["spbd_runs_coalesced_total"]
	m["server.rejected"] = after["spbd_queue_rejected_total"]

	dir := d.dir
	d.stop()
	sp = rec.start("service-tail", "restart", 0)
	d, err = startDaemon(bin, dir, true)
	sp.end()
	if err != nil {
		return nil, err
	}
	m["server.restart_ready_ms"] = ms(d.readyIn)
	sp = rec.start("service-tail", "disk-hits", 0)
	disk := closedLoop(d, loopOpts{phase: "disk-hits", specAt: cachedAt, maxReq: nCached, wantCached: "disk"})
	sp.end()
	m["server.disk_hit_p50_ms"] = percentile(disk.latMS, 0.5)
	if after, err = scrape(d); err != nil {
		return d, err
	}
	m["server.disk_hits"] = after[`spbd_cache_hits_total{tier="disk"}`]

	batch := make([]spb.RunSpec, cfg.requests(400, 20))
	for i := range batch {
		batch[i] = cachedAt(i)
	}
	done := 0
	sp = rec.start("service-tail", "client.Batch", 0)
	t0 := time.Now()
	err = d.newClient().Batch(context.Background(), batch, func(it server.BatchItem) error {
		if it.Status == server.StatusDone {
			done++
		}
		return it.ErrorOf()
	})
	wall := time.Since(t0)
	sp.end()
	o.check(err == nil && done == len(batch), "batch of %d cached specs: %d done, %v", len(batch), done, err)
	m["client.batch_specs_per_s"] = float64(done) / wall.Seconds()

	o.book(hits)
	o.book(disk)
	m["client.retries"] = float64(refused + hits.refused + disk.refused)
	return d, nil
}

// layerDrivers replays the workload's instruction streams through each
// layer's public API (bench/layers) and reports host nanoseconds per
// operation, pooled over the streams.
func layerDrivers(cfg runConfig, specs []spb.RunSpec, rec *recorder, m map[string]float64) error {
	specNames, parsecNames := streamNames(specs)
	perStream := int(400e3 * math.Min(1, cfg.scale) / float64(len(specNames)+len(parsecNames)))
	if perStream < 2000 {
		perStream = 2000
	}
	var streams, shared []layers.Stream
	for _, name := range specNames {
		s, err := layers.Collect(name, cfg.seed, perStream)
		if err != nil {
			return err
		}
		streams = append(streams, s)
	}
	for _, name := range parsecNames {
		threads, err := layers.CollectParallel(name, cfg.seed, 8, perStream)
		if err != nil {
			return err
		}
		streams = append(streams, threads[0])
		if shared == nil {
			shared = threads
		}
	}
	if shared == nil {
		shared = streams[:1]
	}
	span := func(name string) open { return rec.start("layers", name, 0) }
	first := specs[0].Normalized()

	sp := span("trace")
	m["trace.next_ns_per_inst"] = layers.TraceNext(streams).PerOp()
	m["trace.skip_ns_per_inst"] = layers.TraceSkip(streams).PerOp()
	m["trace.mem_op_frac"], m["trace.store_frac"] = layers.Mix(streams)
	sp.end()

	sp = span("workloads")
	m["workloads.build_us"] = layers.WorkloadBuild(streams).PerOp() / 1000
	sp.end()

	sp = span("cpu")
	run, err := layers.CPURun(streams, first.Policy, first.SQSize)
	sp.end()
	if err != nil {
		return err
	}
	m["cpu.run_ns_per_inst"] = run.PerOp()
	m["cpu.ns_per_sim_cycle"] = ratio(run.NS, run.Cycles)

	sp = span("storebuf")
	op, fwd := layers.StoreBuffer(streams, first.SQSize)
	sp.end()
	m["storebuf.op_ns"], m["storebuf.forward_ns"] = op.PerOp(), fwd.PerOp()

	sp = span("core")
	m["core.observe_ns_per_store"] = layers.DetectorObserve(streams, first.WindowN).PerOp()
	sp.end()

	sp = span("cache")
	look, ins := layers.Cache(streams)
	sp.end()
	m["cache.lookup_ns"], m["cache.insert_ns"] = look.PerOp(), ins.PerOp()

	sp = span("memsys")
	mc := layers.Memsys(streams)
	m["memsys.shared_load_ns"] = layers.MemsysShared(shared).PerOp()
	sp.end()
	m["memsys.load_ns"] = mc.Load.PerOp()
	m["memsys.store_ns"] = mc.Store.PerOp()
	m["memsys.pfown_ns"] = mc.PrefetchOwn.PerOp()
	m["memsys.warmtouch_ns_per_block"] = mc.WarmTouch.PerOp()
	m["memsys.new_release_us"] = mc.NewRelease.PerOp() / 1e3
	m["memsys.snapshot_ms"] = mc.Snapshot.PerOp() / 1e6
	m["memsys.restore_ms"] = mc.Restore.PerOp() / 1e6

	sp = span("dram")
	m["dram.read_ns"] = layers.DRAMRead(streams).PerOp()
	sp.end()

	sp = span("prefetch")
	for _, name := range prefetchKinds {
		kind, err := config.ParsePrefetcher(name)
		if err != nil {
			return err
		}
		pc := layers.PrefetchObserve(streams, kind)
		m["prefetch.observe_ns."+name] = pc.PerOp()
		m["prefetch.issued_per_event."+name] = ratio(pc.Issued, pc.Ops)
	}
	sp.end()

	sp = span("tlb")
	m["tlb.translate_ns"] = layers.TLBTranslate(streams).PerOp()
	sp.end()
	return nil
}

// timeRun is the wall time of one spb.Run, in milliseconds.
func timeRun(s spb.RunSpec) (float64, spb.Result, error) {
	t0 := time.Now()
	res, err := spb.Run(s)
	return ms(time.Since(t0)), res, err
}

// simProbes measures the run-plan machinery of internal/sim: the fixed cost
// of a point, functional warming, the two grids of the sweep workload run
// alone, and sampling against full detail. Apart from the point it starts
// from, it is the same work in every workload's traced run.
func simProbes(cfg runConfig, from spb.RunSpec, rec *recorder, o *ops, m map[string]float64) error {
	span := func(name string) open { return rec.start("sim-probes", name, 0) }

	sp := span("point-fixed")
	tiny := from
	tiny.Insts, tiny.WarmupInsts, tiny.Sampling = 1, 0, sim.SamplingConfig{}
	var fixed []float64
	for i := 0; i < 9; i++ {
		d, _, err := timeRun(tiny)
		if err != nil {
			return err
		}
		fixed = append(fixed, d)
	}
	m["sim.point_fixed_ms"] = median(fixed)
	sp.end()

	sp = span("warm")
	warm := tiny
	warm.Insts, warm.WarmupInsts = 1000, insts(1e6, cfg.scale)
	var warmMS []float64
	for i := 0; i < 3; i++ {
		d, _, err := timeRun(warm)
		if err != nil {
			return err
		}
		warmMS = append(warmMS, d)
	}
	m["sim.warm_ns_per_inst"] = math.Max(0, median(warmMS)-median(fixed)) * 1e6 / float64(warm.WarmupInsts*uint64(warm.Normalized().Cores))
	sp.end()

	grid, nA := sweepSpecs(cfg.seed, cfg.scale)
	var stats [2]sim.RunnerStats
	var wall, cpu float64
	for i, part := range [][]spb.RunSpec{grid[:nA], grid[nA:]} {
		name := []string{"sim.grid_warm_s", "sim.grid_sampled_s"}[i]
		sp = span(name)
		r := spb.NewRunner()
		c0, t0 := selfCPUSeconds(), time.Now()
		_, err := r.GetAll(part)
		s := time.Since(t0).Seconds()
		cpu += selfCPUSeconds() - c0
		sp.end()
		o.check(err == nil, "%s: %v", name, err)
		m[name] = s
		wall += s
		stats[i] = r.SimStats()
	}
	m["sim.runner_parallel_eff"] = ratio(cpu, wall*float64(runtime.GOMAXPROCS(0)))
	m["sim.warm_groups"] = float64(stats[0].WarmGroups + stats[1].WarmGroups)
	m["sim.warm_forks"] = float64(stats[0].WarmForks + stats[1].WarmForks)
	m["sim.warm_insts_saved"] = float64(stats[0].WarmInstsSaved + stats[1].WarmInstsSaved)
	m["sim.insts_simulated"] = float64(stats[0].InstsSimulated + stats[1].InstsSimulated)
	m["sim.sample_intervals"] = float64(stats[0].SampleIntervals + stats[1].SampleIntervals)
	m["sim.sample_insts_skipped"] = float64(stats[0].SampleInstsSkipped + stats[1].SampleInstsSkipped)

	sp = span("sampled-vs-full")
	sampled := grid[nA+1] // the first SB-bound workload under spb, SB14
	full := sampled
	full.Sampling = sim.SamplingConfig{}
	fullMS, _, err := timeRun(full)
	if err != nil {
		return err
	}
	sampledMS, res, err := timeRun(sampled)
	if err != nil {
		return err
	}
	sp.end()
	m["sim.sampled_speedup"] = ratio(fullMS, sampledMS)
	m["sim.sample_ipc_ci_pct"] = ratio(float64(res.Sample.IPCCI95PPM), float64(res.Sample.IPCMeanPPM)) * 100
	return nil
}

// figuresProbes times the figure harness: fig5 at (scaled) quick scale, for
// continuity with BENCH_core.json's 1.67 -> 1.96 s history, and the claims
// step the end-to-end runs use for paper_err_pct.
func figuresProbes(cfg runConfig, rec *recorder, o *ops, m map[string]float64) {
	quick := figures.Quick
	quick.Insts = uint64(math.Max(5000, float64(quick.Insts)*math.Min(1, cfg.scale)))
	sp := rec.start("figures", "Harness.Fig5", 0)
	t0 := time.Now()
	_, err := figures.NewHarness(quick).Fig5()
	m["figures.fig5_quick_s"] = time.Since(t0).Seconds()
	sp.end()
	o.check(err == nil, "fig5: %v", err)

	sp = rec.start("figures", "Harness.Verify", 0)
	fid := runFidelity(cfg.scale, o)
	sp.end()
	m["figures.verify_s"] = fid.wall.Seconds()
	m["figures.claims_failed"] = float64(fid.outside)
	m["core.spb_speedup_sb14"] = fid.speedup
}

// directProbes times the small fixed-cost calls of the service plane and of
// result encoding, called directly.
func directProbes(cfg runConfig, spec spb.RunSpec, res spb.Result, rec *recorder, m map[string]float64) error {
	sp := rec.start("direct", "probes", 0)
	defer sp.end()

	js, err := res.StatsJSON()
	if err != nil {
		return err
	}
	m["stats.statsjson_bytes"] = float64(len(js))
	m["stats.statsjson_us"] = layers.Repeat(200, func() { _, _ = res.StatsJSON() }).PerOp() / 1e3

	m["server.key_us"] = layers.Repeat(2000, func() { _ = server.Key(spec) }).PerOp() / 1e3
	store, err := server.OpenDiskStore(filepath.Join(cfg.tmpDir(), "store"))
	if err != nil {
		return err
	}
	store.Sync = true // as the daemon runs it
	key := server.Key(spec)
	var putErr error
	m["server.store_put_ms"] = layers.Repeat(10, func() {
		if err := store.Put(key, res); err != nil {
			putErr = err
		}
	}).PerOp() / 1e6
	if putErr != nil {
		return putErr
	}
	m["server.store_get_us"] = layers.Repeat(200, func() {
		if _, ok, err := store.Get(key); err != nil || !ok {
			putErr = fmt.Errorf("disk store get: found %v, %v", ok, err)
		}
	}).PerOp() / 1e3
	if putErr != nil {
		return putErr
	}

	tr := obs.NewTracer(1, nil).Start("", "bench", "")
	m["obs.span_ns"] = layers.Repeat(20000, func() { tr.StartSpan("x").End() }).PerOp()
	return nil
}
