package main

// The catalogue: every workload and metric the benchmark knows, in the order
// they are reported. BENCHMARK.json at the repository root is generated from
// these tables (`spbbench manifest`) and the smoke test asserts the two agree,
// so a metric cannot be emitted without being declared or declared without
// being emitted.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef declares one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is the measuring window the manifest asks the driver for.
const runSeconds = 25

var workloadDefs = []workloadDef{
	{"detail-sbbound", "1 core, SB14, store bursts fill the store buffer: storebuf, the SPB detector and Port.PrefetchOwn do their most work (the paper's own scenario)"},
	{"detail-membound", "SB14, 1-core pointer-chase and streaming misses plus 8-core shared lines: memsys below L1, directory, invalidations, DRAM, generic prefetchers; SB and SPB nearly idle"},
	{"sweep-warm-sampled", "one Runner.GetAll over a warm-start grid plus a SMARTS-sampled grid: functional warming, snapshot/fork and Runner scheduling set the makespan"},
	{"svc-cold", "closed loop of never-seen specs against a real spbd: admission, queue, journal fsync, run, stats encode, disk-store write, coalescing (the write path)"},
}

// endToEndDefs are what a user of the system sees. The driver judges every
// one of them on every workload, so each is defined on every workload
// (README.md, "End-to-end metrics"). ISSUE 12's other four (makespan_s,
// req_p90_ms, req_p99_ms, req_per_s) could not hold a bound on a shared host
// and are per-layer metrics, as that issue prescribes.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"sim_mips", "Minst/s", higher, 0.25},
	{"req_p50_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25},
	{"paper_err_pct", "%", lower, 0.05},
}

// prefetchKinds are the generic-prefetcher engines with a per-layer driver.
var prefetchKinds = []string{"stream", "adaptive", "bop", "dspatch", "hybrid"}

// perLayerDefs come from the traced run. "Better" is the direction an
// optimisation would move the metric; simulated counts that must simply not
// move under a simulator-speed change are marked lower by convention.
var perLayerDefs = func() []metricDef {
	d := []metricDef{
		{"trace.next_ns_per_inst", "ns", lower, 0},
		{"trace.skip_ns_per_inst", "ns", lower, 0},
		{"trace.mem_op_frac", "frac", lower, 0},
		{"trace.store_frac", "frac", lower, 0},

		{"workloads.build_us", "us", lower, 0},

		{"cpu.run_ns_per_inst", "ns", lower, 0},
		{"cpu.ns_per_sim_cycle", "ns", lower, 0},
		{"cpu.sim_cycles", "count", lower, 0},
		{"cpu.ipc", "inst/cycle", higher, 0},
		{"cpu.sb_stall_frac", "frac", lower, 0},
		{"cpu.other_stall_frac", "frac", lower, 0},
		{"cpu.frontend_stall_frac", "frac", lower, 0},
		{"cpu.mispredicts_pki", "1/kinst", lower, 0},

		{"storebuf.op_ns", "ns", lower, 0},
		{"storebuf.forward_ns", "ns", lower, 0},
		{"storebuf.forward_hit_frac", "frac", higher, 0},

		{"core.observe_ns_per_store", "ns", lower, 0},
		{"core.bursts_per_kstore", "1/kstore", higher, 0},
		{"core.burst_blocks_avg", "blocks", higher, 0},
		{"core.spf_issued_pki", "1/kinst", lower, 0},
		{"core.spf_useful_frac", "frac", higher, 0},
		{"core.spf_late_frac", "frac", lower, 0},
		{"core.spb_speedup_sb14", "ratio", higher, 0},

		{"cache.lookup_ns", "ns", lower, 0},
		{"cache.insert_ns", "ns", lower, 0},
		{"cache.l1_hit_frac", "frac", higher, 0},

		{"memsys.load_ns", "ns", lower, 0},
		{"memsys.store_ns", "ns", lower, 0},
		{"memsys.pfown_ns", "ns", lower, 0},
		{"memsys.shared_load_ns", "ns", lower, 0},
		{"memsys.warmtouch_ns_per_block", "ns", lower, 0},
		{"memsys.new_release_us", "us", lower, 0},
		{"memsys.snapshot_ms", "ms", lower, 0},
		{"memsys.restore_ms", "ms", lower, 0},
		{"memsys.l1_mpki", "1/kinst", lower, 0},
		{"memsys.l3_apki", "1/kinst", lower, 0},
		{"memsys.invalidations_pki", "1/kinst", lower, 0},
		{"memsys.gpf_useful_frac", "frac", higher, 0},

		{"dram.read_ns", "ns", lower, 0},
		{"dram.reads_pki", "1/kinst", lower, 0},
	}
	for _, k := range prefetchKinds {
		d = append(d, metricDef{"prefetch.observe_ns." + k, "ns", lower, 0})
	}
	for _, k := range prefetchKinds {
		d = append(d, metricDef{"prefetch.issued_per_event." + k, "1/event", lower, 0})
	}
	return append(d, []metricDef{
		{"tlb.translate_ns", "ns", lower, 0},

		{"stats.statsjson_us", "us", lower, 0},
		{"stats.statsjson_bytes", "bytes", lower, 0},

		{"sim.point_fixed_ms", "ms", lower, 0},
		{"sim.warm_ns_per_inst", "ns", lower, 0},
		{"sim.grid_warm_s", "s", lower, 0},
		{"sim.grid_sampled_s", "s", lower, 0},
		{"sim.sampled_speedup", "ratio", higher, 0},
		{"sim.sample_ipc_ci_pct", "%", lower, 0},
		{"sim.runner_parallel_eff", "frac", higher, 0},
		{"sim.alloc_bytes_per_kinst", "bytes/kinst", lower, 0},
		{"sim.warm_groups", "count", lower, 0},
		{"sim.warm_forks", "count", higher, 0},
		{"sim.warm_insts_saved", "count", higher, 0},
		{"sim.insts_simulated", "count", lower, 0},
		{"sim.sample_intervals", "count", lower, 0},
		{"sim.sample_insts_skipped", "count", higher, 0},

		{"figures.fig5_quick_s", "s", lower, 0},
		{"figures.verify_s", "s", lower, 0},
		{"figures.claims_failed", "count", lower, 0},

		{"server.submit_us", "us", lower, 0},
		{"server.queue_wait_ms", "ms", lower, 0},
		{"server.run_ms", "ms", lower, 0},
		{"server.run_build_ms", "ms", lower, 0},
		{"server.run_sim_ms", "ms", lower, 0},
		{"server.run_collect_ms", "ms", lower, 0},
		{"server.store_write_ms", "ms", lower, 0},
		{"server.handler_p50_us", "us", lower, 0},
		{"server.mem_hits", "count", higher, 0},
		{"server.disk_hits", "count", higher, 0},
		{"server.coalesced", "count", higher, 0},
		{"server.rejected", "count", lower, 0},
		{"server.key_us", "us", lower, 0},
		{"server.store_put_ms", "ms", lower, 0},
		{"server.store_get_us", "us", lower, 0},
		{"server.disk_hit_p50_ms", "ms", lower, 0},
		{"server.restart_ready_ms", "ms", lower, 0},

		{"client.overhead_us", "us", lower, 0},
		{"client.batch_specs_per_s", "1/s", higher, 0},
		{"client.retries", "count", lower, 0},

		{"obs.trace_overhead_pct", "%", lower, 0},
		{"obs.span_ns", "ns", lower, 0},

		// End-to-end in kind, demoted: a tail percentile and a whole-run wall
		// time move with the host's slow spells more than a bound allows.
		{"makespan_s", "s", lower, 0},
		{"req_p90_ms", "ms", lower, 0},
		{"req_p99_ms", "ms", lower, 0},
		{"req_per_s", "1/s", higher, 0},
	}...)
}()

// manifest is the exact shape of BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEndDefs {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func findMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
