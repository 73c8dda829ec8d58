package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spb/internal/cpu"
	"spb/internal/obs"
	"spb/internal/topdown"
)

// Metrics holds spbd's operational counters and latency histograms,
// exported at GET /metrics in Prometheus text format. Hand-rolled (the repo
// takes no dependencies): counters are plain atomics bumped on the request
// path, latency distributions are obs.Histogram log-bucketed instruments
// (lock-free, allocation-free Observe). A field's tag is its whole /metrics
// declaration (obs.Families): name, help and, where several fields make one
// family, the label that tells them apart. What is computed at scrape time
// instead — live gauges, the runner's counters, the per-tenant and
// per-endpoint series — is declared in Server.families.
type Metrics struct {
	SSESubscribers   atomic.Int64  `metric:"spbd_sse_subscribers" help:"Open SSE progress streams."`
	CacheHitsMemory  atomic.Uint64 `metric:"spbd_cache_hits_total" labels:"tier=\"memory\"" help:"Run requests answered from cache, by tier."`
	CacheHitsDisk    atomic.Uint64 `metric:"spbd_cache_hits_total" labels:"tier=\"disk\""`
	CacheMisses      atomic.Uint64 `metric:"spbd_cache_misses_total" help:"Run requests that had to simulate."`
	RunsCoalesced    atomic.Uint64 `metric:"spbd_runs_coalesced_total" help:"Submissions deduplicated onto an active identical job."`
	RunsCompleted    atomic.Uint64 `metric:"spbd_runs_completed_total" help:"Jobs that finished successfully."`
	RunsFailed       atomic.Uint64 `metric:"spbd_runs_failed_total" help:"Jobs that ended in a simulation error."`
	RunsCancelled    atomic.Uint64 `metric:"spbd_runs_cancelled_total" help:"Jobs stopped by cancellation or timeout."`
	QueueRejected    atomic.Uint64 `metric:"spbd_queue_rejected_total" help:"Submissions rejected with 429 because the queue was full."`
	DiskStoreErrors  atomic.Uint64 `metric:"spbd_disk_store_errors_total" help:"Disk cache tier read/write failures."`
	StoreCorrupt     atomic.Uint64 `metric:"spbd_store_corrupt_total" help:"Corrupt disk cache entries quarantined and recomputed."`
	ProgressSnapshot atomic.Uint64 `metric:"spbd_progress_snapshots_total" help:"Progress callbacks delivered by running simulations."`
	BatchRequests    atomic.Uint64 `metric:"spbd_batch_requests_total" help:"Batch sweep requests accepted."`
	BatchSpecs       atomic.Uint64 `metric:"spbd_batch_specs_total" help:"Specs received across all batch requests."`

	// Crash-safety counters (the journal and the recovery path).
	RecoveryRequeued  atomic.Uint64 `metric:"spbd_recovery_requeued_total" help:"Journaled jobs re-admitted to the queue after a restart."`
	RecoveryCompleted atomic.Uint64 `metric:"spbd_recovery_completed_total" help:"Recovered jobs answered from the disk tier (they ended, but the crash came before their journal file was removed)."`
	RecoveryDropped   atomic.Uint64 `metric:"spbd_recovery_dropped_total" help:"Journaled jobs that could not be re-admitted after a restart."`
	JournalErrors     atomic.Uint64 `metric:"spbd_journal_errors_total" help:"Job journal file write/remove failures (jobs continue, less durable)."`
	OrphanTempsSwept  atomic.Uint64 `metric:"spbd_orphan_temps_swept_total" help:"Leftover atomic-write temp files removed at startup."`

	// Top-Down stall accounting aggregated over every completed run (paper
	// §V): raw cycle counters so operators can derive fleet-level stall
	// ratios, plus how many runs met the >2% SB-bound criterion.
	TDCycles        atomic.Uint64 `metric:"spbd_topdown_cycles_total" labels:"class=\"all\"" help:"Simulated cycles aggregated over completed runs, by Top-Down stall class."`
	TDSBStall       atomic.Uint64 `metric:"spbd_topdown_cycles_total" labels:"class=\"sb_stall\""`
	TDOtherStall    atomic.Uint64 `metric:"spbd_topdown_cycles_total" labels:"class=\"other_stall\""`
	TDFrontendStall atomic.Uint64 `metric:"spbd_topdown_cycles_total" labels:"class=\"frontend_stall\""`
	TDExecL1DStall  atomic.Uint64 `metric:"spbd_topdown_cycles_total" labels:"class=\"exec_l1d_pending\""`
	TDSBBoundRuns   atomic.Uint64 `metric:"spbd_topdown_sb_bound_runs_total" help:"Completed runs exceeding the paper's 2% SB-stall criterion."`

	// Phase latency histograms: where a job's wall-clock time goes.
	QueueWait   obs.Histogram `metric:"spbd_queue_wait_seconds" help:"Time jobs spent waiting for a worker."`
	RunDuration obs.Histogram `metric:"spbd_run_duration_seconds" help:"Simulation execution time per job."`
	StoreRead   obs.Histogram `metric:"spbd_store_read_seconds" help:"Disk cache tier lookup latency."`
	StoreWrite  obs.Histogram `metric:"spbd_store_write_seconds" help:"Disk cache tier persist latency."`
	BatchStream obs.Histogram `metric:"spbd_batch_stream_seconds" help:"Batch submission to terminal NDJSON line, per spec."`

	mu        sync.Mutex
	endpoints map[string]*obs.Histogram
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{endpoints: make(map[string]*obs.Histogram)}
}

// ObserveLatency records one request duration under the endpoint label
// (the route pattern, e.g. "POST /v1/runs").
func (m *Metrics) ObserveLatency(endpoint string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.endpoints[endpoint]
	if !ok {
		h = &obs.Histogram{}
		m.endpoints[endpoint] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// cacheHit counts a request answered from a tier.
func (m *Metrics) cacheHit(tier string) {
	switch tier {
	case "memory":
		m.CacheHitsMemory.Add(1)
	case "disk":
		m.CacheHitsDisk.Add(1)
	}
}

// runEnded counts one admitted job's ending under its status and folds a
// completed run's aggregated core statistics into the fleet-level Top-Down
// counters.
func (m *Metrics) runEnded(st Status, cs *cpu.Stats) {
	switch st {
	case StatusFailed:
		m.RunsFailed.Add(1)
	case StatusCancelled:
		m.RunsCancelled.Add(1)
	case StatusDone:
		m.RunsCompleted.Add(1)
		m.TDCycles.Add(cs.Cycles)
		m.TDSBStall.Add(cs.SBStallCycles)
		m.TDOtherStall.Add(cs.OtherStallCycles())
		m.TDFrontendStall.Add(cs.FrontendStallCycles)
		m.TDExecL1DStall.Add(cs.ExecStallL1DPending)
		if sb, _, _, _ := topdown.StatPPM(cs); sb > topdown.SBBoundThresholdPPM {
			m.TDSBBoundRuns.Add(1)
		}
	}
}

// httpLatency declares the per-endpoint request latency family.
func (m *Metrics) httpLatency() obs.Family {
	return obs.Family{Name: "spbd_http_request_duration_seconds", Type: "histogram", Help: "HTTP request latency by endpoint.",
		Collect: func(emit func(string, any)) {
			m.mu.Lock()
			eps := make([]string, 0, len(m.endpoints))
			for ep := range m.endpoints {
				eps = append(eps, ep)
			}
			sort.Strings(eps)
			hists := make([]*obs.Histogram, len(eps))
			for i, ep := range eps {
				hists[i] = m.endpoints[ep]
			}
			m.mu.Unlock()
			for i, ep := range eps {
				emit(fmt.Sprintf("endpoint=%q", ep), hists[i])
			}
		}}
}

// families declares every series GET /metrics serves: the live gauges, the
// Metrics fields, the runner's execution counters (simulated instructions,
// warm-start forks, sampling), the per-endpoint latencies and
// the per-tenant series.
func (s *Server) families() []obs.Family {
	gauge := func(name, help string, read func() int) obs.Family { return obs.Read(name, "gauge", help, read) }
	ss := s.tiers.runner.SimStats()
	counter := func(name, help string, v uint64) obs.Family {
		return obs.Read(name, "counter", help, func() uint64 { return v })
	}
	tenant := func(name, help string, value func(*tenantState) uint64) obs.Family {
		return obs.Family{Name: name, Type: "counter", Help: help, Collect: func(emit func(string, any)) {
			for _, tn := range s.tenantList {
				emit(fmt.Sprintf("tenant=%q", tn.Name), value(tn))
			}
		}}
	}
	fams := []obs.Family{
		gauge("spbd_queue_depth", "Jobs waiting in the FIFO queue.", s.QueueDepth),
		gauge("spbd_inflight_runs", "Simulations currently executing.", s.Inflight),
		gauge("spbd_store_degraded", "1 while the disk tier is in degraded memory-only mode.", func() int {
			if s.Degraded() {
				return 1
			}
			return 0
		}),
	}
	fams = append(fams, obs.Families(s.metrics)...)
	fams = append(fams,
		counter("spbd_sim_insts_total", "Instructions simulated (functional warming + detailed intervals).", ss.InstsSimulated),
		counter("spbd_warmstart_groups_total", "Warmup-equivalence groups simulated (one warmup each).", ss.WarmGroups),
		counter("spbd_warmstart_forks_total", "Detailed runs forked from a shared warm snapshot.", ss.WarmForks),
		counter("spbd_warmstart_insts_saved_total", "Warmup instructions elided by warm-start snapshot sharing.", ss.WarmInstsSaved),
		counter("spbd_sample_runs_total", "Completed runs that used SMARTS sampling.", ss.SampledRuns),
		counter("spbd_sample_intervals_total", "Detailed measurement intervals executed by sampled runs.", ss.SampleIntervals),
		counter("spbd_sample_insts_skipped_total", "Instructions functionally warmed instead of detailed-simulated by sampling.", ss.SampleInstsSkipped),
		s.metrics.httpLatency(),
		// The implicit default tenant keeps these present on single-tenant daemons.
		tenant("spbd_tenant_submitted_total", "Jobs accepted onto the queue per tenant.", func(tn *tenantState) uint64 { return tn.submitted.Load() }),
		tenant("spbd_tenant_completed_total", "Jobs that reached a terminal state per tenant.", func(tn *tenantState) uint64 { return tn.completed.Load() }),
	)
	return fams
}

// writeMetrics renders the daemon's /metrics page.
func (s *Server) writeMetrics(w io.Writer) { obs.WriteFamilies(w, s.families()) }
