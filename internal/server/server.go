package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spb/internal/cluster"
	"spb/internal/faults"
	"spb/internal/obs"
	"spb/internal/sim"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of simulations executed concurrently
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO of jobs waiting for a worker; submissions
	// beyond it are rejected with 429 + Retry-After (default: 64).
	QueueDepth int
	// CacheDir roots the on-disk result store; empty disables the disk tier.
	CacheDir string
	// RunTimeout caps a single simulation's execution; 0 means no cap.
	RunTimeout time.Duration
	// SSEInterval is the progress-event period on /events streams
	// (default: 250ms).
	SSEInterval time.Duration
	// SSEHeartbeat is the period of comment-line heartbeats on /events
	// streams, keeping idle connections alive through proxies (default: 15s).
	SSEHeartbeat time.Duration
	// Tracer, when set, records a per-phase span timeline for every job,
	// retrievable at GET /v1/runs/{id}/trace. Nil disables tracing at zero
	// cost (every per-job trace handle is nil and all span calls no-op).
	Tracer *obs.Tracer
	// Faults, when set, injects failures at the server's sites ("submit",
	// "run", "store.read", "store.write", "batch.stream"). Nil disables
	// injection at zero cost.
	Faults *faults.Injector
	// DiskErrorThreshold is how many *consecutive* disk-tier I/O errors put
	// the store into degraded memory-only mode (default: 5).
	DiskErrorThreshold int
	// DiskRetryInterval is how often a degraded disk tier is re-probed with
	// one real operation (default: 5s). A success leaves degraded mode.
	DiskRetryInterval time.Duration
	// JournalPath is the durable job journal (journal.go): accepted,
	// started and terminal transitions are appended as checksummed NDJSON
	// and replayed on startup, so queued and running jobs survive a crash
	// (kill -9 included) under their original IDs. Empty disables.
	JournalPath string
	// CheckpointDir roots on-disk mid-run checkpoints: long simulations
	// periodically serialize their state so a restarted daemon resumes from
	// the last checkpoint instead of from scratch, with byte-identical
	// results. Empty disables.
	CheckpointDir string
	// CheckpointInsts is the checkpoint cadence in committed instructions
	// per core (default: 10M). Only meaningful with CheckpointDir.
	CheckpointInsts uint64
	// DisableSync turns off fsync on disk-store, journal and checkpoint
	// writes. The default (false) pays one fsync per durable write — the
	// discipline that makes "survives kill -9" a property of the filesystem
	// rather than of luck. Disable only for throwaway test daemons.
	DisableSync bool
	// Tenants declares the multi-tenant API keys, weights, priority lanes
	// and quotas (tenant.go). Empty means single-tenant: no key required,
	// everything runs as the implicit "default" tenant.
	Tenants []TenantConfig
	// Logf receives operational log lines (default: log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SSEInterval <= 0 {
		c.SSEInterval = 250 * time.Millisecond
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	if c.DiskErrorThreshold <= 0 {
		c.DiskErrorThreshold = 5
	}
	if c.DiskRetryInterval <= 0 {
		c.DiskRetryInterval = 5 * time.Second
	}
	if c.CheckpointInsts == 0 {
		c.CheckpointInsts = 10_000_000
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Terminal reports whether the status is final (done, failed or cancelled);
// batch-stream consumers filter on it.
func (s Status) Terminal() bool { return s.terminal() }

// job is one accepted simulation request.
type job struct {
	id        string
	key       string
	spec      sim.RunSpec
	submitted time.Time
	trace     *obs.Trace // nil when tracing is disabled; all methods no-op

	// Tenant scheduling state. tenant is always non-nil (the implicit
	// default tenant on single-tenant daemons); cost is the spec's work
	// estimate (sim.RunSpec.CostEstimate); lane is the strict
	// priority lane; vfinish/seq are stamped by tenantQueue.push (guarded
	// by its mutex). onTerminal, when set, runs exactly once as the job
	// reaches a terminal state — it returns the tenant's quota slot.
	tenant     *tenantState
	cost       float64
	lane       int
	vfinish    float64
	seq        uint64
	onTerminal func()
	// onFinish, when set, observes the terminal status exactly once from
	// inside finish — the single hook behind the journal's terminal records
	// (every finish call site, worker, cancel, drain, steal, is covered).
	onFinish func(Status)

	// journaled marks jobs with an "accepted" record in the job journal;
	// only those append started/terminal records. Set before the job is
	// published to workers. recovered marks jobs re-admitted from the
	// journal after a restart (surfaced in the job view).
	journaled bool
	recovered bool

	ctx    context.Context
	cancel context.CancelCauseFunc

	// Progress, written by the simulating goroutine, read by SSE streams
	// and status requests. ffInsts counts functionally-warmed instructions
	// (warmup prefix + sampling skips), kept apart from committed so sampled
	// runs report honest detailed progress.
	committed   atomic.Uint64
	cycles      atomic.Uint64
	ffInsts     atomic.Uint64
	targetInsts uint64

	// waiters counts parties whose interest keeps the job alive: the
	// asynchronous submitter pins it forever (they may poll later); a
	// synchronous (?wait=1) submitter releases on disconnect, and when the
	// count reaches zero the job is cancelled — abandoned requests stop
	// simulating.
	waiters atomic.Int64

	done chan struct{} // closed when terminal

	mu     sync.Mutex
	status Status
	result sim.Result
	stats  json.RawMessage
	errMsg string
	cached string // "", "memory" or "disk"
}

// finish moves the job to a terminal state exactly once; later calls are
// no-ops returning false (a cancel handler and the worker can race here).
func (j *job) finish(st Status, res sim.Result, stats json.RawMessage, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return false
	}
	j.status = st
	j.result = res
	j.stats = stats
	j.errMsg = errMsg
	close(j.done)
	if j.onTerminal != nil {
		j.onTerminal()
		j.onTerminal = nil
	}
	if j.onFinish != nil {
		j.onFinish(st)
		j.onFinish = nil
	}
	return true
}

func (j *job) setRunning() {
	j.mu.Lock()
	if j.status == StatusQueued {
		j.status = StatusRunning
	}
	j.mu.Unlock()
}

func (j *job) release() int64 { return j.waiters.Add(-1) }
func (j *job) retain()        { j.waiters.Add(1) }

// Server is the spbd daemon: HTTP API + queue + worker pool + 2-tier cache.
type Server struct {
	cfg     Config
	runner  *sim.Runner
	store   *DiskStore // nil when the disk tier is disabled
	journal *journal   // nil when the job journal is disabled
	metrics *Metrics
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	mu       sync.Mutex
	jobs     map[string]*job // every job ever accepted, by id
	active   map[string]*job // queued or running jobs, by spec key
	stolen   map[string]*stolenHandoff
	tq       *tenantQueue
	inflight atomic.Int64
	draining bool
	nextID   atomic.Uint64

	// Multi-tenancy (tenant.go): tenants maps API key → state,
	// defaultTenant serves keyless single-tenant traffic, tenantList is
	// the stable metrics/render order.
	tenants       map[string]*tenantState
	defaultTenant *tenantState
	tenantList    []*tenantState

	// cluster is the attached fleet node (AttachCluster); nil standalone.
	cluster *cluster.Node
	// peerMiss remembers keys whose last fleet read-through found nothing
	// (by miss time, guarded by mu): retry loops hammering submit for a
	// queue-full/quota-rejected key skip re-probing peers until the TTL
	// passes. Entries are dropped on expiry, on a later hit, and by the
	// size-capped sweep in notePeerMiss.
	peerMiss map[string]time.Time

	// Degraded-mode bookkeeping for the disk tier: diskErrStreak counts
	// consecutive I/O errors; crossing DiskErrorThreshold sets degraded and
	// the tier goes memory-only except for one probe per DiskRetryInterval
	// (diskProbeAt, unix nanos). Any successful operation clears the streak
	// and leaves degraded mode.
	diskErrStreak atomic.Int64
	degraded      atomic.Bool
	diskProbeAt   atomic.Int64

	workers sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		runner:  sim.NewRunner(),
		metrics: NewMetrics(),
		jobs:    make(map[string]*job),
		active:  make(map[string]*job),
		stolen:  make(map[string]*stolenHandoff),
		tq:      newTenantQueue(cfg.QueueDepth),

		peerMiss: make(map[string]time.Time),
	}
	if err := s.initTenants(cfg.Tenants); err != nil {
		return nil, err
	}
	if cfg.CacheDir != "" {
		store, err := OpenDiskStore(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		store.Faults = cfg.Faults
		store.Sync = !cfg.DisableSync
		store.OnCorrupt = func(key string, cause error) {
			s.metrics.StoreCorrupt.Add(1)
			s.cfg.Logf("spbd: disk cache entry %.12s quarantined: %v (will recompute)", key, cause)
		}
		s.store = store
		s.sweepTemps(cfg.CacheDir)
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: checkpoint dir: %w", err)
		}
		s.sweepTemps(cfg.CheckpointDir)
		s.runner.SetCheckpointPolicy(sim.CheckpointPolicy{
			Dir:   cfg.CheckpointDir,
			Insts: cfg.CheckpointInsts,
			Sync:  !cfg.DisableSync,
			KeyOf: Key,
		})
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.routes()
	// The journal replays before the worker pool starts: re-admitted jobs
	// are back in the queue (and in s.jobs under their original IDs) before
	// anything can race them. In cluster mode this also precedes
	// AttachCluster/Start (main wires the node after New returns), so a
	// restarted node always recovers its own journal first; jobs it had
	// stolen from peers are not journaled here — the victims reclaim those
	// through the existing steal-timeout janitor.
	if cfg.JournalPath != "" {
		s.sweepTemps(filepath.Dir(cfg.JournalPath))
		jl, recovered, err := openJournal(cfg.JournalPath, !cfg.DisableSync, func(err error) {
			s.metrics.JournalErrors.Add(1)
			s.cfg.Logf("spbd: journal write failed: %v (job continues, less durable)", err)
		})
		if err != nil {
			return nil, err
		}
		s.journal = jl
		s.recoverJournal(recovered)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// sweepTemps removes orphaned atomic-write temp files under dir — debris a
// crashed writer left between CreateTemp and rename.
func (s *Server) sweepTemps(dir string) {
	if n := sweepOrphanTemps(dir); n > 0 {
		s.metrics.OrphanTempsSwept.Add(uint64(n))
		s.cfg.Logf("spbd: swept %d orphaned temp file(s) under %s", n, dir)
	}
}

// Runner exposes the in-memory tier (tests assert on its run count).
func (s *Server) Runner() *sim.Runner { return s.runner }

// Metrics exposes the metrics registry (tests and the /metrics handler).
func (s *Server) Metrics() *Metrics { return s.metrics }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Sentinel submission errors, mapped to HTTP statuses by the handler.
var (
	errQueueFull = errors.New("server: queue full")
	errDraining  = errors.New("server: draining, not accepting jobs")
)

// submit resolves a normalized spec against the cache tiers (memory, disk,
// then cluster peers) or places it on the tenant-aware queue. It returns the
// job (fresh, coalesced, or already-complete from cache) — never both a job
// and an error. traceID, usually propagated from the client's X-Spb-Trace-Id
// header, groups the job's trace with the caller's; empty mints a fresh ID
// (when tracing is enabled). tn is the submitting tenant (nil means the
// implicit default tenant): cache hits and coalesces are free, only a fresh
// enqueue consumes its quota.
func (s *Server) submit(spec sim.RunSpec, traceID string, tn *tenantState) (*job, error) {
	submitStart := time.Now()
	if err := s.cfg.Faults.Err("submit"); err != nil {
		return nil, err
	}
	if tn == nil {
		tn = s.defaultTenant
	}
	spec = spec.Normalized()
	key := Key(spec)

	// Tier 1: memory (the Runner's memoization map).
	if res, ok := s.runner.Lookup(spec); ok {
		s.metrics.CacheHitsMemory.Add(1)
		return s.completedJob(key, spec, res, "memory", traceID, submitStart)
	}
	// Tier 2: content-addressed disk store; hits re-seed the memory tier.
	// In degraded mode the tier is skipped except for one probe per
	// DiskRetryInterval.
	if s.diskUsable() {
		readStart := time.Now()
		res, ok, err := s.store.Get(key)
		s.metrics.StoreRead.Observe(time.Since(readStart))
		switch {
		case err != nil:
			s.diskError("read", key, err)
		case ok:
			s.diskHealthy()
			s.runner.Put(spec, res)
			s.metrics.CacheHitsDisk.Add(1)
			return s.completedJob(key, spec, res, "disk", traceID, submitStart)
		default:
			s.diskHealthy()
		}
	}
	// Coalesce before consulting the fleet: a key already queued or running
	// here is by definition a local-tier miss, so every duplicate
	// submission would otherwise pay PeerFanout network probes just to
	// re-discover that — and batch dispatch retry loops re-enter submit
	// every poll. Ride the active job instead; its result lands locally.
	s.mu.Lock()
	if j, ok := s.active[key]; ok {
		s.mu.Unlock()
		s.metrics.RunsCoalesced.Add(1)
		j.trace.Event("coalesce")
		return j, nil
	}
	s.mu.Unlock()

	// Tier 3: the fleet. Both local tiers missed; a rendezvous-ranked peer
	// may have simulated this key already (content addressing makes any
	// answer the right answer).
	if j, ok := s.fetchFromPeers(key, spec, traceID, submitStart); ok {
		return j, nil
	}

	// A genuine miss is about to consume a quota slot; the slot is
	// released if the submission coalesces or is rejected below, and
	// otherwise returned by the job's onTerminal hook.
	if !tn.acquire() {
		tn.rejected.Add(1)
		s.metrics.QuotaRejected.Add(1)
		return nil, errQuota
	}
	s.mu.Lock()
	if j, ok := s.active[key]; ok {
		s.mu.Unlock()
		tn.release()
		s.metrics.RunsCoalesced.Add(1)
		// The coalesced submitter rides the active job's trace; the marker
		// records that a second request folded in (and when).
		j.trace.Event("coalesce")
		return j, nil
	}
	if s.draining {
		s.mu.Unlock()
		tn.release()
		return nil, errDraining
	}
	j := s.newJobLocked(key, spec, tn)
	// The terminal hook returns the quota slot; it must be in place before
	// the push makes the job visible to workers (a worker can finish it
	// before submit resumes). Likewise the journal's terminal hook: a
	// worker may finish the job before submit appends "accepted" — replay
	// tolerates that order (terminal records win unconditionally).
	j.onTerminal = tn.finishJob
	s.hookJournal(j)
	// Attach the trace before the job becomes visible to workers via the
	// queue; assigning after the push would race with runJob.
	j.trace = s.cfg.Tracer.Start(traceID, j.id, key)
	j.trace.Span("submit", submitStart, time.Now())
	if err := s.tq.push(j); err != nil {
		s.mu.Unlock()
		tn.release()
		j.onTerminal = nil
		j.onFinish = nil
		j.journaled = false
		if errors.Is(err, errQueueFull) {
			s.metrics.QueueRejected.Add(1)
		}
		j.trace.Finish() // rejected: close out the orphan trace
		return nil, err
	}
	s.jobs[j.id] = j
	s.active[key] = j
	s.mu.Unlock()
	// Durable acceptance: the record (with an fsync unless disabled) is on
	// disk before the submitter is answered, so a post-202 crash cannot
	// forget the job.
	if j.journaled {
		s.journal.accepted(j.id, key, tn.Name, j.trace.TraceID(), Request(spec))
	}
	tn.submitted.Add(1)
	s.metrics.CacheMisses.Add(1)
	return j, nil
}

// hookJournal marks j as journaled and installs the terminal-record hook.
// No-op on daemons without a journal.
func (s *Server) hookJournal(j *job) {
	if s.journal == nil {
		return
	}
	j.journaled = true
	j.onFinish = func(st Status) { s.journal.terminal(j.id, st) }
}

// journalStarted appends j's "started" record (local worker pickup or
// steal-out to a thief peer).
func (s *Server) journalStarted(j *job) {
	if j.journaled {
		s.journal.started(j.id)
	}
}

func (s *Server) newJobLocked(key string, spec sim.RunSpec, tn *tenantState) *job {
	id := fmt.Sprintf("r%06d-%s", s.nextID.Add(1), key[:8])
	return s.jobWithID(id, key, spec, tn)
}

// jobWithID constructs a job under an explicit ID — the recovery path
// re-admits journaled jobs under their pre-crash IDs so clients polling
// those IDs keep working across the restart.
func (s *Server) jobWithID(id, key string, spec sim.RunSpec, tn *tenantState) *job {
	if tn == nil {
		tn = s.defaultTenant
	}
	j := &job{
		id:          id,
		key:         key,
		spec:        spec,
		submitted:   time.Now(),
		targetInsts: spec.Insts * uint64(spec.Cores),
		done:        make(chan struct{}),
		status:      StatusQueued,
		tenant:      tn,
		cost:        float64(spec.CostEstimate()),
		lane:        tn.laneIdx,
	}
	j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
	return j
}

// resultCommitted returns the detail-simulated instruction count a terminal
// job reports. For sampled runs the measured aggregate alone under-reports
// the detailed work — each window's unmeasured detailed warming commits
// instructions too — so the job view carries the full detailed count, and
// committed + ff_insts covers the spec's whole horizon (the cost-accounting
// invariant the tenant quota and dashboard sums rely on).
func resultCommitted(res *sim.Result) uint64 {
	if res.Sample.Intervals > 0 {
		return res.Sample.DetailedInsts
	}
	return res.CPU.Committed
}

// completedJob materializes a cache hit as an already-terminal job so the
// response shape (and GET /v1/runs/{id}) is uniform across hits and misses.
func (s *Server) completedJob(key string, spec sim.RunSpec, res sim.Result, tier string, traceID string, submitStart time.Time) (*job, error) {
	stats, err := res.StatsJSON()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	j := s.newJobLocked(key, spec, nil) // cache hits are quota-free
	s.jobs[j.id] = j
	s.mu.Unlock()
	j.cached = tier
	j.committed.Store(resultCommitted(&res))
	j.ffInsts.Store(res.Sample.FastForwardInsts)
	j.cycles.Store(res.CPU.Cycles)
	j.trace = s.cfg.Tracer.Start(traceID, j.id, key)
	j.trace.Span("submit", submitStart, time.Now())
	j.trace.Event("cache-hit") // tier is in the job view's "cached" field
	j.finish(StatusDone, res, stats, "")
	j.trace.Finish()
	j.retain() // uniform with queued jobs: the submitter pins it
	return j, nil
}

// recoverJournal re-admits the journal's live jobs after a restart. Runs
// single-threaded from New, before the worker pool exists. The ID counter
// advances past every recovered sequence number first so fresh jobs can
// never collide with a recovered ID.
func (s *Server) recoverJournal(recovered []recoveredJob) {
	var maxSeq uint64
	for _, rj := range recovered {
		var seq uint64
		if _, err := fmt.Sscanf(rj.ID, "r%d-", &seq); err == nil && seq > maxSeq {
			maxSeq = seq
		}
	}
	if maxSeq > s.nextID.Load() {
		s.nextID.Store(maxSeq)
	}
	wasRunning := 0
	for _, rj := range recovered {
		if rj.Started {
			wasRunning++
		}
		s.readmit(rj)
	}
	if len(recovered) > 0 {
		s.cfg.Logf("spbd: journal recovery: %d live job(s) found (%d were mid-run); requeued %d, completed from disk %d, dropped %d",
			len(recovered), wasRunning,
			s.metrics.RecoveryRequeued.Load(), s.metrics.RecoveryCompleted.Load(), s.metrics.RecoveryDropped.Load())
	}
}

// readmit re-creates one journaled job under its original ID. Three
// outcomes: answered from the disk tier (the previous process finished it
// and died before the terminal record landed), requeued to run again (a
// checkpointed run resumes mid-flight), or dropped — terminal-failed when
// its spec no longer validates, terminal-cancelled when it cannot be
// re-admitted — and the ID still resolves in every case, so a client polling
// across the restart always learns its job's fate.
func (s *Server) readmit(rj recoveredJob) {
	drop := func(j *job, st Status, msg string) {
		j.onTerminal = nil
		j.finish(st, sim.Result{}, nil, msg)
		j.trace.Finish()
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		j.retain()
		s.metrics.RecoveryDropped.Add(1)
		s.cfg.Logf("spbd: journal recovery: dropping %s: %s", rj.ID, msg)
	}

	spec, err := rj.Req.Spec()
	if err != nil {
		// Journaled after validation, so the binary changed under the
		// journal (a release that validates more than the one that accepted
		// the job): nothing to run, but the ID still resolves — as failed,
		// with the reason — and the terminal record stops the next restart
		// from replaying it.
		j := s.jobWithID(rj.ID, "", sim.RunSpec{}, nil)
		j.recovered = true
		s.hookJournal(j)
		j.trace = s.cfg.Tracer.Start(rj.TraceID, j.id, "")
		j.trace.Event("recovered")
		drop(j, StatusFailed, fmt.Sprintf("recovery: spec no longer valid: %v", err))
		return
	}
	spec = spec.Normalized()
	key := Key(spec)
	tn := s.tenantByName(rj.Tenant)

	// The disk tier is the tiebreaker for "finished but the terminal record
	// never landed": serve the persisted result instead of re-running.
	if s.diskUsable() {
		if res, ok, gerr := s.store.Get(key); gerr == nil && ok {
			if stats, serr := res.StatsJSON(); serr == nil {
				s.runner.Put(spec, res)
				s.mu.Lock()
				j := s.jobWithID(rj.ID, key, spec, nil) // like cache hits: quota-free
				j.recovered = true
				s.jobs[j.id] = j
				s.mu.Unlock()
				j.cached = "disk"
				j.committed.Store(resultCommitted(&res))
				j.ffInsts.Store(res.Sample.FastForwardInsts)
				j.cycles.Store(res.CPU.Cycles)
				j.trace = s.cfg.Tracer.Start(rj.TraceID, j.id, key)
				j.trace.Event("recovered")
				j.finish(StatusDone, res, stats, "")
				j.trace.Finish()
				j.retain()
				s.journal.terminal(j.id, StatusDone)
				s.metrics.RecoveryCompleted.Add(1)
				return
			}
		}
	}

	s.mu.Lock()
	j := s.jobWithID(rj.ID, key, spec, tn)
	j.recovered = true
	s.hookJournal(j)
	j.trace = s.cfg.Tracer.Start(rj.TraceID, j.id, key)
	j.trace.Event("recovered")
	if dup := s.active[key]; dup != nil {
		s.mu.Unlock()
		drop(j, StatusCancelled, fmt.Sprintf("recovery: duplicate of recovered job %s", dup.id))
		return
	}
	if !tn.acquire() {
		s.mu.Unlock()
		drop(j, StatusCancelled, fmt.Sprintf("recovery: tenant %q quota exhausted", tn.Name))
		return
	}
	j.onTerminal = tn.finishJob
	if err := s.tq.push(j); err != nil {
		s.mu.Unlock()
		tn.release()
		drop(j, StatusCancelled, "recovery: "+err.Error())
		return
	}
	s.jobs[j.id] = j
	s.active[key] = j
	s.mu.Unlock()
	tn.submitted.Add(1)
	j.retain() // the pre-crash submitter's pin survives the restart
	s.metrics.RecoveryRequeued.Add(1)
}

// tenantByName resolves a journaled tenant name against the current
// configuration; unknown names (the tenant was removed across the restart)
// fall back to the implicit default tenant rather than losing the job.
func (s *Server) tenantByName(name string) *tenantState {
	for _, tn := range s.tenantList {
		if tn.Name == name {
			return tn
		}
	}
	return s.defaultTenant
}

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.tq.pop()
		if !ok {
			return
		}
		s.inflight.Add(1)
		s.runJob(j)
		s.inflight.Add(-1)
	}
}

func (s *Server) runJob(j *job) {
	defer func() {
		s.mu.Lock()
		if s.active[j.key] == j {
			delete(s.active, j.key)
		}
		s.mu.Unlock()
	}()

	// The job's trace outlives this function only for batch streams (their
	// terminal write lands as a post-Finish span); every other path is
	// complete here, so the NDJSON line is emitted on return.
	defer j.trace.Finish()

	dequeued := time.Now()
	j.trace.Span("queue-wait", j.submitted, dequeued)
	s.metrics.QueueWait.Observe(dequeued.Sub(j.submitted))

	if err := j.ctx.Err(); err != nil {
		// Cancelled while still queued.
		if j.finish(StatusCancelled, sim.Result{}, nil, cancelMsg(j.ctx)) {
			s.metrics.RunsCancelled.Add(1)
		}
		return
	}
	j.setRunning()
	s.journalStarted(j)
	s.cfg.Faults.Sleep("run", j.ctx.Done())

	ctx := j.ctx
	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(j.ctx, s.cfg.RunTimeout,
			fmt.Errorf("run timeout %v exceeded", s.cfg.RunTimeout))
		defer cancel()
	}

	// The trace rides the context so the simulator records its run.* phase
	// sub-spans (build/sim/collect) onto the same timeline.
	runStart := time.Now()
	res, err := s.runner.GetCtx(obs.NewContext(ctx, j.trace), j.spec, func(p sim.Progress) {
		j.committed.Store(p.Committed)
		j.cycles.Store(p.Cycles)
		j.ffInsts.Store(p.FastForwardInsts)
		s.metrics.ProgressSnapshot.Add(1)
	})
	runEnd := time.Now()
	j.trace.Span("run", runStart, runEnd)
	s.metrics.RunDuration.Observe(runEnd.Sub(runStart))
	switch {
	case err == nil:
		stats, jerr := res.StatsJSON()
		if jerr != nil {
			if j.finish(StatusFailed, sim.Result{}, nil, jerr.Error()) {
				s.metrics.RunsFailed.Add(1)
			}
			return
		}
		j.committed.Store(resultCommitted(&res))
		j.cycles.Store(res.CPU.Cycles)
		if j.finish(StatusDone, res, stats, "") {
			s.metrics.RunsCompleted.Add(1)
			s.metrics.ObserveTopDown(&res.CPU)
		}
		if s.diskUsable() {
			writeStart := time.Now()
			perr := s.store.Put(j.key, res)
			writeEnd := time.Now()
			j.trace.Span("store-write", writeStart, writeEnd)
			s.metrics.StoreWrite.Observe(writeEnd.Sub(writeStart))
			if perr != nil {
				s.diskError("write", j.key, perr)
			} else {
				s.diskHealthy()
			}
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if j.finish(StatusCancelled, sim.Result{}, nil, cancelMsg(ctx)) {
			s.metrics.RunsCancelled.Add(1)
		}
	default:
		if j.finish(StatusFailed, sim.Result{}, nil, err.Error()) {
			s.metrics.RunsFailed.Add(1)
		}
	}
}

// cancelMsg renders the most specific cancellation cause available.
func cancelMsg(ctx context.Context) string {
	if cause := context.Cause(ctx); cause != nil {
		return cause.Error()
	}
	return "cancelled"
}

// cancelJob cancels a job's context and, if the job is not actually
// executing anywhere — still queued locally, or handed off to a thief —
// finalizes it immediately (so it doesn't report a live status until
// somebody gets around to it). A stolen job's handoff is dropped; the
// thief's late completion is answered with "unknown handoff" and ignored.
func (s *Server) cancelJob(j *job, cause error) {
	j.cancel(cause)
	s.mu.Lock()
	stolenOut := false
	for tok, h := range s.stolen { // keyed by random token, so scan for j
		if h.j == j {
			delete(s.stolen, tok)
			stolenOut = true
			break
		}
	}
	s.mu.Unlock()
	j.mu.Lock()
	queued := j.status == StatusQueued
	j.mu.Unlock()
	if queued || stolenOut {
		if j.finish(StatusCancelled, sim.Result{}, nil, cause.Error()) {
			s.metrics.RunsCancelled.Add(1)
			j.trace.Event("cancel")
		}
		s.clearActive(j)
	}
}

// releaseWaiter drops one synchronous waiter's interest; the last one to
// leave cancels the job.
func (s *Server) releaseWaiter(j *job) {
	if j.release() <= 0 {
		s.cancelJob(j, errors.New("abandoned: every waiting client disconnected"))
	}
}

// Drain gracefully shuts the server down: new submissions are rejected with
// 503, queued and running jobs are given until ctx expires to finish (their
// results are persisted to the disk tier as they complete), and anything
// still running after that is force-cancelled. It returns nil on a clean
// drain and ctx's error if force-cancellation was needed.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.tq.close()
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		// Wait out stolen handoffs too: their thieves are still computing
		// results this daemon's clients are blocked on. The cluster node is
		// already stopped by now (main stops it before Drain), so its
		// janitor no longer runs — reclaim silent thieves here, executing
		// the jobs directly since the worker pool has exited.
		var rerun sync.WaitGroup
		for ctx.Err() == nil {
			s.mu.Lock()
			n := len(s.stolen)
			s.mu.Unlock()
			for _, j := range s.reclaimOverdue() {
				rerun.Add(1)
				go func(j *job) {
					defer rerun.Done()
					s.inflight.Add(1)
					s.runJob(j)
					s.inflight.Add(-1)
				}(j)
			}
			if n == 0 {
				break
			}
			select {
			case <-time.After(20 * time.Millisecond):
			case <-ctx.Done():
			}
		}
		rerun.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		s.journal.Close() // every surviving job has its terminal record by now
		return nil
	case <-ctx.Done():
		s.baseCancel(fmt.Errorf("drain deadline exceeded: %w", context.Cause(ctx)))
		<-idle // cancellation propagates within a few thousand sim cycles
		s.failStolen(fmt.Errorf("drain deadline exceeded"))
		s.journal.Close()
		return ctx.Err()
	}
}

// reclaimOverdue takes back handoffs whose thief has been silent past the
// cluster's steal timeout and returns their jobs for the caller to execute
// directly — the drain path's stand-in for the stopped cluster janitor,
// running after the worker pool has exited. Nil without a cluster (the
// handoff table can only fill through one).
func (s *Server) reclaimOverdue() []*job {
	if s.cluster == nil {
		return nil
	}
	cutoff := time.Now().Add(-s.cluster.StealTimeout())
	s.mu.Lock()
	var back []*job
	for tok, h := range s.stolen {
		if h.at.Before(cutoff) {
			delete(s.stolen, tok)
			back = append(back, h.j)
		}
	}
	s.mu.Unlock()
	for _, j := range back {
		j.trace.Event("steal-reclaim")
		s.metrics.StealsReclaimed.Add(1)
	}
	return back
}

// failStolen finalizes every outstanding stolen handoff as cancelled (drain
// deadline: the thief's eventual completion will be answered with "unknown
// handoff" and dropped).
func (s *Server) failStolen(cause error) {
	s.mu.Lock()
	var orphans []*job
	for id, h := range s.stolen {
		delete(s.stolen, id)
		orphans = append(orphans, h.j)
	}
	s.mu.Unlock()
	for _, j := range orphans {
		if j.finish(StatusCancelled, sim.Result{}, nil, cause.Error()) {
			s.metrics.RunsCancelled.Add(1)
		}
		s.clearActive(j)
	}
}

// Close force-stops the server (tests). Prefer Drain in production.
func (s *Server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_ = s.Drain(ctx)
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// QueueDepth reports jobs waiting for a worker (metrics gauge).
func (s *Server) QueueDepth() int { return s.tq.len() }

// Inflight reports simulations currently executing (metrics gauge).
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Degraded reports whether the disk tier is in memory-only mode after
// repeated I/O errors (readiness + metrics gauge).
func (s *Server) Degraded() bool { return s.degraded.Load() }

// diskUsable reports whether the disk tier should be consulted for this
// operation. A healthy tier always is; a degraded tier admits exactly one
// probe per DiskRetryInterval so recovery is noticed without hammering a
// dead disk on every request.
func (s *Server) diskUsable() bool {
	if s.store == nil {
		return false
	}
	if !s.degraded.Load() {
		return true
	}
	now := time.Now().UnixNano()
	at := s.diskProbeAt.Load()
	if now < at {
		return false
	}
	// One winner per interval gets to probe.
	return s.diskProbeAt.CompareAndSwap(at, now+s.cfg.DiskRetryInterval.Nanoseconds())
}

// diskError accounts one disk-tier I/O failure. Crossing the consecutive-
// error threshold flips the tier into degraded memory-only mode. Corrupt
// entries never land here — the store heals those itself as clean misses.
func (s *Server) diskError(op, key string, err error) {
	s.metrics.DiskStoreErrors.Add(1)
	streak := s.diskErrStreak.Add(1)
	s.cfg.Logf("spbd: disk cache %s %.12s: %v (error streak %d)", op, key, err, streak)
	if streak >= int64(s.cfg.DiskErrorThreshold) && s.degraded.CompareAndSwap(false, true) {
		s.diskProbeAt.Store(time.Now().Add(s.cfg.DiskRetryInterval).UnixNano())
		s.cfg.Logf("spbd: disk tier degraded after %d consecutive errors; memory-only until a probe succeeds", streak)
	}
}

// diskHealthy accounts one successful disk-tier operation: the error streak
// resets and a degraded tier rejoins service.
func (s *Server) diskHealthy() {
	s.diskErrStreak.Store(0)
	if s.degraded.CompareAndSwap(true, false) {
		s.cfg.Logf("spbd: disk tier recovered; leaving memory-only mode")
	}
}
