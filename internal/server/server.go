package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spb/internal/durable"
	"spb/internal/faults"
	"spb/internal/obs"
	"spb/internal/sim"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of simulations executed concurrently
	// (default: GOMAXPROCS).
	Workers int
	// CacheDir roots the on-disk result store; empty disables the disk tier.
	CacheDir string
	// RunTimeout caps a single simulation's execution; 0 means no cap.
	RunTimeout time.Duration
	// SSEInterval is the progress-event period on /events streams
	// (default: 250ms).
	SSEInterval time.Duration
	// Tracer, when set, records a per-phase span timeline for every job,
	// retrievable at GET /v1/runs/{id}/trace. Nil disables tracing at zero
	// cost (every per-job trace handle is nil and all span calls no-op).
	Tracer *obs.Tracer
	// Faults, when set, injects failures at the server's sites ("submit",
	// "run", "store.read", "store.write", "batch.stream"). Nil disables
	// injection at zero cost.
	Faults *faults.Injector
	// JournalPath is the durable job journal (journal.go): a directory
	// holding one checksummed file per accepted job that has not ended, read
	// on startup, so queued and running jobs survive a crash (kill -9
	// included) under their original IDs. Empty disables.
	JournalPath string
	// Tenants declares the API keys that may submit work (tenant.go). Empty
	// means single-tenant: no key required, everything runs as the implicit
	// "default" tenant.
	Tenants []TenantConfig
	// Logf receives operational log lines (default: log.Printf).
	Logf func(format string, args ...any)

	// The constants below; fields so the package's tests can shorten them.
	queueDepth         int
	sseHeartbeat       time.Duration
	diskErrorThreshold int
	diskRetryInterval  time.Duration
}

const (
	// queueDepth bounds the FIFO of jobs waiting for a worker; submissions
	// beyond it are rejected with 429 + Retry-After.
	queueDepth = 64
	// sseHeartbeat is the period of comment-line heartbeats on /events
	// streams, keeping idle connections alive through proxies that close
	// them after 30–60 s of silence.
	sseHeartbeat = 15 * time.Second
	// diskErrorThreshold consecutive disk-tier I/O errors put the store into
	// degraded memory-only mode: one error is a blip, five in a row a disk.
	diskErrorThreshold = 5
	// diskRetryInterval is how often a degraded disk tier is re-probed with
	// one real operation; a success leaves degraded mode.
	diskRetryInterval = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SSEInterval <= 0 {
		c.SSEInterval = 250 * time.Millisecond
	}
	c.queueDepth = cmp.Or(c.queueDepth, queueDepth)
	c.sseHeartbeat = cmp.Or(c.sseHeartbeat, sseHeartbeat)
	c.diskErrorThreshold = cmp.Or(c.diskErrorThreshold, diskErrorThreshold)
	c.diskRetryInterval = cmp.Or(c.diskRetryInterval, diskRetryInterval)
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

// Terminal reports whether the status is final (done, failed or cancelled).
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// job is one simulation request with an id of its own: admitted to the
// queue, or born already answered from a tier.
type job struct {
	id        string
	key       string
	spec      sim.RunSpec
	submitted time.Time
	trace     *obs.Trace   // nil when tracing is disabled; all methods no-op
	tenant    *tenantState // the implicit default tenant on single-tenant daemons

	// What the job's ending owes (Server.end). admitted: the job went through
	// admit, so its ending counts in one of the spbd_runs_* counters and in
	// its tenant's completions. journaled: the job has a file in the journal
	// (or submit is about to write one), which its ending removes. Both are
	// set before the job is published to workers. recovered marks a job
	// brought back from the journal after a restart (surfaced in the view).
	admitted  bool
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

	done chan struct{} // closed when terminal, after everything end owes is paid

	mu     sync.Mutex
	status Status
	stats  json.RawMessage
	errMsg string
	cached string // "", "memory" or "disk"
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

// maxTerminalJobs is how many ended jobs stay resolvable by id (oldest-ended
// evicted first; a live job is never evicted). An ended job keeps its stats
// JSON and trace — about 1.8 KB — so the table tops out near 30 MB; an evicted
// id answers 404 like an unknown one.
const maxTerminalJobs = 16384

// Server is the spbd daemon: HTTP API, FIFO queue, worker pool and the
// result tiers.
type Server struct {
	cfg     Config
	tiers   *tiers
	journal *journal // nil when the job journal is disabled
	metrics *Metrics
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	mu          sync.Mutex
	jobs        map[string]*job // every live job and the last maxTerminal ended ones, by id
	ended       []string        // ids of the ended jobs in jobs, oldest first
	maxTerminal int             // maxTerminalJobs; a field so a test can shrink it
	active      map[string]*job // queued or running jobs, by spec key
	queue       chan *job       // admitted jobs waiting for a worker, queueDepth of them at most; sent to and closed under mu
	inflight    atomic.Int64
	draining    bool
	nextID      atomic.Uint64

	// Tenants (tenant.go): tenants maps API key → state,
	// defaultTenant serves keyless single-tenant traffic, tenantList is
	// the stable metrics/render order.
	tenants       map[string]*tenantState
	defaultTenant *tenantState
	tenantList    []*tenantState

	workers sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		metrics:     NewMetrics(),
		jobs:        make(map[string]*job),
		maxTerminal: maxTerminalJobs,
		active:      make(map[string]*job),
		queue:       make(chan *job, cfg.queueDepth),
	}
	s.tiers = &tiers{
		runner: sim.NewRunner(), metrics: s.metrics, logf: cfg.Logf,
		errThreshold: cfg.diskErrorThreshold, retryEvery: cfg.diskRetryInterval,
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
		store.Sync = true
		store.OnCorrupt = func(key string, cause error) {
			s.metrics.StoreCorrupt.Add(1)
			s.cfg.Logf("spbd: disk cache entry %.12s quarantined: %v (will recompute)", key, cause)
		}
		s.tiers.store = store
		s.sweepTemps(cfg.CacheDir)
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.routes()
	// The journal is read before the worker pool starts: re-admitted jobs
	// are back in the queue (and in s.jobs under their original IDs) before
	// anything can race them.
	if cfg.JournalPath != "" {
		jl, live, err := openJournal(cfg.JournalPath, func(err error) {
			s.metrics.JournalErrors.Add(1)
			s.cfg.Logf("spbd: journal write failed: %v (job continues, less durable)", err)
		})
		if err != nil {
			return nil, err
		}
		s.sweepTemps(cfg.JournalPath)
		s.journal = jl
		s.recoverJournal(live)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// sweepTemps removes orphaned atomic-write temp files under dir — debris a
// writer killed mid-write left behind.
func (s *Server) sweepTemps(dir string) {
	if n := durable.SweepTemps(dir); n > 0 {
		s.metrics.OrphanTempsSwept.Add(uint64(n))
		s.cfg.Logf("spbd: swept %d orphaned temp file(s) under %s", n, dir)
	}
}

// Runner exposes the in-memory tier (tests assert on its run count).
func (s *Server) Runner() *sim.Runner { return s.tiers.runner }

// Metrics exposes the metrics registry (tests and the /metrics handler).
func (s *Server) Metrics() *Metrics { return s.metrics }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// What admit answers when it does not queue the job; the handlers map the
// first two to HTTP statuses.
var (
	errQueueFull = errors.New("server: queue full")
	errDraining  = errors.New("server: draining, not accepting jobs")
	errCoalesced = errors.New("server: an identical job is already active")
)

// submit answers a spec with a job: the active job for its key (coalesced),
// one born already done from the first tier that holds the result (memory,
// then disk), or a fresh one on the queue — never both a job and an error.
// traceID, usually propagated from the client's X-Spb-Trace-Id header,
// groups the job's trace with the caller's; empty mints a fresh ID (when
// tracing is enabled). tn is the submitting tenant (nil means the implicit
// default tenant).
func (s *Server) submit(spec sim.RunSpec, traceID string, tn *tenantState) (*job, error) {
	start := time.Now()
	if err := s.cfg.Faults.Err("submit"); err != nil {
		return nil, err
	}
	if tn == nil {
		tn = s.defaultTenant
	}
	spec = spec.Normalized()
	key := Key(spec)

	// Coalesce before walking the tiers: a key queued or running here has
	// missed them already, and batch dispatch retry loops re-enter submit
	// every poll — each duplicate would otherwise pay a disk read to
	// re-discover that.
	s.mu.Lock()
	dup := s.active[key]
	s.mu.Unlock()
	if dup != nil {
		return s.coalesce(dup), nil
	}
	if res, tier, ok := s.tiers.lookup(spec, key); ok {
		s.metrics.cacheHit(tier)
		return s.bornEnded(s.newJob("", key, spec, nil, traceID, start), StatusDone, res, tier, ""), nil
	}
	j := s.newJob("", key, spec, tn, traceID, start)
	if dup, err := s.admit(j); err != nil {
		j.cancel(err)
		j.trace.Finish() // refused: close out the orphan trace
		if dup != nil {
			return s.coalesce(dup), nil
		}
		return nil, err
	}
	s.accepted(j)
	s.metrics.CacheMisses.Add(1)
	return j, nil
}

// accepted makes a journaled job's admission durable: its file (fsynced
// unless disabled) is on disk before the submitter is answered, so a
// post-202 crash cannot forget the job. A worker may end the job first: the
// write and end's removal are ordered under the job's lock, and a job that
// has ended gets no file.
func (s *Server) accepted(j *job) {
	if !j.journaled {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.status.Terminal() {
		s.journal.write(journalEntry{ID: j.id, Tenant: j.tenant.Name, TraceID: j.trace.TraceID(), Spec: Request(j.spec)})
	}
}

// coalesce folds one more submitter onto the active job j: it rides j's
// trace, and the marker records that a second request folded in (and when).
func (s *Server) coalesce(j *job) *job {
	s.metrics.RunsCoalesced.Add(1)
	j.trace.Event("coalesce")
	return j
}

// newJob constructs a job and starts its trace. An empty id mints the next
// sequential one and stamps the "submit" span from start; a given id is a
// job coming back from the journal under its pre-crash ID — so clients
// polling that ID keep working across the restart — whose journal file is
// already there. A nil tenant means the implicit default.
func (s *Server) newJob(id, key string, spec sim.RunSpec, tn *tenantState, traceID string, start time.Time) *job {
	if tn == nil {
		tn = s.defaultTenant
	}
	j := &job{
		id:          id,
		key:         key,
		spec:        spec,
		submitted:   time.Now(),
		journaled:   id != "",
		recovered:   id != "",
		targetInsts: spec.Insts * uint64(spec.Cores),
		done:        make(chan struct{}),
		status:      StatusQueued,
		tenant:      tn,
	}
	if id == "" {
		j.id = fmt.Sprintf("r%06d-%.8s", s.nextID.Add(1), key)
	}
	j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
	j.trace = s.cfg.Tracer.Start(traceID, j.id, key)
	if j.recovered {
		j.trace.Event("recovered")
	} else {
		j.trace.Span("submit", start, j.submitted)
	}
	return j
}

// admit puts j at the back of the queue and registers it by id and key. It
// refuses with errCoalesced (returning the active job for j's key),
// errDraining or errQueueFull, and a refused job is as it was before the
// call.
func (s *Server) admit(j *job) (dup *job, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if dup = s.active[j.key]; dup != nil {
		return dup, errCoalesced
	}
	if s.draining {
		return nil, errDraining
	}
	// The send makes the job visible to workers, and one may end it as soon
	// as admit lets go of mu: what its ending reads is set first.
	j.admitted, j.journaled = true, s.journal != nil
	select {
	case s.queue <- j:
	default:
		j.admitted, j.journaled = false, j.recovered
		s.metrics.QueueRejected.Add(1)
		return nil, errQueueFull
	}
	s.jobs[j.id], s.active[j.key] = j, j
	j.tenant.submitted.Add(1)
	return nil, nil
}

// bornEnded makes j a job that is over before anyone saw it live: a hit in
// tier (the response shape and GET /v1/runs/{id} stay uniform across hits
// and misses), or a recovery that cannot run again.
func (s *Server) bornEnded(j *job, st Status, res sim.Result, tier, msg string) *job {
	j.cached = tier
	if tier != "" {
		j.trace.Event("cache-hit") // which tier is in the job view's "cached" field
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.end(j, st, res, msg)
	j.retain() // uniform with queued jobs: the submitter pins it
	return j
}

// resultCommitted returns the detail-simulated instruction count a terminal
// job reports. For sampled runs the measured aggregate alone under-reports
// the detailed work — each window's unmeasured detailed warming commits
// instructions too — so the job view carries the full detailed count, and
// committed + ff_insts covers the spec's whole horizon (the cost-accounting
// invariant dashboard sums rely on).
func resultCommitted(res *sim.Result) uint64 {
	if res.Sample.Intervals > 0 {
		return res.Sample.DetailedInsts
	}
	return res.CPU.Committed
}

// end is the one terminal transition. Exactly once per job — later calls
// are no-ops returning false (a cancel handler and the worker can race here)
// — it records the outcome and pays everything the ending owes: for an
// admitted job the one spbd_runs_* counter of its status (with the Top-Down
// fold of a completed run) and its tenant's completion; for a journaled job
// the removal of its journal file; the key's active entry, and the oldest
// ended job's place in the table once maxTerminal others have ended since;
// the job's context (so baseCtx drops the child); then done closes — whoever
// waits on it finds all of that settled — and, off the waiters' latency, a
// result this daemon simulated is written back to the tiers, the trace
// finishing after its "store-write" span.
func (s *Server) end(j *job, st Status, res sim.Result, msg string) bool {
	var stats json.RawMessage
	if st == StatusDone {
		var err error
		if stats, err = res.StatsJSON(); err != nil {
			st, res, msg = StatusFailed, sim.Result{}, err.Error()
		}
	}
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.status, j.stats, j.errMsg = st, stats, msg
	if st == StatusDone {
		j.committed.Store(resultCommitted(&res))
		j.cycles.Store(res.CPU.Cycles)
		j.ffInsts.Store(res.Sample.FastForwardInsts)
	}
	if j.admitted {
		s.metrics.runEnded(st, &res.CPU)
		j.tenant.completed.Add(1)
	}
	if j.journaled {
		s.journal.remove(j.id)
	}
	s.mu.Lock()
	if s.active[j.key] == j {
		delete(s.active, j.key)
	}
	if s.ended = append(s.ended, j.id); len(s.ended) > s.maxTerminal {
		delete(s.jobs, s.ended[0])
		s.ended = s.ended[1:]
	}
	s.mu.Unlock()
	// The trace finishes once its last span is on it: here, unless the disk
	// write below still owes it "store-write".
	learned := st == StatusDone && j.cached == ""
	if !learned || s.tiers.store == nil {
		j.trace.Finish()
	}
	j.cancel(nil)
	close(j.done)
	j.mu.Unlock()

	if learned {
		s.tiers.put(j.spec, j.key, res, j.trace)
		j.trace.Finish()
	}
	return true
}

// cancelled ends j as cancelled for the most specific reason its context
// knows.
func (s *Server) cancelled(j *job, ctx context.Context) {
	msg := "cancelled"
	if cause := context.Cause(ctx); cause != nil {
		msg = cause.Error()
	}
	s.end(j, StatusCancelled, sim.Result{}, msg)
}

// recoverJournal re-admits the journal's live jobs, in sequence-number
// order, after a restart. Runs single-threaded from New, before the worker
// pool exists. The ID counter advances to the last recovered sequence number
// first so fresh jobs can never collide with a recovered ID.
func (s *Server) recoverJournal(live []journalEntry) {
	if len(live) == 0 {
		return
	}
	s.nextID.Store(jobSeq(live[len(live)-1].ID))
	for _, e := range live {
		s.readmit(e)
	}
	s.cfg.Logf("spbd: journal recovery: %d live job(s) found; requeued %d, completed from disk %d, dropped %d",
		len(live), s.metrics.RecoveryRequeued.Load(), s.metrics.RecoveryCompleted.Load(), s.metrics.RecoveryDropped.Load())
}

// readmit re-creates one journaled job under its original ID. Three
// outcomes: answered from a local tier (the previous process finished it
// and died before its file was removed), requeued to run again from the
// start, or dropped — born failed when its file failed its check or its spec
// no longer validates, born cancelled when it cannot be admitted — and the
// ID still resolves in every case, so a client polling across the restart
// always learns its job's fate, and the ending's removal of the file stops
// the next restart from re-admitting it.
func (s *Server) readmit(e journalEntry) {
	drop := func(j *job, st Status, msg string) {
		s.bornEnded(j, st, sim.Result{}, "", msg)
		s.metrics.RecoveryDropped.Add(1)
		s.cfg.Logf("spbd: journal recovery: dropping %s: %s", e.ID, msg)
	}
	spec, err := e.Spec.Spec()
	if err != nil && e.err == nil {
		// Journaled after validation, so the binary changed under the
		// journal (a release that validates more than the one that accepted
		// the job): nothing to run.
		e.err = fmt.Errorf("spec no longer valid: %w", err)
	}
	if e.err != nil {
		drop(s.newJob(e.ID, "", sim.RunSpec{}, nil, e.TraceID, time.Time{}), StatusFailed, "recovery: "+e.err.Error())
		return
	}
	spec = spec.Normalized()
	key := Key(spec)
	tn := s.tenantByName(e.Tenant)
	j := s.newJob(e.ID, key, spec, tn, e.TraceID, time.Time{})
	if res, tier, ok := s.tiers.lookup(spec, key); ok {
		s.bornEnded(j, StatusDone, res, tier, "")
		s.metrics.RecoveryCompleted.Add(1)
		return
	}
	switch dup, err := s.admit(j); {
	case err == nil:
		j.retain() // the pre-crash submitter's pin survives the restart
		s.metrics.RecoveryRequeued.Add(1)
	case dup != nil:
		drop(j, StatusCancelled, fmt.Sprintf("recovery: duplicate of recovered job %s", dup.id))
	default:
		drop(j, StatusCancelled, "recovery: "+err.Error())
	}
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

// worker takes jobs off the queue in admission order until Drain closes it
// and it runs dry.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		now := time.Now()
		j.trace.Span("queue-wait", j.submitted, now)
		s.metrics.QueueWait.Observe(now.Sub(j.submitted))
		s.run(j)
	}
}

// run simulates j and ends it. It owns the in-flight gauge, the "run" fault
// site, the run timeout, progress, the "run" span and histogram; the ending
// it calls owns the rest, write-back included.
func (s *Server) run(j *job) {
	if j.ctx.Err() != nil { // cancelled while queued
		s.cancelled(j, j.ctx)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	j.setRunning()
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
	start := time.Now()
	res, err := s.tiers.runner.GetCtx(obs.NewContext(ctx, j.trace), j.spec, func(p sim.Progress) {
		j.committed.Store(p.Committed)
		j.cycles.Store(p.Cycles)
		j.ffInsts.Store(p.FastForwardInsts)
		s.metrics.ProgressSnapshot.Add(1)
	})
	end := time.Now()
	j.trace.Span("run", start, end)
	s.metrics.RunDuration.Observe(end.Sub(start))
	switch {
	case err == nil:
		s.end(j, StatusDone, res, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.cancelled(j, ctx)
	default:
		s.end(j, StatusFailed, sim.Result{}, err.Error())
	}
}

// cancelJob cancels a job's context and, if the job is still queued, ends it
// immediately (so it doesn't report a live status until a worker gets around
// to it).
func (s *Server) cancelJob(j *job, cause error) {
	j.cancel(cause)
	j.mu.Lock()
	queued := j.status == StatusQueued
	j.mu.Unlock()
	if queued {
		j.trace.Event("cancel")
		s.cancelled(j, j.ctx)
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
		close(s.queue) // admit checks draining under mu first: no send follows
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel(fmt.Errorf("drain deadline exceeded: %w", context.Cause(ctx)))
		<-idle // cancellation propagates within a few thousand sim cycles
	}
	return err
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
func (s *Server) QueueDepth() int { return len(s.queue) }

// Inflight reports simulations currently executing (metrics gauge).
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Degraded reports whether the disk tier is in memory-only mode after
// repeated I/O errors (readiness + metrics gauge).
func (s *Server) Degraded() bool { return s.tiers.degraded.Load() }
