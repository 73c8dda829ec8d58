// Multi-backend sweep pool: shards a sweep's simulation points across
// several spbd daemons, one batch stream per dispatch chunk, with
// straggler hedging and failover.
//
// Sharding is rendezvous (highest-random-weight) hashing of each point's
// canonical content address (server.Key) against the backend base URLs:
// every client computes the same spec→backend mapping without coordination,
// the mapping is stable across sweep re-runs — maximizing each backend's
// disk-cache hit rate — and removing a backend only remaps the points that
// backend owned. Stragglers are hedged: a point that has been outstanding
// longer than an adaptive delay (a multiple of the observed p95 completion
// latency) is re-dispatched to the next backend in its rendezvous order,
// first result wins, and the loser's job is cancelled so no point is ever
// simulated twice.
//
// Failure handling is a per-backend circuit breaker (closed → open →
// half-open, see breaker.go) shared across the pool's sweeps: batch streams
// that die without progress accumulate toward a trip, dial failures trip
// immediately, a tripped backend sheds its queued points to the next
// backend in each point's rendezvous order, and a half-open trial — led by
// a readiness probe of GET /healthz?ready=1 — decides whether it rejoins.
// Backends that keep flapping are marked dead and removed from the
// rendezvous; their points re-shard across the survivors.
//
// Membership is no longer fixed at construction: the pool can learn
// backends from the daemons' own gossip view (GET /v1/cluster/members) via
// RefreshMembers/Watch, and a member advertising a newer liveness epoch —
// the daemon restarted — gets its dead circuit replaced with a fresh one,
// re-admitting the backend without rebuilding the pool. Membership only
// ever grows in place (indices are stable); each sweep snapshots the size
// at start, so joins take effect on the next run.
package client

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"spb/internal/cluster"
	"spb/internal/obs"
	"spb/internal/server"
	"spb/internal/sim"
)

// PoolOptions tunes a Pool. The zero value gives sensible defaults.
type PoolOptions struct {
	// MaxInflight bounds how many specs are outstanding on one backend at a
	// time (one dispatch chunk; default 16). It should be at least the
	// backend's worker count or the backend idles between chunks.
	MaxInflight int
	// HedgeMin floors the straggler hedge delay (default 2s): a point is
	// hedged once it has been outstanding max(HedgeMin, hedgeMult × p95).
	// Hedging before any latency samples exist uses exactly this floor.
	HedgeMin time.Duration
	// HedgeTick is how often outstanding points are scanned for stragglers
	// (default 50ms).
	HedgeTick time.Duration
	// BreakerThreshold is how many consecutive no-progress stream failures
	// trip a backend's circuit (default 5). Streams that deliver at least
	// one new terminal result before dying reset the count.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped circuit stays open before a
	// half-open trial (default 500ms).
	BreakerCooldown time.Duration
	// BreakerMaxTrips is how many consecutive trips (no success in between)
	// mark a backend permanently dead for this pool (default 3).
	BreakerMaxTrips int
	// ClientOptions configures the per-backend clients (transport, retry,
	// fault injection). The pool halves the default retry attempts to 2:
	// it has failover of its own and prefers re-sharding over long
	// client-side retry loops.
	ClientOptions Options
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

const (
	// hedgeMult scales the observed p95 completion latency into the hedge
	// delay: three times the tail is a straggler, not variance.
	hedgeMult = 3.0
	// probeTimeout bounds the readiness probe issued before a run's first
	// dispatch to a backend and on every half-open trial; a daemon that
	// cannot answer /healthz in that long is not one to dispatch to.
	probeTimeout = 2 * time.Second
)

func (o PoolOptions) withDefaults() PoolOptions {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 16
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = 2 * time.Second
	}
	if o.HedgeTick <= 0 {
		o.HedgeTick = 50 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 500 * time.Millisecond
	}
	if o.BreakerMaxTrips <= 0 {
		o.BreakerMaxTrips = 3
	}
	if o.ClientOptions.Retry.MaxAttempts == 0 {
		o.ClientOptions.Retry.MaxAttempts = 2
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Pool fans a sweep out over several spbd backends. It implements the same
// GetAllCtx shape as sim.Runner, so the figures harness and the sweep CLIs
// can swap in-process execution for the distributed path without caring
// which they got.
type Pool struct {
	opts PoolOptions

	// Membership state, guarded by mu. The parallel slices only ever grow,
	// and only under the write lock; an index handed out while holding the
	// read lock stays valid forever (re-admission replaces the breaker at
	// the same index, it never reorders).
	mu       sync.RWMutex
	bases    []string
	clients  []*Client
	breakers []*breaker // per-backend circuits, shared across sweeps
	epochs   []uint64   // newest liveness epoch seen per backend (0 = unknown)
	index    map[string]int
}

// NewPool builds a pool over the given backend base URLs (e.g.
// "http://host:7077"; a bare host:port gets http:// prepended).
func NewPool(bases []string, opts PoolOptions) (*Pool, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("client: pool needs at least one backend")
	}
	p := &Pool{opts: opts.withDefaults(), index: make(map[string]int, len(bases))}
	// One trace ID per pool: every job any backend runs for this sweep is
	// grouped under it, so a single grep over the daemons' trace logs
	// reconstructs the whole distributed sweep.
	if p.opts.ClientOptions.TraceID == "" {
		p.opts.ClientOptions.TraceID = obs.NewTraceID()
	}
	for _, b := range bases {
		if b = cluster.NormalizeURL(b); b != "" {
			p.addLocked(b, 0)
		}
	}
	if len(p.bases) == 0 {
		return nil, fmt.Errorf("client: pool needs at least one backend")
	}
	return p, nil
}

// NewClusterPool builds a pool from seed URLs and immediately expands it
// with the backends the seeds gossip about: point it at one live daemon of
// a cluster and it discovers the rest. Discovery failure is not fatal — the
// pool starts with whatever seeds it was given (call Watch to keep trying).
func NewClusterPool(ctx context.Context, seeds []string, opts PoolOptions) (*Pool, error) {
	p, err := NewPool(seeds, opts)
	if err != nil {
		return nil, err
	}
	if err := p.RefreshMembers(ctx); err != nil {
		p.opts.Logf("pool: cluster discovery from seeds failed (continuing with %d seeds): %v",
			len(p.Backends()), err)
	}
	return p, nil
}

// PoolFlags registers the sweep CLIs' -server and -cluster flags on fs;
// subject is the subject of -server's help ("the sweep executes"). The
// returned function, valid once fs is parsed, builds the pool the flags
// select — nil without -server — and, when -cluster found backends beyond the
// seeds, says so on fs's output.
func PoolFlags(fs *flag.FlagSet, subject string) func(ctx context.Context) (*Pool, error) {
	server := fs.String("server", "", "comma-separated spbd base URLs; "+subject+" remotely via the sharded client pool")
	discover := fs.Bool("cluster", false, "expand -server via the daemons' gossip membership: any one live node discovers the fleet")
	return func(ctx context.Context) (*Pool, error) {
		if *server == "" {
			return nil, nil
		}
		seeds := strings.Split(*server, ",")
		if !*discover {
			return NewPool(seeds, PoolOptions{})
		}
		pool, err := NewClusterPool(ctx, seeds, PoolOptions{})
		if err == nil && len(pool.Backends()) > len(seeds) {
			fmt.Fprintf(fs.Output(), "%s: cluster discovery: sweeping across %d backends\n",
				filepath.Base(fs.Name()), len(pool.Backends()))
		}
		return pool, err
	}
}

// addLocked appends one backend (caller holds mu or is the constructor).
func (p *Pool) addLocked(base string, epoch uint64) {
	if _, ok := p.index[base]; ok {
		return
	}
	p.index[base] = len(p.bases)
	p.bases = append(p.bases, base)
	p.clients = append(p.clients, NewWithOptions(base, p.opts.ClientOptions))
	p.breakers = append(p.breakers, newBreaker(
		p.opts.BreakerThreshold, p.opts.BreakerCooldown, p.opts.BreakerMaxTrips))
	p.epochs = append(p.epochs, epoch)
}

func (p *Pool) size() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.bases)
}

func (p *Pool) base(i int) string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.bases[i]
}

func (p *Pool) client(i int) *Client {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.clients[i]
}

func (p *Pool) breaker(i int) *breaker {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.breakers[i]
}

// mergeMembers folds a gossip membership view into the pool: unknown alive
// members join the rendezvous (effective next sweep), and a known member
// advertising a newer liveness epoch than the one on record — the daemon
// restarted since the pool buried it — gets its dead circuit replaced with
// a fresh one, re-admitting the backend without a client restart. Returns
// how many backends were added and how many re-admitted.
func (p *Pool) mergeMembers(ms []cluster.Member) (added, readmitted int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range ms {
		base := cluster.NormalizeURL(m.URL)
		if base == "" || m.State != cluster.StateAlive {
			continue
		}
		i, ok := p.index[base]
		if !ok {
			p.addLocked(base, m.Epoch)
			p.opts.Logf("pool: discovered backend %s (id %s) via cluster gossip", base, m.ID)
			added++
			continue
		}
		if m.Epoch <= p.epochs[i] {
			continue
		}
		p.epochs[i] = m.Epoch
		if p.breakers[i].Dead() {
			p.breakers[i] = newBreaker(
				p.opts.BreakerThreshold, p.opts.BreakerCooldown, p.opts.BreakerMaxTrips)
			p.opts.Logf("pool: backend %s is back with a newer epoch, re-admitting", base)
			readmitted++
		}
	}
	return added, readmitted
}

// RefreshMembers asks the backends for their gossip membership view and
// merges the first answer it gets. Standalone daemons (no cluster attached)
// answer 404 and are skipped.
func (p *Pool) RefreshMembers(ctx context.Context) error {
	n := p.size()
	var lastErr error
	for i := 0; i < n; i++ {
		v, err := p.client(i).Members(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		p.mergeMembers(v.Members)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: no backend answered the membership probe")
	}
	return lastErr
}

// Watch polls the cluster membership every interval until ctx ends,
// merging joins and epoch-based re-admissions as they appear. Blocking —
// run it in a goroutine.
func (p *Pool) Watch(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 2 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := p.RefreshMembers(ctx); err != nil {
				p.opts.Logf("pool: membership refresh failed: %v", err)
			}
		}
	}
}

// isHardErr reports whether err is a hard connection failure — nothing is
// listening (dial refused) — as opposed to a stream that died mid-flight.
func isHardErr(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// Backends returns the normalized backend base URLs.
func (p *Pool) Backends() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]string(nil), p.bases...)
}

// rank returns backend indices in descending rendezvous order for key. The
// first healthy entry owns the point; the next is its hedge/failover.
func (p *Pool) rank(key string) []int { return p.rankN(key, p.size()) }

// rankN ranks the first n backends — the membership snapshot a sweep took
// at start, so a mid-sweep join cannot produce out-of-range indices.
func (p *Pool) rankN(key string, n int) []int {
	idx := make([]int, n)
	scores := make([]uint64, n)
	for i := 0; i < n; i++ {
		idx[i] = i
		scores[i] = cluster.RendezvousScore(key, p.base(i))
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}

// assignment is one backend's claim on a task (primary or hedge).
type assignment struct {
	backend      int
	jobID        string // learned from the ack line; empty until then
	dispatchedAt time.Time
	cancelled    bool // the pool itself cancelled this job (the other side won)
}

// poolTask is one unique simulation point of the sweep.
type poolTask struct {
	key     string
	spec    sim.RunSpec
	indices []int // positions in the caller's spec slice
	rank    []int // rendezvous order over all backends

	assigns []*assignment // one per dispatch (primary, then at most one hedge)
	pending bool          // waiting in some backend's queue
	retries int           // externally-cancelled re-dispatches consumed
	done    bool
	res     sim.Result
}

// poolTaskMaxRetries bounds re-dispatches of a point whose job was
// cancelled out from under the sweep (a draining backend, an operator
// cancel) before the sweep gives up on it.
const poolTaskMaxRetries = 3

// poolRun is the state of one GetAllCtx invocation.
type poolRun struct {
	p      *Pool
	ctx    context.Context
	cancel context.CancelFunc
	opts   PoolOptions

	mu        sync.Mutex
	tasks     []*poolTask
	queues    [][]*poolTask // per-backend pending tasks
	failed    []bool        // per-backend connection health
	remaining int
	err       error
	latencies []time.Duration // completion-latency ring for the p95 estimate
	latNext   int

	kicks  []chan struct{} // per-backend dispatcher wakeups
	doneCh chan struct{}
	wg     sync.WaitGroup
}

const latencyRing = 512

// GetAllCtx runs every spec across the pool's backends and returns results
// in spec order, semantically identical to sim.Runner.GetAllCtx: the first
// simulation error aborts the sweep, cancellation stops it, and duplicate
// specs are simulated once.
func (p *Pool) GetAllCtx(ctx context.Context, specs []sim.RunSpec) ([]sim.Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Snapshot the membership size: backends discovered mid-sweep join the
	// rendezvous on the next GetAllCtx, not this one.
	n := p.size()
	r := &poolRun{
		p: p, ctx: ctx, cancel: cancel, opts: p.opts,
		queues: make([][]*poolTask, n),
		failed: make([]bool, n),
		kicks:  make([]chan struct{}, n),
		doneCh: make(chan struct{}),
	}
	for i := range r.kicks {
		r.kicks[i] = make(chan struct{}, 1)
	}

	// Unique tasks, keyed by content address; duplicates share a task.
	byKey := make(map[string]*poolTask, len(specs))
	for i, spec := range specs {
		spec = spec.Normalized()
		key := server.Key(spec)
		t, ok := byKey[key]
		if !ok {
			t = &poolTask{key: key, spec: spec, rank: p.rankN(key, n)}
			byKey[key] = t
			r.tasks = append(r.tasks, t)
		}
		t.indices = append(t.indices, i)
	}
	r.remaining = len(r.tasks)

	// Initial sharding: every task to its highest-ranked backend whose
	// circuit is not permanently dead (earlier sweeps may have buried some).
	// LPT ordering within each backend queue happens at enqueue time.
	r.mu.Lock()
	for _, t := range r.tasks {
		target := -1
		for _, cand := range t.rank {
			if !p.breaker(cand).Dead() {
				target = cand
				break
			}
		}
		if target < 0 {
			r.mu.Unlock()
			return nil, fmt.Errorf("client: every pool backend is dead")
		}
		r.enqueueLocked(t, target)
	}
	r.mu.Unlock()

	for b := 0; b < n; b++ {
		r.wg.Add(1)
		go r.dispatcher(b)
		r.kick(b)
	}
	r.wg.Add(1)
	go r.hedgeMonitor()

	select {
	case <-r.doneCh:
	case <-ctx.Done():
	}
	cancel()
	r.wg.Wait()

	r.mu.Lock()
	err := r.err
	if err == nil && r.remaining > 0 {
		err = ctx.Err()
		if err == nil {
			err = fmt.Errorf("client: pool finished with %d unresolved points", r.remaining)
		}
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	results := make([]sim.Result, len(specs))
	for _, t := range r.tasks {
		for _, idx := range t.indices {
			results[idx] = t.res
		}
	}
	return results, nil
}

// enqueueLocked appends t to backend b's pending queue in LPT position
// (queues are kept sorted by descending cost so chunks dispatch the longest
// points first).
func (r *poolRun) enqueueLocked(t *poolTask, b int) {
	t.pending = true
	q := r.queues[b]
	cost := t.spec.CostEstimate()
	pos := sort.Search(len(q), func(i int) bool { return q[i].spec.CostEstimate() < cost })
	q = append(q, nil)
	copy(q[pos+1:], q[pos:])
	q[pos] = t
	r.queues[b] = q
}

func (r *poolRun) kick(b int) {
	select {
	case r.kicks[b] <- struct{}{}:
	default:
	}
}

// dispatcher drains backend b's pending queue in chunks of at most
// MaxInflight specs, one batch stream per chunk, serially: the bound on
// outstanding work per backend is the chunk size. Every dispatch passes
// through the backend's circuit breaker: an open circuit waits out its
// cooldown, a half-open trial (and a run's first dispatch) leads with a
// readiness probe, and a dead circuit evacuates the queue for good.
func (r *poolRun) dispatcher(b int) {
	defer r.wg.Done()
	br := r.p.breaker(b)
	probed := false
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-r.kicks[b]:
		}
		for r.hasWork(b) {
			ok, trial, wait := br.Acquire()
			if !ok {
				if wait == 0 { // dead: this backend is done for
					r.shedLoad(b, nil, fmt.Errorf("circuit permanently open"))
					break
				}
				select {
				case <-r.ctx.Done():
					return
				case <-time.After(wait):
				}
				continue
			}
			if trial || !probed {
				if err := r.probe(b); err != nil {
					br.Fail(isHardErr(err))
					r.opts.Logf("pool: backend %s failed its readiness probe (circuit %s): %v",
						r.p.base(b), br.State(), err)
					r.shedLoad(b, nil, err)
					continue
				}
				probed = true
			}
			chunk := r.takeChunk(b)
			if len(chunk) == 0 {
				if trial {
					br.Success() // the probe passed; nothing left to prove it with
				}
				break
			}
			r.runChunk(b, chunk)
			if r.ctx.Err() != nil {
				return
			}
		}
	}
}

func (r *poolRun) hasWork(b int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queues[b]) > 0 && !r.failed[b]
}

// probe checks backend b's readiness. A transport failure or a draining
// daemon is a probe failure; a daemon that is merely out of queue headroom
// is alive and accepted — the batch path waits for queue space server-side.
func (r *poolRun) probe(b int) error {
	ctx, cancel := context.WithTimeout(r.ctx, probeTimeout)
	defer cancel()
	rv, err := r.p.client(b).Ready(ctx)
	if err != nil {
		return err
	}
	if rv.Draining {
		return fmt.Errorf("backend %s is draining", r.p.base(b))
	}
	return nil
}

// takeChunk pops up to MaxInflight not-yet-done tasks from backend b's
// queue and registers an assignment for each.
func (r *poolRun) takeChunk(b int) []*poolTask {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed[b] {
		return nil
	}
	var chunk []*poolTask
	q := r.queues[b]
	for len(q) > 0 && len(chunk) < r.opts.MaxInflight {
		t := q[0]
		q = q[1:]
		if t.done {
			continue
		}
		t.pending = false
		t.assigns = append(t.assigns, &assignment{backend: b, dispatchedAt: time.Now()})
		chunk = append(chunk, t)
	}
	r.queues[b] = q
	return chunk
}

// runChunk streams one batch of tasks to backend b and folds the results
// back into the run, then settles with the circuit breaker: a stream that
// delivered at least one new terminal result counts as a success even if it
// died afterwards (the backend is alive and producing — resume, don't
// punish), while a stream that died without progress counts toward a trip —
// immediately, when nothing was even listening. Unfinished tasks are
// re-queued either way.
func (r *poolRun) runChunk(b int, chunk []*poolTask) {
	specs := make([]sim.RunSpec, len(chunk))
	for i, t := range chunk {
		specs[i] = t.spec
	}
	progressed := false
	err := r.p.client(b).Batch(r.ctx, specs, func(it server.BatchItem) error {
		if it.Index < 0 || it.Index >= len(chunk) {
			return nil
		}
		if r.observe(b, chunk[it.Index], it) {
			progressed = true
		}
		return nil
	})
	br := r.p.breaker(b)
	if r.ctx.Err() != nil {
		// The run is over — usually because this stream delivered its last
		// result, which cancels the run before Batch returns. That is a
		// healthy backend: settle, or a half-open trial stays open forever.
		if progressed {
			br.Success()
		}
		return
	}
	if err == nil && !r.chunkHasUnfinished(b, chunk) {
		br.Success()
		return
	}
	if progressed {
		br.Success()
	} else {
		br.Fail(isHardErr(err))
	}
	if err == nil {
		err = fmt.Errorf("stream ended with unresolved points")
	}
	r.shedLoad(b, chunk, err)
}

// chunkHasUnfinished reports whether any chunk task still needs a home
// after its stream ended.
func (r *poolRun) chunkHasUnfinished(b int, chunk []*poolTask) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range chunk {
		if !t.done && !t.pending && !r.liveElsewhereLocked(t, b) {
			return true
		}
	}
	return false
}

// liveElsewhereLocked reports whether t has a live claim on a healthy
// backend other than b (a hedge still running it).
func (r *poolRun) liveElsewhereLocked(t *poolTask, b int) bool {
	for _, a := range t.assigns {
		if a.backend != b && !a.cancelled && !r.failed[a.backend] {
			return true
		}
	}
	return false
}

// observe folds one batch item for task t (dispatched on backend b) into
// the run state. It reports whether the item newly resolved the task — the
// per-stream progress signal the circuit breaker keys on.
func (r *poolRun) observe(b int, t *poolTask, it server.BatchItem) bool {
	r.mu.Lock()
	var a *assignment
	for _, cand := range t.assigns {
		if cand.backend == b {
			a = cand
		}
	}
	if a == nil { // can't happen: items only arrive on streams we opened
		r.mu.Unlock()
		return false
	}
	if !it.Status.Terminal() {
		a.jobID = it.ID // ack: remember the id so the loser can be cancelled
		// The point may have already been won elsewhere while this ack was
		// in flight; cancel the losing job now that its id is known.
		lose := t.done && !a.cancelled
		if lose {
			a.cancelled = true
		}
		r.mu.Unlock()
		if lose {
			r.cancelJob(a)
		}
		return false
	}
	if t.done {
		r.mu.Unlock()
		return false
	}
	switch it.Status {
	case server.StatusDone:
		res, err := it.DecodeResult()
		if err != nil {
			r.failLocked(err)
			r.mu.Unlock()
			return false
		}
		t.done = true
		t.res = res
		r.remaining--
		r.recordLatencyLocked(time.Since(a.dispatchedAt))
		// Cancel the losing assignment's job, if any: the point must not be
		// simulated twice.
		var losers []*assignment
		for _, other := range t.assigns {
			if other != a && !other.cancelled && other.jobID != "" {
				other.cancelled = true
				losers = append(losers, other)
			}
		}
		done := r.remaining == 0
		r.mu.Unlock()
		for _, l := range losers {
			r.cancelJob(l)
		}
		if done {
			close(r.doneCh)
		}
		return true
	case server.StatusCancelled:
		// Our own cancellation of a losing job echoes back on its stream;
		// anything else (a draining backend, an operator) cancelled the job
		// out from under the sweep. Re-dispatch the point a bounded number
		// of times before declaring the sweep failed.
		if !a.cancelled {
			a.cancelled = true
			if t.retries < poolTaskMaxRetries {
				t.retries++
				target := r.requeueTargetLocked(t)
				if target >= 0 {
					r.opts.Logf("pool: %s (key %.12s) cancelled externally on %s, re-dispatching to %s (retry %d)",
						t.spec.Workload, t.key, r.p.base(b), r.p.base(target), t.retries)
					r.enqueueLocked(t, target)
					r.mu.Unlock()
					r.kick(target)
					return false
				}
			}
			r.failLocked(fmt.Errorf("client: %s cancelled externally on %s: %s",
				t.spec.Workload, r.p.base(b), it.Error))
		}
	case server.StatusFailed:
		r.failLocked(it.ErrorOf())
	}
	r.mu.Unlock()
	return false
}

// cancelJob asks an assignment's backend to stop its job, detached from the
// run's (possibly already finished) context.
func (r *poolRun) cancelJob(a *assignment) {
	go func() {
		cctx, cc := context.WithTimeout(context.Background(), 5*time.Second)
		defer cc()
		_, _ = r.p.client(a.backend).Cancel(cctx, a.jobID)
	}()
}

// failLocked records the sweep's first fatal error and stops everything.
func (r *poolRun) failLocked(err error) {
	if r.err == nil {
		r.err = err
		r.cancel()
	}
}

// shedLoad evacuates backend b's outstanding work after a failure. The
// failed chunk's assignments on b are written off; when b's circuit has gone
// permanently dead the backend is also marked failed for this run and its
// whole pending queue drains. Every orphaned task is re-homed onto the best
// available backend in its rendezvous order — which may be b itself when the
// circuit is merely open (the point parks until the cooldown's half-open
// trial). With no backend left at all the sweep fails.
func (r *poolRun) shedLoad(b int, chunk []*poolTask, cause error) {
	dead := r.p.breaker(b).Dead()
	r.mu.Lock()
	for _, t := range chunk {
		for _, a := range t.assigns {
			if a.backend == b {
				a.cancelled = true
			}
		}
	}
	orphans := append([]*poolTask(nil), chunk...)
	if dead {
		if !r.failed[b] {
			r.failed[b] = true
			r.opts.Logf("pool: backend %s is dead (circuit tripped %d times), re-sharding: %v",
				r.p.base(b), r.opts.BreakerMaxTrips, cause)
		}
		for _, t := range r.queues[b] {
			t.pending = false // drained: no longer queued anywhere
		}
		orphans = append(orphans, r.queues[b]...)
		r.queues[b] = nil
	} else if len(chunk) > 0 {
		r.opts.Logf("pool: shedding %d points from %s (circuit %s): %v",
			len(chunk), r.p.base(b), r.p.breaker(b).State(), cause)
	}
	rekicks := map[int]bool{}
	for _, t := range orphans {
		if t.done || t.pending {
			continue
		}
		if r.liveAssignLocked(t) {
			continue // a hedge is still running it elsewhere
		}
		target := r.requeueTargetLocked(t)
		if target < 0 {
			r.failLocked(fmt.Errorf("client: every pool backend failed (last: %s: %w)", r.p.base(b), cause))
			r.mu.Unlock()
			return
		}
		r.enqueueLocked(t, target)
		rekicks[target] = true
	}
	r.mu.Unlock()
	for cand := range rekicks {
		r.kick(cand)
	}
}

// requeueTargetLocked picks a new home for t: the highest-ranked backend
// that is still in the run and not circuit-dead, preferring one whose
// circuit would admit a dispatch right now over one waiting out a cooldown.
// Returns -1 when no backend is left.
func (r *poolRun) requeueTargetLocked(t *poolTask) int {
	fallback := -1
	for _, cand := range t.rank {
		if r.failed[cand] || r.p.breaker(cand).Dead() {
			continue
		}
		if r.p.breaker(cand).Settled() {
			return cand
		}
		if fallback < 0 {
			fallback = cand
		}
	}
	return fallback
}

// liveAssignLocked reports whether t still has an assignment on a healthy
// backend.
func (r *poolRun) liveAssignLocked(t *poolTask) bool {
	for _, a := range t.assigns {
		if !r.failed[a.backend] && !a.cancelled {
			return true
		}
	}
	return false
}

func (r *poolRun) recordLatencyLocked(d time.Duration) {
	if len(r.latencies) < latencyRing {
		r.latencies = append(r.latencies, d)
		return
	}
	r.latencies[r.latNext] = d
	r.latNext = (r.latNext + 1) % latencyRing
}

// hedgeDelay is the adaptive straggler threshold: hedgeMult × the p95 of
// recent completion latencies, floored at HedgeMin.
func (r *poolRun) hedgeDelay() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.latencies) == 0 {
		return r.opts.HedgeMin
	}
	lat := append([]time.Duration(nil), r.latencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p95 := obs.PercentileDuration(lat, 0.95)
	d := time.Duration(hedgeMult * float64(p95))
	if d < r.opts.HedgeMin {
		d = r.opts.HedgeMin
	}
	return d
}

// hedgeMonitor periodically re-dispatches stragglers: a point outstanding
// on its primary backend longer than the adaptive delay is queued on the
// next healthy backend in its rendezvous order. One hedge per point; first
// result wins.
func (r *poolRun) hedgeMonitor() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.opts.HedgeTick)
	defer ticker.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-ticker.C:
		}
		delay := r.hedgeDelay()
		now := time.Now()
		rekicks := map[int]bool{}
		r.mu.Lock()
		for _, t := range r.tasks {
			if t.done || t.pending {
				continue
			}
			// Hedge when exactly one live claim exists and it has aged past
			// the delay. (A hedge whose backend later failed leaves the task
			// with one live claim again, making it eligible once more.)
			var live *assignment
			claimed := map[int]bool{}
			lives := 0
			for _, a := range t.assigns {
				if !a.cancelled && !r.failed[a.backend] {
					live = a
					lives++
					claimed[a.backend] = true
				}
			}
			if lives != 1 || now.Sub(live.dispatchedAt) < delay {
				continue
			}
			for _, cand := range t.rank {
				if !claimed[cand] && !r.failed[cand] && !r.p.breaker(cand).Dead() {
					r.opts.Logf("pool: hedging %s (key %.12s) from %s to %s after %v",
						t.spec.Workload, t.key, r.p.base(live.backend), r.p.base(cand), now.Sub(live.dispatchedAt))
					r.enqueueLocked(t, cand)
					rekicks[cand] = true
					break
				}
			}
		}
		r.mu.Unlock()
		for cand := range rekicks {
			r.kick(cand)
		}
	}
}
