// Multi-backend sweep pool: shards a sweep's simulation points across
// several spbd daemons, one batch stream per dispatch chunk, with
// straggler hedging and failover.
//
// Each decision is one function. place chooses a point's backend: the
// first in the point's rendezvous order (rendezvousScore of its content
// address, server.Key — every client computes the same mapping
// without coordination, it is stable across sweeps so each backend's caches
// stay warm, and removing a backend remaps only its share) that is not dead
// and holds no live claim on the point, preferring one whose circuit admits
// a dispatch now. It serves the initial shard, a failed chunk's points, a
// point cancelled on its daemon by someone other than the pool, and a
// straggler — a point whose one live claim is older than
// max(hedgeMin, hedgeMult × p95 of recent completions); the first result
// wins and the loser's job is cancelled, so no point is simulated twice.
// live lists a point's claims still running. A backend's health is its
// circuit breaker (breaker.go) and nothing else, and every dispatch a
// circuit grants gets one verdict, in dispatcher: success, failure, or
// abandoned when the sweep ended first.
//
// The backends are the ones the pool was built with: a fleet is a static
// list of daemons, and a backend whose circuit is dead stays dead for the
// pool's life.
package client

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"spb/internal/obs"
	"spb/internal/server"
	"spb/internal/sim"
)

const (
	// poolMaxInflight is one dispatch chunk: the specs outstanding on one
	// backend at a time. It should be at least a backend's worker count, or
	// the backend idles between chunks.
	poolMaxInflight = 16
	// poolHedgeMin floors the straggler delay, and is the delay until a
	// completion has been timed: below it a hedge mostly duplicates points
	// that were about to finish.
	poolHedgeMin = 2 * time.Second
	// poolHedgeTick is how often outstanding points are scanned for
	// stragglers.
	poolHedgeTick = 50 * time.Millisecond
	// hedgeMult scales the observed p95 completion latency into the hedge
	// delay: three times the tail is a straggler, not variance.
	hedgeMult = 3.0
	// poolBreakerThreshold consecutive streams that die without resolving a
	// point trip a circuit. A stream that resolved one resets the count, so
	// a long sweep cannot trip a live backend by being cut repeatedly.
	poolBreakerThreshold = 5
	// poolBreakerCooldown is how long a tripped circuit stays open before a
	// half-open trial, which costs one readiness probe: trying again soon is
	// cheap.
	poolBreakerCooldown = 500 * time.Millisecond
	// poolBreakerMaxTrips consecutive trips without a success bury a
	// backend: its points re-shard to the survivors instead of timing out
	// against it forever.
	poolBreakerMaxTrips = 3
	// poolRetryAttempts halves the client's default tries: the pool has
	// failover of its own and prefers re-sharding to long retry loops.
	poolRetryAttempts = 2
	// probeTimeout bounds the readiness probe issued before a run's first
	// dispatch to a backend and on every half-open trial; a daemon that
	// cannot answer /healthz in that long is not one to dispatch to.
	probeTimeout = 2 * time.Second
	// poolTaskMaxRetries bounds re-dispatches of a point whose job was
	// cancelled out from under the sweep (a draining backend, an operator
	// cancel) before the sweep gives up on it.
	poolTaskMaxRetries = 3
	// latencyRing is how many recent completions the p95 is taken over.
	latencyRing = 512
)

// Pool fans a sweep out over several spbd backends. It implements the same
// GetAllCtx shape as sim.Runner, so the figures harness and the sweep CLIs
// can swap in-process execution for the distributed path without caring
// which they got.
type Pool struct {
	// The pool* constants; fields so the package's tests can shorten them
	// (newPool).
	maxInflight      int
	hedgeMin         time.Duration
	hedgeTick        time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	breakerMaxTrips  int
	retry            RetryPolicy
	logf             func(format string, args ...any)

	// One trace ID per pool: every job any backend runs for its sweeps is
	// grouped under it, so one grep over the daemons' trace logs
	// reconstructs a whole distributed sweep.
	traceID string

	backends []backend // fixed at construction: an index names one backend for good
}

// backend is one member of the pool.
type backend struct {
	base    string
	client  *Client
	breaker *breaker // shared by every sweep the pool runs
}

// NewPool builds a pool over the given backend base URLs (e.g.
// "http://host:7077"; a bare host:port gets http:// prepended).
func NewPool(bases []string) (*Pool, error) { return newPool(bases, nil) }

// newPool is NewPool with tune applied to the tunables before any backend
// is built.
func newPool(bases []string, tune func(*Pool)) (*Pool, error) {
	p := &Pool{
		maxInflight:      poolMaxInflight,
		hedgeMin:         poolHedgeMin,
		hedgeTick:        poolHedgeTick,
		breakerThreshold: poolBreakerThreshold,
		breakerCooldown:  poolBreakerCooldown,
		breakerMaxTrips:  poolBreakerMaxTrips,
		retry:            RetryPolicy{MaxAttempts: poolRetryAttempts},
		logf:             func(string, ...any) {},
		traceID:          obs.NewTraceID(),
	}
	if tune != nil {
		tune(p)
	}
	for _, b := range bases {
		base := normalizeURL(b)
		if base == "" || slices.ContainsFunc(p.backends, func(k backend) bool { return k.base == base }) {
			continue
		}
		p.backends = append(p.backends, backend{
			base:    base,
			client:  NewWithOptions(base, Options{Retry: p.retry, TraceID: p.traceID}),
			breaker: newBreaker(p.breakerThreshold, p.breakerCooldown, p.breakerMaxTrips),
		})
	}
	if len(p.backends) == 0 {
		return nil, fmt.Errorf("client: pool needs at least one backend")
	}
	return p, nil
}

// normalizeURL canonicalizes a backend base URL: trimmed, http:// when no
// scheme is given, no trailing slash. Placement hashes the result, so two
// spellings of one daemon own the same points.
func normalizeURL(u string) string {
	u = strings.TrimSpace(u)
	if u == "" {
		return u
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimRight(u, "/")
}

// PoolFlags registers the sweep CLIs' -server flag on fs; subject is the
// subject of its help ("the sweep executes"). The returned function, valid
// once fs is parsed, builds the pool the flag selects — nil without -server
// — logging its events (a backend buried, points shed or hedged) to fs's
// output.
func PoolFlags(fs *flag.FlagSet, subject string) func() (*Pool, error) {
	server := fs.String("server", "", "comma-separated spbd base URLs; "+subject+" remotely via the sharded client pool")
	return func() (*Pool, error) {
		if *server == "" {
			return nil, nil
		}
		return newPool(strings.Split(*server, ","), func(p *Pool) {
			p.logf = func(format string, args ...any) {
				fmt.Fprintf(fs.Output(), "%s: %s\n", filepath.Base(fs.Name()), fmt.Sprintf(format, args...))
			}
		})
	}
}

// Backends returns the normalized backend base URLs.
func (p *Pool) Backends() []string {
	var bases []string
	for _, b := range p.backends {
		bases = append(bases, b.base)
	}
	return bases
}

// isHardErr reports whether err is a hard connection failure — nothing is
// listening (dial refused) — as opposed to a stream that died mid-flight.
func isHardErr(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// rank returns the indices of bs in descending rendezvous order for key:
// the order place walks.
func rank(key string, bs []backend) []int {
	idx := make([]int, len(bs))
	scores := make([]uint64, len(bs))
	for i, b := range bs {
		idx[i] = i
		scores[i] = rendezvousScore(key, b.base)
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}

// rendezvousScore is the rendezvous (highest-random-weight) weight of
// (key, backend), fnv64a(backend, 0, key): the backend with the highest
// score owns the key.
func rendezvousScore(key, backend string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, backend)
	h.Write([]byte{0})
	io.WriteString(h, key)
	return h.Sum64()
}

// assignment is one backend's claim on a task (primary or hedge). A claim
// is live until it is over: its stream ended, or the pool cancelled its job
// because another claim won.
type assignment struct {
	t            *poolTask
	backend      int
	jobID        string // learned from the ack line; empty until then
	dispatchedAt time.Time
	over         bool
}

// poolTask is one unique simulation point of the sweep.
type poolTask struct {
	key     string
	spec    sim.RunSpec
	indices []int // positions in the caller's spec slice
	rank    []int // rendezvous order over the sweep's backends

	assigns []*assignment // one per dispatch
	pending bool          // waiting in some backend's queue
	retries int           // externally-cancelled re-dispatches consumed
	done    bool
	res     sim.Result
}

// live returns t's live claims.
func (t *poolTask) live() []*assignment {
	var claims []*assignment
	for _, a := range t.assigns {
		if !a.over {
			claims = append(claims, a)
		}
	}
	return claims
}

// homeless reports whether t needs place: unresolved, queued nowhere and
// carried by no live claim.
func (t *poolTask) homeless() bool { return !t.done && !t.pending && len(t.live()) == 0 }

// poolRun is the state of one GetAllCtx invocation.
type poolRun struct {
	p      *Pool
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	tasks     []*poolTask
	queues    [][]*poolTask // per-backend pending tasks, longest first
	remaining int
	err       error
	latencies []time.Duration // completion-latency ring for the p95 estimate
	latNext   int

	kicks  []chan struct{} // per-backend dispatcher wakeups
	doneCh chan struct{}
	wg     sync.WaitGroup
}

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
	bs := p.backends
	r := &poolRun{
		p: p, ctx: ctx, cancel: cancel,
		queues: make([][]*poolTask, len(bs)),
		kicks:  make([]chan struct{}, len(bs)),
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
			t = &poolTask{key: key, spec: spec, rank: rank(key, bs)}
			byKey[key] = t
			r.tasks = append(r.tasks, t)
		}
		t.indices = append(t.indices, i)
	}
	r.remaining = len(r.tasks)
	for _, t := range r.tasks { // no dispatcher runs yet: r.mu is not needed
		b := r.place(t)
		if b < 0 {
			return nil, fmt.Errorf("client: every pool backend is dead")
		}
		r.enqueue(t, b)
	}

	for b := range bs {
		r.wg.Add(1)
		go r.dispatcher(b)
	}
	r.wg.Add(1)
	go r.hedgeMonitor()
	select {
	case <-r.doneCh:
	case <-ctx.Done():
	}
	cancel()
	r.wg.Wait()

	// Every goroutine that writes r.err or r.remaining has returned.
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining > 0 {
		return nil, ctx.Err()
	}
	results := make([]sim.Result, len(specs))
	for _, t := range r.tasks {
		for _, idx := range t.indices {
			results[idx] = t.res
		}
	}
	return results, nil
}

// place is the one rule that chooses a backend for t: the first in its
// rendezvous order that is not dead and holds no live claim on it,
// preferring one whose circuit admits a dispatch now to one waiting out a
// cooldown, so a tripped backend sheds load instead of queueing it. Returns
// -1 when no backend qualifies. Caller holds r.mu.
func (r *poolRun) place(t *poolTask) int {
	claims := t.live()
	fallback := -1
	for _, b := range t.rank {
		br := r.p.backends[b].breaker
		if br.Dead() || slices.ContainsFunc(claims, func(a *assignment) bool { return a.backend == b }) {
			continue
		}
		if br.Settled() {
			return b
		}
		if fallback < 0 {
			fallback = b
		}
	}
	return fallback
}

// enqueue puts t in backend b's queue in LPT position — queues are sorted
// by descending cost so chunks dispatch the longest points first — and
// wakes b's dispatcher. Caller holds r.mu.
func (r *poolRun) enqueue(t *poolTask, b int) {
	t.pending = true
	q := r.queues[b]
	cost := t.spec.CostEstimate()
	pos := sort.Search(len(q), func(i int) bool { return q[i].spec.CostEstimate() < cost })
	r.queues[b] = slices.Insert(q, pos, t)
	select {
	case r.kicks[b] <- struct{}{}:
	default:
	}
}

// dispatcher drains backend b's queue in chunks of at most maxInflight
// specs, one batch stream per chunk, serially: the bound on outstanding
// work per backend is the chunk size. Every dispatch passes through b's
// circuit — an open one waits out its cooldown, a dead one sheds the queue
// — and every dispatch it grants gets its verdict here, the pool's only
// verdict site.
func (r *poolRun) dispatcher(b int) {
	defer r.wg.Done()
	br := r.p.backends[b].breaker
	probed := false
	for {
		for r.hasWork(b) {
			ok, trial, wait := br.Acquire()
			if !ok && wait == 0 {
				r.shed(b, nil, errors.New("circuit permanently open"))
				break
			}
			if !ok {
				select {
				case <-r.ctx.Done():
					return
				case <-time.After(wait):
				}
				continue
			}
			// A half-open trial, and a run's first dispatch, lead with a
			// readiness probe.
			var orphans []*poolTask
			var progressed bool
			var err error
			if trial || !probed {
				err = r.probe(b)
				probed = err == nil
			}
			if err == nil {
				orphans, progressed, err = r.runChunk(b)
			}
			switch {
			case r.ctx.Err() != nil && !progressed:
				br.Abandon() // the sweep ended first: no evidence either way
			case err == nil || progressed:
				// A stream that resolved a point before dying is a live
				// backend producing: resume elsewhere, don't punish.
				br.Success()
			default:
				br.Fail(isHardErr(err))
			}
			if r.ctx.Err() != nil {
				return
			}
			if err != nil {
				r.shed(b, orphans, err)
			}
		}
		select {
		case <-r.ctx.Done():
			return
		case <-r.kicks[b]:
		}
	}
}

func (r *poolRun) hasWork(b int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queues[b]) > 0
}

// probe checks backend b's readiness. A transport failure or a draining
// daemon is a probe failure; a daemon that is merely out of queue headroom
// is alive and accepted — the batch path waits for queue space server-side.
func (r *poolRun) probe(b int) error {
	ctx, cancel := context.WithTimeout(r.ctx, probeTimeout)
	defer cancel()
	rv, err := r.p.backends[b].client.Ready(ctx)
	if err == nil && rv.Draining {
		err = fmt.Errorf("backend %s is draining", r.p.backends[b].base)
	}
	return err
}

// runChunk claims up to maxInflight of backend b's queued tasks, streams
// them as one batch and folds the items into the run. When the stream ends,
// so do its claims; it returns the tasks that left homeless, whether the
// stream resolved any task, and what ended it — a clean end that left a
// task homeless is an error too.
func (r *poolRun) runChunk(b int) (orphans []*poolTask, progressed bool, err error) {
	r.mu.Lock()
	var chunk []*assignment
	var specs []sim.RunSpec
	q := r.queues[b]
	for ; len(q) > 0 && len(chunk) < r.p.maxInflight; q = q[1:] {
		if t := q[0]; !t.done {
			t.pending = false
			a := &assignment{t: t, backend: b, dispatchedAt: time.Now()}
			t.assigns = append(t.assigns, a)
			chunk, specs = append(chunk, a), append(specs, t.spec)
		}
	}
	r.queues[b] = q
	r.mu.Unlock()
	if len(chunk) == 0 {
		return nil, false, nil
	}

	err = r.p.backends[b].client.Batch(r.ctx, specs, func(it server.BatchItem) error {
		if it.Index >= 0 && it.Index < len(chunk) && r.observe(chunk[it.Index], it) {
			progressed = true
		}
		return nil
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range chunk {
		a.over = true
		if a.t.homeless() {
			orphans = append(orphans, a.t)
		}
	}
	if err == nil && len(orphans) > 0 {
		err = errors.New("stream ended with unresolved points")
	}
	return orphans, progressed, err
}

// observe folds one batch item for claim a into the run state. It reports
// whether the item newly resolved a's task — the per-stream progress
// signal the circuit breaker keys on.
func (r *poolRun) observe(a *assignment, it server.BatchItem) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := a.t
	if !it.Status.Terminal() {
		a.jobID = it.ID // ack: the id a losing claim is cancelled by
		if t.done {
			r.cancelLocked(a) // won elsewhere while this ack was in flight
		}
		return false
	}
	if t.done {
		return false
	}
	switch it.Status {
	case server.StatusDone:
		res, err := sim.ParseStats(t.spec, it.Stats)
		if err != nil {
			r.failLocked(fmt.Errorf("client: %s (key %.12s) from %s: %w",
				t.spec.Workload, t.key, r.p.backends[a.backend].base, err))
			return false
		}
		t.done, t.res = true, res
		if len(r.latencies) < latencyRing {
			r.latencies = append(r.latencies, time.Since(a.dispatchedAt))
		} else {
			r.latencies[r.latNext] = time.Since(a.dispatchedAt)
			r.latNext = (r.latNext + 1) % latencyRing
		}
		for _, l := range t.assigns { // the point must not be simulated twice
			if l != a {
				r.cancelLocked(l)
			}
		}
		if r.remaining--; r.remaining == 0 {
			close(r.doneCh)
		}
		return true
	case server.StatusCancelled:
		// The pool's own cancellation of a losing claim echoes back on its
		// stream; anything else (a draining backend, an operator) cancelled
		// the job out from under the sweep.
		if a.over {
			return false
		}
		a.over = true
		if !t.homeless() {
			return false
		}
		if b := r.place(t); b >= 0 && t.retries < poolTaskMaxRetries {
			t.retries++
			r.p.logf("pool: %s (key %.12s) cancelled externally on %s, re-dispatching to %s (retry %d)",
				t.spec.Workload, t.key, r.p.backends[a.backend].base, r.p.backends[b].base, t.retries)
			r.enqueue(t, b)
			return false
		}
		r.failLocked(fmt.Errorf("client: %s (key %.12s) cancelled externally on %s: %s",
			t.spec.Workload, t.key, r.p.backends[a.backend].base, it.Error))
	case server.StatusFailed:
		r.failLocked(it.ErrorOf())
	}
	return false
}

// cancelLocked ends claim a and asks its backend to stop the job, detached
// from the run's (possibly already finished) context. A claim whose ack has
// not arrived keeps running until it does: the ack cancels it.
func (r *poolRun) cancelLocked(a *assignment) {
	if a.over || a.jobID == "" {
		return
	}
	a.over = true
	c, id := r.p.backends[a.backend].client, a.jobID
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = c.Cancel(ctx, id) // best effort: the daemon drops an unwanted job anyway once its stream goes
	}()
}

// failLocked records the sweep's first fatal error and stops everything.
func (r *poolRun) failLocked(err error) {
	if r.err == nil {
		r.err = err
		r.cancel()
	}
}

// shed re-homes what backend b could not run — its failed chunk's orphans
// and, once its circuit is dead, its whole queue — through place. With no
// backend left the sweep fails.
func (r *poolRun) shed(b int, orphans []*poolTask, cause error) {
	br, base := r.p.backends[b].breaker, r.p.backends[b].base
	r.mu.Lock()
	defer r.mu.Unlock()
	if br.Dead() {
		r.p.logf("pool: backend %s is dead (circuit tripped %d times), re-sharding: %v", base, r.p.breakerMaxTrips, cause)
		for _, t := range r.queues[b] {
			t.pending = false
		}
		orphans = append(orphans, r.queues[b]...)
		r.queues[b] = nil
	} else if len(orphans) > 0 {
		r.p.logf("pool: shedding %d points from %s (circuit %s): %v", len(orphans), base, br.State(), cause)
	}
	for _, t := range orphans {
		if !t.homeless() {
			continue
		}
		target := r.place(t)
		if target < 0 {
			r.failLocked(fmt.Errorf("client: every pool backend failed (last: %s: %w)", base, cause))
			return
		}
		r.enqueue(t, target)
	}
}

// hedgeMonitor hands stragglers to place every hedgeTick: a task whose one
// live claim is older than the hedge delay (hedgeMult × the p95 of recent
// completions, floored at hedgeMin) gets a second claim on a backend that
// does not hold the first. First result wins.
func (r *poolRun) hedgeMonitor() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.p.hedgeTick)
	defer ticker.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		lat := slices.Clone(r.latencies)
		slices.Sort(lat)
		delay := max(r.p.hedgeMin, time.Duration(hedgeMult*float64(obs.PercentileDuration(lat, 0.95))))
		for _, t := range r.tasks {
			if t.done || t.pending {
				continue
			}
			if claims := t.live(); len(claims) == 1 && time.Since(claims[0].dispatchedAt) >= delay {
				if b := r.place(t); b >= 0 {
					r.p.logf("pool: hedging %s (key %.12s) from %s to %s after %v", t.spec.Workload, t.key,
						r.p.backends[claims[0].backend].base, r.p.backends[b].base, time.Since(claims[0].dispatchedAt))
					r.enqueue(t, b)
				}
			}
		}
		r.mu.Unlock()
	}
}
