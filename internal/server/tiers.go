package server

import (
	"sync/atomic"
	"time"

	"spb/internal/obs"
	"spb/internal/sim"
)

// tiers is where a result may already be, fastest first: the Runner's memo
// ("memory") and the content-addressed disk store with its degraded-mode
// state ("disk"). Every path that wants a result without simulating goes
// through lookup, and every result this daemon simulates goes to the disk
// through put (the Runner memoized it as it ran), so the walk, its bookkeeping
// and its metrics exist once.
type tiers struct {
	runner *sim.Runner
	store  *DiskStore // nil when the disk tier is disabled

	metrics *Metrics
	logf    func(format string, args ...any)

	// Degraded mode: errStreak counts consecutive disk I/O errors; reaching
	// errThreshold sets degraded and the disk tier is skipped except for one
	// probe per retryEvery (probeAt, unix nanos). Any successful operation
	// clears the streak and leaves degraded mode. Corrupt entries never
	// count — the store heals those itself as clean misses.
	errThreshold int
	retryEvery   time.Duration
	errStreak    atomic.Int64
	degraded     atomic.Bool
	probeAt      atomic.Int64
}

// lookup walks the memo, then the disk, for a normalized spec and its key,
// and names the tier that answered. A disk hit is written back to the memo,
// so the next lookup stops there.
func (t *tiers) lookup(spec sim.RunSpec, key string) (res sim.Result, tier string, ok bool) {
	if res, ok := t.runner.Lookup(spec); ok {
		return res, "memory", true
	}
	if t.diskUsable() {
		start := time.Now()
		res, ok, err := t.store.Get(key)
		t.metrics.StoreRead.Observe(time.Since(start))
		t.diskResult("read", key, err)
		if ok && err == nil {
			t.runner.Put(spec, res)
			return res, "disk", true
		}
	}
	return sim.Result{}, "", false
}

// put writes a result this daemon has just simulated to the disk tier; the
// memory tier holds it already, since Runner.GetCtx memoizes what it runs. The
// disk write times itself and stamps the "store-write" span on tr.
func (t *tiers) put(key string, res sim.Result, tr *obs.Trace) {
	if !t.diskUsable() {
		return
	}
	start := time.Now()
	err := t.store.Put(key, res)
	end := time.Now()
	tr.Span("store-write", start, end)
	t.metrics.StoreWrite.Observe(end.Sub(start))
	t.diskResult("write", key, err)
}

// diskUsable reports whether the disk tier should be consulted for this
// operation. A healthy tier always is; a degraded tier admits exactly one
// probe per retryEvery so recovery is noticed without hammering a dead disk
// on every request.
func (t *tiers) diskUsable() bool {
	if t.store == nil {
		return false
	}
	if !t.degraded.Load() {
		return true
	}
	now, at := time.Now().UnixNano(), t.probeAt.Load()
	// One winner per interval gets to probe.
	return now >= at && t.probeAt.CompareAndSwap(at, now+t.retryEvery.Nanoseconds())
}

// diskResult accounts one disk-tier operation. An I/O failure extends the
// error streak and, at the threshold, flips the tier into degraded
// memory-only mode; a success resets the streak and rejoins service.
func (t *tiers) diskResult(op, key string, err error) {
	if err == nil {
		t.errStreak.Store(0)
		if t.degraded.CompareAndSwap(true, false) {
			t.logf("spbd: disk tier recovered; leaving memory-only mode")
		}
		return
	}
	t.metrics.DiskStoreErrors.Add(1)
	streak := t.errStreak.Add(1)
	t.logf("spbd: disk cache %s %.12s: %v (error streak %d)", op, key, err, streak)
	if streak >= int64(t.errThreshold) && t.degraded.CompareAndSwap(false, true) {
		t.probeAt.Store(time.Now().Add(t.retryEvery).UnixNano())
		t.logf("spbd: disk tier degraded after %d consecutive errors; memory-only until a probe succeeds", streak)
	}
}
