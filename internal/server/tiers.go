package server

import (
	"sync"
	"sync/atomic"
	"time"

	"spb/internal/cluster"
	"spb/internal/obs"
	"spb/internal/sim"
)

// tiers is where a result may already be, fastest first: the Runner's memo
// ("memory"), the content-addressed disk store with its degraded-mode state
// ("disk"), and the disk tiers of the rest of the fleet ("peer"). Every path
// that wants a result without simulating goes through lookup, and every
// result this daemon learns goes back in through put, so the walk, its
// bookkeeping and its metrics exist once.
type tiers struct {
	runner *sim.Runner
	store  *DiskStore    // nil when the disk tier is disabled
	fleet  *cluster.Node // nil on a standalone daemon (set by AttachCluster)

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

	// peerMiss remembers keys whose last fleet read-through found nothing
	// (by miss time): retry loops hammering submit for a queue-full or
	// quota-rejected key skip re-probing peers until peerMissTTL passes.
	// Entries go on expiry at the next probe of their key, and by the sweep
	// in fromFleet once the map holds peerMissCap of them.
	mu       sync.Mutex
	peerMiss map[string]time.Time
}

// tierSet names the tiers a lookup may consult. A submission walks all of
// them; a recovery or a stolen run stops at the local ones; a peer's
// read-through, which has a key but no spec to ask the memo with, reads the
// disk alone — recursion into the fleet ends there.
type tierSet uint8

const (
	memoryTier tierSet = 1 << iota
	diskTier
	fleetTier
	localTiers = memoryTier | diskTier
	everyTier  = localTiers | fleetTier
)

// peerMissTTL is how long a fleet-wide miss for a key suppresses further
// peer probes for it. Sized to cover many batchQueuePoll retry iterations
// while staying well under a simulation's life: the fleet can only gain a
// copy of a key somebody is about to simulate locally anyway.
const peerMissTTL = time.Second

// peerMissCap bounds the negative cache; reaching it sweeps expired entries
// on the next insert.
const peerMissCap = 4096

// lookup walks the tiers in where for a normalized spec and its key, fastest
// first, and names the tier that answered. A hit below the memo is written
// back to the consulted tiers above it on the way out, so the next lookup
// stops earlier.
func (t *tiers) lookup(spec sim.RunSpec, key string, where tierSet) (res sim.Result, tier string, ok bool) {
	if where&memoryTier != 0 {
		if res, ok := t.runner.Lookup(spec); ok {
			return res, "memory", true
		}
	}
	if where&diskTier != 0 && t.diskUsable() {
		start := time.Now()
		res, ok, err := t.store.Get(key)
		t.metrics.StoreRead.Observe(time.Since(start))
		t.diskResult("read", key, err)
		if ok && err == nil {
			if where&memoryTier != 0 {
				t.runner.Put(spec, res)
			}
			return res, "disk", true
		}
	}
	if where&fleetTier != 0 && t.fleet != nil {
		if res, ok := t.fromFleet(key); ok {
			t.put(spec, key, res, nil)
			return res, "peer", true
		}
	}
	return sim.Result{}, "", false
}

// fromFleet asks the rendezvous-ranked peers for key unless the fleet said
// no within the last peerMissTTL (content addressing makes any answer the
// right answer).
func (t *tiers) fromFleet(key string) (sim.Result, bool) {
	now := time.Now()
	t.mu.Lock()
	if at, seen := t.peerMiss[key]; seen {
		if now.Sub(at) < peerMissTTL {
			t.mu.Unlock()
			return sim.Result{}, false
		}
		delete(t.peerMiss, key)
	}
	t.mu.Unlock()
	res, from, ok := t.fleet.FetchPeer(key)
	if !ok {
		t.metrics.PeerMisses.Add(1)
		t.mu.Lock()
		if len(t.peerMiss) >= peerMissCap {
			for k, at := range t.peerMiss {
				if now.Sub(at) >= peerMissTTL {
					delete(t.peerMiss, k)
				}
			}
		}
		t.peerMiss[key] = now
		t.mu.Unlock()
		return sim.Result{}, false
	}
	t.metrics.PeerHits.Add(1)
	t.logf("spbd: peer cache hit %.12s from %s", key, from)
	return res, true
}

// put writes a result this daemon has just learned — simulated here,
// delivered by a thief, fetched from a peer — back to both local tiers. The
// disk write times itself and stamps the "store-write" span on tr (nil when
// no job's trace is at hand).
func (t *tiers) put(spec sim.RunSpec, key string, res sim.Result, tr *obs.Trace) {
	t.runner.Put(spec, res)
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
