package client

import (
	"sync"
	"time"
)

// breakerState is the classic circuit-breaker state machine, plus a
// terminal "dead" state for backends that keep flapping.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy: dispatch freely
	breakerOpen                         // tripped: no dispatch until the cooldown expires
	breakerHalfOpen                     // cooldown expired: exactly one trial in flight
	breakerDead                         // tripped maxTrips times without a success: permanently out
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "dead"
	}
}

// breaker is one backend's circuit. Soft failures (a batch stream that dies
// without delivering any new terminal result) accumulate; hard failures
// (dial refused — nothing is listening) trip immediately. A tripped circuit
// cools down for cooldown, then admits a single half-open trial — a
// readiness probe plus one chunk — whose outcome closes or re-trips it.
// maxTrips consecutive trips without an intervening success mark the
// backend dead for the pool's lifetime, feeding HRW re-sharding: its points
// move to the survivors instead of timing out against it forever.
type breaker struct {
	threshold int
	cooldown  time.Duration
	maxTrips  int

	mu        sync.Mutex
	state     breakerState
	softFails int // consecutive soft failures while closed
	trips     int // consecutive trips without a success
	reopenAt  time.Time
	probing   bool // a half-open trial is in flight
}

func newBreaker(threshold int, cooldown time.Duration, maxTrips int) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, maxTrips: maxTrips}
}

// Acquire asks to dispatch. ok means go ahead, and the caller must report
// the dispatch's one verdict — Success, Fail or Abandon (trial marks it as
// the one half-open trial, which holds the circuit until then). When not ok,
// wait is how long to back off before asking again; wait==0 means the
// circuit is dead and the caller should evacuate instead.
func (br *breaker) Acquire() (ok bool, trial bool, wait time.Duration) {
	br.mu.Lock()
	defer br.mu.Unlock()
	switch br.state {
	case breakerClosed:
		return true, false, 0
	case breakerDead:
		return false, false, 0
	case breakerOpen:
		if rem := time.Until(br.reopenAt); rem > 0 {
			return false, false, rem
		}
		br.state = breakerHalfOpen
		br.probing = true
		return true, true, 0
	default: // half-open
		if br.probing {
			// Another dispatcher's trial is in flight; poll shortly.
			return false, false, br.cooldown / 4
		}
		br.probing = true
		return true, true, 0
	}
}

// Success reports a healthy interaction: the circuit closes and the flap
// count resets.
func (br *breaker) Success() {
	br.mu.Lock()
	defer br.mu.Unlock()
	if br.state == breakerDead {
		return
	}
	br.state = breakerClosed
	br.softFails = 0
	br.trips = 0
	br.probing = false
}

// Fail reports a failed interaction. Hard failures (and any failure during
// a half-open trial) trip immediately; soft ones trip after threshold
// consecutive occurrences.
func (br *breaker) Fail(hard bool) {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.probing = false
	switch br.state {
	case breakerDead:
		return
	case breakerHalfOpen:
		br.tripLocked()
		return
	}
	if hard {
		br.tripLocked()
		return
	}
	br.softFails++
	if br.softFails >= br.threshold {
		br.tripLocked()
	}
}

// Abandon reports a dispatch that ended without evidence either way — the
// sweep it served finished first. It releases a half-open trial for the
// next dispatch and changes nothing else.
func (br *breaker) Abandon() {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.probing = false
}

func (br *breaker) tripLocked() {
	br.softFails = 0
	br.trips++
	if br.trips >= br.maxTrips {
		br.state = breakerDead
		return
	}
	br.state = breakerOpen
	br.reopenAt = time.Now().Add(br.cooldown)
}

// Dead reports whether the backend is permanently out.
func (br *breaker) Dead() bool {
	br.mu.Lock()
	defer br.mu.Unlock()
	return br.state == breakerDead
}

// Settled reports whether the circuit would admit a dispatch right now —
// closed, or cooled down enough for a trial. Evacuations prefer settled
// backends so tripped ones shed load instead of queueing it.
func (br *breaker) Settled() bool {
	br.mu.Lock()
	defer br.mu.Unlock()
	switch br.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return !time.Now().Before(br.reopenAt)
	case breakerHalfOpen:
		return !br.probing
	default:
		return false
	}
}

// State snapshots the current state (logs, tests).
func (br *breaker) State() breakerState {
	br.mu.Lock()
	defer br.mu.Unlock()
	return br.state
}
