// Package cluster turns a set of spbd daemons into one elastic fleet.
// Three cooperating protocols, all running over the daemons' existing HTTP
// ports (no second listener, no new dependencies):
//
//   - Gossip membership: every node keeps a versioned member table and
//     periodically exchanges it with a few random peers (anti-entropy). A
//     member's identity carries a liveness *epoch* — the unix-nano at which
//     its process started — so a restarted daemon supersedes its old entry
//     everywhere without any coordination, and consumers (client.Pool) can
//     re-admit a backend they had written off. Load (queue depth, in-flight
//     runs, worker count, draining) piggybacks on every exchange, giving
//     each node an eventually-consistent view of fleet pressure at zero
//     extra request cost.
//
//   - Work stealing: an idle node (free worker capacity, empty queue) asks
//     the most loaded peer to hand over queued jobs. The victim *pops* the
//     jobs from its own queue into a handoff table before responding —
//     ownership transfers atomically, so a job is never runnable on two
//     nodes at once and the PR 3 "each point simulated once" invariant is
//     preserved. If the thief goes silent (crash, severed response), the
//     victim's reclaim janitor re-enqueues the job after a deadline; the
//     rare reclaim race is harmless because results are content-addressed —
//     a duplicate simulation of the same key is byte-identical by
//     construction and both sides' caches converge on one entry.
//
//   - Cache peering: before simulating a miss, a node asks the top peers in
//     the key's rendezvous order for the result from *their* disk tier
//     (GET /v1/peer/results/{key}). SHA-256 content addressing makes this
//     trivially safe — a key names exactly one result — so a sweep re-run
//     against any node of the fleet reuses every other node's cache.
//
// Fault sites (DESIGN.md §8.8): "gossip.drop" skips a gossip exchange,
// "steal.cut" severs a steal response after ownership transferred (forcing
// the reclaim path), "peer.read" fails the peer read-through endpoint.
package cluster

import (
	"sort"
	"sync"
	"time"
)

// Member is one node's view of one daemon in the fleet. Epoch and Beat
// together order observations of the same node: a higher Epoch is a newer
// *incarnation* (the process restarted), a higher Beat within an epoch is a
// fresher heartbeat. Load fields ride along so every node can pick steal
// victims and readiness without extra probes.
type Member struct {
	// ID names the node (default: its advertise URL).
	ID string `json:"id"`
	// URL is the node's advertised base URL, e.g. "http://10.0.0.7:7077".
	URL string `json:"url"`
	// Epoch is the incarnation number: unix-nanos at process start. A
	// restarted daemon gossips a strictly larger epoch and supersedes its
	// old entry fleet-wide.
	Epoch uint64 `json:"epoch"`
	// Beat is the heartbeat counter within an epoch, bumped once per gossip
	// round by the node itself.
	Beat uint64 `json:"beat"`

	// Piggybacked load, from the node's own gossip of itself.
	Queue    int  `json:"queue"`
	Inflight int  `json:"inflight"`
	Workers  int  `json:"workers"`
	Draining bool `json:"draining"`

	// State is filled in snapshots: "alive" or "suspect" (no fresh
	// observation within the suspect window). Not gossiped — each node
	// derives it from its own observation times.
	State string `json:"state,omitempty"`
}

// newer reports whether a is a strictly fresher observation than b of the
// same node: higher epoch wins; within an epoch, higher beat wins.
func newer(a, b Member) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	return a.Beat > b.Beat
}

// Member states as rendered in snapshots.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
)

// tableEntry pairs a member observation with the local wall-clock time it
// last advanced — the basis for suspicion and removal, which are local
// judgments (clocks are never compared across nodes).
type tableEntry struct {
	m        Member
	lastSeen time.Time
}

// Table is the versioned member table one node maintains. All methods are
// safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	entries map[string]*tableEntry // by Member.ID
}

// NewTable returns an empty member table.
func NewTable() *Table {
	return &Table{entries: make(map[string]*tableEntry)}
}

// Merge folds one observation into the table, applying the gossip ordering
// rule (higher epoch wins; same epoch, higher beat wins). It reports whether
// the observation advanced the table. now is the local receive time.
func (t *Table) Merge(m Member, now time.Time) bool {
	if m.ID == "" || m.URL == "" {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[m.ID]
	if !ok {
		t.entries[m.ID] = &tableEntry{m: m, lastSeen: now}
		return true
	}
	if !newer(m, e.m) {
		return false
	}
	e.m = m
	e.lastSeen = now
	return true
}

// MergeAll folds a batch of observations (one gossip exchange) and reports
// how many advanced the table.
func (t *Table) MergeAll(ms []Member, now time.Time) int {
	n := 0
	for _, m := range ms {
		if t.Merge(m, now) {
			n++
		}
	}
	return n
}

// Snapshot returns the current membership, sorted by ID, with State derived
// from local observation age: fresher than suspectAfter is "alive", older is
// "suspect". Entries not advanced within removeAfter are pruned — a node
// that died without draining eventually vanishes, and one that restarts
// reappears with a new epoch.
func (t *Table) Snapshot(now time.Time, suspectAfter, removeAfter time.Duration) []Member {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Member, 0, len(t.entries))
	for id, e := range t.entries {
		age := now.Sub(e.lastSeen)
		if removeAfter > 0 && age > removeAfter {
			delete(t.entries, id)
			continue
		}
		m := e.m
		m.State = StateAlive
		if suspectAfter > 0 && age > suspectAfter {
			m.State = StateSuspect
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Touch refreshes a member's local observation time without changing its
// gossiped fields — used when a node hears from a peer directly (the
// exchange itself is proof of life even if the piggybacked beat was stale).
func (t *Table) Touch(id string, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[id]; ok {
		e.lastSeen = now
	}
}

// Len reports how many members the table currently holds.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
