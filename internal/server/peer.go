package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"time"

	"spb/internal/cluster"
	"spb/internal/sim"
)

// This file is spbd's side of the cluster protocols: the cluster.Backend
// implementation (load reporting, steal handoff, peer cache reads, stolen
// execution) and the handler mounts. The cluster.Node stays ignorant of
// jobs, tenants and traces; everything daemon-shaped lives here.

// stolenHandoff tracks one job whose ownership moved to a thief peer. The
// job stays in s.jobs (clients still poll it by id) and in s.active (late
// duplicate submissions coalesce onto it), but it is no longer in the local
// queue — the thief runs it and posts the result back. at drives the
// reclaim deadline.
//
// s.stolen keys handoffs by a fresh random token, not the job id: client-
// facing ids are sequential and guessable, and the completion token is the
// only proof a steal/complete caller actually received the handoff — a
// forged completion with a guessed id must not be able to inject results.
type stolenHandoff struct {
	j  *job
	at time.Time
}

// stealToken mints an unguessable handoff completion token.
func stealToken() string {
	var b [16]byte
	// crypto/rand.Read never returns an error (it panics on a broken
	// randomness source rather than degrade).
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// AttachCluster mounts n's protocol endpoints on the server's mux and makes
// the fleet the last of the result tiers. Must be called before the server
// starts serving requests.
func (s *Server) AttachCluster(n *cluster.Node) {
	s.tiers.fleet = n
	s.mux.HandleFunc("POST /v1/cluster/gossip", n.HandleGossip)
	s.mux.HandleFunc("GET /v1/cluster/members", n.HandleMembers)
	s.mux.HandleFunc("POST /v1/cluster/steal", n.HandleSteal)
	s.mux.HandleFunc("POST /v1/cluster/steal/complete", n.HandleStealComplete)
	s.mux.HandleFunc("GET /v1/peer/results/{key}", n.HandlePeerRead)
}

// Cluster reports the attached node (nil on a standalone daemon).
func (s *Server) Cluster() *cluster.Node { return s.tiers.fleet }

// Load implements cluster.Backend: the node gossips this on every round.
func (s *Server) Load() cluster.Load {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return cluster.Load{
		Queue:    s.tq.len(),
		Inflight: int(s.inflight.Load()),
		Workers:  s.cfg.Workers,
		Draining: draining,
	}
}

// StealJobs implements cluster.Backend: pop up to max queued jobs into the
// handoff table. Ownership transfers here — the popped jobs can no longer be
// taken by a local worker, so exactly-once holds by construction; the
// reclaim janitor is the only way back.
func (s *Server) StealJobs(max int) []cluster.StolenJob {
	var out []cluster.StolenJob
	for len(out) < max {
		j := s.tq.steal()
		if j == nil {
			break
		}
		if j.ctx.Err() != nil { // cancelled while queued: already over, don't export
			s.cancelled(j, j.ctx)
			continue
		}
		j.setRunning() // remotely, but running: SSE/status views stay truthful
		if j.journaled {
			s.journal.started(j.id)
		}
		j.trace.Event("steal-out")
		tok := stealToken()
		s.mu.Lock()
		s.stolen[tok] = &stolenHandoff{j: j, at: time.Now()}
		s.mu.Unlock()
		s.metrics.StealsOut.Add(1)
		out = append(out, cluster.StolenJob{ID: tok, Key: j.key, Spec: j.spec})
	}
	return out
}

// CompleteStolen implements cluster.Backend: a thief delivering a stolen
// job's terminal result. False means the handoff is unknown (reclaimed or
// duplicate delivery) and the caller should not retry. The thief simulated
// it, but this daemon owns the job: its ending seeds both local tiers, so
// future submitters hit instead of re-simulating.
func (s *Server) CompleteStolen(id string, res sim.Result, errMsg string) bool {
	s.mu.Lock()
	h, ok := s.stolen[id]
	delete(s.stolen, id)
	s.mu.Unlock()
	if !ok {
		return false
	}
	h.j.trace.Span("remote-run", h.at, time.Now())
	if errMsg != "" {
		s.end(h.j, StatusFailed, sim.Result{}, errMsg)
	} else {
		s.end(h.j, StatusDone, res, "")
	}
	return true
}

// takeBack removes from the handoff table, and returns by token, every
// handoff whose thief has been silent for at least olderThan.
func (s *Server) takeBack(olderThan time.Duration) map[string]*stolenHandoff {
	cutoff := time.Now().Add(-olderThan)
	back := make(map[string]*stolenHandoff)
	s.mu.Lock()
	for tok, h := range s.stolen {
		if !h.at.After(cutoff) {
			delete(s.stolen, tok)
			back[tok] = h
		}
	}
	s.mu.Unlock()
	return back
}

// ReclaimStolen implements cluster.Backend: take back handoffs whose thief
// has been silent past the deadline. Reclaimed jobs re-enter the local
// queue (a cancelled one ends when a worker picks it up); if the queue is
// momentarily full they stay in the handoff table for the next janitor pass
// rather than being dropped.
func (s *Server) ReclaimStolen(olderThan time.Duration) int {
	reclaimed := 0
	for tok, h := range s.takeBack(olderThan) {
		h.j.trace.Event("steal-reclaim")
		switch err := s.tq.push(h.j); err {
		case nil:
			s.metrics.StealsReclaimed.Add(1)
			reclaimed++
		case errDraining:
			s.end(h.j, StatusCancelled, sim.Result{}, err.Error())
		default: // queue full right now: park it for the next pass
			// Under the original token: a thief's very late completion
			// can still land while the job is parked, saving a re-run.
			h.at = time.Now()
			s.mu.Lock()
			s.stolen[tok] = h
			s.mu.Unlock()
		}
	}
	return reclaimed
}

// ReadLocal implements cluster.Backend: serve a peer's read-through from the
// local disk tier only. Never simulates, never consults peers — recursion
// ends here.
func (s *Server) ReadLocal(key string) (sim.Result, bool) {
	res, _, ok := s.tiers.lookup(sim.RunSpec{}, key, diskTier)
	if ok {
		s.metrics.PeerServed.Add(1)
	}
	return res, ok
}

// RunStolen implements cluster.Backend: execute a stolen spec on this node.
// It deliberately bypasses the admission queue — stolen work is bounded by
// the thief's free worker capacity at steal time, already has an owner
// (the victim's clients), and must not be re-stealable or quota-rejected.
// The local tiers are consulted first, so stealing a point this node has
// seen costs a map lookup; otherwise the spec becomes a job of this daemon's
// own — resolvable by id, with progress and a trace — that goes straight to
// the run routine, neither admitted (no slot, no spbd_runs_* counter: those
// are the victim's) nor in the active map.
func (s *Server) RunStolen(ctx context.Context, spec sim.RunSpec) (sim.Result, error) {
	start := time.Now()
	spec = spec.Normalized()
	key := Key(spec)
	s.metrics.StealsIn.Add(1)
	if res, tier, ok := s.tiers.lookup(spec, key, localTiers); ok {
		s.metrics.cacheHit(tier)
		return res, nil
	}
	j := s.newJob("", key, spec, nil, "", start)
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	defer context.AfterFunc(ctx, func() { j.cancel(context.Cause(ctx)) })()
	s.run(j)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		return sim.Result{}, errors.New(j.errMsg)
	}
	return j.result, nil
}

// Compile-time check: the server is the cluster's backend.
var _ cluster.Backend = (*Server)(nil)
