package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"spb/internal/cluster"
)

// TestMergeMembersReadmitsOnNewerEpoch is the flapping-backend fix: a
// backend the pool marked permanently dead comes back (restarted, so it
// gossips a higher liveness epoch) and the pool re-admits it with a fresh
// circuit — no client restart required. Same-epoch sightings must NOT
// re-admit: the pool buried that incarnation for a reason.
func TestMergeMembersReadmitsOnNewerEpoch(t *testing.T) {
	p, err := newPool([]string{"http://a:1", "http://b:2"}, func(p *Pool) { p.breakerMaxTrips, p.logf = 1, t.Logf })
	if err != nil {
		t.Fatal(err)
	}
	p.backends[1].breaker.Fail(true) // hard failure; maxTrips=1 buries it immediately
	if !p.backends[1].breaker.Dead() {
		t.Fatal("breaker should be dead after a hard trip with maxTrips=1")
	}

	added, readmitted := p.mergeMembers([]cluster.Member{
		{ID: "b", URL: "http://b:2", Epoch: 5, State: cluster.StateAlive},
		{ID: "c", URL: "c:3", Epoch: 1, State: cluster.StateAlive},
		{ID: "d", URL: "http://d:4", Epoch: 1, State: cluster.StateSuspect},
	})
	if added != 1 {
		t.Errorf("added = %d, want 1 (only the unknown alive member c)", added)
	}
	if readmitted != 1 {
		t.Errorf("readmitted = %d, want 1 (b came back with a newer epoch)", readmitted)
	}
	if p.backends[1].breaker.Dead() {
		t.Error("b's circuit is still dead after epoch-based re-admission")
	}
	bs := p.Backends()
	if len(bs) != 3 {
		t.Fatalf("Backends() = %v, want 3 entries (suspect d excluded)", bs)
	}
	if bs[2] != "http://c:3" {
		t.Errorf("discovered backend = %q, want normalized http://c:3", bs[2])
	}

	// Bury b again; the same epoch must not revive it...
	p.backends[1].breaker.Fail(true)
	_, readmitted = p.mergeMembers([]cluster.Member{
		{ID: "b", URL: "http://b:2", Epoch: 5, State: cluster.StateAlive},
	})
	if readmitted != 0 || !p.backends[1].breaker.Dead() {
		t.Error("same-epoch sighting must not re-admit a dead backend")
	}
	// ...but the next restart (epoch 6) does.
	_, readmitted = p.mergeMembers([]cluster.Member{
		{ID: "b", URL: "http://b:2", Epoch: 6, State: cluster.StateAlive},
	})
	if readmitted != 1 || p.backends[1].breaker.Dead() {
		t.Error("newer-epoch sighting must re-admit the dead backend")
	}
}

// TestRefreshMembersDiscoversFleet: pointing the pool at one seed and
// calling RefreshMembers pulls the rest of the fleet out of the seed's
// membership view.
func TestRefreshMembersDiscoversFleet(t *testing.T) {
	var ts *httptest.Server
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/members", func(w http.ResponseWriter, r *http.Request) {
		self := cluster.Member{ID: "seed", URL: ts.URL, Epoch: 1, State: cluster.StateAlive}
		view := cluster.MembersView{Self: self, Members: []cluster.Member{
			self,
			{ID: "peer", URL: "http://peer-host:7078", Epoch: 2, State: cluster.StateAlive},
		}}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(view)
	})
	ts = httptest.NewServer(mux)
	defer ts.Close()

	p, err := newPool([]string{ts.URL}, func(p *Pool) { p.logf = t.Logf })
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RefreshMembers(context.Background()); err != nil {
		t.Fatal(err)
	}
	bs := p.Backends()
	if len(bs) != 2 || bs[1] != "http://peer-host:7078" {
		t.Fatalf("Backends() = %v, want [seed, http://peer-host:7078]", bs)
	}
}
