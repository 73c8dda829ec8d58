package client

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spb/internal/cluster"
)

// idleBackend is a cluster.Backend for a node that is only asked where it
// would look for a result: nothing but Load is ever called.
type idleBackend struct{ cluster.Backend }

func (idleBackend) Load() cluster.Load { return cluster.Load{} }

// firstProbe records the host of every peer read a node attempts and answers
// "not cached".
type firstProbe struct{ hosts []string }

func (f *firstProbe) RoundTrip(r *http.Request) (*http.Response, error) {
	f.hosts = append(f.hosts, r.URL.Scheme+"://"+r.URL.Host)
	rec := httptest.NewRecorder()
	rec.WriteHeader(http.StatusNotFound)
	return rec.Result(), nil
}

// TestPeerReadProbesWherePoolPlaced pins the property tier-3 peer read-through
// stands on: the backend the pool ranks first for a key — where it sent the
// point, so where the result is cached — is the first peer any other node of
// the fleet asks for that key. Pool.rank and Node.rankPeers share
// cluster.RendezvousScore; this fails if either stops using it.
func TestPeerReadProbesWherePoolPlaced(t *testing.T) {
	urls := []string{"http://n1:7077", "http://n2:7077", "http://n3:7077", "http://n4:7077", "http://n5:7077"}
	pool, err := NewPool(urls)
	if err != nil {
		t.Fatal(err)
	}
	var members []cluster.Member
	for _, u := range urls {
		members = append(members, cluster.Member{ID: u, URL: u, Epoch: 1})
	}
	gossip, err := json.Marshal(map[string]any{"members": members})
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]*firstProbe, len(urls))
	nodes := make([]*cluster.Node, len(urls))
	for i, u := range urls {
		probes[i] = &firstProbe{}
		nodes[i], err = cluster.New(cluster.Config{
			Advertise: u, Epoch: 1, PeerFanout: 1,
			HTTPClient: &http.Client{Transport: probes[i]},
		}, idleBackend{})
		if err != nil {
			t.Fatal(err)
		}
		// One gossip message teaches the node the whole fleet.
		rec := httptest.NewRecorder()
		nodes[i].HandleGossip(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/gossip", bytes.NewReader(gossip)))
		if rec.Code != http.StatusOK {
			t.Fatalf("gossip to %s: %d %s", u, rec.Code, rec.Body)
		}
	}
	owned := make(map[int]int)
	for k := 0; k < 1000; k++ {
		key := fmt.Sprintf("%064x", k*2654435761)
		owner := rank(key, pool.backends)[0]
		owned[owner]++
		for i := range nodes {
			if i == owner {
				continue // a node does not ask itself: its own tiers come first
			}
			probes[i].hosts = nil
			nodes[i].FetchPeer(key)
			if len(probes[i].hosts) != 1 || probes[i].hosts[0] != urls[owner] {
				t.Fatalf("key %.12s: the pool placed it on %s, node %s probed %v first",
					key, urls[owner], urls[i], probes[i].hosts)
			}
		}
	}
	for i := range urls {
		if owned[i] == 0 {
			t.Fatalf("%s owns none of 1000 keys: the ranking is not spreading them", urls[i])
		}
	}
}

// TestPoolFlags: the one declaration of the sweep CLIs' -server/-cluster
// flags builds no pool without -server and one backend per listed URL with it.
func TestPoolFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	get := PoolFlags(fs, "the sweep executes")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if p, err := get(context.Background()); p != nil || err != nil {
		t.Fatalf("no -server: pool %v, err %v; want neither", p, err)
	}
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	get = PoolFlags(fs, "the sweep executes")
	if err := fs.Parse([]string{"-server", "h1:7077,http://h2:7077/"}); err != nil {
		t.Fatal(err)
	}
	p, err := get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Backends(); len(got) != 2 || got[0] != "http://h1:7077" || got[1] != "http://h2:7077" {
		t.Fatalf("backends %v, want the two normalized -server URLs", got)
	}
	if u := fs.Lookup("server").Usage; !strings.Contains(u, "; the sweep executes remotely") {
		t.Fatalf("-server help %q lost its subject", u)
	}

	// The pool's events reach the flag set's output, under its name: here a
	// -cluster seed where nothing listens.
	var out bytes.Buffer
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&out)
	get = PoolFlags(fs, "the sweep executes")
	if err := fs.Parse([]string{"-server", "127.0.0.1:1", "-cluster"}); err != nil {
		t.Fatal(err)
	}
	if _, err := get(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.HasPrefix(got, "test: pool: cluster discovery from seeds failed") {
		t.Fatalf("flag set output %q, want the pool's discovery failure", got)
	}
}
