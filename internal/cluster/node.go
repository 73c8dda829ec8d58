package cluster

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spb/internal/faults"
	"spb/internal/obs"
	"spb/internal/sim"
)

// Load is a backend's instantaneous pressure, piggybacked on gossip.
type Load struct {
	Queue    int
	Inflight int
	Workers  int
	Draining bool
}

// StolenJob is one unit of work handed from a victim to a thief. The spec is
// carried whole (it is the identity of the simulation); the key is the
// victim's content address for it, which the thief re-derives and both sides
// use to converge their caches.
type StolenJob struct {
	ID   string      `json:"id"`
	Key  string      `json:"key"`
	Spec sim.RunSpec `json:"spec"`
}

// Backend is the node's hook into the daemon it serves (implemented by
// *server.Server). The cluster package stays ignorant of queues, tenants and
// HTTP handlers — it only needs to move jobs and read the local cache.
type Backend interface {
	// Load reports current pressure for gossip piggybacking.
	Load() Load
	// StealJobs pops up to max queued jobs into the backend's handoff
	// table (ownership transfers to the caller). Draining or empty queues
	// return nil.
	StealJobs(max int) []StolenJob
	// CompleteStolen delivers a stolen job's terminal result (errMsg != ""
	// for failures). It reports false when the handoff is unknown —
	// already reclaimed, or completed twice.
	CompleteStolen(id string, res sim.Result, errMsg string) bool
	// ReclaimStolen re-enqueues handoffs older than the deadline (the
	// thief went silent) and reports how many it took back.
	ReclaimStolen(olderThan time.Duration) int
	// ReadLocal serves the peer read-through protocol from the local disk
	// tier only — never simulates, never recurses into peers.
	ReadLocal(key string) (sim.Result, bool)
	// RunStolen executes a stolen spec locally (cache tiers consulted
	// first) and returns the result.
	RunStolen(ctx context.Context, spec sim.RunSpec) (sim.Result, error)
}

// Config assembles a Node.
type Config struct {
	// ID names this node in the member table (default: Advertise).
	ID string
	// Advertise is the base URL peers reach this node at (required), e.g.
	// "http://10.0.0.7:7077".
	Advertise string
	// Seeds are base URLs of existing fleet members to join through. A
	// node with no seeds starts a one-node fleet others join.
	Seeds []string

	// GossipInterval is the anti-entropy period (default 500ms).
	GossipInterval time.Duration

	// DisableSteal turns the work-stealing loop off (gossip and peer reads
	// keep running).
	DisableSteal bool
	// StealInterval is how often an idle node looks for a victim
	// (default 250ms).
	StealInterval time.Duration
	// StealThreshold is the minimum victim queue depth worth stealing from
	// (default 2: never steal a queue's last dregs, the victim's own
	// workers are about to take them).
	StealThreshold int
	// StealTimeout is the victim-side reclaim deadline: a handoff with no
	// completion for this long is re-enqueued locally (default 30s).
	StealTimeout time.Duration

	// Secret, when non-empty, authenticates the cluster plane: every node
	// sends it in the X-Spb-Cluster-Key header on gossip/steal/peer calls
	// and rejects inbound protocol requests without it (401). It must be
	// identical fleet-wide. Empty leaves the plane open — acceptable only
	// on trusted networks; always set it alongside tenant auth, or the
	// steal/peer endpoints hand out RunSpecs and results keylessly.
	Secret string

	// DisablePeerRead turns the cache read-through off.
	DisablePeerRead bool
	// PeerFanout is how many rendezvous-ranked peers a read-through
	// consults before giving up (default 2).
	PeerFanout int

	// HTTPClient overrides the transport for gossip/steal/peer calls.
	HTTPClient *http.Client
	// Faults, when set, injects failures at the cluster sites
	// ("gossip.drop", "steal.cut", "peer.read"). Nil disables injection.
	Faults *faults.Injector
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
	// Epoch overrides the incarnation number (tests; default: unix-nanos
	// at New).
	Epoch uint64
}

const (
	// gossipFanout is how many peers each gossip round contacts: two keeps
	// the tables converging in O(log n) rounds at O(1) requests per round.
	gossipFanout = 2
	// suspectRounds and removeRounds judge silence in gossip intervals: a
	// member nothing fresh has been heard about for 5 rounds is suspect (no
	// longer a steal victim or a peer to read from), and after 60 it is
	// pruned from the table — a restart reappears under a new epoch.
	suspectRounds = 5
	removeRounds  = 60
	// peerReadTimeout bounds each peer read: a disk read plus one RTT;
	// anything slower is cheaper to simulate.
	peerReadTimeout = 500 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.ID == "" {
		c.ID = c.Advertise
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 500 * time.Millisecond
	}
	if c.StealInterval <= 0 {
		c.StealInterval = 250 * time.Millisecond
	}
	if c.StealThreshold <= 0 {
		c.StealThreshold = 2
	}
	if c.StealTimeout <= 0 {
		c.StealTimeout = 30 * time.Second
	}
	if c.PeerFanout <= 0 {
		c.PeerFanout = 2
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Epoch == 0 {
		c.Epoch = uint64(time.Now().UnixNano())
	}
	return c
}

// NodeStats are the node's own protocol counters; each field's tag is its
// /metrics declaration (obs.Families).
type NodeStats struct {
	GossipRounds   atomic.Uint64 `metric:"spbd_cluster_gossip_rounds_total" help:"Gossip exchanges initiated."`
	GossipFailures atomic.Uint64 `metric:"spbd_cluster_gossip_failures_total" help:"Gossip exchanges that failed (peer down or injected drop)."`
	StealRequests  atomic.Uint64 `metric:"spbd_cluster_steal_requests_total" help:"Steal attempts initiated by this node (thief side)."`
	StealJobsTaken atomic.Uint64 `metric:"spbd_cluster_steal_jobs_taken_total" help:"Jobs received from victims (thief side)."`
	PeerLookups    atomic.Uint64 `metric:"spbd_cluster_peer_lookups_total" help:"Peer cache read-through probes sent."`
	PeerFetched    atomic.Uint64 `metric:"spbd_cluster_peer_fetched_total" help:"Peer cache read-through probes that returned a result."`
}

// Node runs the cluster protocols for one daemon. Create with New, mount its
// handlers (server.AttachCluster), then Start; Stop before draining the
// daemon.
type Node struct {
	cfg   Config
	be    Backend
	table *Table
	rng   *rand.Rand // gossip/steal peer selection; guarded by rngMu
	rngMu sync.Mutex

	beat  atomic.Uint64
	stats NodeStats

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a node for the given backend. The node is inert until Start.
func New(cfg Config, be Backend) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("cluster: Advertise is required")
	}
	cfg.Advertise = NormalizeURL(cfg.Advertise)
	for i, s := range cfg.Seeds {
		cfg.Seeds[i] = NormalizeURL(s)
	}
	n := &Node{
		cfg:   cfg,
		be:    be,
		table: NewTable(),
		rng:   rand.New(rand.NewSource(int64(cfg.Epoch))),
		stop:  make(chan struct{}),
	}
	// Seed the table with ourselves so the first gossip already carries us.
	n.table.Merge(n.self(), time.Now())
	return n, nil
}

// NormalizeURL canonicalizes a daemon's base URL — scheme prefixed, trailing
// slash trimmed — for the member table and for client.Pool alike, so the
// same daemon is never known under two spellings.
func NormalizeURL(u string) string {
	u = strings.TrimSpace(u)
	if u == "" {
		return u
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimRight(u, "/")
}

// ID reports the node's member ID.
func (n *Node) ID() string { return n.cfg.ID }

// Epoch reports the node's incarnation number.
func (n *Node) Epoch() uint64 { return n.cfg.Epoch }

// StealTimeout reports the victim-side reclaim deadline. server.Drain uses
// it to keep reclaiming silent thieves' handoffs after Stop has halted the
// node's own janitor loop.
func (n *Node) StealTimeout() time.Duration { return n.cfg.StealTimeout }

// self renders this node's current member record (fresh beat + load).
func (n *Node) self() Member {
	ld := n.be.Load()
	return Member{
		ID:       n.cfg.ID,
		URL:      n.cfg.Advertise,
		Epoch:    n.cfg.Epoch,
		Beat:     n.beat.Load(),
		Queue:    ld.Queue,
		Inflight: ld.Inflight,
		Workers:  ld.Workers,
		Draining: ld.Draining,
	}
}

// Members snapshots the node's membership view (self included), states
// derived from local observation age.
func (n *Node) Members() []Member {
	now := time.Now()
	n.table.Merge(n.self(), now) // self is always fresh
	return n.table.Snapshot(now, suspectRounds*n.cfg.GossipInterval, removeRounds*n.cfg.GossipInterval)
}

// Stats exposes the protocol counters (metrics, tests).
func (n *Node) Stats() *NodeStats { return &n.stats }

// Start launches the gossip and steal loops.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.gossipLoop()
	n.wg.Add(1)
	go n.stealLoop()
}

// Stop halts the loops and waits for them. Safe to call more than once.
func (n *Node) Stop() {
	n.once.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// ---- gossip -------------------------------------------------------------

// gossipRequest is one anti-entropy exchange: the initiator's self record
// plus its full member table; the response mirrors the shape back.
type gossipRequest struct {
	From    Member   `json:"from"`
	Members []Member `json:"members"`
}

// MembersView is the document served at GET /v1/cluster/members: the node's
// own record plus its membership snapshot. client.Pool consumes it to track
// live membership.
type MembersView struct {
	Self    Member   `json:"self"`
	Members []Member `json:"members"`
}

func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.beat.Add(1)
		n.gossipOnce()
	}
}

// gossipOnce exchanges tables with up to gossipFanout peers. Candidate targets are
// everything in the table plus the configured seeds — seeds stay reachable
// through partitions that empty the table.
func (n *Node) gossipOnce() {
	targets := n.gossipTargets()
	for _, url := range targets {
		n.stats.GossipRounds.Add(1)
		if err := n.cfg.Faults.Err("gossip.drop"); err != nil {
			n.stats.GossipFailures.Add(1)
			continue // this round's exchange with this peer is lost
		}
		if err := n.exchange(url); err != nil {
			n.stats.GossipFailures.Add(1)
			n.cfg.Logf("cluster: gossip with %s failed: %v", url, err)
		}
	}
}

func (n *Node) gossipTargets() []string {
	seen := map[string]bool{n.cfg.Advertise: true}
	var cands []string
	for _, m := range n.Members() {
		if !seen[m.URL] {
			seen[m.URL] = true
			cands = append(cands, m.URL)
		}
	}
	for _, s := range n.cfg.Seeds {
		if !seen[s] {
			seen[s] = true
			cands = append(cands, s)
		}
	}
	n.rngMu.Lock()
	n.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	n.rngMu.Unlock()
	if len(cands) > gossipFanout {
		cands = cands[:gossipFanout]
	}
	return cands
}

// protoTimeout scales an HTTP deadline with its protocol interval but
// floors it at 2s: the scaled value bounds how stale an answer can be
// worth merging, while the floor keeps aggressive (sub-100ms, test-speed)
// intervals from starving exchanges on a heavily loaded host.
func protoTimeout(d time.Duration) time.Duration {
	if d < 2*time.Second {
		return 2 * time.Second
	}
	return d
}

// exchange POSTs our table to one peer and merges its response.
func (n *Node) exchange(url string) error {
	req := gossipRequest{From: n.self(), Members: n.Members()}
	var resp gossipRequest
	if err := n.roundTrip(http.MethodPost, url+"/v1/cluster/gossip", req, &resp, protoTimeout(n.cfg.GossipInterval*4)); err != nil {
		return err
	}
	now := time.Now()
	n.table.MergeAll(resp.Members, now)
	if resp.From.ID != "" {
		n.table.Merge(resp.From, now)
		n.table.Touch(resp.From.ID, now) // answering is proof of life
	}
	return nil
}

// ClusterKeyHeader carries the shared fleet secret on every cluster-plane
// request (gossip, steal, steal/complete, peer reads).
const ClusterKeyHeader = "X-Spb-Cluster-Key"

// authorize gates one inbound cluster-plane request. With no secret
// configured the plane is open; with one, a missing or wrong header is
// rejected with 401 (constant-time compare, no oracle). The membership view
// (HandleMembers) is deliberately not gated — clients discover the fleet
// through it and it carries topology only, never specs or results.
func (n *Node) authorize(w http.ResponseWriter, r *http.Request) bool {
	if n.cfg.Secret == "" {
		return true
	}
	got := r.Header.Get(ClusterKeyHeader)
	if subtle.ConstantTimeCompare([]byte(got), []byte(n.cfg.Secret)) == 1 {
		return true
	}
	http.Error(w, "missing or invalid cluster key", http.StatusUnauthorized)
	return false
}

// HandleGossip is POST /v1/cluster/gossip: merge the initiator's table and
// answer with ours.
func (n *Node) HandleGossip(w http.ResponseWriter, r *http.Request) {
	if !n.authorize(w, r) {
		return
	}
	var req gossipRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	n.table.MergeAll(req.Members, now)
	if req.From.ID != "" {
		n.table.Merge(req.From, now)
		n.table.Touch(req.From.ID, now)
	}
	resp := gossipRequest{From: n.self(), Members: n.Members()}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// HandleMembers is GET /v1/cluster/members.
func (n *Node) HandleMembers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(MembersView{Self: n.self(), Members: n.Members()})
}

// ---- work stealing ------------------------------------------------------

type stealRequest struct {
	Thief string `json:"thief"` // thief's advertise URL (logs)
	Max   int    `json:"max"`
}

type stealResponse struct {
	Jobs []StolenJob `json:"jobs"`
}

type stealCompleteRequest struct {
	ID     string      `json:"id"`
	Error  string      `json:"error,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
}

func (n *Node) stealLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		// Victim-side janitor: take back handoffs whose thief went silent.
		if taken := n.be.ReclaimStolen(n.cfg.StealTimeout); taken > 0 {
			n.cfg.Logf("cluster: reclaimed %d stolen jobs (thief silent past %v)", taken, n.cfg.StealTimeout)
		}
		if n.cfg.DisableSteal {
			continue
		}
		n.stealOnce()
	}
}

// stealOnce steals from the most loaded alive peer when this node has free
// worker capacity. Stolen jobs run on goroutines of their own — they are
// bounded by the free capacity computed here, deliberately bypassing the
// local admission queue (stolen work must not be re-stealable or rejectable,
// it already has an owner waiting).
func (n *Node) stealOnce() {
	ld := n.be.Load()
	free := ld.Workers - ld.Inflight - ld.Queue
	if ld.Draining || free <= 0 {
		return
	}
	victim, ok := n.pickVictim()
	if !ok {
		return
	}
	n.stats.StealRequests.Add(1)
	var resp stealResponse
	err := n.roundTrip(http.MethodPost, victim.URL+"/v1/cluster/steal",
		stealRequest{Thief: n.cfg.Advertise, Max: free}, &resp, protoTimeout(n.cfg.StealInterval*8))
	if err != nil {
		n.cfg.Logf("cluster: steal from %s failed: %v", victim.URL, err)
		return
	}
	if len(resp.Jobs) == 0 {
		return
	}
	n.stats.StealJobsTaken.Add(uint64(len(resp.Jobs)))
	n.cfg.Logf("cluster: stole %d jobs from %s (its queue %d)", len(resp.Jobs), victim.URL, victim.Queue)
	for _, job := range resp.Jobs {
		n.wg.Add(1)
		go func(job StolenJob, victimURL string) {
			defer n.wg.Done()
			n.runStolen(job, victimURL)
		}(job, victim.URL)
	}
}

// pickVictim selects the alive, non-draining peer with the deepest queue at
// or above the steal threshold.
func (n *Node) pickVictim() (Member, bool) {
	var best Member
	found := false
	for _, m := range n.Members() {
		if m.ID == n.cfg.ID || m.State != StateAlive || m.Draining {
			continue
		}
		if m.Queue < n.cfg.StealThreshold {
			continue
		}
		if !found || m.Queue > best.Queue {
			best = m
			found = true
		}
	}
	return best, found
}

// runStolen executes one stolen job and reports the terminal result back to
// its victim. Delivery retries a few times; a victim that stays unreachable
// reclaims the job itself after StealTimeout — the simulation was not
// wasted, the result is in our caches and the next peer read finds it.
func (n *Node) runStolen(job StolenJob, victimURL string) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // stolen runs die with the node
		select {
		case <-n.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	res, err := n.be.RunStolen(ctx, job.Spec)
	if err != nil && ctx.Err() != nil {
		// This node is shutting down (ctx is only ever cancelled via
		// n.stop) — the error is our cancellation, not the simulation's
		// verdict. Deliver nothing: posting it would make the victim mark
		// the job failed and abort client sweeps over a routine rolling
		// restart. Staying silent is the designed path — the victim's
		// reclaim janitor re-queues the job after StealTimeout.
		n.cfg.Logf("cluster: abandoning stolen job %s at shutdown; %s will reclaim it", job.ID, victimURL)
		return
	}
	comp := stealCompleteRequest{ID: job.ID}
	if err != nil {
		comp.Error = err.Error()
	} else {
		comp.Result = &res
	}
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-n.stop:
				return
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			}
		}
		if perr := n.roundTrip(http.MethodPost, victimURL+"/v1/cluster/steal/complete", comp, nil, protoTimeout(n.cfg.StealTimeout/2)); perr == nil {
			return
		}
	}
	n.cfg.Logf("cluster: could not deliver stolen job %s back to %s; victim will reclaim", job.ID, victimURL)
}

// HandleSteal is POST /v1/cluster/steal: pop queued jobs into the handoff
// table and hand them to the thief. The "steal.cut" fault fires *after*
// ownership transferred, severing the response — the deterministic way to
// exercise the reclaim path.
func (n *Node) HandleSteal(w http.ResponseWriter, r *http.Request) {
	if !n.authorize(w, r) {
		return
	}
	var req stealRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Max <= 0 {
		req.Max = 1
	}
	jobs := n.be.StealJobs(req.Max)
	if len(jobs) > 0 && n.cfg.Faults.Cut("steal.cut") {
		// The jobs are already popped; aborting here models a thief that
		// never heard the answer. http.Server recovers this panic by
		// closing the connection without a response.
		panic(http.ErrAbortHandler)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(stealResponse{Jobs: jobs})
}

// HandleStealComplete is POST /v1/cluster/steal/complete: the thief
// delivering a stolen job's terminal result.
func (n *Node) HandleStealComplete(w http.ResponseWriter, r *http.Request) {
	if !n.authorize(w, r) {
		return
	}
	var req stealCompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var res sim.Result
	if req.Result != nil {
		res = *req.Result
	} else if req.Error == "" {
		http.Error(w, "steal completion carries neither result nor error", http.StatusBadRequest)
		return
	}
	if !n.be.CompleteStolen(req.ID, res, req.Error) {
		// Unknown handoff: reclaimed already, or a duplicate delivery. 410
		// tells the thief not to retry; nothing is wrong — the result also
		// lives in the thief's caches.
		http.Error(w, "unknown or reclaimed handoff", http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- cache peering ------------------------------------------------------

// HandlePeerRead is GET /v1/peer/results/{key}: serve the local disk tier,
// never simulate. The "peer.read" fault fails the endpoint server-side.
func (n *Node) HandlePeerRead(w http.ResponseWriter, r *http.Request) {
	if !n.authorize(w, r) {
		return
	}
	if err := n.cfg.Faults.Err("peer.read"); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	key := r.PathValue("key")
	res, ok := n.be.ReadLocal(key)
	if !ok {
		http.Error(w, "not cached here", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

// FetchPeer asks the top PeerFanout alive peers in key's rendezvous order
// for a cached result. Rendezvous ranking matters: client.Pool shards sweeps
// by the same hash, so the peer most likely to hold a key is asked first.
// Returns the result and the answering peer's URL.
func (n *Node) FetchPeer(key string) (sim.Result, string, bool) {
	if n.cfg.DisablePeerRead {
		return sim.Result{}, "", false
	}
	peers := n.rankPeers(key)
	if len(peers) > n.cfg.PeerFanout {
		peers = peers[:n.cfg.PeerFanout]
	}
	for _, url := range peers {
		n.stats.PeerLookups.Add(1)
		var res sim.Result
		if n.roundTrip(http.MethodGet, url+"/v1/peer/results/"+key, nil, &res, peerReadTimeout) == nil {
			n.stats.PeerFetched.Add(1)
			return res, url, true
		}
	}
	return sim.Result{}, "", false
}

// rankPeers orders alive peers (self excluded) by descending RendezvousScore
// for key, the ranking client.Pool shards by.
func (n *Node) rankPeers(key string) []string {
	type scored struct {
		url   string
		score uint64
	}
	var cands []scored
	for _, m := range n.Members() {
		if m.ID == n.cfg.ID || m.State != StateAlive {
			continue
		}
		cands = append(cands, scored{url: m.URL, score: RendezvousScore(key, m.URL)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	urls := make([]string, len(cands))
	for i, c := range cands {
		urls[i] = c.url
	}
	return urls
}

// RendezvousScore is the rendezvous (highest-random-weight) weight of
// (key, backend), fnv64a(backend, 0, key): the backend with the highest score
// owns the key. client.Pool places results by it and rankPeers looks for them
// by it, so peer read-through probes first the node the pool sent the point
// to.
func RendezvousScore(key, backend string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, backend)
	h.Write([]byte{0})
	io.WriteString(h, key)
	return h.Sum64()
}

// roundTrip is the one HTTP exchange under every cluster-plane call: the
// JSON body (nil for a GET), the fleet secret, the deadline, a non-2xx answer
// as an error, and a 2xx body decoded into out (nil discards it).
func (n *Node) roundTrip(method, url string, body, out any, timeout time.Duration) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if n.cfg.Secret != "" {
		req.Header.Set(ClusterKeyHeader, n.cfg.Secret)
	}
	resp, err := n.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Families declares the node's spbd_cluster_* series (the daemon appends them
// to its /metrics page).
func (n *Node) Families() []obs.Family {
	members := obs.Family{Name: "spbd_cluster_members", Type: "gauge", Help: "Fleet members in this node's table, by state.",
		Collect: func(emit func(string, any)) {
			count := map[string]int{}
			for _, m := range n.Members() {
				count[m.State]++
			}
			for _, state := range []string{StateAlive, StateSuspect} {
				emit(fmt.Sprintf("state=%q", state), count[state])
			}
		}}
	epoch := obs.Read("spbd_cluster_self_epoch", "gauge", "This node's liveness epoch (unix nanos at start).", n.Epoch)
	return append([]obs.Family{members, epoch}, obs.Families(&n.stats)...)
}
