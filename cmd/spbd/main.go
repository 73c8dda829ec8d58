// Command spbd is the simulation-as-a-service daemon: it accepts RunSpec
// jobs over HTTP, deduplicates them per spec, answers repeats from its
// result tiers (the in-memory memo, a content-addressed disk store that
// survives restarts and, in a cluster, the peers' disk stores) and runs the
// rest on a bounded worker pool fed by a tenant-aware queue (strict priority
// lanes, weighted-fair within a lane).
//
// Endpoints:
//
//	POST /v1/runs            submit a run (JSON RunRequest; ?wait=1 blocks for the result)
//	POST /v1/batch           submit a whole sweep, results streamed back as NDJSON
//	GET  /v1/runs            list the live runs and the most recently ended ones
//	GET  /v1/runs/{id}       job status + stats when done
//	GET  /v1/runs/{id}/events  SSE progress stream (committed, cycles, IPC-so-far)
//	POST /v1/runs/{id}/cancel  stop a queued or running job
//	GET  /v1/runs/{id}/trace   per-phase span timeline (submit, queue-wait, run, ...)
//	GET  /healthz            liveness (always 200 while the process is up)
//	GET  /healthz?ready=1    readiness (queue headroom, disk-tier state, drain)
//	GET  /metrics            Prometheus text metrics (counters + phase latency histograms)
//
// With -cluster-join (or a bare -cluster-advertise) the daemon becomes a
// cluster node: it gossips membership with its peers, serves its disk tier
// to them (GET /v1/peer/results/{key}), lets idle peers steal its queued
// jobs, and advertises itself at GET /v1/cluster/members so clients can
// discover the fleet from any one seed. -tenants turns on multi-tenant
// admission: API keys, weighted-fair scheduling, priority lanes, quotas.
//
// With -journal the daemon keeps a durable write-ahead log of accepted
// jobs and replays it on startup, so queued and running jobs survive a
// crash (kill -9 included) under their original IDs; -checkpoint-dir
// additionally checkpoints long runs mid-flight so a restarted daemon
// resumes them from the last checkpoint with byte-identical results.
//
// On SIGTERM/SIGINT the daemon drains: submissions get 503, queued and
// running jobs finish and persist (bounded by -drain-timeout), then it
// exits.
//
// Example:
//
//	spbd -addr :7077 -cache-dir /var/cache/spbd &
//	curl -s localhost:7077/v1/runs?wait=1 -d '{"workload":"bwaves","policy":"spb","sb":56}'
//
// Three-node cluster:
//
//	spbd -addr :7077 -cluster-advertise auto &
//	spbd -addr :7078 -cluster-advertise auto -cluster-join localhost:7077 &
//	spbd -addr :7079 -cluster-advertise auto -cluster-join localhost:7077 &
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"spb/internal/cluster"
	"spb/internal/faults"
	"spb/internal/obs"
	"spb/internal/prof"
	"spb/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":7077", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations")
		queueDepth   = flag.Int("queue", 64, "max queued jobs before 429 backpressure")
		cacheDir     = flag.String("cache-dir", "", "content-addressed result store directory (empty = memory tier only)")
		journalPath  = flag.String("journal", "", "durable job journal file: queued and running jobs survive daemon crashes, kill -9 included (empty disables)")
		ckptDir      = flag.String("checkpoint-dir", "", "mid-run checkpoint directory: long simulations resume from their last checkpoint after a crash (empty disables)")
		ckptInsts    = flag.Uint64("checkpoint-insts", 10_000_000, "checkpoint cadence in committed instructions per core")
		storeSync    = flag.Bool("store-sync", true, "fsync disk-store, journal and checkpoint writes (disable only for throwaway test daemons)")
		runTimeout   = flag.Duration("run-timeout", 0, "per-run execution cap (0 = unlimited)")
		sseInterval  = flag.Duration("sse-interval", 250*time.Millisecond, "progress event period on /events streams")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before in-flight runs are cancelled")
		faultSpec    = flag.String("faults", os.Getenv("SPB_FAULTS"), "fault injection spec, e.g. 'seed=7;store.read:corrupt:0.1;batch.stream:cut:0.01' (default: $SPB_FAULTS; empty disables)")
		trace        = flag.Bool("trace", true, "record per-phase span timelines for every job (GET /v1/runs/{id}/trace)")
		traceCap     = flag.Int("trace-capacity", obs.DefaultTraceCapacity, "traces retained in memory; older ones are evicted first")
		traceLog     = flag.String("trace-log", "", "append finished traces as NDJSON to this file (empty disables)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables; port 0 picks a free port)")

		clusterAdvertise = flag.String("cluster-advertise", "", "join the cluster advertising this base URL; \"auto\" advertises the bound listen address (empty = standalone)")
		clusterJoin      = flag.String("cluster-join", "", "comma-separated seed peer URLs to gossip with")
		clusterID        = flag.String("cluster-id", "", "stable node id (default: the advertised URL)")
		gossipInterval   = flag.Duration("gossip-interval", 500*time.Millisecond, "membership gossip period")
		clusterSteal     = flag.Bool("cluster-steal", true, "steal queued jobs from overloaded peers when idle")
		stealTimeout     = flag.Duration("steal-timeout", 30*time.Second, "reclaim a stolen job if the thief stays silent this long")
		peerRead         = flag.Bool("peer-read", true, "consult peer disk caches before simulating a miss")
		clusterSecret    = flag.String("cluster-secret", os.Getenv("SPB_CLUSTER_SECRET"), "shared fleet secret authenticating gossip/steal/peer-read endpoints (default: $SPB_CLUSTER_SECRET; empty leaves the cluster plane open)")
		tenantsSpec      = flag.String("tenants", os.Getenv("SPB_TENANTS"), "tenant spec 'name:key[:weight=N][:prio=high|normal|low][:quota=N];...' (default: $SPB_TENANTS; empty = single implicit tenant, no auth)")
	)
	flag.Parse()

	injector, err := faults.Parse(*faultSpec)
	if err != nil {
		log.Fatalf("spbd: -faults: %v", err)
	}
	if injector.Enabled() {
		log.Printf("spbd: FAULT INJECTION ACTIVE: %s", injector)
	}

	var tracer *obs.Tracer
	if *trace {
		var sink io.Writer
		if *traceLog != "" {
			f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("spbd: -trace-log: %v", err)
			}
			defer f.Close()
			sink = f
		}
		tracer = obs.NewTracer(*traceCap, sink)
	}

	if *debugAddr != "" {
		dbg, err := prof.DebugServer(*debugAddr)
		if err != nil {
			log.Fatalf("spbd: %v", err)
		}
		log.Printf("spbd: pprof on http://%s/debug/pprof/", dbg)
	}

	tenants, err := server.ParseTenants(*tenantsSpec)
	if err != nil {
		log.Fatalf("spbd: -tenants: %v", err)
	}

	srv, err := server.New(server.Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		CacheDir:    *cacheDir,
		RunTimeout:  *runTimeout,
		SSEInterval: *sseInterval,
		Faults:      injector,
		Tracer:      tracer,
		Tenants:     tenants,

		JournalPath:     *journalPath,
		CheckpointDir:   *ckptDir,
		CheckpointInsts: *ckptInsts,
		DisableSync:     !*storeSync,
	})
	if err != nil {
		log.Fatalf("spbd: %v", err)
	}
	if len(tenants) > 0 {
		log.Printf("spbd: multi-tenant mode: %d tenants configured", len(tenants))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("spbd: listen %s: %v", *addr, err)
	}
	// Port 0 resolves at bind time; print the real address so scripts can
	// scrape it.
	fmt.Printf("spbd: listening on %s (workers %d, queue %d, cache %q)\n",
		ln.Addr(), *workers, *queueDepth, *cacheDir)

	// Cluster mode: the advertise URL must resolve after the listener is
	// bound so "-cluster-advertise auto" works with port 0.
	var node *cluster.Node
	if *clusterAdvertise != "" || *clusterJoin != "" {
		adv := *clusterAdvertise
		if adv == "" || adv == "auto" {
			adv = advertiseFor(ln.Addr())
		}
		var seeds []string
		for _, s := range strings.Split(*clusterJoin, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
		node, err = cluster.New(cluster.Config{
			ID:              *clusterID,
			Advertise:       adv,
			Seeds:           seeds,
			GossipInterval:  *gossipInterval,
			DisableSteal:    !*clusterSteal,
			StealTimeout:    *stealTimeout,
			DisablePeerRead: !*peerRead,
			Secret:          *clusterSecret,
			Faults:          injector,
			Logf:            log.Printf,
		}, srv)
		if err != nil {
			log.Fatalf("spbd: cluster: %v", err)
		}
		srv.AttachCluster(node)
		node.Start()
		log.Printf("spbd: cluster node %s advertising %s (seeds %v, steal %v, peer-read %v, secured %v)",
			node.ID(), adv, seeds, *clusterSteal, *peerRead, *clusterSecret != "")
		if len(tenants) > 0 && *clusterSecret == "" {
			log.Printf("spbd: WARNING: -tenants is set but -cluster-secret is empty; " +
				"the cluster plane (steal, peer reads, gossip) accepts unauthenticated callers")
		}
	}

	hs := newHTTPServer(srv)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		log.Printf("spbd: %v received, draining (budget %v)", got, *drainTimeout)
	case err := <-errCh:
		log.Fatalf("spbd: serve: %v", err)
	}

	// Leave the cluster first: stop gossiping/stealing so peers stop routing
	// work here while the drain empties the queue. The victim-side reclaim
	// of silent thieves' handoffs survives this — Drain stands in for the
	// stopped janitor and finishes reclaimed jobs locally.
	if node != nil {
		node.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("spbd: drain incomplete, in-flight runs cancelled: %v", err)
	} else {
		log.Printf("spbd: drained cleanly")
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("spbd: http shutdown: %v", err)
	}
}

// newHTTPServer wraps the daemon handler with connection hygiene: a
// slowloris client dribbling request headers is cut off, and idle
// keep-alive connections are reaped instead of accumulating. There is
// deliberately no global WriteTimeout — /v1/runs/{id}/events (SSE) and
// /v1/batch (NDJSON) are long-lived streams that must stay open for as long
// as the work runs; a write deadline would sever every slow sweep.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// advertiseFor derives a peer-reachable base URL from the bound listen
// address: a wildcard host (":7077", "0.0.0.0", "[::]") becomes localhost —
// right for single-host fleets and CI; multi-host deployments should pass
// an explicit -cluster-advertise.
func advertiseFor(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port)
}
