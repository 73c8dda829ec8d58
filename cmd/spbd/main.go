// Command spbd is the simulation-as-a-service daemon: it accepts RunSpec
// jobs over HTTP, deduplicates them per spec, answers repeats from its
// result tiers (the in-memory memo, then a content-addressed disk store that
// survives restarts) and runs the rest on a bounded worker pool fed by one
// FIFO queue.
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
// -tenants requires an API key on every submit, batch and cancel, and labels
// each job with its tenant's name.
//
// With -journal the daemon keeps a directory with one durable file per
// accepted job that has not ended and re-admits those jobs on startup, so
// queued and running jobs survive a crash (kill -9 included) under their
// original IDs. A run the crash
// interrupted starts again from zero and ends with the bytes it would have.
//
// Every disk-store and journal write is fsynced, and so is the directory
// entry that names it, so a stored result or an accepted job outlives a
// power loss, not just a crash of the process.
//
// On SIGTERM/SIGINT the daemon drains: submissions get 503, queued and
// running jobs finish and persist (for up to 30 s), then it exits.
//
// Example:
//
//	spbd -addr :7077 -cache-dir /var/cache/spbd &
//	curl -s localhost:7077/v1/runs?wait=1 -d '{"workload":"bwaves","policy":"spb","sb":56}'
//
// Several daemons are a static list, sharded by the client pool's
// rendezvous hash; each daemon knows nothing of the others:
//
//	spbd -addr :7077 & spbd -addr :7078 & spbd -addr :7079 &
//	spbsweep -server localhost:7077,localhost:7078,localhost:7079 ...
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
	"syscall"
	"time"

	"spb/internal/faults"
	"spb/internal/obs"
	"spb/internal/prof"
	"spb/internal/server"
)

// drainTimeout is how long a SIGTERM lets queued and running jobs finish
// before the runs still going are cancelled.
const drainTimeout = 30 * time.Second

func main() {
	var (
		addr        = flag.String("addr", ":7077", "listen address (host:port; port 0 picks a free port)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations")
		cacheDir    = flag.String("cache-dir", "", "content-addressed result store directory (empty = memory tier only)")
		journalPath = flag.String("journal", "", "durable job journal directory, one file per live job: queued and running jobs survive daemon crashes, kill -9 included (empty disables)")
		runTimeout  = flag.Duration("run-timeout", 0, "per-run execution cap (0 = unlimited)")
		faultSpec   = flag.String("faults", "", "fault injection spec, e.g. 'seed=7;store.read:corrupt:0.1;batch.stream:cut:0.01' (empty disables)")
		trace       = flag.Bool("trace", true, "record per-phase span timelines for every job (GET /v1/runs/{id}/trace)")
		traceLog    = flag.String("trace-log", "", "append finished traces as NDJSON to this file (empty disables)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables; port 0 picks a free port)")
		tenantsSpec = flag.String("tenants", os.Getenv("SPB_TENANTS"), "tenant API keys 'name:key;...' (default: $SPB_TENANTS; empty = single implicit tenant, no auth)")
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
		tracer = obs.NewTracer(obs.DefaultTraceCapacity, sink)
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
		CacheDir:    *cacheDir,
		JournalPath: *journalPath,
		RunTimeout:  *runTimeout,
		Faults:      injector,
		Tracer:      tracer,
		Tenants:     tenants,
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
	fmt.Printf("spbd: listening on %s (workers %d, cache %q)\n", ln.Addr(), *workers, *cacheDir)

	hs := newHTTPServer(srv)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		log.Printf("spbd: %v received, draining (budget %v)", got, drainTimeout)
	case err := <-errCh:
		log.Fatalf("spbd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
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
