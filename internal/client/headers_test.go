package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"spb/internal/obs"
	"spb/internal/server"
	"spb/internal/sim"
)

// TestEveryCallCarriesKeyAndTraceID: every call the client makes goes
// through one round trip, so each of them sends the tenant API key and the
// propagated trace ID when the client was built with them. The stub answers
// every route with the smallest body its caller accepts and records what
// arrived.
func TestEveryCallCarriesKeyAndTraceID(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]http.Header{} // "METHOD path" -> the request's headers
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path] = r.Header.Clone()
		mu.Unlock()
		switch {
		case strings.HasSuffix(r.URL.Path, "/events"):
			w.Header().Set("Content-Type", "text/event-stream")
			w.Write([]byte("event: done\ndata: {}\n\n"))
		case r.URL.Path == "/v1/batch":
			json.NewEncoder(w).Encode(server.BatchItem{Status: server.StatusDone})
		case r.URL.Path == "/metrics":
			w.Write([]byte("spbd_queue_depth 0\n"))
		default: // every JSON call decodes an object; done satisfies Run
			json.NewEncoder(w).Encode(map[string]any{"status": "done"})
		}
	}))
	defer ts.Close()

	cl := NewWithOptions(ts.URL, Options{APIKey: "k-test", TraceID: "trace-test"})
	ctx := context.Background()
	spec := sim.RunSpec{Workload: "mcf", Insts: 1000}
	calls := []struct {
		name, route string
		call        func() error
	}{
		{"Submit", "POST /v1/runs", func() error { _, err := cl.Submit(ctx, spec); return err }},
		{"Run", "POST /v1/runs", func() error { _, err := cl.Run(ctx, spec); return err }},
		{"Get", "GET /v1/runs/r1", func() error { _, err := cl.Get(ctx, "r1"); return err }},
		{"Cancel", "POST /v1/runs/r1/cancel", func() error { _, err := cl.Cancel(ctx, "r1"); return err }},
		{"JobTrace", "GET /v1/runs/r1/trace", func() error { _, err := cl.JobTrace(ctx, "r1"); return err }},
		{"Batch", "POST /v1/batch", func() error {
			return cl.Batch(ctx, []sim.RunSpec{spec}, func(server.BatchItem) error { return nil })
		}},
		{"Events", "GET /v1/runs/r1/events", func() error {
			return cl.Events(ctx, "r1", func(string, json.RawMessage) bool { return true })
		}},
		{"Ready", "GET /healthz", func() error { _, err := cl.Ready(ctx); return err }},
		{"Metrics", "GET /metrics", func() error { _, err := cl.Metrics(ctx); return err }},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			mu.Lock()
			delete(seen, c.route)
			mu.Unlock()
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			h := seen[c.route]
			mu.Unlock()
			if h == nil {
				t.Fatalf("no request reached %s", c.route)
			}
			if got := h.Get(server.TenantKeyHeader); got != "k-test" {
				t.Errorf("%s = %q, want the client's API key", server.TenantKeyHeader, got)
			}
			if got := h.Get(obs.TraceHeader); got != "trace-test" {
				t.Errorf("%s = %q, want the client's trace ID", obs.TraceHeader, got)
			}
		})
	}
}
