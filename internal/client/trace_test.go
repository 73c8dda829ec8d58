package client

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"spb/internal/obs"
	"spb/internal/server"
)

// TestClientTraceIDPropagates: a client-set trace ID travels the header to
// the daemon, lands on the job, and the trace is retrievable via JobTrace
// with the lifecycle phases on it.
func TestClientTraceIDPropagates(t *testing.T) {
	s, err := server.New(server.Config{
		Workers: 2,
		Tracer:  obs.NewTracer(0, nil),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	cl := NewWithOptions(ts.URL, Options{TraceID: "client-trace-7"})
	if got := cl.TraceID(); got != "client-trace-7" {
		t.Fatalf("TraceID() = %q", got)
	}

	v, err := cl.Run(context.Background(), quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != "client-trace-7" {
		t.Fatalf("job trace_id = %q, want the client's", v.TraceID)
	}
	tv, err := cl.JobTrace(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tv.TraceID != "client-trace-7" || tv.JobID != v.ID {
		t.Fatalf("JobTrace = %+v", tv)
	}
	names := map[string]bool{}
	for _, sp := range tv.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"submit", "queue-wait", "run"} {
		if !names[want] {
			t.Fatalf("trace missing %q span: %+v", want, tv.Spans)
		}
	}
	if tv.TotalNS <= 0 {
		t.Fatalf("total_ns = %d", tv.TotalNS)
	}
}

// TestPoolMintsSweepTraceID: a pool without an explicit trace ID mints one
// so a whole distributed sweep shares a single trace ID.
func TestPoolMintsSweepTraceID(t *testing.T) {
	s, err := server.New(server.Config{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	p, err := newPool([]string{ts.URL}, func(p *Pool) { p.hedgeMin, p.logf = time.Hour, t.Logf })
	if err != nil {
		t.Fatal(err)
	}
	if len(p.backends) != 1 || p.backends[0].client.TraceID() == "" {
		t.Fatal("pool clients must carry a minted sweep trace ID")
	}
}
