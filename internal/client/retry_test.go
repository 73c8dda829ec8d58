package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spb/internal/server"
)

func TestParseRetryAfter(t *testing.T) {
	if d, ok := parseRetryAfter("2"); !ok || d != 2*time.Second {
		t.Fatalf("parseRetryAfter(2) = %v, %v", d, ok)
	}
	if d, ok := parseRetryAfter(" 0 "); !ok || d != 0 {
		t.Fatalf("parseRetryAfter(0) = %v, %v", d, ok)
	}
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if d, ok := parseRetryAfter(future); !ok || d <= 0 || d > 3*time.Second {
		t.Fatalf("parseRetryAfter(date) = %v, %v", d, ok)
	}
	for _, bad := range []string{"", "soon", "-1"} {
		if _, ok := parseRetryAfter(bad); ok {
			t.Fatalf("parseRetryAfter(%q) accepted", bad)
		}
	}
}

// TestClientRetries429WithRetryAfter is the satellite bugfix: backpressure
// responses are consumed by the retry loop, not surfaced to the caller.
func TestClientRetries429WithRetryAfter(t *testing.T) {
	var calls atomic.Int64
	backend, cl := testDaemon(t)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	cl = NewWithOptions(front.URL, Options{Retry: RetryPolicy{baseDelay: time.Millisecond}})

	v, err := cl.Run(context.Background(), quickSpec)
	if err != nil {
		t.Fatalf("Run through 429s: %v", err)
	}
	if v.Status != server.StatusDone {
		t.Fatalf("run ended %s", v.Status)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("made %d calls, want 3 (two 429s then success)", n)
	}
}

func TestClientRetryExhaustionSurfaces429(t *testing.T) {
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full"}`))
	}))
	t.Cleanup(always.Close)
	cl := NewWithOptions(always.URL, Options{Retry: RetryPolicy{MaxAttempts: 3, baseDelay: time.Millisecond}})

	_, err := cl.Run(context.Background(), quickSpec)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted retries returned %v, want the 429", err)
	}
}

// roundTripFunc is an http.RoundTripper made of a function: the seam a
// test fails the transport through.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func TestClientRetriesInjectedTransportFault(t *testing.T) {
	_, daemon := testDaemon(t)
	var trips atomic.Int64
	failing := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if trips.Add(1) <= 2 {
			return nil, errors.New("injected transport fault")
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	cl := NewWithOptions(daemon.base, Options{
		HTTPClient: &http.Client{Transport: failing},
		Retry:      RetryPolicy{baseDelay: time.Millisecond},
	})

	if _, err := cl.Run(context.Background(), quickSpec); err != nil {
		t.Fatalf("Run through injected transport faults: %v", err)
	}
	if got := trips.Load(); got != 3 {
		t.Fatalf("%d round trips, want 3 (two failed, the third answered)", got)
	}
}

func TestClientDoesNotRetryBadRequests(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad spec"}`))
	}))
	t.Cleanup(srv.Close)
	cl := NewWithOptions(srv.URL, Options{Retry: RetryPolicy{baseDelay: time.Millisecond}})

	_, err := cl.Run(context.Background(), quickSpec)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was retried (%d calls)", calls.Load())
	}
}

func TestClientReadyProbe(t *testing.T) {
	s, cl := testDaemon(t)
	rv, err := cl.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rv.Ready || rv.Draining || rv.QueueHeadroom <= 0 {
		t.Fatalf("fresh daemon readiness = %+v", rv)
	}

	// Drain the daemon: the probe reports unready with a nil error (503 is
	// the answer, not a failure).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rv, err = cl.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rv.Ready || !rv.Draining {
		t.Fatalf("draining daemon readiness = %+v", rv)
	}
}
