package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spb/internal/server"
	"spb/internal/sim"
)

func TestBreakerStateMachine(t *testing.T) {
	br := newBreaker(2, 10*time.Millisecond, 3)
	ok, trial, _ := br.Acquire()
	if !ok || trial {
		t.Fatalf("fresh breaker Acquire = ok %v, trial %v", ok, trial)
	}
	br.Fail(false)
	if br.State() != breakerClosed {
		t.Fatal("one soft failure opened the circuit before the threshold")
	}
	br.Fail(false)
	if br.State() != breakerOpen {
		t.Fatalf("threshold soft failures left the circuit %s, want open", br.State())
	}
	if ok, _, wait := br.Acquire(); ok || wait <= 0 {
		t.Fatalf("open circuit admitted a dispatch (ok %v, wait %v)", ok, wait)
	}
	time.Sleep(15 * time.Millisecond)
	ok, trial, _ = br.Acquire()
	if !ok || !trial {
		t.Fatalf("cooled-down circuit did not offer a half-open trial (ok %v, trial %v)", ok, trial)
	}
	if ok, _, wait := br.Acquire(); ok || wait <= 0 {
		t.Fatal("half-open circuit admitted a second trial while one was in flight")
	}
	br.Success()
	if br.State() != breakerClosed {
		t.Fatal("successful trial did not close the circuit")
	}

	// Hard failures trip immediately; maxTrips consecutive trips without an
	// intervening success bury the backend for good.
	for i := 0; i < 3; i++ {
		if br.Dead() {
			t.Fatalf("breaker dead after %d trips, want 3", i)
		}
		br.Fail(true)
		time.Sleep(15 * time.Millisecond)
		br.Acquire() // the half-open trial the next Fail kills
	}
	if !br.Dead() {
		t.Fatal("three consecutive trips did not mark the breaker dead")
	}
	br.Success()
	if !br.Dead() {
		t.Fatal("Success resurrected a dead breaker")
	}
	if ok, _, wait := br.Acquire(); ok || wait != 0 {
		t.Fatalf("dead breaker Acquire = ok %v, wait %v; want evacuate signal (false, 0)", ok, wait)
	}
}

// TestPoolBreakerTripsAndRecovers covers the closed → open → half-open →
// closed round trip end to end: the pool's only backend goes dark (every
// connection severed before a byte is written), the circuit trips, the
// backend comes back, and the next half-open trial's readiness probe lets
// the sweep finish — no point lost, no error surfaced.
func TestPoolBreakerTripsAndRecovers(t *testing.T) {
	s, err := server.New(server.Config{Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var broken atomic.Bool
	broken.Store(true)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
			}
			return
		}
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)

	p, err := newPool([]string{front.URL}, func(p *Pool) {
		p.maxInflight = 4
		p.breakerThreshold = 2
		p.breakerCooldown = 10 * time.Millisecond
		p.breakerMaxTrips = 1 << 20 // the outage is transient; never give up
		p.logf = t.Logf
	})
	if err != nil {
		t.Fatal(err)
	}

	specs := []sim.RunSpec{poolSpec(1), poolSpec(2), poolSpec(3)}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type out struct {
		res []sim.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := p.GetAllCtx(ctx, specs)
		ch <- out{res, err}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := p.backends[0].breaker.State(); st == breakerOpen || st == breakerHalfOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("circuit never opened against the dark backend")
		}
		time.Sleep(time.Millisecond)
	}
	broken.Store(false) // the backend recovers

	got := <-ch
	if got.err != nil {
		t.Fatalf("sweep failed across the outage: %v", got.err)
	}
	for i, spec := range specs {
		local, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.res[i].CPU != local.CPU {
			t.Fatalf("spec %d: post-recovery result differs from local run", i)
		}
	}
	if st := p.backends[0].breaker.State(); st != breakerClosed {
		t.Fatalf("circuit ended %s, want closed", st)
	}
}
