// Package client is the Go client for the spbd simulation service. It
// mirrors the sim package's Run/Get shape — submit a sim.RunSpec, get a
// result — but over HTTP, so sweep harnesses and load generators can target
// a shared daemon (and its caches) instead of simulating in-process.
//
// Transient failures are retried with capped exponential backoff plus
// jitter, honoring Retry-After: every request is idempotent (specs are
// content-keyed and the daemon deduplicates), so a retried submission
// coalesces onto the original job or hits a cache tier rather than
// simulating twice.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"spb/internal/obs"
	"spb/internal/server"
	"spb/internal/sim"
)

// RetryPolicy shapes the client's transient-failure handling: up to
// MaxAttempts tries per call, exponential backoff from retryBaseDelay capped
// at retryMaxDelay (with jitter), the whole call bounded by retryBudget. A
// Retry-After header from the daemon (429 backpressure) overrides the
// computed backoff.
type RetryPolicy struct {
	MaxAttempts int // total tries including the first (default 4; negative disables retries)

	baseDelay time.Duration // retryBaseDelay; a field so the package's tests can shorten it
}

const (
	// retryBaseDelay is the first backoff step: doubling from it, the
	// default four tries wait at most 0.7 s in all, so a blip costs little.
	retryBaseDelay = 100 * time.Millisecond
	// retryMaxDelay is the backoff ceiling: past it a daemon is down, not
	// busy, and waiting longer between tries only delays saying so.
	retryMaxDelay = 5 * time.Second
	// retryBudget bounds one call's wall clock, waits included: a retry
	// whose backoff would cross it is not attempted.
	retryBudget = 30 * time.Second
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.MaxAttempts < 0 {
		p.MaxAttempts = 1
	}
	if p.baseDelay <= 0 {
		p.baseDelay = retryBaseDelay
	}
	return p
}

// backoff computes the wait before try number attempt (1-based over
// retries). A daemon-supplied Retry-After wins; otherwise exponential with
// equal jitter so a fleet of clients does not retry in lockstep.
func (p RetryPolicy) backoff(attempt int, lastErr error) time.Duration {
	var se *StatusError
	if errors.As(lastErr, &se) {
		if d, ok := parseRetryAfter(se.RetryAfter); ok {
			return d
		}
	}
	d := p.baseDelay << (attempt - 1)
	if d > retryMaxDelay || d <= 0 {
		d = retryMaxDelay
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// parseRetryAfter understands both Retry-After forms: delta-seconds and an
// HTTP date.
func parseRetryAfter(s string) (time.Duration, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if when, err := http.ParseTime(s); err == nil {
		if d := time.Until(when); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// Options configures a Client beyond its base URL.
type Options struct {
	// HTTPClient overrides the transport (default: a fresh http.Client).
	HTTPClient *http.Client
	// Retry is the transient-failure policy; the zero value means the
	// defaults documented on RetryPolicy.
	Retry RetryPolicy
	// TraceID, when set, is propagated to the daemon on every request via
	// the X-Spb-Trace-Id header, grouping all jobs this client submits under
	// one trace (e.g. a sweep). Empty sends no header; the daemon then mints
	// a fresh ID per job when tracing is enabled.
	TraceID string
	// APIKey is the tenant API key, sent on every request via the
	// X-Spb-Api-Key header. Required against daemons configured with
	// tenants; ignored otherwise.
	APIKey string
}

// Client talks to one spbd instance.
type Client struct {
	base    string
	http    *http.Client
	retry   RetryPolicy
	traceID string
	apiKey  string
}

// New returns a client for the daemon at base (e.g. "http://localhost:7077")
// with default retry behavior.
func New(base string) *Client { return NewWithOptions(base, Options{}) }

// NewWithOptions returns a client with explicit transport, retry, trace and
// tenant settings.
func NewWithOptions(base string, opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		base:    strings.TrimRight(base, "/"),
		http:    hc,
		retry:   opts.Retry.withDefaults(),
		traceID: opts.TraceID,
		apiKey:  opts.APIKey,
	}
}

// TraceID reports the trace ID this client stamps on its requests ("" when
// unset).
func (c *Client) TraceID() string { return c.traceID }

// StatusError is a non-2xx response from the daemon.
type StatusError struct {
	Code       int
	Message    string
	RetryAfter string // the Retry-After header, when present (429/503)
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("spbd: HTTP %d: %s", e.Code, e.Message)
}

// retryable reports whether err is transient: daemon backpressure and
// gateway-style statuses, and transport-level failures.
// Context cancellation, 4xx mistakes, and malformed responses are not.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	var ue *url.Error
	return errors.As(err, &ue) // connection refused/reset, truncated response, ...
}

// retrying runs attempt under the retry policy — the client's one retry
// loop. attempt reports final when its failure must not be retried whatever
// the error (a batch stream that already delivered lines to its caller).
func (c *Client) retrying(ctx context.Context, attempt func() (final bool, err error)) error {
	start := time.Now()
	var lastErr error
	for n := 0; n < c.retry.MaxAttempts; n++ {
		if n > 0 {
			delay := c.retry.backoff(n, lastErr)
			if time.Since(start)+delay > retryBudget {
				break
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		final, err := attempt()
		if err == nil {
			return nil
		}
		lastErr = err
		if final || !retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// roundTrip is the one HTTP exchange under every call: the request with the
// client's trace ID and API key on it, and a non-2xx answer turned into a
// *StatusError. On a nil error the caller owns resp.Body. probe marks the
// readiness probe, the one call that takes a 503 for an answer.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, probe bool) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.traceID != "" {
		req.Header.Set(obs.TraceHeader, c.traceID)
	}
	if c.apiKey != "" {
		req.Header.Set(server.TenantKeyHeader, c.apiKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 || probe && resp.StatusCode == http.StatusServiceUnavailable {
		return resp, nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var e struct {
		Error string `json:"error"`
	}
	if _ = json.Unmarshal(data, &e); e.Error == "" { // not the daemon's JSON error shape: report the body as it is
		e.Error = strings.TrimSpace(string(data))
	}
	return nil, &StatusError{Code: resp.StatusCode, Message: e.Error, RetryAfter: resp.Header.Get("Retry-After")}
}

// do runs one request under the retry policy and returns the response body.
// A request body is marshalled once and replayed on every attempt.
func (c *Client) do(ctx context.Context, method, path string, body any) (data []byte, err error) {
	var sent []byte
	if body != nil {
		if sent, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	err = c.retrying(ctx, func() (bool, error) {
		resp, err := c.roundTrip(ctx, method, path, sent, false)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		data, err = io.ReadAll(resp.Body)
		return false, err
	})
	return data, err
}

// call is do for the endpoints that answer one JSON document of type T.
func call[T any](c *Client, ctx context.Context, method, path string, body any) (v T, err error) {
	data, err := c.do(ctx, method, path, body)
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	return v, err
}

// Submit enqueues spec without waiting and returns the accepted (or
// cache-answered) job view.
func (c *Client) Submit(ctx context.Context, spec sim.RunSpec) (server.JobView, error) {
	return call[server.JobView](c, ctx, http.MethodPost, "/v1/runs", server.Request(spec))
}

// Run submits spec and blocks until the daemon returns the result (the
// ?wait=1 form). Cancelling ctx abandons the request; if no other client is
// interested the daemon stops the simulation. Transient failures retry —
// safe because a re-submitted spec coalesces or cache-hits.
func (c *Client) Run(ctx context.Context, spec sim.RunSpec) (server.JobView, error) {
	v, err := call[server.JobView](c, ctx, http.MethodPost, "/v1/runs?wait=1", server.Request(spec))
	if err == nil && v.Status != server.StatusDone {
		err = fmt.Errorf("spbd: run %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	return v, err
}

// Get fetches the current view of a job.
func (c *Client) Get(ctx context.Context, id string) (server.JobView, error) {
	return call[server.JobView](c, ctx, http.MethodGet, "/v1/runs/"+id, nil)
}

// JobTrace fetches a job's per-phase span timeline. The daemon answers 404
// when the job is unknown or tracing is disabled.
func (c *Client) JobTrace(ctx context.Context, id string) (obs.TraceView, error) {
	return call[obs.TraceView](c, ctx, http.MethodGet, "/v1/runs/"+id+"/trace", nil)
}

// Cancel asks the daemon to stop a job.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobView, error) {
	return call[server.JobView](c, ctx, http.MethodPost, "/v1/runs/"+id+"/cancel", nil)
}

// Wait polls a job until it reaches a terminal state.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobView, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		v, err := c.Get(ctx, id)
		if err != nil {
			return v, err
		}
		if v.Status.Terminal() {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Events subscribes to a job's SSE stream and invokes fn for every event
// until the stream ends (job terminal), ctx is cancelled, or fn returns
// false.
func (c *Client) Events(ctx context.Context, id string, fn func(name string, data json.RawMessage) bool) error {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/v1/runs/"+id+"/events", nil, false)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var name string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if !fn(name, json.RawMessage(strings.TrimPrefix(line, "data: "))) {
				return nil
			}
			if name == "done" {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// Healthz fetches the daemon's liveness document.
func (c *Client) Healthz(ctx context.Context) (map[string]any, error) {
	return call[map[string]any](c, ctx, http.MethodGet, "/healthz", nil)
}

// ReadyView is the readiness document served at GET /healthz?ready=1.
type ReadyView struct {
	Status        string   `json:"status"`
	Ready         bool     `json:"ready"`
	Draining      bool     `json:"draining"`
	Degraded      bool     `json:"degraded"`
	QueueHeadroom int      `json:"queue_headroom"`
	Reasons       []string `json:"reasons"`
}

// Ready probes the daemon's readiness. Unlike every other call it never
// retries: a 503 *is* the answer (an unready view with a nil error), and
// probing is itself the recovery path. Only transport-level failure (or
// another status) returns an error.
func (c *Client) Ready(ctx context.Context) (rv ReadyView, err error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/healthz?ready=1", nil, true)
	if err != nil {
		return rv, err
	}
	defer resp.Body.Close()
	return rv, json.NewDecoder(resp.Body).Decode(&rv)
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	data, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	return string(data), err
}
