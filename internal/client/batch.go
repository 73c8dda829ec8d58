package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"spb/internal/server"
	"spb/internal/sim"
)

// Batch submits specs as one POST /v1/batch request and invokes fn for
// every NDJSON item the daemon streams back — acknowledgment lines (status
// "queued", carrying the job id) and one terminal line per spec index, in
// completion order. A whole sweep costs one connection instead of N
// submit+poll loops. fn returning an error abandons the stream (the daemon
// releases the batch's interest in outstanding jobs) and Batch returns that
// error.
//
// A connect that fails before the first line is consumed retries under the
// client's RetryPolicy. Once any line has reached fn the indices are live
// and Batch cannot transparently retry — mid-stream failures surface to the
// caller, and BatchResults layers spec-level resume on top.
func (c *Client) Batch(ctx context.Context, specs []sim.RunSpec, fn func(server.BatchItem) error) error {
	reqs := make([]server.RunRequest, len(specs))
	for i, s := range specs {
		reqs[i] = server.Request(s)
	}
	body, err := json.Marshal(server.BatchRequest{Specs: reqs})
	if err != nil {
		return err
	}
	return c.retrying(ctx, func() (bool, error) { return c.batchOnce(ctx, body, fn) })
}

// batchOnce performs a single batch request. consumed reports whether any
// stream line reached fn (after which a retry would replay indices).
func (c *Client) batchOnce(ctx context.Context, body []byte, fn func(server.BatchItem) error) (consumed bool, err error) {
	resp, err := c.roundTrip(ctx, http.MethodPost, "/v1/batch", body, false)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024) // result payloads are large
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var it server.BatchItem
		if err := json.Unmarshal(line, &it); err != nil {
			return consumed, fmt.Errorf("spbd: bad batch line %q: %w", line, err)
		}
		consumed = true
		if err := fn(it); err != nil {
			return consumed, err
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return consumed, err
	}
	return consumed, ctx.Err()
}

// batchMaxStalls bounds consecutive resume attempts that resolve zero new
// specs before BatchResults gives up — a stream that keeps dying without
// progress is a real outage, not a blip.
const batchMaxStalls = 3

// errKeepPending, returned by a BatchEach callback for a terminal item,
// marks the spec unresolved — it is re-requested on the next resume —
// instead of aborting the batch. Package-internal: BatchResults uses it
// for truncated/garbled result payloads, which are stream-level damage.
var errKeepPending = fmt.Errorf("spbd: batch item kept pending")

// BatchEach is the resumable form of Batch: it streams specs through the
// batch endpoint and invokes fn for every NDJSON line with Index remapped
// to the caller's spec order. A stream that dies mid-sweep (connection
// cut, daemon restarted behind a proxy) is *resumed*: only the specs whose
// terminal lines were not received are re-requested, and because the
// daemon deduplicates content-keyed specs against its active jobs and
// caches, the resume coalesces or cache-hits rather than re-simulating —
// each spec is still simulated exactly once. Terminal lines are delivered
// at most once per spec; acknowledgment lines for still-pending specs may
// repeat across resumes. fn returning an error aborts the batch with it.
func (c *Client) BatchEach(ctx context.Context, specs []sim.RunSpec, fn func(server.BatchItem) error) error {
	resolved := make([]bool, len(specs))
	pending := make([]int, len(specs)) // original indices still unresolved
	for i := range pending {
		pending[i] = i
	}
	stalls := 0
	for len(pending) > 0 {
		cur := pending
		subset := make([]sim.RunSpec, len(cur))
		for i, idx := range cur {
			subset[i] = specs[idx]
		}
		progressed := false
		var fnErr error
		err := c.Batch(ctx, subset, func(it server.BatchItem) error {
			if it.Index < 0 || it.Index >= len(cur) {
				return nil
			}
			orig := cur[it.Index]
			if resolved[orig] {
				return nil
			}
			it.Index = orig
			err := fn(it)
			switch {
			case err == nil:
				if it.Status.Terminal() {
					resolved[orig] = true
					progressed = true
				}
				return nil
			case err == errKeepPending:
				return nil
			default:
				fnErr = err
				return err
			}
		})
		if fnErr != nil {
			return fnErr
		}
		if err != nil && ctx.Err() != nil {
			return err
		}
		next := pending[:0]
		for _, idx := range pending {
			if !resolved[idx] {
				next = append(next, idx)
			}
		}
		pending = next
		if len(pending) == 0 {
			break
		}
		// The stream ended (cleanly or not) with specs unresolved: resume,
		// unless we are making no progress at all.
		if progressed {
			stalls = 0
		} else {
			stalls++
			if stalls > batchMaxStalls {
				if err == nil {
					err = fmt.Errorf("stream kept ending early")
				}
				return fmt.Errorf("spbd: batch gave up after %d stalled resumes with %d of %d specs unresolved: %w",
					stalls-1, len(pending), len(specs), err)
			}
		}
	}
	return nil
}

// BatchResults runs specs through the batch endpoint with BatchEach's
// resume semantics and returns the decoded results in spec order. The
// first spec that genuinely fails to simulate aborts the sweep with its
// error.
func (c *Client) BatchResults(ctx context.Context, specs []sim.RunSpec) ([]sim.Result, error) {
	results := make([]sim.Result, len(specs))
	err := c.BatchEach(ctx, specs, func(it server.BatchItem) error {
		if !it.Status.Terminal() {
			return nil
		}
		if e := it.ErrorOf(); e != nil {
			return e
		}
		res, err := it.DecodeResult()
		if err != nil {
			return errKeepPending // truncated/garbled payload: stream-level, resumable
		}
		results[it.Index] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
