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
// caller, and the Pool re-dispatches the points the stream left unresolved.
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
	sc := bufio.NewScanner(resp.Body) // a line is at most about 2 KB, far below the Scanner's 64 KB
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
