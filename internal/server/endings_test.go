package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spb/internal/obs"
	"spb/internal/sim"
)

// endingEnv is one row's daemon: journal, disk tier and tracer on, one
// worker, and the ending counters as they stood when the row armed the check.
type endingEnv struct {
	t    *testing.T
	dir  string
	s    *Server
	ts   *httptest.Server
	base [4]uint64 // completed, failed, cancelled, tenant completions at arm()
}

func (e *endingEnv) journalPath() string { return filepath.Join(e.dir, "journal") }
func (e *endingEnv) cacheDir() string    { return filepath.Join(e.dir, "cache") }

func (e *endingEnv) start(cfg Config) {
	cfg.Workers, cfg.queueDepth = 1, 8
	cfg.CacheDir, cfg.JournalPath = e.cacheDir(), e.journalPath()
	cfg.Tracer = obs.NewTracer(0, nil)
	e.s, e.ts = testServer(e.t, cfg)
}

func (e *endingEnv) counters() [4]uint64 {
	m := e.s.Metrics()
	return [4]uint64{m.RunsCompleted.Load(), m.RunsFailed.Load(), m.RunsCancelled.Load(), e.s.defaultTenant.completed.Load()}
}

// arm snapshots the ending counters. A row calls it once no job other than the
// one under test can end before the check.
func (e *endingEnv) arm() { e.base = e.counters() }

// hasJobFile reports whether the journal still holds a file for id.
func (e *endingEnv) hasJobFile(id string) bool {
	_, err := os.Stat(filepath.Join(e.journalPath(), id+".json"))
	return err == nil
}

// TestEveryEndingSettlesItsDebts walks every way a job's life ends and
// checks what each ending owes: the final status, exactly one run counter
// and the tenant's completions moved by one (neither for a job that was never
// admitted to this daemon's queue — a cache hit, a recovery that ends inside
// New — which is what TestMetricsEndpoint pins for hits), the key gone from
// the active map, no journal file left for the job, the trace finished, and
// done closed.
func TestEveryEndingSettlesItsDebts(t *testing.T) {
	rows := []struct {
		name    string
		run     func(e *endingEnv) (id string)
		want    Status
		errHas  string
		uncount bool // never admitted here: no ending counter moves
	}{
		{name: "done", want: StatusDone, run: func(e *endingEnv) string {
			e.start(Config{})
			_, v := postRun(e.t, e.ts, smallSpec, "?wait=1")
			return v.ID
		}},
		{name: "simulation error", want: StatusFailed, errHas: "no-such-workload", run: func(e *endingEnv) string {
			e.start(Config{})
			_, v := postRun(e.t, e.ts, RunRequest{Workload: "no-such-workload", SB: 14, Insts: 1000}, "?wait=1")
			return v.ID
		}},
		{name: "answered from memory", want: StatusDone, uncount: true, run: func(e *endingEnv) string {
			e.start(Config{})
			postRun(e.t, e.ts, smallSpec, "?wait=1")
			waitFor(e.t, 10*time.Second, "the first run to settle", func() bool { return e.counters()[0] == 1 })
			e.arm()
			_, v := postRun(e.t, e.ts, smallSpec, "?wait=1")
			if v.Cached != "memory" {
				e.t.Fatalf("second submission cached = %q, want memory", v.Cached)
			}
			return v.ID
		}},
		{name: "cancelled while queued", want: StatusCancelled, run: func(e *endingEnv) string {
			e.start(Config{})
			blocker := blockWorker(e.t, e.ts)
			e.t.Cleanup(func() { cancelRun(e.t, e.ts, blocker) })
			_, v := postRun(e.t, e.ts, smallSpec, "")
			cancelRun(e.t, e.ts, v.ID)
			return v.ID
		}},
		{name: "cancelled while running", want: StatusCancelled, run: func(e *endingEnv) string {
			e.start(Config{})
			id := blockWorker(e.t, e.ts)
			cancelRun(e.t, e.ts, id)
			return id
		}},
		{name: "abandoned by its last waiting client", want: StatusCancelled, errHas: "abandoned", run: func(e *endingEnv) string {
			e.start(Config{})
			body, _ := json.Marshal(longSpec)
			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, "POST", e.ts.URL+"/v1/runs?wait=1", bytes.NewReader(body))
			gone := make(chan struct{})
			go func() {
				defer close(gone)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			waitFor(e.t, 10*time.Second, "the run to start", func() bool { return e.s.Inflight() == 1 })
			spec, _ := longSpec.Spec()
			e.s.mu.Lock()
			id := e.s.active[Key(spec)].id
			e.s.mu.Unlock()
			cancel()
			<-gone
			return id
		}},
		{name: "drain deadline", want: StatusCancelled, errHas: "drain deadline exceeded", run: func(e *endingEnv) string {
			e.start(Config{})
			id := blockWorker(e.t, e.ts)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := e.s.Drain(ctx); err == nil {
				e.t.Error("Drain past its deadline returned nil")
			}
			return id
		}},
		{name: "run timeout", want: StatusCancelled, errHas: "run timeout 50ms exceeded", run: func(e *endingEnv) string {
			e.start(Config{RunTimeout: 50 * time.Millisecond})
			_, v := postRun(e.t, e.ts, longSpec, "")
			return v.ID
		}},
		{name: "recovered and answered from disk", want: StatusDone, uncount: true, run: func(e *endingEnv) string {
			spec, _ := smallSpec.Spec()
			res, err := sim.Run(spec)
			if err != nil {
				e.t.Fatal(err)
			}
			store, err := OpenDiskStore(e.cacheDir())
			if err != nil {
				e.t.Fatal(err)
			}
			if err := store.Put(Key(spec), res); err != nil {
				e.t.Fatal(err)
			}
			writeEntries(e.t, e.journalPath(), entryFor("r000007-cafe", smallSpec))
			e.start(Config{})
			return "r000007-cafe"
		}},
		{name: "recovered and dropped", want: StatusFailed, errHas: "core count 65", uncount: true, run: func(e *endingEnv) string {
			writeEntries(e.t, e.journalPath(),
				entryFor("r000001-deadbeef", RunRequest{Workload: "canneal", SB: 14, Cores: 65, Insts: 1000}))
			e.start(Config{})
			return "r000001-deadbeef"
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := &endingEnv{t: t, dir: t.TempDir()}
			id := row.run(e)
			j := e.s.jobByID(id)
			if j == nil {
				t.Fatalf("job %q does not resolve", id)
			}
			select {
			case <-j.done:
			case <-time.After(30 * time.Second):
				t.Fatalf("done never closed (status %s)", j.view().Status)
			}
			if v := j.view(); v.Status != row.want || !strings.Contains(v.Error, row.errHas) {
				t.Fatalf("ended %s (%q), want %s with %q in the error", v.Status, v.Error, row.want, row.errHas)
			}

			want := e.base
			if !row.uncount {
				want[map[Status]int{StatusDone: 0, StatusFailed: 1, StatusCancelled: 2}[row.want]]++
				want[3]++
			}
			// What an ending owes may land a moment after done closes; give
			// it that moment, then hold it to the exact values.
			debts := func() []string {
				var owed []string
				if got := e.counters(); got != want {
					owed = append(owed, fmt.Sprintf("ending counters {completed failed cancelled tenant} = %v, want %v", got, want))
				}
				e.s.mu.Lock()
				holder := e.s.active[j.key]
				e.s.mu.Unlock()
				if holder == j {
					owed = append(owed, "key still in the active map")
				}
				if e.hasJobFile(id) {
					owed = append(owed, "journal file not removed")
				}
				if !j.trace.Snapshot().Done {
					owed = append(owed, "trace not finished")
				}
				return owed
			}
			deadline := time.Now().Add(2 * time.Second)
			for len(debts()) > 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			for _, d := range debts() {
				t.Error(d)
			}
		})
	}
}

// TestJobTableKeepsLiveJobsAndTheLastEnded: the table a daemon resolves ids
// through holds every live job and the most recent maxTerminal ended ones.
// With the bound lowered, a job held running outlives bound+50 later endings;
// the oldest ended ids answer 404 like ids never issued; and every ended
// job's context is cancelled, so the base context keeps no child per request.
func TestJobTableKeepsLiveJobsAndTheLastEnded(t *testing.T) {
	const bound = 20
	s, ts := testServer(t, Config{Workers: 2})
	s.maxTerminal = bound

	running := blockWorker(t, ts)
	var ended []*job
	submit := func() string {
		_, v := postRun(t, ts, smallSpec, "?wait=1")
		if v.Status != StatusDone {
			t.Fatalf("submission ended %s (%s)", v.Status, v.Error)
		}
		j := s.jobByID(v.ID)
		if j == nil {
			t.Fatalf("job %s does not resolve right after its reply", v.ID)
		}
		ended = append(ended, j)
		return v.ID
	}
	oldest := submit() // the one real run
	var newest string
	for i := 0; i < bound+50; i++ {
		newest = submit() // memory hits
	}

	var list struct {
		Runs []JobView `json:"runs"`
	}
	if code := getJSON(t, ts.URL+"/v1/runs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/runs = %d", code)
	}
	over, live := 0, false
	for _, v := range list.Runs {
		if v.Status.Terminal() {
			over++
		}
		live = live || v.ID == running && v.Status == StatusRunning
	}
	if over != bound || len(list.Runs) != bound+1 {
		t.Errorf("listing holds %d jobs, %d of them ended; want the %d newest ended and the running one", len(list.Runs), over, bound)
	}
	if !live {
		t.Error("the running job, submitted before everything else, fell out of the table")
	}
	if code := getJSON(t, ts.URL+"/v1/runs/"+oldest, nil); code != http.StatusNotFound {
		t.Errorf("GET of the oldest ended id = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/no-such-id", nil); code != http.StatusNotFound {
		t.Errorf("GET of an id never issued = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/"+newest, nil); code != http.StatusOK {
		t.Errorf("GET of the newest id = %d, want 200", code)
	}

	cancelRun(t, ts, running)
	ended = append(ended, s.jobByID(running))
	waitTerminal(t, ts, running)
	for _, j := range ended {
		select {
		case <-j.ctx.Done():
		default:
			t.Errorf("job %s ended but its context is still live", j.id)
		}
	}
}
