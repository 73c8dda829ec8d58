package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spb"
	"spb/internal/client"
)

// buildDir is where binaries, the Go build cache (set by run.sh) and the
// daemons' scratch directories live: inside the checkout, never committed.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// ensureSpbd builds the daemon once per checkout (`go build` is a no-op when
// the binary is current) and returns its path.
func ensureSpbd(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "bin", "spbd")
	cmd := exec.Command("go", "build", "-trimpath", "-o", bin, "./cmd/spbd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build spbd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spbd subprocess with its defaults plus a loopback port and
// private cache and journal paths.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dir     string
	readyIn time.Duration // process start -> /healthz?ready=1 answers ready
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches spbd on dir (created if missing; an existing dir is a
// restart on the same cache and journal) and waits until it reports ready.
func startDaemon(bin, dir string, trace bool) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "spbd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-cache-dir", filepath.Join(dir, "cache"),
		"-journal", filepath.Join(dir, "journal.ndjson"),
		fmt.Sprintf("-trace=%t", trace))
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, dir: dir}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	m := listenRE.FindStringSubmatch(line)
	if err != nil || m == nil {
		d.stop()
		return nil, fmt.Errorf("spbd did not announce its address (%q, %v); see %s", line, err, logf.Name())
	}
	d.base = "http://" + m[1]
	c := client.New(d.base)
	deadline := time.Now().Add(20 * time.Second)
	for {
		rv, err := c.Ready(context.Background())
		if err == nil && rv.Ready {
			break
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("spbd not ready after 20s: %v %+v", err, rv)
		}
		time.Sleep(time.Millisecond)
	}
	d.readyIn = time.Since(start)
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon that
// ignores the signal for 15 s is killed. Safe to call twice.
func (d *daemon) stop() {
	if d == nil || d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.cmd = nil
}

// watchRSS samples the daemon's resident set four times a second until the
// returned function is called, which returns the mean of the samples.
func (d *daemon) watchRSS() (mean func() float64) {
	pid := d.cmd.Process.Pid
	stop, done := make(chan struct{}), make(chan struct{})
	var sum float64
	var n int
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			sum += procRSSMiB(pid)
			n++
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		<-done
		return sum / float64(n)
	}
}

// newClient returns a client on a connection of its own with retries off, so
// a 429 or 503 surfaces as a failed operation instead of being smoothed over.
func (d *daemon) newClient() *client.Client {
	return client.NewWithOptions(d.base, client.Options{
		HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		Retry:      client.RetryPolicy{MaxAttempts: -1},
	})
}

// loopOpts describes one closed loop: nproc clients, each sending its next
// request only after the previous reply.
type loopOpts struct {
	phase  string
	specAt func(i int) spb.RunSpec
	// shareEvery > 0: every shareEvery-th request of each client is the same
	// spec submitted by all clients at the same instant (a barrier), which is
	// what exercises coalescing. The loop then stops only at a barrier.
	shareEvery int
	// The loop stops once minReq requests are done and seconds have passed,
	// or after maxReq requests when maxReq > 0.
	minReq, maxReq int
	seconds        float64
	// wantCached, when set, is the cache tier every reply must name.
	wantCached string
	// keep selects the replies whose stats bytes are retained for the
	// byte-comparison against in-process results.
	keep func(i int) bool
}

type reply struct {
	index int
	spec  spb.RunSpec
	stats []byte
}

type clientSpan struct {
	jobID      string
	start, end time.Time
}

type loopResult struct {
	latMS   []float64 // per OK request, completion order
	endS    []float64 // when each of them completed, seconds into the loop
	ok      int
	failed  int
	refused int // 429/503 replies: what a retrying client would have retried
	wall    time.Duration
	insts   uint64 // simulated instructions the OK replies stand for
	kept    []reply
	spans   []clientSpan // one per OK request, completion order
	indices int          // spec indices handed out: specAt(0..indices-1) were requested
	errs    []string
}

// barrier lets n parties meet; the last to arrive runs decide once and all
// leave with its result.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, seen int
	gen     int
	index   int
	stop    bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(decide func() (int, bool)) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.seen++
	if b.seen == b.n {
		b.index, b.stop = decide()
		b.seen = 0
		b.gen++
		b.cond.Broadcast()
		return b.index, b.stop
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.index, b.stop
}

// closedLoop drives d with nproc clients and collects client-observed
// submit-to-result latencies (POST /v1/runs?wait=1 through internal/client).
func closedLoop(d *daemon, o loopOpts) loopResult {
	nClients := runtime.NumCPU()
	var (
		mu   sync.Mutex
		res  loopResult
		next atomic.Int64
		done atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	finished := func() bool {
		n := int(done.Load())
		if o.maxReq > 0 && n >= o.maxReq {
			return true
		}
		return o.maxReq == 0 && n >= o.minReq && time.Since(start).Seconds() >= o.seconds
	}
	one := func(c *client.Client, i int) {
		spec := o.specAt(i)
		t0 := time.Now()
		v, err := c.Run(context.Background(), spec)
		t1 := time.Now()
		done.Add(1)
		mu.Lock()
		defer mu.Unlock()
		if err == nil && o.wantCached != "" && v.Cached != o.wantCached {
			err = fmt.Errorf("reply from tier %q, want %q", v.Cached, o.wantCached)
		}
		if err != nil {
			res.failed++
			var se *client.StatusError
			if errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
				res.refused++
			}
			if len(res.errs) < 5 {
				res.errs = append(res.errs, fmt.Sprintf("%s request %d: %v", o.phase, i, err))
			}
			return
		}
		res.ok++
		res.latMS = append(res.latMS, ms(t1.Sub(t0)))
		res.endS = append(res.endS, t1.Sub(start).Seconds())
		n0 := spec.Normalized()
		res.insts += n0.Insts * uint64(n0.Cores)
		res.spans = append(res.spans, clientSpan{v.ID, t0, t1})
		if o.keep != nil && o.keep(i) {
			res.kept = append(res.kept, reply{i, spec, append([]byte(nil), v.Stats...)})
		}
	}
	bar := newBarrier(nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := d.newClient()
			for pos := 1; ; pos++ {
				if o.shareEvery > 0 && pos%o.shareEvery == 0 {
					i, stop := bar.wait(func() (int, bool) { return int(next.Add(1)) - 1, finished() })
					one(cl, i)
					if stop {
						return
					}
					continue
				}
				if o.shareEvery == 0 && finished() {
					return
				}
				i := int(next.Add(1)) - 1
				if o.maxReq > 0 && i >= o.maxReq {
					return
				}
				one(cl, i)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.indices = int(next.Load())
	if o.maxReq > 0 && res.indices > o.maxReq {
		res.indices = o.maxReq
	}
	return res
}

// sliceSeconds is the length of the time slices a timed closed loop is cut
// into: they are the loop's repetitions (12 in a 25 s loop).
const sliceSeconds = 2.0

// steady summarises a timed closed loop the way the batch workloads
// summarise their repetitions: the loop is cut into equal time slices (at
// least 5), rate and median latency are taken per slice, and the median over
// the slices is reported, so that stalls of the host that cover less than
// half the slices do not move the result.
func (r loopResult) steady() (perSecond, p50 float64) {
	n := int(r.wall.Seconds() / sliceSeconds)
	if n < 5 {
		n = 5
	}
	width := r.wall.Seconds() / float64(n)
	slices := make([][]float64, n)
	for i, end := range r.endS {
		w := int(end / width)
		if w >= n {
			w = n - 1
		}
		slices[w] = append(slices[w], r.latMS[i])
	}
	var rate, q50 []float64
	for _, lat := range slices {
		rate = append(rate, float64(len(lat))/width)
		if len(lat) > 0 {
			q50 = append(q50, percentile(lat, 0.50))
		}
	}
	return median(rate), median(q50)
}

// promSample is one parsed /metrics document.
type promSample map[string]float64

var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (\S+)$`)

func scrape(d *daemon) (promSample, error) {
	text, err := client.New(d.base).Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		if m := promLine.FindStringSubmatch(line); m != nil {
			if v, err := strconv.ParseFloat(m[2], 64); err == nil {
				out[m[1]] = v
			}
		}
	}
	return out, nil
}

// handlerP50US estimates the median POST /v1/runs handler time between two
// scrapes from the daemon's log2-bucketed histogram, interpolating inside
// the bucket that holds the median.
func handlerP50US(before, after promSample) float64 {
	const prefix = `spbd_http_request_duration_seconds_bucket{endpoint="POST /v1/runs",le="`
	type bucket struct{ le, cum float64 }
	collect := func(s promSample) map[float64]float64 {
		m := map[float64]float64{}
		for k, v := range s {
			if rest, ok := strings.CutPrefix(k, prefix); ok {
				if le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64); err == nil {
					m[le] = v // "+Inf" parses to +Inf
				}
			}
		}
		return m
	}
	a, b := collect(before), collect(after)
	les := map[float64]bool{}
	for le := range a {
		les[le] = true
	}
	for le := range b {
		les[le] = true
	}
	var bs []bucket
	for le := range les {
		bs = append(bs, bucket{le: le})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	// Empty buckets are omitted from the exposition: a missing bound carries
	// the cumulative count of the bound below it.
	fill := func(m map[float64]float64, i int) float64 {
		for ; i >= 0; i-- {
			if v, ok := m[bs[i].le]; ok {
				return v
			}
		}
		return 0
	}
	for i := range bs {
		bs[i].cum = fill(b, i) - fill(a, i)
	}
	if len(bs) == 0 || bs[len(bs)-1].cum <= 0 {
		return 0
	}
	half := bs[len(bs)-1].cum / 2
	for i, bk := range bs {
		if bk.cum < half {
			continue
		}
		lo, below := bk.le/2, 0.0
		if i > 0 {
			lo, below = bs[i-1].le, bs[i-1].cum
		}
		if bk.cum == below {
			return bk.le * 1e6
		}
		return (lo + (bk.le-lo)*(half-below)/(bk.cum-below)) * 1e6
	}
	return 0
}
