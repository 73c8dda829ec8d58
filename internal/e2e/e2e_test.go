//go:build e2e

package e2e

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"spb/internal/client"
	"spb/internal/core"
	"spb/internal/server"
	"spb/internal/sim"
)

// binDir holds spbd, spbsim and spbsweep, built once per test run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "spb-e2e-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"spb/cmd/spbd", "spb/cmd/spbsim", "spb/cmd/spbsweep")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building the binaries: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var ctx = context.Background()

// logBuffer collects a daemon's stdout and stderr while the test reads it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is a handle on one spbd process. The methods that can fail take the
// calling test, so a subtest reports on itself.
type daemon struct {
	name  string
	flags []string // everything but -addr
	addr  string   // the bound host:port, reused by Restart
	Base  string   // http://addr

	cmd    *exec.Cmd
	log    *logBuffer // this incarnation's output
	exited chan struct{}
}

var listenRE = regexp.MustCompile(`(?m)^spbd: listening on (\S+)`)

// startDaemon starts spbd on a free port with the given flags and returns
// once it announced its address. A daemon still alive when the test ends is
// killed.
func startDaemon(t *testing.T, name string, flags ...string) *daemon {
	t.Helper()
	d := &daemon{name: name, flags: flags, addr: "127.0.0.1:0"}
	d.launch(t)
	t.Cleanup(func() {
		if d.cmd != nil {
			d.cmd.Process.Kill()
			<-d.exited
		}
	})
	return d
}

func (d *daemon) launch(t *testing.T) {
	t.Helper()
	d.log = &logBuffer{}
	d.cmd = exec.Command(filepath.Join(binDir, "spbd"), append([]string{"-addr", d.addr}, d.flags...)...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	d.exited = make(chan struct{})
	go func(cmd *exec.Cmd, exited chan struct{}) {
		cmd.Wait()
		close(exited)
	}(d.cmd, d.exited)
	waitFor(t, 20*time.Second, d.name+" to announce its address", func() bool {
		m := listenRE.FindStringSubmatch(d.log.String())
		if m == nil {
			return false
		}
		d.addr = m[1]
		return true
	})
	d.Base = "http://" + d.addr
	t.Logf("%s at %s %v", d.name, d.Base, d.flags)
}

// Log returns the current incarnation's stdout and stderr.
func (d *daemon) Log() string { return d.log.String() }

func (d *daemon) stop(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if d.cmd == nil {
		t.Fatalf("%s is not running", d.name)
	}
	d.cmd.Process.Signal(sig)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("%s ignored %v for 60s:\n%s", d.name, sig, d.Log())
	}
	d.cmd = nil
}

// Term drains the daemon with SIGTERM and requires the drain to be clean.
func (d *daemon) Term(t *testing.T) {
	t.Helper()
	d.stop(t, syscall.SIGTERM)
	if !strings.Contains(d.Log(), "drained cleanly") {
		t.Errorf("%s did not drain cleanly:\n%s", d.name, d.Log())
	}
}

// Kill9 kills the daemon the way a crash does: no drain, no flush.
func (d *daemon) Kill9(t *testing.T) { t.Helper(); d.stop(t, syscall.SIGKILL) }

// Restart starts a stopped daemon again on the port it had, with the flags
// it had or, when some are given, with those instead.
func (d *daemon) Restart(t *testing.T, flags ...string) {
	t.Helper()
	if d.cmd != nil {
		t.Fatalf("%s is still running", d.name)
	}
	if len(flags) > 0 {
		d.flags = flags
	}
	d.launch(t)
}

// Client returns a client for the daemon with retries off, so a refusal
// surfaces as the *client.StatusError it is.
func (d *daemon) Client(opts client.Options) *client.Client {
	opts.Retry = client.RetryPolicy{MaxAttempts: -1}
	return client.NewWithOptions(d.Base, opts)
}

// fleet starts three independent daemons named prefix1..prefix3, every one
// with a disk cache of its own under dir and the given flags.
func fleet(t *testing.T, dir, prefix string, flags ...string) []*daemon {
	t.Helper()
	var nodes []*daemon
	for i := 1; i <= 3; i++ {
		name := prefix + strconv.Itoa(i)
		args := append([]string{"-cache-dir", filepath.Join(dir, "cache-"+name), "-workers", "2"}, flags...)
		nodes = append(nodes, startDaemon(t, name, args...))
	}
	return nodes
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitStatus polls a job until it reports want.
func waitStatus(t *testing.T, cl *client.Client, id string, want server.Status, timeout time.Duration) server.JobView {
	t.Helper()
	var v server.JobView
	waitFor(t, timeout, fmt.Sprintf("job %s to be %s", id, want), func() bool {
		var err error
		v, err = cl.Get(ctx, id)
		if err == nil && v.Status != want && v.Status.Terminal() {
			t.Fatalf("job %s ended %s (%s) while waiting for %s", id, v.Status, v.Error, want)
		}
		return err == nil && v.Status == want
	})
	return v
}

// tool runs one of the built CLIs and returns its stdout.
func tool(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s%s", name, args, err, out, stderr.Bytes())
	}
	return out
}

// spbsimJSON is what `spbsim -json` prints for the spec given as flags.
func spbsimJSON(t *testing.T, args ...string) []byte {
	t.Helper()
	return bytes.TrimSpace(tool(t, "spbsim", append(args, "-json")...))
}

// metric scrapes the daemon and returns the value of the series named
// exactly series (labels included); absent reads as 0.
func metric(t *testing.T, d *daemon, series string) float64 {
	t.Helper()
	text, err := d.Client(client.Options{}).Metrics(ctx)
	if err != nil {
		t.Fatalf("scraping %s: %v", d.name, err)
	}
	for _, line := range strings.Split(text, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && name == series {
			v, _ := strconv.ParseFloat(val, 64)
			return v
		}
	}
	return 0
}

// rawStatus sends a request the typed client cannot (a malformed spec, a
// missing or wrong key) and returns the status and headers of the answer.
func rawStatus(t *testing.T, method, url, body string, header ...string) (int, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header
}

// statusOf returns the HTTP status a client call was refused with, or 0.
func statusOf(err error) int {
	var se *client.StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}

// entryPath is where a daemon's disk tier keeps key.
func entryPath(cacheDir, key string) string {
	return filepath.Join(cacheDir, key[:2], key+".json")
}

func waitFile(t *testing.T, path string) {
	t.Helper()
	waitFor(t, 10*time.Second, path+" to be written", func() bool {
		fi, err := os.Stat(path)
		return err == nil && fi.Size() > 0
	})
}

// The sweep every gate compares against its in-process CSV.
var gridFlags = []string{"-suite", "sbbound", "-sb", "14,56", "-policies", "at-commit,spb", "-insts", "30000"}

func sweepCSV(t *testing.T, extra ...string) []byte {
	t.Helper()
	return tool(t, "spbsweep", append(append([]string{}, gridFlags...), extra...)...)
}

func spec(workload string, policy core.Policy, sb int, insts uint64) sim.RunSpec {
	return sim.RunSpec{Workload: workload, Policy: policy, SQSize: sb, Insts: insts}
}

// blocker is effectively unbounded at test timescales; whoever submits it
// cancels it.
var blocker = spec("bwaves", core.PolicySPB, 14, 2_000_000_000)
