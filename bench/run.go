package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"
)

// resultSet is what `run` writes and `compare` reads: every run of one
// invocation with the host it ran on.
type resultSet struct {
	Host   hostFacts `json:"host"`
	Traced bool      `json:"traced"`
	Runs   []setRun  `json:"runs"`
}

type setRun struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	WallS    float64   `json:"wall_s"` // whole child process, set-up and checks included
	Result   runResult `json:"result"`
}

// cmdRun runs the workloads, each in a fresh child process of this binary,
// prints every metric by name and unit and writes the result set.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("spbbench run", flag.ExitOnError)
	traced := fs.Bool("traced", false, "make the traced runs (per-layer metrics, bench/out/trace.ndjson) instead of the end-to-end ones")
	only := fs.String("workload", "", "run only this workload")
	seed := fs.Uint64("seed", 1, "seed of the first run; run k of a workload uses seed+k")
	n := fs.Int("n", 1, "runs per workload (compare wants ten)")
	out := fs.String("out", "", "result set file (default bench/out/run-{untraced,traced}.json)")
	fs.Parse(args)

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbbench: cannot find the checkout root above the working directory")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbbench:", err)
		return 2
	}
	// Build the daemon before any workload runs, so no run pays for it.
	if _, err := ensureSpbd(root); err != nil {
		fmt.Fprintln(os.Stderr, "spbbench:", err)
		return 1
	}
	set := resultSet{Host: readHostFacts(root), Traced: *traced}
	fmt.Printf("host: nproc=%d %s commit=%s cpu=%q load1=%.2f\n",
		set.Host.NProc, set.Host.GoVersion, set.Host.Commit, set.Host.CPUModel, set.Host.Load1)
	trace := 0
	if *traced {
		trace = 1
	}
	status := 0
	for _, w := range workloadDefs {
		if *only != "" && w.Name != *only {
			continue
		}
		for k := 0; k < *n; k++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(*seed+uint64(k)),
				"--seconds", fmt.Sprint(runSeconds), "--trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			t0 := time.Now()
			stdout, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res runResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "spbbench: %s printed no result (%v)\n", w.Name, runErr)
				status = 1
				continue
			}
			if runErr != nil || !res.Correct {
				status = 1
			}
			set.Runs = append(set.Runs, setRun{w.Name, *seed + uint64(k), time.Since(t0).Seconds(), res})
			printRun(os.Stdout, set.Runs[len(set.Runs)-1], *traced)
		}
	}
	outDir := filepath.Join(root, "bench", "out")
	if *traced {
		if err := joinTraces(outDir); err != nil {
			fmt.Fprintln(os.Stderr, "spbbench:", err)
			status = 1
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "run-untraced.json")
		if *traced {
			path = filepath.Join(outDir, "run-traced.json")
		}
	}
	data, _ := json.MarshalIndent(set, "", " ")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbbench:", err)
		return 1
	}
	fmt.Println("result set:", path)
	return status
}

func printRun(w io.Writer, r setRun, traced bool) {
	fmt.Fprintf(w, "\n%s seed=%d: %d operations attempted, %d failed (%.1f s)\n",
		r.Workload, r.Seed, r.Result.Attempted, r.Result.Failed, r.WallS)
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, r.Result.Metrics[d.Name].Value, d.Unit)
	}
	tw.Flush()
}

// joinTraces concatenates the per-workload span files the traced children
// wrote into bench/out/trace.ndjson.
func joinTraces(outDir string) error {
	var all bytes.Buffer
	for _, w := range workloadDefs {
		data, err := os.ReadFile(filepath.Join(outDir, "trace-"+w.Name+".ndjson"))
		if err != nil {
			continue // that workload was not part of this invocation
		}
		all.Write(data)
	}
	return os.WriteFile(filepath.Join(outDir, "trace.ndjson"), all.Bytes(), 0o644)
}
