// Command spbbench is the repository's benchmark: four workloads over the
// simulator (spb.Run), the sweep engine (spb.Runner.GetAll) and the service
// (a real spbd subprocess through internal/client), five end-to-end metrics
// and a traced per-layer budget. See README.md in this directory.
//
// Usage (through the launcher, which keeps the Go build cache inside the
// checkout; `go run .` from this directory works as well):
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//	bash bench/run.sh run [-traced] [-workload W] [-seed N] [-n K] [-out F]   every workload, a table, a result set
//	bash bench/run.sh compare A.json B.json                            apply the bounds to two result sets
//	bash bench/run.sh manifest                                         print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a single run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdRun(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		case "manifest":
			out, _ := json.MarshalIndent(buildManifest(), "", "  ")
			fmt.Println(string(out))
			return
		}
	}
	os.Exit(cmdOne(os.Args[1:]))
}

// cmdOne runs one workload once in this process: the driver's entry point
// and the child process of `run`.
func cmdOne(args []string) int {
	fs := flag.NewFlagSet("spbbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name (see `manifest`)")
	seed := fs.Uint64("seed", 1, "workload seed, placed in RunSpec.Seed")
	seconds := fs.Float64("seconds", runSeconds, "measuring window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	fs.Parse(args)
	if _, ok := findWorkload(*workload); !ok {
		fmt.Fprintf(os.Stderr, "spbbench: unknown workload %q; known:", *workload)
		for _, w := range workloadDefs {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbbench: cannot find the checkout root (cmd/spbd) above the working directory")
		return 2
	}
	// Never more goroutines running than cpus: the simulator's worker pools
	// and the closed loops both size themselves from this.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *seed == 0 {
		*seed = 1
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0, scale: 1, root: root}
	host := readHostFacts(root)
	fmt.Fprintf(os.Stderr, "spbbench: %s seed=%d seconds=%g trace=%d | nproc=%d %s commit=%s cpu=%q load1=%.2f\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, host.NProc, host.GoVersion, host.Commit, host.CPUModel, host.Load1)

	var o ops
	var values map[string]float64
	defs := endToEndDefs
	if cfg.traced {
		defs = perLayerDefs
		values, err = runTraced(cfg, &o)
	} else {
		values, err = runEndToEnd(cfg, &o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spbbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := runResult{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "spbbench: %s: metric %s was not measured\n", cfg.workload, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	res.Correct = o.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spbbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
