// Command spbload replays an open-loop workload against an spbd daemon and
// reports latency percentiles and error rate. Open-loop means requests are
// launched on a fixed schedule regardless of how fast the daemon answers —
// the arrival process does not slow down when the service does, so queueing
// delay shows up in the tail latencies instead of being hidden by
// coordinated omission.
//
// The generated mix cycles through workloads × policies × SB sizes ×
// -distinct seeds; with -distinct smaller than the total request count the
// mix revisits points, exercising the daemon's cache tiers the way a
// design-space sweep with near-duplicate configurations would.
//
// With -batch the same generated mix is submitted as a single POST
// /v1/batch request instead of one HTTP round-trip per point, and the
// report shows per-spec completion latency (time from batch submission to
// that spec's terminal NDJSON line) at p50/p95/p99 — the numbers a sweep
// client sees, where submission overhead is paid once for the whole grid.
//
// Examples:
//
//	spbload -addr http://localhost:7077 -rate 20 -duration 10s \
//	        -workloads bwaves,mcf -policies spb,at-commit -insts 50000
//	spbload -addr http://localhost:7077 -batch -count 200 -distinct 32
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"spb/internal/client"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/obs"
	"spb/internal/server"
	"spb/internal/sim"
)

// report prints the shared result summary of both load modes. lat must be
// sorted ascending. Percentiles use the nearest-rank definition from
// obs.PercentileDuration — the earlier floor-index formula under-reported
// the tail (p99 of 50 samples read element 48 instead of 49). The zero
// guards keep a fully-failed or instantly-finished run from printing
// NaN/+Inf. acked < 0 suppresses the batch-only acknowledgment line.
func report(label string, lat []time.Duration, errs, total, acked, hitsMem, hitsDisk int, elapsed time.Duration) {
	errRate := 0.0
	if total > 0 {
		errRate = 100 * float64(errs) / float64(total)
	}
	fmt.Printf("completed           %d ok, %d errors (%.1f%% error rate) in %v\n",
		len(lat), errs, errRate, elapsed.Round(time.Millisecond))
	throughput := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		throughput = float64(len(lat)) / secs
	}
	fmt.Printf("throughput          %.1f ok/s\n", throughput)
	if acked >= 0 {
		fmt.Printf("acks                %d queued lines streamed before completion\n", acked)
	}
	fmt.Printf("cache               %d memory hits, %d disk hits, %d simulated\n",
		hitsMem, hitsDisk, len(lat)-hitsMem-hitsDisk)
	fmt.Printf("%-19s %v\n", label+" p50", obs.PercentileDuration(lat, 0.50).Round(time.Microsecond))
	fmt.Printf("%-19s %v\n", label+" p95", obs.PercentileDuration(lat, 0.95).Round(time.Microsecond))
	fmt.Printf("%-19s %v\n", label+" p99", obs.PercentileDuration(lat, 0.99).Round(time.Microsecond))
	if len(lat) > 0 {
		fmt.Printf("%-19s %v\n", label+" max", lat[len(lat)-1].Round(time.Microsecond))
	}
}

// runBatch submits total points drawn from the mix as one POST /v1/batch
// request and reports per-spec completion latency: the time from batch
// submission to each spec's terminal NDJSON line. The batch path pays
// connection and encoding overhead once, so these percentiles isolate
// queueing plus simulation time the way a real sweep client experiences
// them.
func runBatch(cl *client.Client, mix []sim.RunSpec, rng *rand.Rand, total, distinct int, timeout time.Duration) {
	specs := make([]sim.RunSpec, total)
	for i := range specs {
		spec := mix[rng.Intn(len(mix))]
		if distinct > 0 {
			spec.Seed = uint64(1 + rng.Intn(distinct))
		} else {
			spec.Seed = uint64(i + 1) // unique: defeats the cache
		}
		specs[i] = spec
	}
	fmt.Printf("spbload: submitting %d specs as one batch (%d mix points)\n", total, len(mix))

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	lat := make([]time.Duration, 0, total)
	var errs, hitsMem, hitsDisk, acked int
	var firstErr error
	start := time.Now()
	err := cl.BatchEach(ctx, specs, func(it server.BatchItem) error {
		if !it.Status.Terminal() {
			acked++
			return nil
		}
		if e := it.ErrorOf(); e != nil {
			errs++
			if firstErr == nil {
				firstErr = e
			}
			return nil
		}
		lat = append(lat, time.Since(start))
		switch it.Cached {
		case "memory":
			hitsMem++
		case "disk":
			hitsDisk++
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbload:", err)
		os.Exit(1)
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	report("completion", lat, errs, total, acked, hitsMem, hitsDisk, elapsed)
	if errs > 0 {
		fmt.Printf("error               %v\n", firstErr)
		os.Exit(1)
	}
}

type sample struct {
	latency time.Duration
	err     error
	cached  string
}

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:7077", "spbd base URL")
		rate      = flag.Float64("rate", 10, "requests per second (open loop)")
		duration  = flag.Duration("duration", 10*time.Second, "how long to generate load")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-request timeout")
		workloads = flag.String("workloads", "bwaves,mcf,roms", "comma-separated workload mix")
		policies  = flag.String("policies", "spb,at-commit", "comma-separated policy mix")
		prefetch  = flag.String("prefetchers", "stream", "comma-separated generic L1 prefetcher mix ("+config.PrefetcherNames+")")
		sbs       = flag.String("sb", "14,56", "comma-separated store-buffer sizes")
		insts     = flag.Uint64("insts", 50_000, "committed instructions per request")
		distinct  = flag.Int("distinct", 0, "number of distinct seeds cycled through (0 = every request unique: all cache misses)")
		seed      = flag.Int64("seed", 1, "mix shuffle seed")
		batch     = flag.Bool("batch", false, "submit the whole mix as one POST /v1/batch request and report per-spec completion latency")
		count     = flag.Int("count", 0, "batch mode: number of specs to submit (default: rate×duration)")
		apiKey    = flag.String("api-key", os.Getenv("SPB_API_KEY"), "tenant API key sent on every request (default: $SPB_API_KEY)")
	)
	flag.Parse()

	var specs []sim.RunSpec
	for _, w := range strings.Split(*workloads, ",") {
		for _, p := range strings.Split(*policies, ",") {
			pol, err := core.ParsePolicy(strings.TrimSpace(p))
			if err != nil {
				fmt.Fprintln(os.Stderr, "spbload:", err)
				os.Exit(2)
			}
			for _, pf := range strings.Split(*prefetch, ",") {
				kind, err := config.ParsePrefetcher(strings.TrimSpace(pf))
				if err != nil {
					fmt.Fprintln(os.Stderr, "spbload:", err)
					os.Exit(2)
				}
				for _, sb := range strings.Split(*sbs, ",") {
					var n int
					if _, err := fmt.Sscanf(strings.TrimSpace(sb), "%d", &n); err != nil {
						fmt.Fprintf(os.Stderr, "spbload: bad -sb entry %q\n", sb)
						os.Exit(2)
					}
					specs = append(specs, sim.RunSpec{
						Workload:   strings.TrimSpace(w),
						Policy:     pol,
						Prefetcher: kind,
						SQSize:     n,
						Insts:      *insts,
					})
				}
			}
		}
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "spbload: empty mix")
		os.Exit(2)
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base // accept bare host:port
	}
	cl := client.NewWithOptions(base, client.Options{APIKey: *apiKey})
	if _, err := cl.Healthz(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "spbload: daemon not healthy at %s: %v\n", base, err)
		os.Exit(1)
	}

	total := int(*rate * duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / *rate)
	rng := rand.New(rand.NewSource(*seed))

	if *batch {
		if *count > 0 {
			total = *count
		}
		runBatch(cl, specs, rng, total, *distinct, *timeout)
		return
	}

	fmt.Printf("spbload: %d requests at %.1f req/s over %v against %s (%d spec points)\n",
		total, *rate, *duration, *addr, len(specs))

	samples := make([]sample, total)
	var wg sync.WaitGroup
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; i < total; i++ {
		spec := specs[rng.Intn(len(specs))]
		if *distinct > 0 {
			spec.Seed = uint64(1 + rng.Intn(*distinct))
		} else {
			spec.Seed = uint64(i + 1) // unique: defeats the cache
		}
		wg.Add(1)
		go func(i int, spec sim.RunSpec) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			t0 := time.Now()
			v, err := cl.Run(ctx, spec)
			samples[i] = sample{latency: time.Since(t0), err: err, cached: v.Cached}
		}(i, spec)
		if i < total-1 {
			<-tick.C
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	lat := make([]time.Duration, 0, total)
	var errs, hitsMem, hitsDisk int
	for _, s := range samples {
		if s.err != nil {
			errs++
			continue
		}
		lat = append(lat, s.latency)
		switch s.cached {
		case "memory":
			hitsMem++
		case "disk":
			hitsDisk++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	report("latency", lat, errs, total, -1, hitsMem, hitsDisk, elapsed)
	if errs > 0 {
		// The client retries transient failures (429 backpressure included)
		// itself now, so anything surfacing here is a real failure.
		for _, s := range samples {
			if s.err != nil {
				fmt.Printf("error               %v\n", s.err)
				break
			}
		}
		os.Exit(1)
	}
}
