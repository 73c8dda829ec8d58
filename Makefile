.PHONY: check bench bench-sweep bench-sampled bench-cluster bench-prefetch test build serve-check chaos chaos-kill cluster-check

# Full pre-merge gate: vet + build + tests + race pass on the concurrent
# packages.
check:
	sh scripts/check.sh

# Record the performance baseline (microbenchmarks + fig5-quick wall clock)
# into BENCH_core.json.
bench:
	sh scripts/bench.sh

# Record the scale-out sweep baseline (makespan in-process vs 1 vs 3 local
# backends, batch vs per-spec submission overhead) into BENCH_sweep.json.
bench-sweep:
	sh scripts/bench_sweep.sh

# Record the SMARTS-style sampling speedup (sampled vs full-detail on the
# long-horizon SB-bound sweep, with CI-accuracy and byte-determinism gates)
# into BENCH_sampled.json.
bench-sampled:
	sh scripts/bench_sampled.sh

# Record the cluster baseline (work-stealing makespan on a skewed load,
# weighted-fair tenant completion shares) into BENCH_cluster.json.
bench-cluster:
	sh scripts/bench_cluster.sh

# Record the prefetcher-zoo grid (policy x prefetcher sweep, byte-identical
# across repeats, per-prefetcher cycle ratios) into BENCH_prefetch.json.
bench-prefetch:
	sh scripts/bench_prefetch.sh

# End-to-end smoke of the spbd service: build, start on a random port,
# verify cold-run stats match spbsim -json, cache hit on repeat, cancel,
# /healthz + /metrics, SIGTERM drain.
serve-check:
	sh scripts/serve_check.sh

# Resilience gate: race-enabled chaos/fault-injection suites, then a real
# 3-backend sweep under a seeded fault storm (byte-identical CSV), disk
# corruption quarantine-and-heal, and SIGTERM drain of faulted daemons.
chaos:
	sh scripts/chaos_check.sh

# Crash-safety gate: kill -9 a daemon mid-batch and mid-long-run; the
# restart must recover the job journal (original IDs, recovered markers),
# resume the interrupted run from its on-disk checkpoint, and produce
# byte-identical stats and sweep CSVs throughout.
chaos-kill:
	sh scripts/chaos_kill_check.sh

# Cluster gate: a real 3-node fleet — gossip convergence, peer cache
# read-through, work stealing under skewed load, kill/rejoin with epoch
# supersession, byte-identical cluster sweeps (incl. under a cluster fault
# storm), and multi-tenant auth/quota/fairness.
cluster-check:
	sh scripts/cluster_check.sh

test:
	go test ./...

build:
	go build ./...
