.PHONY: check test build serve-check chaos chaos-kill cluster-check

# Full pre-merge gate: vet + build + tests + race pass on the concurrent
# packages.
check:
	sh scripts/check.sh

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
