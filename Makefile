.PHONY: check test build e2e

# Full pre-merge gate: vet + build + tests + race pass on the concurrent
# packages + the end-to-end harness.
check:
	sh scripts/check.sh

# End-to-end gate of the spbd service plane (internal/e2e, build tag e2e):
# real daemons on port 0, driven through internal/client, beside spbsim,
# spbsweep and spbload for the byte comparisons. TestServe: cold-run stats ==
# spbsim -json, cache hit on repeat, cancel, batch, traces, /healthz +
# /metrics, SIGTERM drain. TestChaos: a 3-backend sweep under a seeded fault
# storm (byte-identical CSV), disk corruption quarantine-and-heal. TestChaosKill:
# kill -9 mid-batch and mid-run; journal recovery under the original IDs and
# checkpoint resume, byte-identical throughout. TestCluster: a 3-node fleet —
# gossip convergence, peer read-through, stealing, kill/rejoin with epoch
# supersession, byte-identical cluster sweeps (incl. under a cluster fault
# storm), tenant auth/quota/fairness, the cluster secret.
e2e:
	go vet -tags e2e ./internal/e2e && go test -tags e2e -count=1 -v ./internal/e2e

test:
	go test ./...

build:
	go build ./...
