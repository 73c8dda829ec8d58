.PHONY: check test build e2e pgo

# Full pre-merge gate: vet + build + tests + race pass on the concurrent
# packages + the end-to-end harness.
check:
	sh scripts/check.sh

# End-to-end gate of the spbd service plane (internal/e2e, build tag e2e):
# real daemons on port 0, driven through internal/client, beside spbsim and
# spbsweep for the byte comparisons. TestServe: cold-run stats == spbsim -json,
# cache hit on repeat, cancel, batch, traces, /healthz + /metrics, SIGTERM
# drain. TestChaos: a 3-backend sweep under a seeded fault storm
# (byte-identical CSV), disk corruption quarantine-and-heal. TestChaosKill:
# kill -9 mid-batch and mid-run; journal recovery under the original IDs, the
# killed run rerun from zero, byte-identical throughout. TestCluster: a static fleet of
# three independent daemons named in one -server list — byte-identical sweeps
# (incl. under a stream-cut and disk-read fault storm), a keyed daemon's 401,
# clean SIGTERM drains.
e2e:
	go vet -tags e2e ./internal/e2e && go test -tags e2e -count=1 -v ./internal/e2e

test:
	go test ./...

build:
	go build ./...

# Profile-guided builds of the binaries that simulate for a living: `go build`
# applies a main package's default.pgo on its own (-pgo=auto), and bench/run.sh
# builds cmd/spbd that way; bench/'s own main package carries no profile, so
# the benchmark's in-process workloads run un-profiled. The profile is the
# merged CPU profile of a fixed spbsweep mix: SB-bound detail, the SPEC suite
# under the stream, adaptive and hybrid prefetchers, the 8-core PARSEC points, a
# warm-start grid and a sampled grid. Re-record it after a change to the
# engine's hot loops; results never depend on it (the e2e gate compares a
# PGO-built spbd's replies with spbsim's, byte for byte).
PGO_TMP := .pgo_build
PGO_RUN := $(PGO_TMP)/spbsweep -seed 1 -sb 14
pgo:
	mkdir -p $(PGO_TMP)
	go build -pgo=off -o $(PGO_TMP)/spbsweep ./cmd/spbsweep
	$(PGO_RUN) -cpuprofile $(PGO_TMP)/1.prof -suite sbbound -policies at-commit,spb -insts 2000000 >/dev/null
	$(PGO_RUN) -cpuprofile $(PGO_TMP)/2.prof -suite spec -policies spb -prefetchers stream,adaptive,hybrid -insts 300000 >/dev/null
	$(PGO_RUN) -cpuprofile $(PGO_TMP)/3.prof -suite parsec -policies spb -insts 100000 >/dev/null
	$(PGO_RUN) -cpuprofile $(PGO_TMP)/4.prof -suite sbbound -sb 14,28,56 -insts 50000 -warmup 1000000 >/dev/null
	$(PGO_RUN) -cpuprofile $(PGO_TMP)/5.prof -suite sbbound -policies at-commit,spb -insts 4000000 -sample >/dev/null
	go tool pprof -proto $(PGO_TMP)/*.prof > cmd/spbd/default.pgo
	cp cmd/spbd/default.pgo cmd/spbsweep/default.pgo
	cp cmd/spbd/default.pgo cmd/spbtables/default.pgo
	rm -rf $(PGO_TMP)
