#!/bin/sh
# check.sh — the full pre-merge gate: gofmt, vet, build, the whole suite once
# and uncached (every test, fuzz seed corpus and golden; DESIGN.md §6 names
# the gates inside it and what each protects), nine fuzz targets for a fixed
# budget each (a warm group's snapshot against the runs forked from it, the
# spec, journal, stats and trace-file decoders, warming against the demand
# path, a Program, the store buffer and the SPB detector against their
# test-only references),
# the bench/ module's tests (it calls internal/ APIs and the root ./...
# cannot see it), a race pass over the packages with real concurrency (the
# Runner's keyed tables and worker pool — its GetAll, build-once, memo and
# warm-group tests five times over, since a two-pass scheduler that lets a
# worker wait behind a warm-up, or a table that loses a result or holds a
# failed build, fails as a flake — the figure pipelines that drive it, the spbd job
# queue, the client pool's sharding/hedging machinery — its tests ten times
# over — the arena pools, and internal/cache, whose -race build puts its
# arenas back on the heap, the only memory the detector sees), and the
# end-to-end harness that drives real spbd processes (internal/e2e).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
test -z "$(gofmt -l .)"
echo "== go vet (and internal/cache's arena files on the platforms that take the other build-tag branch) =="
go vet ./...
GOOS=windows go vet ./internal/cache
GOOS=darwin go vet ./internal/cache
echo "== go build (every committed default.pgo must parse: a main package is built with its own) =="
for f in cmd/*/default.pgo; do go tool pprof -raw "$f" >/dev/null; done
go build ./...
echo "== go test (uncached) =="
go test -count=1 ./...
echo "== fuzz for a fixed budget (the suite above only replays their seeds): a warm group's snapshot against the runs it starts, the spec, journal, stats and trace-file decoders, warming against the demand path, and a Program, the store buffer and the SPB detector against their references =="
go test -run '^$' -fuzz '^FuzzWarmSnapshotAliasing$' -fuzztime 10s ./internal/sim
go test -run '^$' -fuzz '^FuzzRunRequest$' -fuzztime 10s ./internal/server
go test -run '^$' -fuzz '^FuzzJournalEntry$' -fuzztime 10s ./internal/server
go test -run '^$' -fuzz '^FuzzParseStats$' -fuzztime 10s ./internal/sim
go test -run '^$' -fuzz '^FuzzOpenTrace$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzWarmIsDemand$' -fuzztime 10s ./internal/memsys
go test -run '^$' -fuzz '^FuzzLeafWrittenOnce$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzForwardMatchesCAM$' -fuzztime 10s ./internal/storebuf
go test -run '^$' -fuzz '^FuzzDetectorMatchesSection4$' -fuzztime 10s ./internal/core
echo "== bench module (own go.mod: the root ./... neither compiles nor runs it) =="
(cd bench && go vet ./... && go test ./...)
echo "== go test -race (sim without the warm-walk oracle: its 1 088 machines share nothing between goroutines, it has run above, and under the race runtime it takes about a minute and a half) =="
go test -race -skip 'TestWarmWalkMatchesPerInstructionReference' ./internal/sim
go test -race ./internal/figures ./internal/server ./internal/client ./internal/faults ./internal/obs ./internal/memsys ./internal/cpu ./internal/trace ./internal/prefetch ./internal/pool ./internal/cache ./cmd/spbd
echo "== the sweep pool's scheduler, ten times under -race (a concurrent scheduler fails as a flake, not as a red run; ~3.5 min) =="
go test -race -count=10 -run 'Pool|Chaos|Breaker|HRW' ./internal/client
echo "== the Runner's GetAll (warm-first pass, then longest-first runs) and its two keyed tables (results and warm groups: build once, wait, forget the oldest, hold no failed build), five times under -race (~40 s) =="
go test -race -count=5 -run 'TestGetAll|TestRunnerGetAll|TestRunnerSingleflight|TestGetCtxWaiterCancellation|TestRunnerMemoIsBounded|TestWarmCacheBounded|TestFailedBuildIsHeldByNone' ./internal/sim
echo "== e2e (real spbd processes: service smoke, fault storms, kill -9 recovery, a static 3-daemon fleet) =="
go vet -tags e2e ./internal/e2e && go test -tags e2e -count=1 ./internal/e2e
echo "== code lines per package (non-blank, non-comment, non-test Go; bench/ is its own module) =="
count() { grep -v '_test\.go$' | xargs cat | grep -Ecv '^[[:space:]]*($|//)'; }
for d in $(find . -path ./bench -prune -o -name '*.go' -print | xargs -n1 dirname | sort -u); do printf '%6d %s\n' "$(ls "$d"/*.go | count)" "$d"; done
printf '%6d total\n' "$(find . -path ./bench -prune -o -name '*.go' -print | count)"
echo "OK"
