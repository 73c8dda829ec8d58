#!/bin/sh
# check.sh — the full pre-merge gate: gofmt, vet, build, tests (the bench/
# module's too: it calls internal/ APIs and the root ./... cannot see it),
# a race pass over the packages with real concurrency (the Runner's
# singleflight / worker pool, the figure pipelines that drive it, the spbd
# job queue, and the client pool's sharding/hedging machinery), and the
# end-to-end harness that drives real spbd processes (internal/e2e).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
test -z "$(gofmt -l .)"
echo "== go vet =="
go vet ./...
echo "== go build =="
go build ./...
echo "== go test =="
go test ./...
echo "== bench module (own go.mod: the root ./... neither compiles nor runs it) =="
(cd bench && go vet ./... && go test ./...)
echo "== sampling suite (CI accuracy, skip/touch/warm-walk equivalence, set-aside dispatch, accounting) =="
go test -run 'Sampled|Sampling|Skip|Warm' ./internal/sim ./internal/workloads ./internal/server
echo "== fuzz seed corpora (functional == detailed state; a run never writes into the snapshot it started from; no checkpoint bytes panic or change a result; no trace-file bytes panic or fail as anything but ErrBadTrace) =="
go test -run 'FuzzFunctionalEquivalence|FuzzWarmSnapshotAliasing|FuzzDecodeCkpt|FuzzOpenTrace' ./internal/sim ./internal/trace
echo "== engine exactness (per-core sleeping == every-cycle loop; golden result hashes; the run plan covers every instruction once and resumes at every position; a checkpoint is plain exported structs and round-trips to itself; a cache snapshot holds one line per live way, restores to itself through a dirtied arena and a warm group's costs what its warm-up filled; each packed structure == its naive reference; the hybrid arbiter's ring filters count its rings; the forwarding filter outsizes the ideal buffer; warming and every prefetcher's Observe allocate nothing in steady state; every figure's bytes and simulation count == the recorded ones; out/tables_full.txt holds the registry's tables) =="
go test -count=1 -run 'FastForwardEquivalence|GoldenStatsHashes|CheckpointResumeCoresAtDifferentClocks|PlanCoversEveryInstructionOnce|CrashResumeAtEveryPlanPosition|CounterTablesCoverEveryField|CkptFormIsPlainStructs|CkptRoundTripIsIdentity|WarmGroupSnapshotCostsWhatIsLive|WarmSteadyStateZeroAllocs' ./internal/sim
go test -count=1 -run 'ObserveContract|HybridRingFilterCountsTheRings' ./internal/prefetch
go test -count=1 -run 'MatchesReference|ToFront|SnapshotFits|SnapshotHoldsLiveLinesOnly|ForwardFilterOutsizesTheIdealBuffer' ./internal/cache ./internal/cpu ./internal/memsys ./internal/storebuf
go test -count=1 -run 'TablesGolden|OutTablesFullTitles' ./internal/figures
echo "== go test -race (sim, figures, server, client, cluster, faults, obs, memsys, cpu, trace, prefetch, cmd/spbd; sim without the warm-walk oracle: its 1 088 machines share nothing between goroutines, it has run twice above, and under the race runtime it takes three minutes) =="
go test -race -skip 'TestWarmWalkMatchesPerInstructionReference' ./internal/sim
go test -race ./internal/figures ./internal/server ./internal/client ./internal/cluster ./internal/faults ./internal/obs ./internal/memsys ./internal/cpu ./internal/trace ./internal/prefetch ./cmd/spbd
echo "== e2e (real spbd processes: service smoke, fault storms, kill -9 recovery, 3-node fleet) =="
go vet -tags e2e ./internal/e2e && go test -tags e2e -count=1 ./internal/e2e
echo "OK"
