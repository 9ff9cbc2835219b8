#!/bin/sh
# ci.sh — the full verification gate, runnable locally or from CI.
#
# Checks, in order: formatting, vet, build, the complete test suite under
# the race detector (which exercises the parallel k-sweep and the parallel
# per-group base runs), a one-shot smoke run of the k-sweep benchmark so
# the packed hot path is executed at benchmark scale on every change, a
# short live-fuzz smoke of every fuzz target, the differential/metamorphic
# verification harness (cmd/tdac-verify), schema validation of the
# committed benchmark report so drift in cmd/tdacbench's output fails CI,
# and a bench-delta gate so a base-runs performance regression on DS1
# fails CI too.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test -race"
# Includes the tdacd server suite: the ingest-while-discovering stress
# test, the engine shutdown tests and the shutdown-racing-compaction
# test only prove anything under the race detector, so they must never
# move out of this invocation.
go test -race ./...

echo "==> crash-recovery matrix (seeded, ~35 crash points incl. failover)"
# The WAL's durability property, end to end: every seeded crash schedule
# (mid-append, mid-fsync, mid-compaction-rename) must recover acked
# state bit-identically. -count=1 defeats the cache so the matrix really
# runs on every CI invocation, and the scenario count is asserted so the
# matrix can never silently shrink.
matrix=$(go test -run '^TestCrashRecoveryMatrix$' -count=1 -v ./internal/server) || {
    echo "$matrix" >&2
    exit 1
}
passed=$(echo "$matrix" | grep -c -- '--- PASS: TestCrashRecoveryMatrix/')
echo "    $passed crash scenarios passed"
[ "$passed" -ge 35 ] || { echo "crash matrix ran only $passed scenarios, want >= 35" >&2; exit 1; }

echo "==> network chaos matrix (seeded faults x cluster hops)"
# The network-failure property, end to end: every netfault class
# (refusal, black hole, latency ramps, resets, slow-loris stalls,
# truncation) on every hop (router->shard, client->router,
# follower->primary) must degrade bounded and clean, heal through
# retries, and reproduce bit-identical discovery once the fault clears.
# The scenario count is asserted so the matrix can never silently
# shrink.
chaos=$(go test -run '^TestNetworkChaosMatrix$' -count=1 -v ./internal/cluster) || {
    echo "$chaos" >&2
    exit 1
}
chaos_passed=$(echo "$chaos" | grep -c -- '--- PASS: TestNetworkChaosMatrix/')
echo "    $chaos_passed chaos scenarios passed"
[ "$chaos_passed" -ge 24 ] || { echo "chaos matrix ran only $chaos_passed scenarios, want >= 24" >&2; exit 1; }

# Static analysis beyond vet, when the tool exists in the environment;
# otherwise exercise the serving packages' benchmarks as a compile+run
# smoke so the fallback still touches the new code paths.
if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck"
    staticcheck ./...
else
    echo "==> staticcheck not installed; bench smoke for serving packages"
    go test -run TestNone -bench . -benchtime 1x ./internal/server ./internal/obs ./cmd/tdacd
fi

echo "==> benchmark smoke (KSweep, 1x)"
go test -run '^$' -bench KSweep -benchtime 1x .

echo "==> verification harness (tdac-verify)"
# The differential/metamorphic/oracle invariant harness (DESIGN.md §11):
# packed kernels vs naive references, HTTP vs direct, WAL replay
# idempotency, brute-force and planted-partition oracles. The invariant
# count is asserted so the harness can never silently shrink.
harness=$(go run ./cmd/tdac-verify) || { echo "$harness" >&2; exit 1; }
echo "$harness" | sed 's/^/    /'
echo "$harness" | grep -q '^30 invariants verified$' || {
    echo "tdac-verify did not verify all 30 invariants" >&2
    exit 1
}

# Go runs one fuzz target per invocation, so smoke each explicitly.
echo "==> fuzz smoke (10s per target)"
go test -run '^$' -fuzz '^FuzzReadClaimsCSV$' -fuzztime 10s ./internal/truthdata
go test -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 10s ./internal/truthdata
go test -run '^$' -fuzz '^FuzzSimilarityInvariants$' -fuzztime 10s ./internal/similarity
go test -run '^$' -fuzz '^FuzzPackedHammingEquivalence$' -fuzztime 10s ./internal/clustering
go test -run '^$' -fuzz '^FuzzWALRecovery$' -fuzztime 10s ./internal/wal
go test -run '^$' -fuzz '^FuzzVerifyInvariants$' -fuzztime 10s ./internal/verify
go test -run '^$' -fuzz '^FuzzFlat$' -fuzztime 10s ./internal/truthdata
go test -run '^$' -fuzz '^FuzzNewIndex$' -fuzztime 10s ./internal/truthdata
go test -run '^$' -fuzz '^FuzzIndexRestrict$' -fuzztime 10s ./internal/truthdata
go test -run '^$' -fuzz '^FuzzIncrementalAppend$' -fuzztime 10s ./internal/core
go test -run '^$' -fuzz '^FuzzSSERoundTrip$' -fuzztime 10s ./internal/sse

echo "==> bench report schema (BENCH_tdac.json)"
go run ./cmd/tdacbench -validate BENCH_tdac.json

echo "==> bench delta (DS1 vs committed BENCH_tdac.json)"
# Regression gate for the indexed hot path: a fresh DS1 run's base-runs
# phase median must stay within 20% of the committed report's, so an
# accidental slow-down of the per-group base runs fails CI instead of
# landing silently. Three reps give a stable median (a single rep is too
# noisy for a 20% margin); one dataset keeps the step cheap.
delta_out=$(mktemp)
trap 'rm -f "$delta_out"' EXIT
go run ./cmd/tdacbench -reps 3 -configs DS1 -o "$delta_out" -delta BENCH_tdac.json

echo "==> ci OK"
