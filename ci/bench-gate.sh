#!/usr/bin/env bash
# Micro-benchmark regression gate: ./ci/bench-gate.sh <base-rev>
#
# Builds internal/benchsuite's test binary at <base-rev> (in a
# temporary git worktree) and at this checkout, runs both in
# alternating pairs on the same machine, switching which side runs
# first, and hands the two outputs to ci/benchcmp. The gated
# benchmarks are ColdAssess, WarmAssess, AdhocQuery, AsOfAnswers,
# Scaling_DetQA (DeterministicWSQAns, the only one that runs the
# top-down query answerer) and RecursiveEval (init and extend of a
# recursive stratum, which the hospital rules never reach), each at
# n=400. Every benchmark runs at GOMAXPROCS 1 and 2 (-test.cpu): width
# 1 has no code path of its own in the engines, so only running it
# keeps it gated. Runs pass -test.benchmem. The gate fails when a
# benchmark present at both commits has a median change/base ns/op
# ratio above 1.30 over the pairs, or a median change/base B/op ratio
# above 1.10 (bytes per op barely vary between runs, so they gate
# allocation more tightly than time can be gated), or when no
# benchmark matches; a benchmark only one side has is skipped. A <base-rev> that does not resolve (the all-zero
# "before" of a new branch) falls back to HEAD^.
#
# The raw outputs are left in bench-gate-base.txt and
# bench-gate-change.txt at the repo root.
set -euo pipefail

# Pairs and run length: one binary's own runs spread by up to half
# their median on a shared 2-vCPU machine, so a single run per side
# cannot tell a regression from noise; the median ratio over pairs can.
PAIRS=10
BENCHTIME=0.5s
CPU=1,2
BENCH='^Benchmark(ColdAssess|WarmAssess|AdhocQuery|AsOfAnswers|Scaling_DetQA|RecursiveEval)$/n=400'

cd "$(dirname "$0")/.."
root=$PWD
base=${1:-HEAD^}
if ! git rev-parse --verify -q "$base^{commit}" >/dev/null; then
  echo "bench-gate: base $base does not resolve; using HEAD^"
  base=HEAD^
fi

work=$(mktemp -d)
cleanup() {
  git worktree remove --force "$work/base" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach -q "$work/base" "$base"
echo "bench-gate: base $(git rev-parse --short "$base^{commit}") vs change $(git rev-parse --short HEAD)"
(cd "$work/base" && go test -c -o "$work/base.test" ./internal/benchsuite)
go test -c -o "$work/change.test" ./internal/benchsuite

# run <side> <tree>: one benchmark run of that side's binary from its
# own package directory, appended to bench-gate-<side>.txt.
run() {
  (cd "$2/internal/benchsuite" &&
    "$work/$1.test" -test.run '^$' -test.bench "$BENCH" -test.cpu "$CPU" \
      -test.benchtime "$BENCHTIME" -test.benchmem -test.timeout 10m) >>"$root/bench-gate-$1.txt"
}

: >"$root/bench-gate-base.txt"
: >"$root/bench-gate-change.txt"
for ((i = 0; i < PAIRS; i++)); do
  if ((i % 2 == 0)); then
    run base "$work/base"
    run change "$root"
  else
    run change "$root"
    run base "$work/base"
  fi
done
go run ./ci/benchcmp "$root/bench-gate-base.txt" "$root/bench-gate-change.txt"
