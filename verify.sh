#!/usr/bin/env bash
# verify.sh — the repository's full verification gate:
#
#   build + vet + race-enabled tests + stmlint discipline check
#   + a tiny deterministic tccbench smoke run + the benchmark of
#   record's self-tests and smoke pass (bench/README.md).
#
# Tier-1 (see ROADMAP.md) is the subset `go build ./... && go test ./...`;
# this script is the superset CI should run.
#
# Non-default mode: `./verify.sh bench` additionally runs the tracked
# benchmark suite (scripts/bench.sh) and refreshes BENCH_stm.json, the
# machine-readable perf trajectory.
set -euo pipefail
cd "$(dirname "$0")"
mode=${1:-gate}

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

echo "== stmlint -json -timing ./... (empty-baseline gate)"
# Per-rule timing goes to stderr (visible above); the JSON report is
# captured and must contain zero diagnostics — the baseline is empty,
# so any finding (even one the exit code somehow missed) fails the gate.
if ! lint_json=$(go run ./cmd/stmlint -json -timing ./...); then
  echo "stmlint: diagnostics found (baseline is empty):" >&2
  printf '%s\n' "$lint_json" >&2
  exit 1
fi
if printf '%s' "$lint_json" | grep -q '"rule"'; then
  echo "stmlint: non-empty report with zero exit status:" >&2
  printf '%s\n' "$lint_json" >&2
  exit 1
fi

echo "== disjoint-commit smoke (sharded guard footprints overlap)"
go test -run 'TestDisjointHandlerWindowsOverlap|TestGuardFreeRollbackTakesNoGuard' \
  -count=1 ./internal/stm >/dev/null

echo "== striped-map smoke (disjoint-key windows overlap + figure 5 sim run)"
go test -run 'TestStripedDisjointKeyHandlerWindowsOverlap|TestStripedMapConflicts' \
  -count=1 ./internal/core >/dev/null
go run ./cmd/tccbench -fig 5 -ops 64 -cpus 1,2 >/dev/null

echo "== striped-sortedmap + segmented-queue smoke (disjoint windows overlap, all protocols)"
go test -run 'TestRangeStripedDisjointRangeHandlerWindowsOverlap|TestRangeStripedScanSerializability|TestSegmentedQueueDisjointLaneHandlerWindowsOverlap|TestSegmentedQueueLaneFIFO|TestStripedStructuresAcrossProtocols' \
  -count=1 ./internal/core >/dev/null

echo "== tccbench smoke (figure 1, tiny config)"
go run ./cmd/tccbench -fig 1 -ops 64 -cpus 1,2 >/dev/null

echo "== snapshot-read smoke (MVCC-lite path: wait-free readers + figure 7 sim run)"
go test -run 'TestSnapshotReadersNonBlocking|TestSnapshotReadOnlyAllocationGuardrail' \
  -count=1 ./internal/stm >/dev/null
go run ./cmd/tccbench -fig 7 -ops 64 -cpus 1,2 >/dev/null

echo "== observability smoke (profile + stats-json + trace, validated)"
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/tccbench -fig 1 -ops 512 -cpus 8 -profile \
  -stats-json "$obsdir/stats.json" -trace "$obsdir/trace.json" >/dev/null
go run ./cmd/tracecheck -stats "$obsdir/stats.json" -trace "$obsdir/trace.json"

echo "== metrics smoke (live /metrics endpoint, scraped and validated)"
# tccbench -metrics-addr binds an ephemeral port, prints the endpoint
# URL on its first stdout line, runs a sustained workload for the
# -run-for duration, and exits 0 on clean shutdown. tracecheck's
# -prom-url parser validates the scrape (format + required families).
go run ./cmd/tccbench -metrics-addr 127.0.0.1:0 -run-for 4s -workers 4 \
  > "$obsdir/metrics.out" 2> "$obsdir/metrics.err" &
bench_pid=$!
metrics_url=""
for _ in $(seq 1 50); do
  metrics_url=$(head -n 1 "$obsdir/metrics.out" 2>/dev/null | sed -n 's/^metrics: //p')
  [[ -n "$metrics_url" ]] && break
  sleep 0.2
done
if [[ -z "$metrics_url" ]]; then
  echo "metrics smoke: tccbench never printed its endpoint" >&2
  cat "$obsdir/metrics.err" >&2 || true
  kill "$bench_pid" 2>/dev/null || true
  exit 1
fi
sleep 1  # let the workload populate the window before scraping
go run ./cmd/tracecheck -prom-url "$metrics_url"
if ! wait "$bench_pid"; then
  echo "metrics smoke: tccbench exited non-zero" >&2
  cat "$obsdir/metrics.err" >&2 || true
  exit 1
fi

echo "== protocol sweep smoke (stmsweep -smoke, JSON-validated via benchjson)"
# The tiny deterministic sweep: every registered protocol × 2
# collections × 2 update mixes × 2 thread counts. Its stdout is
# standard `go test -bench` text; piping through cmd/benchjson both
# validates the convention and produces the JSON we assert on.
go run ./cmd/stmsweep -smoke 2> /dev/null \
  | go run ./cmd/benchjson -note "stmsweep smoke" > "$obsdir/sweep.json"
for cell in 'Sweep/striped/u10/g2/tl2' 'Sweep/striped/u50/g4/norec' \
            'Sweep/queue/u50/g4/tl2-eager' 'Sweep/sortedmap/u10/g2/tl2' \
            'Sweep/lanequeue/u50/g4/norec'; do
  if ! grep -q "\"name\": \"$cell\"" "$obsdir/sweep.json"; then
    echo "sweep smoke: cell $cell missing from report" >&2
    exit 1
  fi
done

echo "== benchmark of record (bench/: self-tests + every phase at tiny counts)"
# The smoke pass runs all four workloads through every phase and exits
# non-zero when an invariant check fails; its numbers are meaningless.
go test -count=1 ./bench >/dev/null
go run ./bench -smoke -trace-dir "$obsdir" >/dev/null

if [[ "$mode" == "bench" ]]; then
  echo "== bench suite (scripts/bench.sh)"
  ./scripts/bench.sh
fi

echo "verify: OK"
