#!/usr/bin/env bash
# verify.sh — the repository's full verification gate, one mode, seven
# stages, none rerunning what an earlier one ran:
#
#   build, vet + gofmt, race-enabled tests (bench/'s self-tests included), the
#   stmlint empty-baseline check, tccbench's main() driven twice
#   (observability artifacts validated by tracecheck; live /metrics
#   scraped and validated), and the benchmark of record's smoke pass
#   (bench/README.md).
#
# Tier-1 (see ROADMAP.md) is the subset `go build ./... && go test ./...`;
# this script is the superset CI should run. Performance is not measured
# here: that is `go run ./bench` and scripts/bench-ab.sh.
set -euo pipefail
cd "$(dirname "$0")"

# stage closes the previous stage's wall-clock timer and opens the next.
stage_name="" stage_start=$SECONDS
stage() {
  [[ -n "$stage_name" ]] && echo "   ${stage_name}: $((SECONDS - stage_start))s"
  stage_name=$1 stage_start=$SECONDS
  [[ -n "$stage_name" ]] && echo "== $stage_name"
  return 0
}

# The metrics stage backgrounds tccbench; a failure anywhere after that
# must not leave it running against a deleted directory.
obsdir=$(mktemp -d)
bench_pid=""
trap '[[ -n "$bench_pid" ]] && kill "$bench_pid" 2>/dev/null; rm -rf "$obsdir"' EXIT

stage "go build ./..."
go build ./...

stage "go vet ./... + gofmt"
go vet ./...
# The lint fixtures hold deliberately odd code; everything else is gofmt'd.
unformatted=$(gofmt -l . | grep -v '^internal/analysis/testdata/' || true)
if [[ -n "$unformatted" ]]; then
  echo "gofmt: these files need formatting:" >&2
  printf '%s\n' "$unformatted" >&2
  exit 1
fi

stage "go test -race -timeout 180s ./..."
# A livelocked test must fail with a goroutine dump, not run to the 600 s
# default while its writer grows the heap (ROADMAP containment c). The
# slowest packages take ~25 s alone under -race; widen the timeout if a
# green run ever comes within 2x of it.
go test -race -timeout 180s ./...

stage "stmlint -json -timing ./... (empty-baseline gate)"
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

stage "observability smoke (profile + stats-json + trace, validated)"
# Built once and run directly, so the kill in the trap reaches tccbench
# itself and not a `go run` wrapper.
go build -o "$obsdir/tccbench" ./cmd/tccbench
"$obsdir/tccbench" -fig 1 -ops 512 -cpus 8 -profile \
  -stats-json "$obsdir/stats.json" -trace "$obsdir/trace.json" >/dev/null
go run ./cmd/tracecheck -stats "$obsdir/stats.json" -trace "$obsdir/trace.json"

stage "metrics smoke (live /metrics endpoint, scraped and validated)"
# tccbench -metrics-addr binds an ephemeral port, prints the endpoint
# URL on its first stdout line, runs a sustained workload for the
# -run-for duration, and exits 0 on clean shutdown. tracecheck's
# -prom-url parser validates the scrape (format + required families).
"$obsdir/tccbench" -metrics-addr 127.0.0.1:0 -run-for 4s -workers 4 \
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
  exit 1
fi
sleep 1  # let the workload populate the window before scraping
go run ./cmd/tracecheck -prom-url "$metrics_url"
if ! wait "$bench_pid"; then
  echo "metrics smoke: tccbench exited non-zero" >&2
  cat "$obsdir/metrics.err" >&2 || true
  exit 1
fi
bench_pid=""

stage "benchmark of record (go run ./bench -smoke: every phase at tiny counts)"
# bench's self-tests ran in the race stage; this drives its main(). The
# smoke pass runs all four workloads through every phase and exits
# non-zero when an invariant check fails; its numbers are meaningless.
go run ./bench -smoke -trace-dir "$obsdir" >/dev/null

stage ""
echo "verify: total ${SECONDS}s"
echo "verify: OK"
