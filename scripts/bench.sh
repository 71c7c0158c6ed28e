#!/usr/bin/env sh
# Runs a benchmark suite with -benchmem and distils the output into a
# JSON file so the perf trajectory is diffable across PRs. The run's
# runtime metric snapshot (plan-cache and result-cache hit rates, scan
# counts — see OBSERVABILITY.md) is stored under the "obs" key.
#
# Usage: scripts/bench.sh [registry|match|chaos|qcache|scale|wal|wire|fed] [benchtime]
#   registry (default) -> BENCH_registry.json (registry store/evaluate)
#   match              -> BENCH_match.json (matchmaking + subsumption +
#                         wire encode, incl. parallel matching)
#   chaos              -> BENCH_chaos.json (fault-sweep availability and
#                         latency degradation; see simdisco -chaos)
#   qcache             -> BENCH_qcache.json (query result cache: cached
#                         vs cache-off throughput, deadline-cache probes,
#                         E18 gateway WAN-reduction sim)
#   scale              -> BENCH_scale.json (10^5..10^6-advert stores:
#                         bytes/advert, publish/renew throughput, and
#                         the inverted subscription index vs the linear
#                         notification scan; set SEMDISCO_SCALE_HUGE=1
#                         to extend the sweep to 10^7 adverts)
#   wal                -> BENCH_wal.json (crash-safe persistence: WAL
#                         publish overhead vs memory-only incl. fsync
#                         group commit, and cold-boot recovery from the
#                         log vs a compacted snapshot at 10^4..10^6
#                         adverts; the E20 table)
#   wire               -> BENCH_wire.json (transport throughput pipeline:
#                         zero-alloc decode rates, renews/s through the
#                         datagram coalescer vs unbatched, and the E21
#                         batching + delta-summary tables)
#   fed                -> BENCH_fed.json (hierarchical multi-domain
#                         federation: the E22 directory sweep — 10..500
#                         domains, convergence time/bytes, cross-domain
#                         query latency, churn reconvergence)
set -eu

cd "$(dirname "$0")/.."

MODE="registry"
case "${1:-}" in
registry | match | chaos | qcache | scale | wal | wire | fed)
    MODE="$1"
    shift
    ;;
esac
BENCHTIME="${1:-1s}"

case "$MODE" in
registry)
    OUT="BENCH_registry.json"
    PATTERN='BenchmarkRegistry'
    ;;
match)
    OUT="BENCH_match.json"
    PATTERN='BenchmarkMatcherMatch|BenchmarkSubsumes|BenchmarkSimilarity|BenchmarkMatcherSemantic|BenchmarkOntologySubsumes|BenchmarkOntologySimilarity|BenchmarkWireMarshalQuery|BenchmarkE5Matchmaking|BenchmarkE14MatchCostSemantic'
    ;;
chaos)
    OUT="BENCH_chaos.json"
    PATTERN='BenchmarkE17Chaos|BenchmarkE16Loss|BenchmarkE3Robustness'
    ;;
qcache)
    OUT="BENCH_qcache.json"
    PATTERN='BenchmarkQCache|BenchmarkRegistryNextExpiry|BenchmarkRegistryExpireIdleTick|BenchmarkE18ResultCache'
    ;;
scale)
    OUT="BENCH_scale.json"
    PATTERN='BenchmarkPublishWithSubs|BenchmarkScalePublish|BenchmarkScaleRenew|BenchmarkE19Scale'
    ;;
wal)
    OUT="BENCH_wal.json"
    PATTERN='BenchmarkWALPublish|BenchmarkWALRecover|BenchmarkE20Durability'
    ;;
wire)
    OUT="BENCH_wire.json"
    PATTERN='BenchmarkWireDecode|BenchmarkBatchRenews|BenchmarkE21'
    ;;
fed)
    OUT="BENCH_fed.json"
    PATTERN='BenchmarkE22Federation|BenchmarkE15Scale'
    ;;
esac

RAW="$(mktemp)"
OBS="$(mktemp)"
trap 'rm -f "$RAW" "$OBS"' EXIT

SEMDISCO_OBS_OUT="$OBS" \
    go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

# Benchmark lines look like:
#   BenchmarkRegistryEvaluateBroad-8   3680   382880 ns/op   5531 B/op   10 allocs/op
awk '
BEGIN { print "{"; first = 1 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; extras = ""
    for (i = 3; i <= NF; i++) {
        if ($(i) == "ns/op") ns = $(i - 1)
        else if ($(i) == "B/op") bytes = $(i - 1)
        else if ($(i) == "allocs/op") allocs = $(i - 1)
        else if ($(i) !~ /^[0-9.eE+-]+$/ && $(i - 1) ~ /^[0-9.eE+-]+$/) {
            # Custom b.ReportMetric units (bytes/advert, notify-speedup,
            # notifications/op, ...) keyed by a JSON-safe slug.
            key = $(i); gsub(/[^A-Za-z0-9]/, "_", key)
            extras = extras sprintf(", \"%s\": %s", key, $(i - 1))
        }
    }
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"ns_op\": %s", name, ns
    if (bytes != "") printf ", \"bytes_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_op\": %s", allocs
    printf "%s}", extras
}
END { printf ",\n  \"obs\": " }
' "$RAW" > "$OUT"

if [ -s "$OBS" ]; then
    # Re-indent the snapshot so it nests under the top-level object.
    sed '2,$s/^/  /' "$OBS" >> "$OUT"
else
    printf 'null' >> "$OUT"
fi
printf '\n}\n' >> "$OUT"

echo "wrote $OUT"
