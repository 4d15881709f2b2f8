#!/usr/bin/env sh
# Regression gate for the committed bench.json baseline.
#
# Re-runs `ferrum-repro speedup` with the exact configuration recorded in
# results/bench.json (test scale, fixed seed and samples, so every
# deterministic metric must reproduce bit-for-bit), then compares the
# fresh artifact against the baseline with `bench_check`'s per-metric
# tolerances: outcome identity, latency percentiles, hit/prune rates
# and reuse counts exactly; engine speedups within generous bands;
# raw wall-clock rates, worker balance, and recorder overhead
# informational only (scheduler noise at test scale).
#
#   scripts/bench_check.sh           full gate (baseline repetitions)
#   scripts/bench_check.sh --quick   single repetition, widened bands
#                                    (the tier-1 configuration)
#
# Regenerating the baseline after an intentional performance change:
#   cargo run --release -p ferrum-bench --bin ferrum-repro -- speedup \
#     --scale test --samples 200 --seed 65092 --threads 4 --reps 2 \
#     --json-out results/bench.json
set -eu

cd "$(dirname "$0")/.."

BASELINE=results/bench.json
[ -f "$BASELINE" ] || { echo "bench_check.sh: missing $BASELINE" >&2; exit 2; }

REPS=2
QUICK=""
if [ "${1:-}" = "--quick" ]; then
    REPS=1
    QUICK="--quick"
fi

CURRENT=$(mktemp /tmp/bench.XXXXXX.json)
trap 'rm -f "$CURRENT"' EXIT

cargo run --release --offline -q -p ferrum-bench --bin ferrum-repro -- speedup \
    --scale test --samples 200 --seed 65092 --threads 4 --reps "$REPS" \
    --json-out "$CURRENT" > /dev/null 2>&1

cargo run --release --offline -q -p ferrum-bench --bin bench_check -- \
    "$BASELINE" "$CURRENT" $QUICK
