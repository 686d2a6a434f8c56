#!/usr/bin/env bash
# Continuous-benchmark regression gate. Regenerates the tracked-metric
# snapshot (or takes a pre-generated one as $1) and compares it against
# the committed BENCH_PR20.json baseline; exits non-zero if any tracked
# metric drifts beyond its tolerance. CI runs exactly this script.
# Wall-clock timings (sweep at 1 job vs N jobs, the large-cluster wave
# timing and its digest, host cores) ride along as info entries, which
# are recorded but never compared.
#
# Usage:
#   scripts/bench_check.sh                  # regenerate current snapshot in-process
#   scripts/bench_check.sh current.json     # compare a pre-generated snapshot
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_PR20.json
if [[ ! -f "$BASELINE" ]]; then
  echo "missing baseline $BASELINE — generate one with: cargo run --release -p sn-bench --bin repro -- --bench-json $BASELINE" >&2
  exit 1
fi

# Only rows carrying a "tolerance" field are tracked metrics; info rows
# (wall-clock timings, host facts) have no tolerance and are skipped by
# the comparison. Count both up front so the gate's coverage — and what
# it deliberately ignores — is visible in CI logs.
TRACKED=$(grep -c '"tolerance":' "$BASELINE" || true)
TOTAL=$(grep -c '{"key":' "$BASELINE" || true)
INFO=$((TOTAL - TRACKED))
echo "==> baseline $BASELINE: $TRACKED tracked metrics, skipping $INFO info rows (recorded, never compared)"
if [[ "$TRACKED" -eq 0 ]]; then
  echo "==> baseline has only info rows — nothing is gated; the comparison passes vacuously"
fi

echo "==> cargo build --release -p sn-bench (repro)"
cargo build --release -q -p sn-bench --bin repro

echo "==> repro --bench-check $BASELINE ${1:-}"
./target/release/repro --bench-check "$BASELINE" "$@"
