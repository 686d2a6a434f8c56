#!/usr/bin/env bash
# Repository-wide checks: formatting, lints, tests. CI runs exactly this
# script, so a clean local run means a clean CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test --release (integration tests at optimized speed)"
cargo test --workspace --release -q --tests

echo "==> repro serve --jobs parity (parallel sweep == legacy path, byte-for-byte)"
cargo build --release -q -p sn-bench --bin repro
./target/release/repro --jobs 1 serve > /tmp/serve_jobs1.out
./target/release/repro --jobs 4 serve > /tmp/serve_jobs4.out
if ! diff -u /tmp/serve_jobs1.out /tmp/serve_jobs4.out; then
  echo "serve sweep output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
rm -f /tmp/serve_jobs1.out /tmp/serve_jobs4.out

echo "==> repro tenants chaos smoke (correlated-failure window, --jobs parity)"
./target/release/repro --jobs 1 tenants > /tmp/tenants_jobs1.out
./target/release/repro --jobs 2 tenants > /tmp/tenants_jobs2.out
if ! diff -u /tmp/tenants_jobs1.out /tmp/tenants_jobs2.out; then
  echo "tenants sweep output differs between --jobs 1 and --jobs 2" >&2
  exit 1
fi
grep -q "MULTI-TENANT CHAOS" /tmp/tenants_jobs1.out
rm -f /tmp/tenants_jobs1.out /tmp/tenants_jobs2.out

echo "==> repro placement policy smoke (stats-driven serving, --jobs parity)"
./target/release/repro --jobs 1 placement > /tmp/placement_jobs1.out
./target/release/repro --jobs 4 placement > /tmp/placement_jobs4.out
if ! diff -u /tmp/placement_jobs1.out /tmp/placement_jobs4.out; then
  echo "placement sweep output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
grep -q "PLACEMENT POLICIES" /tmp/placement_jobs1.out
rm -f /tmp/placement_jobs1.out /tmp/placement_jobs4.out

echo "==> repro obs smoke (burn-rate alerts + flight recorder, --jobs parity)"
# One shared export path: the printed "wrote <path>" line is part of the
# byte-identity contract, so it must not vary between the two runs.
./target/release/repro --jobs 1 --obs /tmp/obs_check.json obs > /tmp/obs_jobs1.out
mv /tmp/obs_check.json /tmp/obs_jobs1.json
./target/release/repro --jobs 2 --obs /tmp/obs_check.json obs > /tmp/obs_jobs2.out
if ! diff -u /tmp/obs_jobs1.out /tmp/obs_jobs2.out; then
  echo "obs sweep output differs between --jobs 1 and --jobs 2" >&2
  exit 1
fi
if ! diff -q /tmp/obs_jobs1.json /tmp/obs_check.json; then
  echo "--obs export differs between --jobs 1 and --jobs 2" >&2
  exit 1
fi
grep -q "OBSERVABILITY" /tmp/obs_jobs1.out
grep -q "firing" /tmp/obs_jobs1.out
grep -q "resolved" /tmp/obs_jobs1.out
grep -q '"schema":"sn-obs/v1"' /tmp/obs_jobs1.json
rm -f /tmp/obs_jobs1.out /tmp/obs_jobs2.out /tmp/obs_jobs1.json /tmp/obs_check.json

echo "==> repro grid smoke (480-cell exact capacity grid, --jobs parity)"
./target/release/repro --jobs 1 grid > /tmp/grid_jobs1.out
./target/release/repro --jobs 2 grid > /tmp/grid_jobs2.out
if ! diff -u /tmp/grid_jobs1.out /tmp/grid_jobs2.out; then
  echo "grid output differs between --jobs 1 and --jobs 2" >&2
  exit 1
fi
grep -q "480 cells" /tmp/grid_jobs1.out
rm -f /tmp/grid_jobs1.out /tmp/grid_jobs2.out

echo "All checks passed."
