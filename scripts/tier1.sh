#!/usr/bin/env sh
# Tier-1 verification gate (CI-runnable, fully offline).
#
# The workspace follows a hermetic-build policy: every dependency is an
# in-tree path crate, so a clean checkout with an empty registry cache
# must build and test with --offline.  Run from anywhere.
set -eu

cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release --offline"
cargo build --release --offline --workspace

echo "== tier1: cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier1: cargo doc --offline (rustdoc warnings, e.g. dangling intra-doc links, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --lib

echo "== tier1: cargo test -q --offline"
cargo test -q --offline --workspace

echo "== tier1: cargo build --offline --features trace (probes compiled in)"
cargo build --offline -p ferrum-cli --features trace

echo "== tier1: cargo test -q --offline --features trace (trace transparency)"
cargo test -q --offline --features trace --test trace_transparency

echo "== tier1: ferrum-cpu --selfcheck (decoded-engine identity across the catalog)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum-cpu -- --selfcheck

echo "== tier1: ferrum-lint --catalog (static soundness self-check)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum-lint -- --catalog

echo "== tier1: ferrum-trace --catalog (attribution + telemetry self-check)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum-trace -- --catalog --samples 200

echo "== tier1: ferrum-coverage --catalog (verdict soundness + pruned==serial self-check)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum-coverage -- --catalog --samples 200

echo "== tier1: ferrum-forensics --catalog (replay==serial + every SDC explained self-check)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum-forensics -- --catalog --samples 200

echo "== tier1: ferrum-compose --catalog (composed verdicts sound + incremental==stratified self-check)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum-compose -- --catalog --samples 200

echo "== tier1: ferrum-campaign --catalog (event-stream consistency + recorder purity + resume identity self-check)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum-campaign -- --catalog --samples 200

echo "== tier1: ferrum-profile --catalog (cross-engine profile identity + per-site overhead reconciliation)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum-profile -- --catalog

echo "== tier1: ferrum-fuzz (200-program differential sweep over the pinned seed window)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum-fuzz -- --programs 200 --seed 42

echo "== tier1: bench_check.sh --quick (bench.json regression gate vs committed baseline)"
sh scripts/bench_check.sh --quick

echo "== tier1: e2ebench self-tests (benchmark determinism, checks and CLI rejection)"
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "== tier1: OK"
