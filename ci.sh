#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, tests — fully offline.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check
# perfbench is its own workspace (see perfbench/), so it is linted by
# its manifest.
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy --all-targets --offline --manifest-path perfbench/Cargo.toml -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --release --offline -q

echo "==> perfbench correctness tests"
# The benchmark's own tiny-size runs: traced replays must equal the
# untraced results and the deterministic counts must repeat, on all
# four workloads (perfbench is a separate workspace, see perfbench/).
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cml analyze --self-test"
cargo run --release --offline -q -p connman-lab --bin cml -- analyze --self-test

echo "==> cml analyze --sarif (VSA report smoke)"
# The interprocedural VSA layer must flag the vulnerable firmware
# (exit 2 = findings present) and emit parseable SARIF, and must stay
# quiet on patched 1.35 — on all three ISAs.
for arch in x86 arm riscv; do
  cargo run --release --offline -q -p connman-lab --bin cml -- \
    analyze --arch "$arch" --firmware openelec --sarif > /dev/null && {
      echo "analyze --sarif: vulnerable $arch not flagged"; exit 1; } || [ $? -eq 2 ]
  cargo run --release --offline -q -p connman-lab --bin cml -- \
    analyze --arch "$arch" --firmware patched --sarif > /dev/null
done

echo "==> repro --sanitize"
# Every exploit-matrix registry cell under the VM shadow-memory
# sanitizer: each payload must be pinpointed as a precise redzone
# overflow (exit 1 if any cell escapes).
cargo run --release --offline -q -p cml-bench --bin repro -- --sanitize

echo "==> cml fuzz --smoke"
# Fixed-seed fuzzing gate: the coverage-guided fuzzer must rediscover
# the dnsproxy overflow on vulnerable firmware (all three ISAs) and
# find nothing on patched 1.35, within a small deterministic budget.
cargo run --release --offline -q -p connman-lab --bin cml -- fuzz --smoke --jobs 2

echo "==> cml fuzz golden"
# Seed-7 campaigns on all three ISAs: the stats line (less its
# `artifacts:` path) and a checksum of every corpus and crash file must
# match the committed golden file byte for byte. Every seed-7 campaign
# finds crashes, so `cml fuzz` must exit 2 (crashes found).
fuzz_golden() {
  local arch dir code
  for arch in x86 arm riscv; do
    dir=$(mktemp -d)
    echo "== --arch $arch"
    code=0
    cargo run --release --offline -q -p connman-lab --bin cml -- \
      fuzz --arch "$arch" --seed 7 --max-execs 20000 --jobs 1 --out "$dir/out" \
      > "$dir/stdout" || code=$?
    [ "$code" -eq 2 ] || { echo "fuzz --arch $arch: exit $code, want 2"; return 1; }
    grep -v '^artifacts: ' "$dir/stdout"
    (cd "$dir/out" && find corpus crashes -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum)
    rm -rf "$dir"
  done
}
diff <(fuzz_golden) tests/golden/fuzz_seed7.txt || {
  echo "fuzz golden: output differs from tests/golden/fuzz_seed7.txt"; exit 1; }

echo "==> cml resolve --smoke"
# Recursive-resolver gate: delegation chasing, CNAME following, glue
# chasing, warm cache hits, same-seed trace determinism, and the
# one-poisoning redirection must all hold on the fixed demo topology.
cargo run --release --offline -q -p connman-lab --bin cml -- resolve --smoke

echo "==> cml resolve --trace golden"
# The demo walk's trace, answer and counters (simulated clock only, no
# wall-clock fields) must match the committed golden file byte for byte.
diff <(cargo run --release --offline -q -p connman-lab --bin cml -- \
  resolve www.vendor.example --trace) tests/golden/resolve_www_trace.txt || {
  echo "resolve --trace: output differs from tests/golden/resolve_www_trace.txt"; exit 1; }

echo "==> cml fleet 10k smoke"
# Million-device fleet path at smoke scale: a 10k-device cohort campaign
# must complete and render byte-identical per-cohort sections serial vs
# parallel (the trailing parenthesised lines carry wall-clock timings
# and are excluded from the comparison).
fleet_smoke() {
  cargo run --release --offline -q -p connman-lab --bin cml -- \
    fleet --devices 10000 --jobs "$1" | grep -v '^('
}
diff <(fleet_smoke 1) <(fleet_smoke 4) || {
  echo "fleet smoke: serial vs parallel reports differ"; exit 1; }

echo "==> cml experiments --jobs 1 vs --jobs 4"
# Determinism contract across all of E1-E10: the serial and parallel
# tables must match byte for byte (they carry no wall-clock fields).
experiments() {
  cargo run --release --offline -q -p connman-lab --bin cml -- experiments --jobs "$1"
}
cmp <(experiments 1) <(experiments 4) || {
  echo "experiments: serial vs parallel tables differ"; exit 1; }

echo "==> repro --bench-smoke"
# Tiny-iteration run of the BENCH record checked against the newest
# committed BENCH_*.json. The guards (json path, floor/ceiling/equals,
# factor) are the GUARDS table in crates/bench/src/bin/repro.rs; a
# baseline that predates a path skips that row, and a newest baseline
# that does not parse fails the stage.
cargo run --release --offline -q -p cml-bench --bin repro -- --bench-smoke

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "CI green."
