#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, tests — fully offline.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# The two binaries, run from this checkout's release build.
cml() { cargo run --release --offline -q -p connman-lab --bin cml -- "$@"; }
repro() { cargo run --release --offline -q -p cml-bench --bin repro -- "$@"; }

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

echo "==> examples"
# README's documented entry points must run to completion, not just
# compile (clippy only builds them); any non-zero exit fails the gate.
for example in quickstart rogue_access_point rop_workbench defense_lab; do
  cargo run --release --offline -q --example "$example" > /dev/null || {
    echo "example $example failed"; exit 1; }
done

echo "==> perfbench correctness tests"
# The benchmark's own tiny-size runs: traced replays must equal the
# untraced results and the deterministic counts must repeat, on all
# four workloads (perfbench is a separate workspace, see perfbench/).
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cml analyze --self-test"
cml analyze --self-test

echo "==> cml analyze on every firmware (JSON and SARIF)"
# Every --firmware spelling on all three ISAs, in both renderings: the
# vulnerable images must be flagged (exit 2 = findings present) and
# patched 1.35 must stay quiet (exit 0).
for arch in x86 arm riscv; do
  for firmware in yocto openelec tizen patched; do
    want=2
    [ "$firmware" = patched ] && want=0
    for sarif in "" --sarif; do
      code=0
      cml analyze --arch "$arch" --firmware "$firmware" ${sarif:+"$sarif"} > /dev/null || code=$?
      [ "$code" -eq "$want" ] || {
        echo "analyze --arch $arch --firmware $firmware $sarif: exit $code, want $want"; exit 1; }
    done
  done
done

echo "==> repro --sanitize"
# Every exploit-matrix registry cell under the VM shadow-memory
# sanitizer: each payload must be pinpointed as a precise redzone
# overflow (exit 1 if any cell escapes).
repro --sanitize

echo "==> cml fuzz --smoke"
# Fixed-seed fuzzing gate: the coverage-guided fuzzer must rediscover
# the dnsproxy overflow on vulnerable firmware (all three ISAs) and
# find nothing on patched 1.35, within a small deterministic budget.
cml fuzz --smoke --jobs 2

echo "==> cml fuzz golden"
# Seed-7 campaigns on all three ISAs at --jobs 1, plus a three-worker
# x86 campaign that pins the multi-worker path: the stats line (less
# its `artifacts:` path) and a checksum of every corpus and crash file
# must match the committed golden file byte for byte. Every seed-7
# campaign finds crashes, so `cml fuzz` must exit 2 (crashes found).
fuzz_campaign() {
  local arch=$1 jobs=$2 dir code=0
  dir=$(mktemp -d)
  cml fuzz --arch "$arch" --seed 7 --max-execs 20000 --jobs "$jobs" --out "$dir/out" \
    > "$dir/stdout" || code=$?
  [ "$code" -eq 2 ] || { echo "fuzz --arch $arch --jobs $jobs: exit $code, want 2"; return 1; }
  grep -v '^artifacts: ' "$dir/stdout"
  (cd "$dir/out" && find corpus crashes -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum)
  rm -rf "$dir"
}
fuzz_golden() {
  local arch
  for arch in x86 arm riscv; do
    echo "== --arch $arch"
    fuzz_campaign "$arch" 1 || return 1
  done
  echo "== --arch x86 --jobs 3"
  fuzz_campaign x86 3
}
diff <(fuzz_golden) tests/golden/fuzz_seed7.txt || {
  echo "fuzz golden: output differs from tests/golden/fuzz_seed7.txt"; exit 1; }

echo "==> cml resolve --smoke"
# Recursive-resolver gate: delegation chasing, CNAME following, glue
# chasing, warm cache hits, same-seed trace determinism, and the
# one-poisoning redirection must all hold on the fixed demo topology.
cml resolve --smoke

echo "==> cml resolve --trace golden"
# The demo walk's trace, answer and counters (simulated clock only, no
# wall-clock fields) must match the committed golden file byte for byte.
diff <(cml resolve www.vendor.example --trace) tests/golden/resolve_www_trace.txt || {
  echo "resolve --trace: output differs from tests/golden/resolve_www_trace.txt"; exit 1; }

echo "==> cml fleet 10k smoke"
# Million-device fleet path at smoke scale: a 10k-device cohort campaign
# must complete, and its per-cohort sections at --jobs 1 and --jobs 4
# must both match the committed report byte for byte (the trailing
# parenthesised lines carry wall-clock timings and are excluded), so a
# change that moves serial and parallel alike still fails here.
fleet_smoke() {
  cml fleet --devices 10000 --jobs "$@" | grep -v '^('
}
for jobs in 1 4; do
  diff <(fleet_smoke "$jobs") tests/golden/fleet_10k.txt || {
    echo "fleet smoke --jobs $jobs: report differs from tests/golden/fleet_10k.txt"; exit 1; }
done

echo "==> cml exploit, survey and pineapple goldens"
# Every exploit-matrix cell, the firmware survey and the rogue-AP runs
# print the spawned shell's text; each must match its committed golden
# byte for byte (every cell pops a root shell, so each exits 0).
exploit_matrix() {
  local arch prot
  for arch in x86 arm riscv; do
    for prot in none wxorx full; do
      echo "== exploit --arch $arch --prot $prot"
      cml exploit --arch "$arch" --prot "$prot" || return 1
    done
  done
}
diff <(exploit_matrix) tests/golden/exploit_matrix.txt || {
  echo "exploit matrix: output differs from tests/golden/exploit_matrix.txt"; exit 1; }
diff <(cml survey) tests/golden/survey.txt || {
  echo "survey: output differs from tests/golden/survey.txt"; exit 1; }
diff <(cml pineapple) tests/golden/pineapple.txt || {
  echo "pineapple: output differs from tests/golden/pineapple.txt"; exit 1; }

echo "==> cml fleet --resolver parity"
# Resolver topology: every cohort's lookups go through one shared
# upstream cache, poisoned once and keyed by the canonical question. The
# per-cohort report must match the direct path's golden byte for byte.
diff <(fleet_smoke 4 --resolver) tests/golden/fleet_10k.txt || {
  echo "fleet --resolver: report differs from the direct path"; exit 1; }

echo "==> cml experiments --jobs 1 vs --jobs 4, and repro"
# Determinism contract across all of E1-E10: the serial and parallel
# tables must match byte for byte (they carry no wall-clock fields).
# Both front ends run the one experiment registry, so `repro` must
# print the same tables too.
experiments() {
  cml experiments --jobs "$1"
}
cmp <(experiments 1) <(experiments 4) || {
  echo "experiments: serial vs parallel tables differ"; exit 1; }
cmp <(experiments 1) <(repro --jobs 2) || {
  echo "experiments: repro tables differ from cml experiments"; exit 1; }

echo "==> cml experiments golden and EXPERIMENTS.md"
# The tables must match the committed golden byte for byte, and every
# table row and E5 listing line of it must appear verbatim in
# EXPERIMENTS.md, so the document cannot drift from the binary.
diff <(experiments 1) tests/golden/experiments.txt || {
  echo "experiments: output differs from tests/golden/experiments.txt"; exit 1; }
missing=$(grep -E "^(\||\+ '|# )" tests/golden/experiments.txt | grep -vxFf EXPERIMENTS.md || true)
[ -z "$missing" ] || {
  echo "EXPERIMENTS.md lacks these lines of cml experiments:"; echo "$missing"; exit 1; }

echo "==> repro --bench-smoke"
# Tiny-iteration run of the BENCH record checked against the newest
# committed BENCH_*.json. The guards (json path, floor/ceiling/equals,
# factor) are the GUARDS table in crates/bench/src/bin/repro.rs; a
# baseline that predates a path skips that row, and a newest baseline
# that does not parse fails the stage.
repro --bench-smoke

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "CI green."
