#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, tests — fully offline.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

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

echo "==> cml fuzz --smoke"
# Fixed-seed fuzzing gate: the coverage-guided fuzzer must rediscover
# the dnsproxy overflow on vulnerable firmware (all three ISAs) and
# find nothing on patched 1.35, within a small deterministic budget.
cargo run --release --offline -q -p connman-lab --bin cml -- fuzz --smoke --jobs 2

echo "==> cml resolve --smoke"
# Recursive-resolver gate: delegation chasing, CNAME following, glue
# chasing, warm cache hits, same-seed trace determinism, and the
# one-poisoning redirection must all hold on the fixed demo topology.
cargo run --release --offline -q -p connman-lab --bin cml -- resolve --smoke

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

echo "==> repro --bench-smoke"
# Tiny-iteration ablations compared against the newest committed
# BENCH_*.json. Fails on:
#   >2x   regression of the snapshot insn advantage, the template_vs_rebuild
#         wall advantage, the IR-over-single-step dispatch speedup
#         (ir_vs_insn; older baselines give it as ir_vs_block x
#         block_vs_insn) or the fuzz fork-vs-reboot advantage;
#   >2x   growth of the coverage-hook overhead;
#   >4x   regression of any per-ISA decode-table-vs-hand-rolled ratio;
#   >20x  collapse of the warm resolver-cache throughput, the RISC-V fuzz
#         execs/sec or the 10k fleet devices/sec, or blow-up of VSA wall;
#   any   allocation on the warm resolver cache-hit path.
# Each guard skips with a note when the baseline predates its record.
cargo run --release --offline -q -p cml-bench --bin repro -- --bench-smoke

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "CI green."
