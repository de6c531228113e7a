#!/usr/bin/env bash
# Repo gate: formatting, lints, build, and the full test suite.
# Everything here runs offline — the workspace has no external dependencies.
#
# Each gate's wall time is appended as a telemetry span to
# target/check_gates.jsonl; the run ends with that file's report, which
# lists the gates largest first with each one's share of the total.
set -euo pipefail
cd "$(dirname "$0")/.."

GATE_LOG=target/check_gates.jsonl
mkdir -p target
rm -f "$GATE_LOG"

# run_gate <label> <command...>: times the command and appends one span
# line in the run-file JSONL shape (parsed by report).
run_gate() {
    local label=$1
    shift
    echo "==> $label"
    local start end
    start=$(date +%s%N)
    "$@"
    end=$(date +%s%N)
    printf '{"type": "span", "name": "gate:%s", "count": 1, "total_nanos": %d}\n' \
        "$label" "$((end - start))" >> "$GATE_LOG"
}

run_gate "cargo fmt --check" cargo fmt --all -- --check

run_gate "cargo clippy (warnings are errors)" \
    cargo clippy --workspace --all-targets -- -D warnings

run_gate "cargo build --release" cargo build --release

run_gate "cargo test (workspace)" cargo test --workspace -q

run_gate "perfbench self-test" \
    cargo test --release -q --offline --manifest-path crates/bench/examples/perfbench/Cargo.toml

run_gate "fault-campaign smoke (reduced-scale §3 sweep)" \
    cargo run --release -q -p slipstream-bench --bin fault_campaign -- --smoke

run_gate "differential-fuzz smoke (oracle sweep + corpus replay)" \
    cargo run --release -q -p slipstream-bench --bin differential_fuzz -- --smoke --out BENCH_fuzz_smoke.json

run_gate "throughput smoke (each model's best instrs per probe op vs committed BENCH_throughput.json)" \
    cargo run --release -q -p slipstream-bench --bin throughput -- --smoke

run_gate "report smoke (run files only: round-trip + attribution + sampled CPI stack + pipeview + a_checkpoint <= 20% of run_total)" \
    cargo run --release -q -p slipstream-bench --bin report -- --smoke

cargo run --release -q -p slipstream-bench --bin report -- "$GATE_LOG"

echo "OK"
