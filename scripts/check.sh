#!/usr/bin/env bash
# Repo gate: formatting, lints, build, and the full test suite.
# Everything here runs offline — the workspace has no external dependencies.
#
# Each gate's wall time is appended as a telemetry span to
# target/check_gates.jsonl; the run ends with a per-gate summary rendered
# by telemetry_report --gate-summary.
set -euo pipefail
cd "$(dirname "$0")/.."

GATE_LOG=target/check_gates.jsonl
mkdir -p target
rm -f "$GATE_LOG"

# run_gate <label> <command...>: times the command and appends one span
# line in the telemetry JSONL shape (parsed by telemetry_report).
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

run_gate "trace smoke (flight recorder + exporters)" \
    cargo run --release -q -p slipstream-bench --bin trace_dump -- --smoke

run_gate "throughput smoke (speed gate vs committed BENCH_throughput.json)" \
    cargo run --release -q -p slipstream-bench --bin throughput -- --smoke

run_gate "cpi-stack smoke (drift gate vs committed BENCH_cpi_stack.json)" \
    cargo run --release -q -p slipstream-bench --bin cpi_stack -- --smoke

run_gate "telemetry smoke (JSONL round-trip + exposition + attribution)" \
    cargo run --release -q -p slipstream-bench --bin telemetry_report -- --smoke

cargo run --release -q -p slipstream-bench --bin telemetry_report -- --gate-summary "$GATE_LOG"

echo "OK"
