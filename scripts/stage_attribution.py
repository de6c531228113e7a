#!/usr/bin/env python3
"""Attribute gprofng samples to the out-of-order core's pipeline stages.

The core's stages (`Core::fetch`, `dispatch`, `issue`, `retire`, ...) are
inlined into `Core::cycle_inner`, so a per-function profile shows one
function. This script takes every sampled PC, asks `addr2line -i` for its
inline chain, and charges the sample to the innermost frame that names a
stage, or to "driver callbacks, <driver>" when that frame is a
`CoreDriver` method (inlined or not), named by the driver type, so the
R-stream's `RStreamDriver` and the A-stream's `TraceFrontEnd` show
apart. Samples outside the core keep their function name.

Usage (from the repository root):

    CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR=target/prof \\
        cargo build --release --offline \\
        --manifest-path crates/bench/examples/perfbench/Cargo.toml
    gprofng collect app -o target/prof/pb.er target/prof/release/perfbench \\
        run paper_suite --seconds 120
    scripts/stage_attribution.py target/prof/pb.er target/prof/release/perfbench

For the per-instruction cost of one long windowed run, profile `long_run`
instead (a fresh experiment directory each time):

    gprofng collect app -o target/prof/long.er target/prof/release/perfbench \\
        run long_run --seconds 120
    scripts/stage_attribution.py target/prof/long.er target/prof/release/perfbench
"""

import collections
import re
import subprocess
import sys

STAGES = [
    ("issue", ["Core::issue", "Core::exec_latency", "Core::next_level_latency"]),
    ("dispatch", ["Core::dispatch", "Core::execute_functionally", "Core::admit", "SpecMem"]),
    ("fetch", ["Core::fetch"]),
    ("retire", ["Core::retire"]),
    ("redirect", ["Core::resolve_redirect"]),
    ("classify", ["Core::classify_cycle"]),
]
DRIVER = re.compile(r"<(?:[\w:]+::)?(\w+) as slipstream_cpu::driver::CoreDriver>::")


def run(args):
    return subprocess.run(args, capture_output=True, text=True, check=True).stdout


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: stage_attribution.py EXPERIMENT.er BINARY")
    er, binary = sys.argv[1], sys.argv[2]
    symbols = {}
    for line in run(["nm", "--defined-only", binary]).splitlines():
        parts = line.split()
        if len(parts) == 3:
            symbols.setdefault(parts[2], int(parts[0], 16))
    total = 0.0
    samples = []  # (seconds, address or None, function name)
    pcs = run(["gprofng", "display", "text", "-name", "mangled", "-limit", "0", "-pcs", er])
    for line in pcs.splitlines():
        m = re.match(r"\s*([\d.]+)\s+100\.00\s+[\d.]+\s+100\.00\s+<Total>", line)
        if m:
            total = float(m.group(1))
        m = re.match(r"\s*([\d.]+)\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+(\S+) \+ 0x([0-9A-Fa-f]+)", line)
        if m:
            secs, name, off = float(m.group(1)), m.group(2), int(m.group(3), 16)
            addr = symbols[name] + off if name in symbols else None
            samples.append((secs, addr, name))
    if total == 0.0:
        sys.exit(f"no samples in {er}")
    chains = collections.defaultdict(list)
    addrs = sorted({a for _, a, _ in samples if a is not None})
    if addrs:
        out = run(["addr2line", "-a", "-i", "-f", "-C", "-e", binary] + [hex(a) for a in addrs])
        lines, cur, i = out.splitlines(), None, 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                cur = int(lines[i], 16)
                i += 1
            else:
                chains[cur].append(lines[i])  # function; the next line is file:line
                i += 2
    groups = collections.Counter()
    for secs, addr, name in samples:
        chain = chains.get(addr, [])
        label = None
        for fn in chain:  # innermost first
            driver = DRIVER.search(fn)
            if driver:
                label = "driver callbacks, " + driver.group(1)
            else:
                label = next((st for st, keys in STAGES if any(k in fn for k in keys)), None)
            if label:
                break
        if label is None:
            outer = re.sub(r"::h[0-9a-f]{16}$", "", chain[-1]) if chain else name
            label = "core, other" if "Core::cycle" in outer else "outside: " + outer
        groups[label] += secs
    print(f"{total:.3f} s sampled")
    for label, secs in groups.most_common():
        print(f"{100 * secs / total:6.1f} %  {label}")


if __name__ == "__main__":
    main()
