//! Instruction-removal explorer: how the removal policy, the confidence
//! threshold, the IR-detector scope and the delay-buffer capacity shape
//! what the A-stream skips and how fast the pair runs (ablations of the
//! paper's §2 design choices).
//!
//! ```text
//! cargo run --release --example explore_removal [-- <benchmark>]
//! ```

use slipstream::core::{RemovalPolicy, SlipstreamConfig, SlipstreamProcessor, SlipstreamStats};
use slipstream::workloads::{benchmark, Workload};

/// Runs `w` on CMP(2x64x4) with `tweak` applied to the configuration.
fn run(w: &Workload, tweak: impl FnOnce(&mut SlipstreamConfig)) -> SlipstreamStats {
    let mut cfg = SlipstreamConfig::cmp_2x64x4();
    tweak(&mut cfg);
    let mut p = SlipstreamProcessor::new(cfg, &w.program);
    assert!(p.run(100_000_000));
    p.stats()
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "m88ksim".into());
    let w = benchmark(&name, 0.2)
        .unwrap_or_else(|| panic!("unknown benchmark {name}; see slipstream::workloads"));
    println!("benchmark: {}\n", w.name);

    println!("-- removal policy ablation (confidence threshold 32):");
    for (label, policy) in [
        ("all triggers", RemovalPolicy::all()),
        ("branches only", RemovalPolicy::branches_only()),
        ("none (AR-SMT mode)", RemovalPolicy::none()),
    ] {
        let s = run(&w, |cfg| cfg.removal = policy);
        println!(
            "  {label:<20} removal {:>5.1}%  IPC {:>5.2}  IR-misp {:>3}",
            100.0 * s.removal_fraction,
            s.ipc,
            s.ir_mispredictions
        );
    }

    println!("\n-- confidence threshold ablation (all triggers):");
    for threshold in [1, 4, 16, 32, 128] {
        let s = run(&w, |cfg| cfg.confidence_threshold = threshold);
        println!(
            "  threshold {threshold:>3}        removal {:>5.1}%  IPC {:>5.2}  IR-misp {:>3}  (avg penalty {:>4.1})",
            100.0 * s.removal_fraction,
            s.ipc,
            s.ir_mispredictions,
            s.avg_ir_penalty
        );
    }
    println!("\nLow thresholds remove more but mispredict removal more often;");
    println!("the paper settles on 32, which keeps IR-mispredictions below");
    println!("0.05 per 1000 instructions.");

    println!("\n-- IR-detector scope in traces (paper: 8):");
    for scope in [1, 2, 4, 8, 16] {
        let s = run(&w, |cfg| cfg.detector_scope = scope);
        println!(
            "  scope {scope:>2}             removal {:>5.1}%  IPC {:>5.2}",
            100.0 * s.removal_fraction,
            s.ipc
        );
    }

    println!("\n-- delay-buffer data capacity (paper: 256):");
    for capacity in [32, 64, 128, 256, 1024] {
        let s = run(&w, |cfg| cfg.delay_data_entries = capacity);
        println!(
            "  capacity {capacity:>4}        IPC {:>5.2}  (A-stream retire throttling changes the slack)",
            s.ipc
        );
    }
}
