//! The figure rows' runs go to a pool side by side; these tests pin each
//! row to the same four models run one after another, so neither the job
//! order nor the worker that ran a job can show in a figure.

use slipstream_bench::{
    evaluate_shared_l2_suite, evaluate_suite, evaluate_workload, BenchRow, SharedL2Row, MAX_CYCLES,
};
use slipstream_core::{run_superscalar, RemovalPolicy, SlipstreamConfig, SlipstreamProcessor};
use slipstream_cpu::CoreConfig;
use slipstream_workloads::{suite, Workload};

const SCALE: f64 = 0.05;

/// One slipstream run to completion.
fn slipstream(cfg: SlipstreamConfig, w: &Workload) -> slipstream_core::SlipstreamStats {
    let mut proc = SlipstreamProcessor::new(cfg, &w.program);
    assert!(proc.run(MAX_CYCLES), "{}: did not complete", w.name);
    proc.stats()
}

/// `w`'s figure row with its four models run serially, in the paper's
/// order.
fn serial_row(w: &Workload) -> BenchRow {
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let ss64 = run_superscalar(
        CoreConfig::ss_64x4(),
        cfg.trace_pred,
        &w.program,
        MAX_CYCLES,
    );
    let ss128 = run_superscalar(
        CoreConfig::ss_128x8(),
        cfg.trace_pred,
        &w.program,
        MAX_CYCLES,
    );
    let slip = slipstream(cfg.clone(), w);
    let mut br_cfg = cfg;
    br_cfg.removal = RemovalPolicy::branches_only();
    let slip_br = slipstream(br_cfg, w);
    BenchRow {
        name: w.name,
        dynamic: slip.r_retired,
        ss64,
        ss128,
        slip,
        slip_br,
    }
}

fn assert_rows_equal(got: &BenchRow, want: &BenchRow) {
    let name = want.name;
    assert_eq!(got.name, name);
    assert_eq!(got.dynamic, want.dynamic, "{name}: dynamic");
    assert_eq!(got.ss64, want.ss64, "{name}: ss64");
    assert_eq!(got.ss128, want.ss128, "{name}: ss128");
    assert_eq!(got.slip, want.slip, "{name}: slip");
    assert_eq!(got.slip_br, want.slip_br, "{name}: slip_br");
}

#[test]
fn a_workload_row_equals_its_models_run_serially() {
    let workloads = suite(SCALE);
    assert_eq!(workloads.len(), 8);
    for w in &workloads {
        assert_rows_equal(&evaluate_workload(w), &serial_row(w));
    }
}

#[test]
fn suite_rows_equal_serial_rows_in_order() {
    let workloads = suite(SCALE);
    let rows = evaluate_suite(SCALE);
    assert_eq!(rows.len(), workloads.len());
    for (row, w) in rows.iter().zip(&workloads) {
        assert_rows_equal(row, &serial_row(w));
    }

    let l2_rows: Vec<SharedL2Row> = evaluate_shared_l2_suite(SCALE);
    assert_eq!(l2_rows.len(), workloads.len());
    for (row, w) in l2_rows.iter().zip(&workloads) {
        let slip = slipstream(SlipstreamConfig::cmp_shared_l2(), w);
        assert_eq!(row.name, w.name);
        assert_eq!(row.dynamic, slip.r_retired, "{}: dynamic", w.name);
        assert_eq!(row.slip, slip, "{}: shared-L2 slip", w.name);
    }
}
