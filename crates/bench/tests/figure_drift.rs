//! Figure-drift gate: the committed `BENCH_fig6/7/8.json`,
//! `BENCH_paper_tables.json` and `BENCH_cpi_stack.json` anchors at the
//! repo root, and the generated table regions of `EXPERIMENTS.md`, must
//! match what the current simulator regenerates at the canonical scale.
//! Any change that shifts simulated timing — intentionally or not — fails
//! here until they are re-committed (`cargo run --release -p
//! slipstream-bench --bin paper_tables` rewrites all of them), so the
//! paper's figures and the tables quoted in the docs can never silently
//! drift from the code that claims to reproduce them.

use std::fs;
use std::path::Path;

use slipstream_bench::{
    cpi_stack_json, evaluate_shared_l2_suite, evaluate_suite, fig6_json, fig7_json, fig8_json,
    paper_regions, paper_tables_json, splice_regions,
};

const REGENERATE: &str = "if the timing change is intentional, re-commit it via \
                          `cargo run --release -p slipstream-bench --bin paper_tables`";

#[test]
fn committed_figure_documents_match_regeneration() {
    let rows = evaluate_suite(1.0);
    let l2_rows = evaluate_shared_l2_suite(1.0);
    let docs = [
        ("BENCH_fig6.json", fig6_json(&rows, 1.0)),
        ("BENCH_fig7.json", fig7_json(&rows, 1.0)),
        ("BENCH_fig8.json", fig8_json(&rows, 1.0)),
        ("BENCH_paper_tables.json", paper_tables_json(&rows, 1.0)),
        ("BENCH_cpi_stack.json", cpi_stack_json(&rows, &l2_rows, 1.0)),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |name: &str| {
        fs::read_to_string(root.join(name)).unwrap_or_else(|e| {
            panic!("{name} missing at the repo root ({e}); run the paper_tables binary")
        })
    };
    for (name, regenerated) in docs {
        assert_eq!(
            regenerated,
            read(name),
            "{name} drifted from the committed anchor — {REGENERATE}"
        );
    }

    // Each generated region of EXPERIMENTS.md, checked on its own so a
    // failure names the stale region.
    let experiments = read("EXPERIMENTS.md");
    for region in paper_regions(&rows, &l2_rows) {
        let spliced = splice_regions(&experiments, std::slice::from_ref(&region))
            .unwrap_or_else(|e| panic!("EXPERIMENTS.md: {e}"));
        assert!(
            spliced == experiments,
            "EXPERIMENTS.md region {} is stale — {REGENERATE}",
            region.0
        );
    }
}
