//! Regenerates every table and figure of the paper's evaluation, plus the
//! CPI stacks, in one run.
//!
//! ```text
//! cargo run --release -p slipstream-bench --bin paper_tables [-- --scale S]
//! ```
//!
//! Prints each table once, as markdown. At the canonical scale 1 (the
//! default) it also rewrites the committed `BENCH_fig{6,7,8}.json`,
//! `BENCH_paper_tables.json` and `BENCH_cpi_stack.json`, and splices the
//! tables into the generated regions of `EXPERIMENTS.md`, all in the
//! current directory. A small §3 fault campaign closes the run (the full
//! sweep is `fault_campaign`). A malformed command line prints the usage
//! and exits with status 2.

use slipstream_bench::{
    available_workers, command_line, cpi_stack_json, evaluate_shared_l2_suite, evaluate_suite,
    fig6_json, fig7_json, fig8_json, paper_regions, paper_tables_json, parse_scale,
    print_campaign_table, run_campaign, splice_regions, write_figure_doc, CampaignConfig,
    MAX_CYCLES, TARGETS,
};

const USAGE: &str = "usage: paper_tables [--scale S]";

/// The document whose generated regions a scale-1 run rewrites.
const EXPERIMENTS: &str = "EXPERIMENTS.md";

/// The command line.
struct Args {
    scale: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { scale: 1.0 };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                args.scale = parse_scale(flag, value)?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let scale = command_line(parse_args, USAGE).scale;
    eprintln!("running all models on all benchmarks (scale {scale}) ...");
    let rows = evaluate_suite(scale);
    let l2_rows = evaluate_shared_l2_suite(scale);
    let regions = paper_regions(&rows, &l2_rows);
    for (name, table) in &regions {
        println!("## {name}\n\n{table}");
    }
    if scale == 1.0 {
        // Re-anchor the committed documents (only at the canonical scale,
        // so a quick reduced-scale run can't clobber them).
        write_figure_doc("BENCH_fig6.json", &fig6_json(&rows, scale));
        write_figure_doc("BENCH_fig7.json", &fig7_json(&rows, scale));
        write_figure_doc("BENCH_fig8.json", &fig8_json(&rows, scale));
        write_figure_doc("BENCH_paper_tables.json", &paper_tables_json(&rows, scale));
        write_figure_doc(
            "BENCH_cpi_stack.json",
            &cpi_stack_json(&rows, &l2_rows, scale),
        );
        // Splice the tables into the doc's generated regions; a lost
        // marker fails the run (status 1) naming the region.
        let doc = std::fs::read_to_string(EXPERIMENTS)
            .map_err(|e| e.to_string())
            .and_then(|doc| splice_regions(&doc, &regions))
            .unwrap_or_else(|e| {
                eprintln!("paper_tables: {EXPERIMENTS}: {e}");
                std::process::exit(1)
            });
        std::fs::write(EXPERIMENTS, doc).unwrap_or_else(|e| panic!("write {EXPERIMENTS}: {e}"));
        eprintln!("wrote {EXPERIMENTS}");
    }

    eprintln!("running fault-injection campaigns ...");
    println!("## fig5: transient-fault scenarios (m88ksim analogue)\n");
    let cfg = CampaignConfig {
        scale: (scale * 0.25).max(0.02),
        sites_per_target: 24,
        workers: available_workers(),
        seed: 7,
        max_cycles: MAX_CYCLES,
    };
    print_campaign_table(&run_campaign(&cfg, &["m88ksim"], &TARGETS));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    /// Bad scales and unknown or missing arguments are errors (main prints
    /// the usage, exits 2) instead of a silent canonical-scale run.
    #[test]
    fn command_lines_outside_the_usage_are_errors() {
        assert_eq!(parse("").unwrap().scale, 1.0);
        assert_eq!(parse("--scale 0.2").unwrap().scale, 0.2);
        for (line, want) in [
            ("--scale x", "--scale: not a number"),
            ("--scale 0", "--scale: not a positive number"),
            ("--scale -1", "--scale: not a positive number"),
            ("--scale", "--scale needs a value"),
            ("--scael 0.2", "unknown argument --scael"),
            ("--telemetry x", "unknown argument --telemetry"),
            ("0.2", "unknown argument 0.2"),
        ] {
            let e = parse(line).map(|_| ()).expect_err(line);
            assert!(e.contains(want), "{line:?}: {e}");
        }
    }
}
