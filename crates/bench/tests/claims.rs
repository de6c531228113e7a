//! The paper's claims, checked on the committed figure documents.
//!
//! `figure_drift` pins every committed number; this file pins what
//! EXPERIMENTS.md says the numbers mean. Each check quotes the sentence it
//! backs, and that sentence must still be in EXPERIMENTS.md, so a
//! regenerated figure that stops supporting its prose fails here until the
//! prose is rewritten. A deviation from the paper is asserted as a
//! deviation, so it cannot close silently either. A missing document
//! fails; it does not skip.

use std::fs;
use std::path::Path;

use slipstream_bench::json::{parse, Value};

const FIG6_HOLDS_RANKING: &str = "the ranking m88ksim > perl > li > jpeg > gcc > compress ≈ go \
     matches the paper's apart from vortex and the order of gcc and jpeg";
const FIG6_HOLDS_ZERO_REMOVAL: &str = "the zero-removal benchmarks compress and go gain nothing";
const FIG6_DEVIATES: &str =
    "vortex removes the second-largest share of its instructions yet gains nothing";
const FIG7_HOLDS: &str =
    "doubling the window/width helps every benchmark far more than slipstreaming does";
const FIG7_DEVIATES: &str = "vortex, the paper's largest gainer, gains least here";

/// A file at the repo root.
fn read_root(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{name} missing at the repo root ({e}); run the paper_tables binary")
    })
}

/// A committed figure document's rows as (bench, row object).
fn rows(name: &str) -> Vec<(String, Value)> {
    let doc = parse(&read_root(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    doc.get("rows")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{name}: no `rows` array"))
        .iter()
        .map(|row| {
            let bench = row.get("bench").and_then(Value::as_str);
            let bench = bench.unwrap_or_else(|| panic!("{name}: a row has no `bench`"));
            (bench.to_string(), row.clone())
        })
        .collect()
}

/// `key` of `bench`'s row, as a number.
fn field(rows: &[(String, Value)], bench: &str, key: &str) -> f64 {
    let row = rows.iter().find(|(b, _)| b == bench).map(|(_, r)| r);
    let row = row.unwrap_or_else(|| panic!("no row for {bench}"));
    let value = row.get(key).and_then(Value::as_f64);
    value.unwrap_or_else(|| panic!("{bench}: no numeric `{key}`"))
}

/// Whitespace runs collapsed to one space, so a wrapped sentence matches.
fn squash(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn every_checked_sentence_is_in_experiments_md() {
    let doc = squash(&read_root("EXPERIMENTS.md"));
    for sentence in [
        FIG6_HOLDS_RANKING,
        FIG6_HOLDS_ZERO_REMOVAL,
        FIG6_DEVIATES,
        FIG7_HOLDS,
        FIG7_DEVIATES,
    ] {
        assert!(
            doc.contains(&squash(sentence)),
            "EXPERIMENTS.md no longer says {sentence:?}; update the claim checked here"
        );
    }
}

#[test]
fn fig6_holds_the_removal_ranking() {
    let fig6 = rows("BENCH_fig6.json");
    let gain = |bench| field(&fig6, bench, "improvement_pct");
    let ranking = ["m88ksim", "perl", "li", "jpeg", "gcc", "compress"];
    for pair in ranking.windows(2) {
        assert!(
            gain(pair[0]) > gain(pair[1]),
            "Fig 6 Holds: {FIG6_HOLDS_RANKING:?}, but {} gains {} % and {} gains {} %",
            pair[0],
            gain(pair[0]),
            pair[1],
            gain(pair[1])
        );
    }
    for bench in ["compress", "go"] {
        assert_eq!(
            field(&fig6, bench, "removal_pct"),
            0.0,
            "Fig 6 Holds: {FIG6_HOLDS_ZERO_REMOVAL:?}, but {bench} removes instructions"
        );
        assert!(
            gain(bench).abs() <= 0.1,
            "Fig 6 Holds: {FIG6_HOLDS_ZERO_REMOVAL:?}, but {bench} gains {} %",
            gain(bench)
        );
    }
}

#[test]
fn fig6_deviates_vortex_removes_much_and_gains_nothing() {
    let fig6 = rows("BENCH_fig6.json");
    let mut by_removal: Vec<(f64, &str)> = fig6
        .iter()
        .map(|(bench, _)| (field(&fig6, bench, "removal_pct"), bench.as_str()))
        .collect();
    by_removal.sort_by(|a, b| b.0.total_cmp(&a.0));
    assert_eq!(
        by_removal[1].1, "vortex",
        "Fig 6 Deviates: {FIG6_DEVIATES:?}, but removal ranks {by_removal:?}"
    );
    let gain = field(&fig6, "vortex", "improvement_pct");
    assert!(
        gain <= 0.0,
        "Fig 6 Deviates: {FIG6_DEVIATES:?}, but vortex gains {gain} %"
    );
}

#[test]
fn fig7_the_wider_core_gains_more_and_vortex_least() {
    let fig6 = rows("BENCH_fig6.json");
    let fig7 = rows("BENCH_fig7.json");
    assert_eq!(
        fig7.len(),
        fig6.len(),
        "Fig 6 and Fig 7 cover other benchmarks"
    );
    for (bench, _) in &fig7 {
        let wide = field(&fig7, bench, "improvement_pct");
        let slip = field(&fig6, bench, "improvement_pct");
        assert!(
            wide > slip,
            "Fig 7 Holds: {FIG7_HOLDS:?}, but {bench} gains {wide} % from SS(128x8) \
             and {slip} % from slipstream"
        );
    }
    let vortex = field(&fig7, "vortex", "improvement_pct");
    for (bench, _) in &fig7 {
        let wide = field(&fig7, bench, "improvement_pct");
        assert!(
            bench == "vortex" || wide > vortex,
            "Fig 7 Deviates: {FIG7_DEVIATES:?}, but {bench} gains {wide} % and vortex {vortex} %"
        );
    }
}
