//! The paper's claims, checked on the committed figure and fault-campaign
//! documents.
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
const FIG8_HOLDS: &str = "m88ksim is the removal champion by a wide margin, dominated by SV";
const FIG8_DEVIATES: &str = "gcc removes under 1 % vs the paper's ~8 %";
const FIG8_BRANCHES_ONLY: &str =
    "li, jpeg and gcc increase and m88ksim collapses, but perl and vortex decrease";
const TABLE3_PENALTY: &str = "the average IR-misprediction penalty sits close to the paper's \
     22–26 cycles, just above the 21-cycle minimum";
const TABLE3_CMP_BRANCHES: &str =
    "The CMP branch misprediction column drops well below the SS column for perl and vortex";

const CAMPAIGN_A_STREAM: &str = "0 % silent corruption in the A-stream of every benchmark";
const CAMPAIGN_SILENT: &str = "it is confined to the R-stream of the two high-removal, \
     non-self-healing benchmarks — perl (3/128, 2.3 %) and vortex (10/128, 7.8 %)";
const CAMPAIGN_NOT_ACTIVATED: &str = "are counted separately (`not_activated`, 115/2,048)";

/// The shortest IR-misprediction recovery, in cycles: 5 startup cycles
/// plus 64 registers restored 4 per cycle (EXPERIMENTS.md, "minimum 21
/// cycles").
const MIN_IR_PENALTY: f64 = 21.0;

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

/// The largest category of `bench`'s `key` breakdown (a list of
/// `{category, pct}`), as (category, pct).
fn largest_category(rows: &[(String, Value)], bench: &str, key: &str) -> (String, f64) {
    let row = rows.iter().find(|(b, _)| b == bench).map(|(_, r)| r);
    let list = row.and_then(|r| r.get(key)).and_then(Value::as_arr);
    let list = list.unwrap_or_else(|| panic!("{bench}: no `{key}` list"));
    list.iter()
        .map(|c| {
            let name = c.get("category").and_then(Value::as_str);
            let pct = c.get("pct").and_then(Value::as_f64);
            match (name, pct) {
                (Some(name), Some(pct)) => (name.to_string(), pct),
                _ => panic!("{bench}: a `{key}` entry lacks `category` or `pct`"),
            }
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or_else(|| panic!("{bench}: empty `{key}`"))
}

/// The committed §3 campaign's rows as (bench, target, row object).
fn campaign_rows() -> Vec<(String, String, Value)> {
    rows("BENCH_fault_campaign.json")
        .into_iter()
        .map(|(bench, row)| {
            let target = row.get("target").and_then(Value::as_str);
            let target =
                target.unwrap_or_else(|| panic!("{bench}: a campaign row has no `target`"));
            (bench, target.to_string(), row)
        })
        .collect()
}

/// `key` of a campaign row, as a count.
fn count(bench: &str, target: &str, row: &Value, key: &str) -> u64 {
    let value = row.get(key).and_then(Value::as_u64);
    value.unwrap_or_else(|| panic!("{bench} {target}: no count `{key}`"))
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
        FIG8_HOLDS,
        FIG8_DEVIATES,
        FIG8_BRANCHES_ONLY,
        TABLE3_PENALTY,
        TABLE3_CMP_BRANCHES,
        CAMPAIGN_A_STREAM,
        CAMPAIGN_SILENT,
        CAMPAIGN_NOT_ACTIVATED,
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

#[test]
fn fig8_holds_m88ksim_removes_most_mostly_by_sv() {
    let fig8 = rows("BENCH_fig8.json");
    let removal = |bench| field(&fig8, bench, "all_triggers_pct");
    let runner_up = fig8
        .iter()
        .filter(|(bench, _)| bench != "m88ksim")
        .map(|(bench, _)| removal(bench))
        .fold(0.0, f64::max);
    // "A wide margin": at least half again the runner-up's share.
    assert!(
        removal("m88ksim") >= 1.5 * runner_up,
        "Fig 8 Holds: {FIG8_HOLDS:?}, but m88ksim removes {} % and the runner-up {runner_up} %",
        removal("m88ksim")
    );
    let (category, pct) = largest_category(&fig8, "m88ksim", "all_triggers");
    assert_eq!(
        category, "SV",
        "Fig 8 Holds: {FIG8_HOLDS:?}, but m88ksim's largest category is {category} ({pct} %)"
    );
}

#[test]
fn fig8_deviates_gcc_removes_under_one_percent() {
    let gcc = field(&rows("BENCH_fig8.json"), "gcc", "all_triggers_pct");
    assert!(
        gcc < 1.0,
        "Fig 8 Deviates: {FIG8_DEVIATES:?}, but gcc removes {gcc} %"
    );
}

#[test]
fn fig8_branches_only_raises_three_collapses_m88ksim_and_lowers_two() {
    let fig8 = rows("BENCH_fig8.json");
    let both = |bench| {
        (
            field(&fig8, bench, "all_triggers_pct"),
            field(&fig8, bench, "branches_only_pct"),
        )
    };
    for bench in ["li", "jpeg", "gcc"] {
        let (all, br) = both(bench);
        assert!(
            br > all,
            "Fig 8: {FIG8_BRANCHES_ONLY:?}, but {bench} removes {br} % with branches only \
             and {all} % with all triggers"
        );
    }
    // "Collapses": to under half the all-triggers share (the paper's
    // m88ksim halves, ~50 % to ~25 %).
    let (all, br) = both("m88ksim");
    assert!(
        br < all / 2.0,
        "Fig 8: {FIG8_BRANCHES_ONLY:?}, but m88ksim falls only from {all} % to {br} %"
    );
    for bench in ["perl", "vortex"] {
        let (all, br) = both(bench);
        assert!(
            br < all,
            "Fig 8: {FIG8_BRANCHES_ONLY:?}, but {bench} removes {br} % with branches only \
             and {all} % with all triggers"
        );
    }
}

#[test]
fn table3_penalties_sit_at_or_above_the_recovery_minimum() {
    let table3 = rows("BENCH_paper_tables.json");
    let mut seen = 0;
    for (bench, _) in &table3 {
        let penalty = field(&table3, bench, "avg_ir_penalty_cycles");
        if penalty != 0.0 {
            seen += 1;
            assert!(
                penalty >= MIN_IR_PENALTY,
                "Table 3: {TABLE3_PENALTY:?}, but {bench}'s average penalty is {penalty} cycles"
            );
        }
    }
    assert!(
        seen > 0,
        "Table 3: {TABLE3_PENALTY:?}, but no benchmark has a penalty"
    );
}

#[test]
fn table3_the_cmp_mispredicts_fewer_branches_for_perl_and_vortex() {
    let table3 = rows("BENCH_paper_tables.json");
    for bench in ["perl", "vortex"] {
        let ss = field(&table3, bench, "ss64_branch_misp_per_kilo");
        let cmp = field(&table3, bench, "cmp_branch_misp_per_kilo");
        // "Well below": under three quarters of the SS rate.
        assert!(
            cmp < 0.75 * ss,
            "Table 3: {TABLE3_CMP_BRANCHES:?}, but {bench} mispredicts {cmp}/1k on the CMP \
             and {ss}/1k on SS(64x4)"
        );
    }
}

#[test]
fn campaign_a_stream_faults_never_corrupt_silently() {
    let rows = campaign_rows();
    let benches = |target: &str| {
        let mut v: Vec<&str> = rows
            .iter()
            .filter(|r| r.1 == target)
            .map(|r| r.0.as_str())
            .collect();
        v.sort_unstable();
        v
    };
    assert!(
        !benches("A-stream").is_empty() && benches("A-stream") == benches("R-stream"),
        "§3: {CAMPAIGN_A_STREAM:?}, but the A-stream rows cover {:?} and the R-stream rows {:?}",
        benches("A-stream"),
        benches("R-stream")
    );
    for (bench, target, row) in rows.iter().filter(|r| r.1 == "A-stream") {
        let silent = count(bench, target, row, "silent_corruption");
        assert_eq!(
            silent, 0,
            "§3: {CAMPAIGN_A_STREAM:?}, but {bench}'s A-stream has {silent} silent corruptions"
        );
    }
}

#[test]
fn campaign_silent_corruption_is_confined_to_the_r_stream_of_perl_and_vortex() {
    for (bench, target, row) in campaign_rows() {
        let want = match (bench.as_str(), target.as_str()) {
            ("perl", "R-stream") => 3,
            ("vortex", "R-stream") => 10,
            _ => 0,
        };
        let (silent, sites) = (
            count(&bench, &target, &row, "silent_corruption"),
            count(&bench, &target, &row, "sites"),
        );
        assert!(
            (silent, sites) == (want, 128),
            "§3: {CAMPAIGN_SILENT:?}, but {bench}'s {target} has {silent}/{sites} silent \
             corruptions"
        );
    }
}

#[test]
fn campaign_115_of_2048_sites_are_not_activated() {
    let (mut sites, mut not_activated) = (0, 0);
    for (bench, target, row) in campaign_rows() {
        sites += count(&bench, &target, &row, "sites");
        not_activated += count(&bench, &target, &row, "not_activated");
    }
    assert_eq!(
        (not_activated, sites),
        (115, 2048),
        "§3: {CAMPAIGN_NOT_ACTIVATED:?}, but {not_activated} of {sites} sites are not activated"
    );
}
