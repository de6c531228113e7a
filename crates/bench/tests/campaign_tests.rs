//! Campaign-subsystem tests: determinism across worker counts, site
//! enumeration, the Figure 5 outcome-accounting invariants, the fault-free
//! pass's premises, equivalence of forked site runs with runs from cycle
//! 0, and the committed `BENCH_fault_campaign.json` rows and the
//! EXPERIMENTS.md outcome table quoted from them.

use std::path::Path;

use slipstream_bench::{
    enumerate_sites, for_each_forked_site, json, outcome_table, run_campaign, splice_regions,
    CampaignConfig, InjectionSite, SiteResult, OUTCOMES_REGION, TARGETS,
};
use slipstream_core::{
    golden_state, run_fault_experiment, run_injected, FaultOutcome, FaultReport, FaultTarget,
    SlipstreamConfig, SlipstreamProcessor,
};
use slipstream_cpu::FaultSpec;
use slipstream_workloads::{benchmark, BENCHMARK_NAMES};

/// A small but real two-benchmark campaign for the tests below.
fn small_cfg(workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke();
    cfg.sites_per_target = 4;
    cfg.workers = workers;
    cfg
}

const TEST_BENCHES: [&str; 2] = ["m88ksim", "compress"];

#[test]
fn campaign_rows_are_identical_regardless_of_worker_count() {
    let serial = run_campaign(&small_cfg(1), &TEST_BENCHES, &TARGETS);
    let pooled = run_campaign(&small_cfg(3), &TEST_BENCHES, &TARGETS);
    // Same seed → same sites → byte-identical rows and identical per-site
    // results, no matter how the pool interleaved the runs.
    assert_eq!(serial.rows_json(), pooled.rows_json());
    assert_eq!(serial.site_results, pooled.site_results);
}

#[test]
fn site_enumeration_is_deterministic_and_distinct() {
    let a = enumerate_sites("m88ksim", FaultTarget::RStream, 20_000, 50, 7);
    let b = enumerate_sites("m88ksim", FaultTarget::RStream, 20_000, 50, 7);
    assert_eq!(a, b, "same (seed, bench, target) → same sites");
    let mut pairs: Vec<(u64, u8)> = a.iter().map(|s| (s.seq, s.bit)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    assert_eq!(pairs.len(), 50, "sites must be distinct");
    assert!(a.iter().all(|s| s.seq >= 2_000 && s.seq < 19_990));

    let other_seed = enumerate_sites("m88ksim", FaultTarget::RStream, 20_000, 50, 8);
    assert_ne!(a, other_seed, "different seed → different sites");
    let other_target = enumerate_sites("m88ksim", FaultTarget::AStream, 20_000, 50, 7);
    assert!(
        a.iter()
            .zip(&other_target)
            .any(|(x, y)| (x.seq, x.bit) != (y.seq, y.bit)),
        "A- and R-stream site streams must be decorrelated"
    );
}

#[test]
fn outcome_accounting_partitions_sites_and_excludes_not_activated() {
    let result = run_campaign(&small_cfg(2), &TEST_BENCHES, &TARGETS);
    for s in &result.summaries {
        assert_eq!(
            s.sites,
            s.not_activated + s.detected_recovered + s.masked + s.silent + s.hangs,
            "outcome counters must partition the site set"
        );
        // The rate denominator is fired accounting: a hung run whose
        // fault never fired must not count as activated.
        assert_eq!(s.activated(), s.fired, "activated = fired ({})", s.bench);
        if s.hangs == 0 {
            assert_eq!(
                s.activated(),
                s.sites - s.not_activated,
                "with no hangs, every halted run either fired or is \
                 NotActivated ({})",
                s.bench
            );
            // Figure 5 rates are over activated faults only: they must
            // sum to 1 whenever anything activated, with no NotActivated
            // share.
            if s.activated() > 0 {
                let total_rate = s.rate(s.detected_recovered) + s.rate(s.masked) + s.rate(s.silent);
                assert!((total_rate - 1.0).abs() < 1e-9, "rates sum to 1");
            }
        }
    }
    let totals = result.totals();
    assert_eq!(totals.hangs, 0);
    // Scenario 1 (paper §3): faults in redundantly-executed A-stream
    // instructions are always caught; silent corruption is confined to
    // R-stream sites the A-stream skipped (scenario 2).
    for s in &result.summaries {
        if s.target == FaultTarget::AStream {
            assert_eq!(s.silent, 0, "{}: A-stream faults cannot escape", s.bench);
        }
    }
    // Detection latency is recorded exactly once per detected+recovered
    // run, and every such run carries one.
    assert_eq!(totals.latency.n, totals.detected_recovered);
    for r in &result.site_results {
        if r.outcome == FaultOutcome::DetectedRecovered {
            assert!(
                r.detection_latency.is_some(),
                "a detected+recovered run must report its latency"
            );
        }
    }
}

/// Runs `site` from cycle 0 on a fresh processor, the reference every
/// forked run must reproduce.
fn from_scratch(cfg: &CampaignConfig, site: &InjectionSite) -> (FaultReport, SlipstreamProcessor) {
    let program = benchmark(site.bench, cfg.scale)
        .expect("known benchmark")
        .program;
    let golden = golden_state(&program, 4 * cfg.max_cycles);
    let mut clean = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &program);
    assert!(clean.run(cfg.max_cycles));
    let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &program);
    let report = run_injected(
        &mut proc,
        site.target,
        FaultSpec {
            seq: site.seq,
            bit: site.bit,
        },
        cfg.max_cycles,
        &golden,
    )
    .classify(clean.misp_log());
    (report, proc)
}

/// Asserts two finished runs are in the same state: statistics,
/// misprediction log, and the R-core's registers and memory.
fn assert_same_run(what: &str, got: &SlipstreamProcessor, want: &SlipstreamProcessor) {
    assert_eq!(got.stats(), want.stats(), "{what}: stats");
    assert_eq!(got.misp_log(), want.misp_log(), "{what}: misprediction log");
    assert_eq!(
        got.r_core().arch_regs(),
        want.r_core().arch_regs(),
        "{what}: R-core registers"
    );
    assert_eq!(
        got.r_core().mem().first_difference(want.r_core().mem()),
        None,
        "{what}: R-core memory"
    );
}

#[test]
fn forked_sites_equal_runs_from_cycle_zero() {
    let cfg = CampaignConfig::smoke();
    let (mut forked, mut reports) = (0, 0);
    for bench in TEST_BENCHES {
        let mut want_reports: Vec<(InjectionSite, FaultReport)> = Vec::new();
        let results = for_each_forked_site(&cfg, bench, &TARGETS, |site, fork| {
            let (want_report, want) = from_scratch(&cfg, site);
            let what = format!(
                "{} {:?} seq {} bit {}",
                site.bench, site.target, site.seq, site.bit
            );
            assert_same_run(&what, fork, &want);
            want_reports.push((*site, want_report));
        });
        forked += want_reports.len();
        for (site, report) in &results {
            let want = match want_reports.iter().find(|(s, _)| s == site) {
                Some((_, want)) => want.clone(),
                None => from_scratch(&cfg, site).0,
            };
            assert_eq!(report, &want, "{site:?}: report");
            reports += 1;
        }
    }
    // Every site gets a report; only the ones whose instruction never
    // dispatches may go without a fork.
    assert_eq!(
        reports,
        TEST_BENCHES.len() * TARGETS.len() * cfg.sites_per_target
    );
    assert!(
        forked > 0 && forked <= reports,
        "{forked} of {reports} forked"
    );
}

#[test]
fn never_dispatched_sites_equal_runs_from_cycle_zero() {
    let cfg = CampaignConfig::smoke();
    let result = run_campaign(&cfg, &BENCHMARK_NAMES, &TARGETS);
    let dead: Vec<&SiteResult> = result
        .site_results
        .iter()
        .filter(|r| r.outcome == FaultOutcome::NotActivated)
        .collect();
    // The smoke campaign's A-stream sites past the reduced stream's end.
    assert_eq!(
        dead.len(),
        6,
        "never-dispatched sites of the smoke campaign"
    );
    for got in dead {
        let program = benchmark(got.site.bench, cfg.scale)
            .expect("known benchmark")
            .program;
        let golden = golden_state(&program, 4 * cfg.max_cycles);
        let mut clean = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &program);
        assert!(clean.run(cfg.max_cycles));
        let report = run_fault_experiment(
            SlipstreamConfig::cmp_2x64x4(),
            &program,
            got.site.target,
            FaultSpec {
                seq: got.site.seq,
                bit: got.site.bit,
            },
            cfg.max_cycles,
            &golden,
            clean.misp_log(),
        );
        assert_eq!(got, &SiteResult::new(got.site, &report));
    }
}

#[test]
fn the_functional_oracle_counts_the_fault_free_run() {
    // The pass enumerates sites from the oracle's retired count before
    // any processor runs; it must equal what the slipstream run retires.
    let cfg = CampaignConfig::smoke();
    for bench in BENCHMARK_NAMES {
        let program = benchmark(bench, cfg.scale)
            .expect("known benchmark")
            .program;
        let golden = golden_state(&program, 4 * cfg.max_cycles);
        let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &program);
        assert!(proc.run(cfg.max_cycles), "{bench} halts");
        assert_eq!(golden.retired(), proc.stats().r_retired, "{bench}");
    }
}

#[test]
fn a_leader_finishes_as_if_it_never_forked() {
    let cfg = CampaignConfig::smoke();
    let program = benchmark("m88ksim", cfg.scale)
        .expect("known benchmark")
        .program;
    let golden = golden_state(&program, 4 * cfg.max_cycles);
    let mut clean = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &program);
    assert!(clean.run(cfg.max_cycles));

    let mut leader = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &program);
    leader.run(clean.cycles() / 2);
    for target in TARGETS {
        let mut fork = leader.clone();
        let fault = FaultSpec {
            seq: target.core(&fork).next_seq() + 5,
            bit: 3,
        };
        let report = run_injected(&mut fork, target, fault, cfg.max_cycles, &golden)
            .classify(clean.misp_log());
        assert!(report.fired, "{target:?}: the clone's fault must fire");
        assert_ne!(fork.stats(), clean.stats(), "{target:?}: the fault shows");
    }
    assert!(leader.run(cfg.max_cycles));
    assert_same_run("leader after two forks", &leader, &clean);
}

#[test]
fn committed_campaign_rows_match_regeneration() {
    // The cheapest benchmark of the committed sweep, at its exact config.
    const BENCH: &str = "gcc";
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fault_campaign.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} is missing ({e}); run the fault_campaign binary",
            path.display()
        )
    });
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let cfg = CampaignConfig {
        workers: 1,
        ..CampaignConfig::full()
    };
    let field = |key: &str| {
        doc.get(key)
            .and_then(json::Value::as_f64)
            .unwrap_or_else(|| panic!("{}: no numeric `{key}`", path.display()))
    };
    assert_eq!(field("seed"), cfg.seed as f64, "committed seed");
    assert_eq!(field("scale"), cfg.scale, "committed scale");
    assert_eq!(
        field("sites_per_target"),
        cfg.sites_per_target as f64,
        "committed sites per target"
    );
    let committed: Vec<&json::Value> = doc
        .get("rows")
        .and_then(json::Value::as_arr)
        .unwrap_or_else(|| panic!("{}: no `rows` array", path.display()))
        .iter()
        .filter(|row| row.get("bench").and_then(json::Value::as_str) == Some(BENCH))
        .collect();
    assert_eq!(
        committed.len(),
        TARGETS.len(),
        "{}: want one {BENCH} row per target",
        path.display()
    );
    let rows = run_campaign(&cfg, &[BENCH], &TARGETS).rows_json();
    let regenerated = json::parse(&rows).expect("rows_json is valid JSON");
    let regenerated: Vec<&json::Value> = regenerated
        .as_arr()
        .expect("rows_json is an array")
        .iter()
        .collect();
    // Numbers compare as written, so equal values are equal bytes.
    assert_eq!(
        regenerated, committed,
        "{BENCH}'s campaign rows drifted from the committed anchor — if the change is \
         intentional, re-commit it via `cargo run --release -p slipstream-bench --bin \
         fault_campaign`"
    );
}

#[test]
fn experiments_outcome_table_matches_the_committed_campaign() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |name: &str| {
        std::fs::read_to_string(root.join(name))
            .unwrap_or_else(|e| panic!("{name} is missing at the repo root ({e})"))
    };
    let doc = json::parse(&read("BENCH_fault_campaign.json"))
        .unwrap_or_else(|e| panic!("BENCH_fault_campaign.json: {e}"));
    let table = outcome_table(&doc).unwrap_or_else(|e| panic!("BENCH_fault_campaign.json: {e}"));
    let experiments = read("EXPERIMENTS.md");
    let spliced = splice_regions(&experiments, &[(OUTCOMES_REGION, table)])
        .unwrap_or_else(|e| panic!("EXPERIMENTS.md: {e}"));
    assert!(
        spliced == experiments,
        "EXPERIMENTS.md region {OUTCOMES_REGION} is stale — re-render it via `cargo run \
         --release -p slipstream-bench --bin fault_campaign`"
    );
}
