//! Parallel, deterministic fault-injection campaigns (paper §3, Figure 5).
//!
//! RepTFD- and MEEK-style systematic sweeps: a deterministic
//! site-enumeration pass picks N distinct (dynamic-instruction, bit)
//! injection sites per benchmark × stream from the vendored xorshift64*
//! PRNG, a `std::thread` worker pool fans the benchmarks out across cores
//! (the workspace is dependency-free — no rayon), and a structured stats
//! layer aggregates per-outcome counters, a detection-latency histogram in
//! cycles, and fired/not-fired accounting.
//!
//! Forking: the golden state, fault-free baseline and fork points (every
//! `FORK_STRIDE` cycles of the fault-free run) are computed once per
//! benchmark. A fault-free leader then walks the benchmark's sites in
//! fork-point order, and each site runs on a clone of the leader taken at
//! the last fork point before its faulty instruction dispatches — the same
//! run as one from cycle 0, minus the re-simulated prefix.
//!
//! Determinism: site enumeration depends only on `(seed, bench, target)`,
//! a forked run equals the run from cycle 0, and results are reassembled
//! in site order after the pool drains — the same seed produces
//! byte-identical campaign rows regardless of worker count.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Instant;

use slipstream_core::{
    golden_state, run_fault_experiment, run_fault_experiment_traced, run_injected, FaultOutcome,
    FaultReport, FaultTarget, FlightRecording, IrMispKind, SlipstreamConfig, SlipstreamProcessor,
    TraceConfig,
};
use slipstream_cpu::FaultSpec;
use slipstream_isa::ArchState;
use slipstream_telemetry::{CounterKind, GaugeKind, HistKind, SpanKind, Telemetry};
use slipstream_workloads::{benchmark, Workload, XorShift64Star};

use crate::{json, MAX_CYCLES};

/// Both fault targets, in reporting order.
pub const TARGETS: [FaultTarget; 2] = [FaultTarget::AStream, FaultTarget::RStream];

/// Human-readable label for a fault target.
pub fn target_label(t: FaultTarget) -> &'static str {
    match t {
        FaultTarget::AStream => "A-stream",
        FaultTarget::RStream => "R-stream",
    }
}

/// Parameters of one campaign sweep.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workload scale (1.0 = default benchmark size).
    pub scale: f64,
    /// Distinct injection sites per benchmark × target.
    pub sites_per_target: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Master seed for site enumeration.
    pub seed: u64,
    /// Cycle budget per run (runs past it classify as `Hang`).
    pub max_cycles: u64,
}

impl CampaignConfig {
    /// The full Figure 5 sweep: ≥ 200 sites per benchmark (128 per
    /// stream), at a scale where a full-suite campaign finishes in
    /// minutes on one core.
    pub fn full() -> CampaignConfig {
        CampaignConfig {
            scale: 0.2,
            sites_per_target: 128,
            workers: available_workers(),
            seed: 0xfa17,
            max_cycles: MAX_CYCLES,
        }
    }

    /// Reduced-scale smoke sweep for CI (≤ 10 s): same code path, few
    /// sites, small workloads.
    pub fn smoke() -> CampaignConfig {
        CampaignConfig {
            scale: 0.05,
            sites_per_target: 6,
            workers: available_workers().min(4),
            seed: 0xfa17,
            max_cycles: MAX_CYCLES,
        }
    }
}

/// Worker threads available on this machine.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One enumerated injection site: flip `bit` of the value produced by
/// dynamic (dispatch-order) instruction `seq` of `target`'s core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionSite {
    /// Benchmark the site belongs to.
    pub bench: &'static str,
    /// Which stream's core takes the flip.
    pub target: FaultTarget,
    /// Dynamic instruction (dispatch sequence) number.
    pub seq: u64,
    /// Bit position of the flip.
    pub bit: u8,
}

/// Outcome of running one injection site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteResult {
    /// The site that was run.
    pub site: InjectionSite,
    /// Classified outcome.
    pub outcome: FaultOutcome,
    /// Whether the armed fault dispatched.
    pub fired: bool,
    /// Fault-attributed detection events (beyond the fault-free baseline).
    pub detections: u64,
    /// Fire-to-detection latency in cycles, when detected.
    pub detection_latency: Option<u64>,
    /// Cycles the run simulated.
    pub cycles: u64,
}

/// Upper bucket edges (inclusive) of the detection-latency histogram; the
/// last bucket is unbounded.
pub const LATENCY_EDGES: [u64; 8] = [32, 64, 128, 256, 512, 1024, 4096, u64::MAX];

/// Histogram of fire-to-detection latencies, in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Count per bucket of [`LATENCY_EDGES`].
    pub counts: [u64; 8],
    /// Sum of recorded latencies.
    pub sum: u64,
    /// Number of recorded latencies.
    pub n: u64,
}

impl LatencyHistogram {
    /// Records one latency.
    pub fn record(&mut self, latency: u64) {
        let b = LATENCY_EDGES
            .iter()
            .position(|&e| latency <= e)
            .expect("last edge is u64::MAX");
        self.counts[b] += 1;
        self.sum += latency;
        self.n += 1;
    }

    /// Mean recorded latency (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }
}

/// Aggregate counters for one benchmark × target sweep.
///
/// Rates are reported over *activated* sites only — the paper's Figure 5
/// distribution counts faults that actually struck a dynamic instruction;
/// dead injection sites (`NotActivated`) are accounted separately and
/// excluded from every denominator.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSummary {
    /// Benchmark name.
    pub bench: &'static str,
    /// Injected stream.
    pub target: FaultTarget,
    /// Sites enumerated (= runs performed).
    pub sites: u64,
    /// Sites whose fault never dispatched.
    pub not_activated: u64,
    /// Activated faults detected and transparently recovered.
    pub detected_recovered: u64,
    /// Activated faults architecturally masked.
    pub masked: u64,
    /// Activated faults that corrupted architectural output.
    pub silent: u64,
    /// Runs that exceeded the cycle budget.
    pub hangs: u64,
    /// Sites whose fault dispatched (fired accounting).
    pub fired: u64,
    /// Total cycles simulated across the sweep's runs.
    pub sim_cycles: u64,
    /// Fire-to-detection latency histogram over detected faults.
    pub latency: LatencyHistogram,
}

impl TargetSummary {
    fn new(bench: &'static str, target: FaultTarget) -> TargetSummary {
        TargetSummary {
            bench,
            target,
            sites: 0,
            not_activated: 0,
            detected_recovered: 0,
            masked: 0,
            silent: 0,
            hangs: 0,
            fired: 0,
            sim_cycles: 0,
            latency: LatencyHistogram::default(),
        }
    }

    fn absorb(&mut self, r: &SiteResult) {
        self.sites += 1;
        self.sim_cycles += r.cycles;
        if r.fired {
            self.fired += 1;
        }
        match r.outcome {
            FaultOutcome::NotActivated => self.not_activated += 1,
            FaultOutcome::DetectedRecovered => self.detected_recovered += 1,
            FaultOutcome::Masked => self.masked += 1,
            FaultOutcome::SilentCorruption => self.silent += 1,
            FaultOutcome::Hang => self.hangs += 1,
        }
        // The histogram answers "how fast are recovered faults caught?":
        // record only detected+recovered runs (a corrupting run can also
        // carry attributed detections — e.g. the fault is caught once but
        // a second corruption escapes — and would skew the figure).
        if r.outcome == FaultOutcome::DetectedRecovered {
            if let Some(lat) = r.detection_latency {
                self.latency.record(lat);
            }
        }
    }

    /// Sites whose fault actually struck an instruction — the Figure 5
    /// rate denominator. Defined as `fired` (tracked for every run,
    /// including hangs) rather than `sites - not_activated`: a hung run
    /// whose fault never fired is classified `Hang`, not `NotActivated`,
    /// and must not inflate the denominator.
    pub fn activated(&self) -> u64 {
        self.fired
    }

    /// `n` as a fraction of activated sites (0.0 when none activated).
    pub fn rate(&self, n: u64) -> f64 {
        if self.activated() == 0 {
            0.0
        } else {
            n as f64 / self.activated() as f64
        }
    }
}

/// Result of a campaign sweep: ordered per-target summaries, the raw
/// per-site results, and the wall-clock throughput of the campaign itself.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Configuration the sweep ran with.
    pub config: CampaignConfig,
    /// One summary per benchmark × target, in enumeration order.
    pub summaries: Vec<TargetSummary>,
    /// Per-site results, in site-enumeration order (worker-count
    /// independent).
    pub site_results: Vec<SiteResult>,
    /// Wall-clock seconds for the whole sweep (including golden-state and
    /// baseline preparation).
    pub elapsed_seconds: f64,
}

impl CampaignResult {
    /// Total injection runs.
    pub fn runs(&self) -> u64 {
        self.site_results.len() as u64
    }

    /// Total cycles simulated across all runs.
    pub fn sim_cycles(&self) -> u64 {
        self.summaries.iter().map(|s| s.sim_cycles).sum()
    }

    /// Injection runs completed per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        self.runs() as f64 / self.elapsed_seconds.max(1e-9)
    }

    /// Whole-campaign totals (a summary with `bench = "all"`).
    pub fn totals(&self) -> TargetSummary {
        let mut t = TargetSummary::new("all", FaultTarget::AStream);
        for s in &self.summaries {
            t.sites += s.sites;
            t.not_activated += s.not_activated;
            t.detected_recovered += s.detected_recovered;
            t.masked += s.masked;
            t.silent += s.silent;
            t.hangs += s.hangs;
            t.fired += s.fired;
            t.sim_cycles += s.sim_cycles;
            t.latency.sum += s.latency.sum;
            t.latency.n += s.latency.n;
            for (a, b) in t.latency.counts.iter_mut().zip(s.latency.counts) {
                *a += b;
            }
        }
        t
    }

    /// The campaign's rows as a deterministic JSON array (no timing
    /// fields): identical for identical `(seed, scale, sites, benches)`
    /// regardless of worker count.
    pub fn rows_json(&self) -> String {
        json::array(self.summaries.iter().map(summary_json), 2)
    }
}

fn histogram_json(h: &LatencyHistogram) -> String {
    let buckets = LATENCY_EDGES.iter().zip(h.counts).map(|(&e, c)| {
        let le = if e == u64::MAX {
            "null".to_string()
        } else {
            e.to_string()
        };
        json::Obj::new().raw("le", le).raw("count", c).finish()
    });
    json::Obj::new()
        .f64("mean_cycles", h.mean(), 2)
        .raw("detected", h.n)
        .raw("buckets", json::inline_array(buckets.collect::<Vec<_>>()))
        .finish()
}

fn summary_json(s: &TargetSummary) -> String {
    json::Obj::new()
        .str("bench", s.bench)
        .str("target", target_label(s.target))
        .raw("sites", s.sites)
        .raw("not_activated", s.not_activated)
        .raw("activated", s.activated())
        .raw("fired", s.fired)
        .raw("detected_recovered", s.detected_recovered)
        .raw("masked", s.masked)
        .raw("silent_corruption", s.silent)
        .raw("hangs", s.hangs)
        .f64("rate_detected_recovered", s.rate(s.detected_recovered), 4)
        .f64("rate_masked", s.rate(s.masked), 4)
        .f64("rate_silent", s.rate(s.silent), 4)
        .raw("sim_cycles", s.sim_cycles)
        .raw("detection_latency", histogram_json(&s.latency))
        .finish()
}

/// Cycles between the fork points recorded by the fault-free run. Each
/// site re-simulates at most this many fault-free cycles (plus the
/// serial catch-up to the next sync boundary) before its fault can fire.
const FORK_STRIDE: u64 = 256;

/// A point of the fault-free run a site can be forked from: the run's
/// cycle and the next dispatch sequence number of each core there.
#[derive(Debug, Clone, Copy)]
struct ForkPoint {
    cycle: u64,
    a_seq: u64,
    r_seq: u64,
}

impl ForkPoint {
    fn next_seq(&self, target: FaultTarget) -> u64 {
        match target {
            FaultTarget::AStream => self.a_seq,
            FaultTarget::RStream => self.r_seq,
        }
    }
}

/// Per-benchmark state, computed once by the fault-free run.
struct BenchContext {
    workload: Workload,
    cfg: SlipstreamConfig,
    golden: ArchState,
    /// Fault-free (kind, cycle) IR-misprediction log; fault runs attribute
    /// detections by first divergence from it.
    baseline_misp: Vec<(IrMispKind, u64)>,
    dynamic: u64,
    /// Fork points every [`FORK_STRIDE`] cycles, from cycle 0 up to the
    /// last stride before the program halts.
    forks: Vec<ForkPoint>,
}

impl BenchContext {
    /// The latest fork point at which `site`'s target instruction has not
    /// dispatched yet. Sequence numbers only grow, so the points are
    /// sorted by each core's `next_seq`, and the first point (cycle 0,
    /// nothing dispatched) always qualifies.
    fn fork_point(&self, site: &InjectionSite) -> usize {
        self.forks
            .partition_point(|p| p.next_seq(site.target) <= site.seq)
            - 1
    }
}

fn prepare(bench: &str, scale: f64, max_cycles: u64) -> BenchContext {
    let workload = benchmark(bench, scale).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let golden = golden_state(&workload.program, 4 * max_cycles);
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut clean = SlipstreamProcessor::new(cfg.clone(), &workload.program);
    let mut forks = Vec::new();
    while !clean.halted() && clean.cycles() < max_cycles {
        forks.push(ForkPoint {
            cycle: clean.cycles(),
            a_seq: clean.a_core().next_seq(),
            r_seq: clean.r_core().next_seq(),
        });
        clean.run((clean.cycles() + FORK_STRIDE).min(max_cycles));
    }
    assert!(
        clean.halted(),
        "{bench}: fault-free baseline did not complete"
    );
    let dynamic = clean.stats().r_retired;
    BenchContext {
        workload,
        cfg,
        golden,
        baseline_misp: clean.misp_log().to_vec(),
        dynamic,
        forks,
    }
}

/// Splitmix-style mix of the master seed with a benchmark name and target,
/// so each (bench, target) stream draws decorrelated sites.
fn site_stream_seed(seed: u64, bench: &str, target: FaultTarget) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for b in bench.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let tag = match target {
        FaultTarget::AStream => 0x5bd1_e995,
        FaultTarget::RStream => 0xc2b2_ae35,
    };
    seed ^ h ^ tag
}

/// Deterministically enumerates `n` distinct injection sites for one
/// benchmark × target. Sites land in the middle 90 % of the dynamic
/// stream (`[dynamic/10, dynamic-10)`), bits in the low 16 (where the
/// workloads' live values are). Depends only on `(seed, bench, target,
/// dynamic)` — never on thread scheduling.
pub fn enumerate_sites(
    bench: &'static str,
    target: FaultTarget,
    dynamic: u64,
    n: usize,
    seed: u64,
) -> Vec<InjectionSite> {
    let lo = dynamic / 10;
    let hi = dynamic.saturating_sub(10).max(lo + 1);
    let space = (hi - lo).saturating_mul(16);
    let n = n.min(usize::try_from(space).unwrap_or(usize::MAX));
    let mut rng = XorShift64Star::new(site_stream_seed(seed, bench, target));
    let mut seen: HashSet<(u64, u8)> = HashSet::with_capacity(n);
    let mut sites = Vec::with_capacity(n);
    while sites.len() < n {
        let seq = rng.range_u64(lo, hi);
        let bit = rng.below(16) as u8;
        if seen.insert((seq, bit)) {
            sites.push(InjectionSite {
                bench,
                target,
                seq,
                bit,
            });
        }
    }
    sites
}

/// Runs one benchmark's sites by forking: a fault-free leader walks the
/// sites in fork-point order, and each site runs on a clone of the leader
/// taken at its fork point, armed with the fault and run to `max_cycles`.
/// Hands `visit` each site's index, the site, its report and the finished
/// fork, in the order the sites ran.
fn run_forked(
    ctx: &BenchContext,
    sites: &[(usize, InjectionSite)],
    max_cycles: u64,
    mut tel: Option<&mut Telemetry>,
    mut visit: impl FnMut(usize, InjectionSite, FaultReport, &SlipstreamProcessor),
) {
    let mut order: Vec<(usize, usize, InjectionSite)> = sites
        .iter()
        .map(|&(i, site)| (ctx.fork_point(&site), i, site))
        .collect();
    order.sort_unstable_by_key(|&(fork, i, _)| (fork, i));
    let mut leader = SlipstreamProcessor::new(ctx.cfg.clone(), &ctx.workload.program);
    for (fork, i, site) in order {
        let at = ctx.forks[fork].cycle;
        if leader.cycles() < at {
            leader.run(at);
        }
        let t0 = tel.as_ref().map(|_| Instant::now());
        let mut run = leader.clone();
        let report = run_injected(
            &mut run,
            site.target,
            FaultSpec {
                seq: site.seq,
                bit: site.bit,
            },
            max_cycles,
            &ctx.golden,
            &ctx.baseline_misp,
        );
        if let (Some(t0), Some(tel)) = (t0, tel.as_deref_mut()) {
            tel.record_span(SpanKind::CampaignSite, t0.elapsed().as_nanos() as u64);
            tel.add(CounterKind::CampaignSites, 1);
            tel.add(CounterKind::CampaignFired, report.fired as u64);
            tel.add(
                CounterKind::CampaignDetected,
                (report.outcome == FaultOutcome::DetectedRecovered) as u64,
            );
            tel.add(CounterKind::CampaignSimCycles, report.cycles);
            tel.record_value(HistKind::CampaignSiteCycles, report.cycles);
        }
        visit(i, site, report, &run);
    }
}

/// Runs `bench`'s enumerated sites for `targets` exactly as
/// [`run_campaign`] runs them — each forked from a fault-free leader — and
/// hands `visit` every site with its report and the forked processor as
/// its run ended. Sites arrive in fork order, not enumeration order.
pub fn for_each_forked_site(
    cfg: &CampaignConfig,
    bench: &'static str,
    targets: &[FaultTarget],
    mut visit: impl FnMut(&InjectionSite, &FaultReport, &SlipstreamProcessor),
) {
    let ctx = prepare(bench, cfg.scale, cfg.max_cycles);
    let sites: Vec<(usize, InjectionSite)> = bench_sites(&ctx, targets, cfg)
        .into_iter()
        .enumerate()
        .collect();
    run_forked(
        &ctx,
        &sites,
        cfg.max_cycles,
        None,
        |_, site, report, run| visit(&site, &report, run),
    );
}

/// A benchmark's enumerated sites, target by target.
fn bench_sites(
    ctx: &BenchContext,
    targets: &[FaultTarget],
    cfg: &CampaignConfig,
) -> Vec<InjectionSite> {
    targets
        .iter()
        .flat_map(|&target| {
            enumerate_sites(
                ctx.workload.name,
                target,
                ctx.dynamic,
                cfg.sites_per_target,
                cfg.seed,
            )
        })
        .collect()
}

/// Runs `sites` (tagged with their benchmark's index into `contexts`)
/// through the worker pool, one benchmark per unit of work (see
/// [`run_forked`]); results are reassembled in site order, so output is
/// identical for any worker count.
fn run_sites(
    contexts: Vec<BenchContext>,
    sites: &[(usize, InjectionSite)],
    workers: usize,
    max_cycles: u64,
    tel: Option<&mut Telemetry>,
) -> Vec<SiteResult> {
    let mut jobs: Vec<(BenchContext, Vec<(usize, InjectionSite)>)> =
        contexts.into_iter().map(|ctx| (ctx, Vec::new())).collect();
    for (i, &(ci, site)) in sites.iter().enumerate() {
        jobs[ci].1.push((i, site));
    }
    // Each benchmark runs on exactly one worker, which takes ownership of
    // its context (`Memory` is `!Sync`, so contexts move rather than share).
    let jobs = Mutex::new(jobs.into_iter());
    let results: Mutex<Vec<(usize, SiteResult)>> = Mutex::new(Vec::with_capacity(sites.len()));
    // Telemetry: each worker owns a private registry (no locks on the hot
    // path) and parks it here when its loop drains; the commutative merge
    // below makes the aggregate independent of worker count and of how the
    // benchmarks happened to be partitioned among the workers.
    let worker_tels: Mutex<Vec<Telemetry>> = Mutex::new(Vec::new());
    let with_tel = tel.is_some();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            let (jobs, results, worker_tels) = (&jobs, &results, &worker_tels);
            scope.spawn(move || {
                let mut tel = with_tel.then(Telemetry::new);
                loop {
                    let next = jobs.lock().expect("worker panicked").next();
                    let Some((ctx, bench_sites)) = next else {
                        break;
                    };
                    run_forked(
                        &ctx,
                        &bench_sites,
                        max_cycles,
                        tel.as_mut(),
                        |i, site, r, _| {
                            let r = SiteResult {
                                site,
                                outcome: r.outcome,
                                fired: r.fired,
                                detections: r.detections,
                                detection_latency: r.detection_latency,
                                cycles: r.cycles,
                            };
                            results.lock().expect("worker panicked").push((i, r));
                        },
                    );
                }
                if let Some(t) = tel {
                    worker_tels.lock().expect("worker panicked").push(t);
                }
            });
        }
    });
    if let Some(tel) = tel {
        for t in worker_tels.into_inner().expect("worker panicked").iter() {
            tel.merge(t);
        }
    }
    let mut v = results.into_inner().expect("worker panicked");
    v.sort_unstable_by_key(|&(i, _)| i);
    v.into_iter().map(|(_, r)| r).collect()
}

/// Runs a full campaign: for every benchmark in `benches` and every target
/// in `targets`, enumerates `cfg.sites_per_target` sites and sweeps them
/// across `cfg.workers` threads.
pub fn run_campaign(
    cfg: &CampaignConfig,
    benches: &[&str],
    targets: &[FaultTarget],
) -> CampaignResult {
    run_campaign_telemetry(cfg, benches, targets, None)
}

/// [`run_campaign`] with optional host telemetry: per-site spans, outcome
/// counters, and a cycles-per-site histogram recorded into worker-local
/// registries and merged (worker-count-independently) into `tel`.
pub fn run_campaign_telemetry(
    cfg: &CampaignConfig,
    benches: &[&str],
    targets: &[FaultTarget],
    mut tel: Option<&mut Telemetry>,
) -> CampaignResult {
    let start = Instant::now();
    if let Some(tel) = tel.as_deref_mut() {
        tel.set_gauge(GaugeKind::Workers, cfg.workers.max(1) as u64);
    }
    let contexts: Vec<BenchContext> = benches
        .iter()
        .map(|b| {
            let t0 = tel.as_ref().map(|_| Instant::now());
            let ctx = prepare(b, cfg.scale, cfg.max_cycles);
            if let (Some(t0), Some(tel)) = (t0, tel.as_deref_mut()) {
                tel.record_span(SpanKind::CampaignPrepare, t0.elapsed().as_nanos() as u64);
            }
            ctx
        })
        .collect();

    let sites: Vec<(usize, InjectionSite)> = contexts
        .iter()
        .enumerate()
        .flat_map(|(ci, ctx)| {
            bench_sites(ctx, targets, cfg)
                .into_iter()
                .map(move |s| (ci, s))
        })
        .collect();

    let mut summaries: Vec<TargetSummary> = Vec::new();
    for ctx in &contexts {
        for &target in targets {
            summaries.push(TargetSummary::new(ctx.workload.name, target));
        }
    }
    let site_results = run_sites(contexts, &sites, cfg.workers, cfg.max_cycles, tel);

    let per_bench = targets.len();
    for (&(ci, site), r) in sites.iter().zip(&site_results) {
        let ti = targets
            .iter()
            .position(|&t| t == site.target)
            .expect("site target is enumerated");
        summaries[ci * per_bench + ti].absorb(r);
    }

    CampaignResult {
        config: cfg.clone(),
        summaries,
        site_results,
        elapsed_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Margin (in cycles) kept after the attributed detection when freezing
/// the flight recorder, so the window also shows the recovery starting.
const FREEZE_PAD: u64 = 256;

/// Finds the first enumerated site of `bench` × `target` whose fault is
/// detected and recovered, then replays it with the flight recorder
/// frozen `FREEZE_PAD` cycles after the detection: the recording holds
/// the last-`ring_capacity` events *around* the detection point rather
/// than the end of the run. Site enumeration matches [`run_campaign`]
/// for the same config, so the traced site is one of the campaign's own
/// rows. Returns `None` when no enumerated site detects.
pub fn trace_first_detection(
    cfg: &CampaignConfig,
    bench: &'static str,
    target: FaultTarget,
    trace: TraceConfig,
) -> Option<(InjectionSite, FaultReport, FlightRecording)> {
    let ctx = prepare(bench, cfg.scale, cfg.max_cycles);
    for site in enumerate_sites(bench, target, ctx.dynamic, cfg.sites_per_target, cfg.seed) {
        let spec = FaultSpec {
            seq: site.seq,
            bit: site.bit,
        };
        // Pass 1 (untraced) locates the detection cycle; pass 2 replays
        // deterministically with the recorder freezing just after it.
        let scout = run_fault_experiment(
            ctx.cfg.clone(),
            &ctx.workload.program,
            target,
            spec,
            cfg.max_cycles,
            &ctx.golden,
            &ctx.baseline_misp,
        );
        if scout.outcome != FaultOutcome::DetectedRecovered {
            continue;
        }
        let detected_at = scout
            .fired_cycle
            .unwrap_or(0)
            .saturating_add(scout.detection_latency.unwrap_or(0));
        let (report, recording) = run_fault_experiment_traced(
            ctx.cfg.clone(),
            &ctx.workload.program,
            target,
            spec,
            cfg.max_cycles,
            &ctx.golden,
            &ctx.baseline_misp,
            Some(trace.frozen_after(detected_at + FREEZE_PAD)),
        );
        return Some((site, report, recording.expect("tracing was enabled")));
    }
    None
}

/// Prints a campaign as a markdown table (Figure 5 shape plus activation
/// accounting and detection latency; rates over activated faults).
pub fn print_campaign_table(result: &CampaignResult) {
    fn pct(part: u64, s: &TargetSummary) -> String {
        format!("{:.1}", 100.0 * s.rate(part))
    }
    let columns: &[crate::Column<TargetSummary>] = &[
        ("benchmark", false, |s| s.bench.to_string()),
        ("target", false, |s| target_label(s.target).to_string()),
        ("sites", true, |s| s.sites.to_string()),
        ("not activated", true, |s| s.not_activated.to_string()),
        ("fired", true, |s| s.fired.to_string()),
        ("det+rec %", true, |s| pct(s.detected_recovered, s)),
        ("masked %", true, |s| pct(s.masked, s)),
        ("silent %", true, |s| pct(s.silent, s)),
        ("hangs", true, |s| s.hangs.to_string()),
        ("latency (cyc)", true, |s| {
            format!("{:.1}", s.latency.mean())
        }),
    ];
    let t = result.totals();
    let mut footer: Vec<String> = columns.iter().map(|c| (c.2)(&t)).collect();
    footer[..2].clone_from_slice(&["**TOTAL**".to_string(), "both".to_string()]);
    print!(
        "{}",
        crate::md_table(&result.summaries, columns, Some(footer))
    );
    println!(
        "campaign: {} runs in {:.2}s ({:.1} runs/s, {:.2}M simulated cycles/s, {} workers)",
        result.runs(),
        result.elapsed_seconds,
        result.runs_per_sec(),
        result.sim_cycles() as f64 / result.elapsed_seconds.max(1e-9) / 1e6,
        result.config.workers,
    );
}
