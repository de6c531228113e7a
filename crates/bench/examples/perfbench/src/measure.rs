//! The two measurements: `run` (untraced, end-to-end metrics) and `trace`
//! (per-layer metrics, each from timing one public call from outside).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use slipstream_bench::{enumerate_sites, MAX_CYCLES, TARGETS};
use slipstream_core::telemetry::{SpanKind, Telemetry};
use slipstream_core::{
    golden_state, run_fault_experiment, run_superscalar, standard_invariants, CpiCat, ExecMode,
    FaultOutcome, RemovalPolicy, SlipstreamConfig, SlipstreamProcessor, SlipstreamStats,
};
use slipstream_cpu::{Core, CoreConfig, FaultSpec, OracleDriver};
use slipstream_isa::{assemble, ArchState, Program};
use slipstream_workloads::Workload as Prog;

use crate::spec::{Metric, END_TO_END, PER_LAYER, WINDOWED_SPANS};
use crate::workload::{
    fault_outcome_ok, matches_golden, round, Inputs, Pieces, Size, Untimed, Workload,
    FAULT_BUDGET_FACTOR, FUEL,
};
use crate::{alloc_calls, minor_faults, quartiles, settle_allocator, HeapPeak};

/// Timed set-up batches per run; `setup_s` is the median over them of the
/// time per set-up.
pub const SETUP_REPS: usize = 9;

/// Shortest set-up batch, in seconds. Some set-ups take only a few
/// milliseconds, too short to time steadily on a shared host, so each
/// batch repeats the set-up until it is about as long as a round's pieces.
const SETUP_BATCH_S: f64 = 0.1;

/// Timed rounds per run, at least, however long they take.
pub const MIN_ROUNDS: usize = 3;

/// Repetitions of each traced ladder pass; the median host time is kept.
const TRACE_REPS: usize = 3;

/// One end-to-end metric over a run's samples.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The metric.
    pub metric: &'static Metric,
    /// The value reported for the run: the median, except for `ops_per_s`,
    /// which reports its fast quartile (`p75`).
    pub value: f64,
    /// Median sample.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Number of samples.
    pub n: usize,
}

/// Result of an untraced run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Operations checked, warm-up round included.
    pub ops: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Every end-to-end metric, in spec order.
    pub metrics: Vec<Summary>,
    /// Median duration of the host anchor over the run, in seconds.
    pub anchor_s: f64,
    /// Minor page faults per timed round: a diagnostic for the rare runs
    /// whose allocator keeps returning memory to the system (see README).
    pub page_faults_per_round: f64,
}

/// Result of a traced run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Operations checked: the workload's round, the fault sites and the
    /// invariant checks.
    pub ops: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Every per-layer metric, in spec order.
    pub values: Vec<(&'static Metric, f64)>,
}

/// The host anchor's duration on the host the baseline was recorded on
/// (2-vCPU Intel Xeon VM at 2.1 GHz).
const ANCHOR_NOMINAL_S: f64 = 0.05;

/// One step of the xorshift64 generator the anchor's loops run on.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The host anchor: fixed loops, sharing no code with the simulator,
/// whose duration measures how fast the host runs this process at the
/// moment. On a shared host that speed drifts by tens of percent within a
/// second and for minutes at a time, and the simulator drifts with it.
///
/// It does the simulator's kind of work in four parts: xorshift-indexed
/// updates to a table in the L1 cache and to one in the L2 cache,
/// unpredictable eight-way branches, and a toy interpreter whose random
/// bytecode trains a table of 2-bit branch counters and loads and stores
/// into a 2 MiB table. Over 14 runs per workload on a busy shared host,
/// round times normalized by it spread 3-5 %, against 17-25 % raw. An
/// earlier anchor also updated a 32 MiB table: that part alone spread by
/// 30 % and doubled the spread of the normalized times. The tables live as
/// long as the anchor and are allocated before the run's peak heap is
/// tracked.
struct Anchor {
    /// The L1 and L2 tables.
    tables: [Vec<u64>; 2],
    /// The interpreter's bytecode.
    code: Vec<u32>,
    /// The interpreter's 2-bit branch counters.
    counters: Vec<u8>,
    /// The interpreter's data table.
    data: Vec<u64>,
    /// The latest measurement, taken just before the work now being timed.
    last: f64,
    /// Every measurement.
    history: Vec<f64>,
}

impl Anchor {
    /// (table length in words, updates per measurement), per cache level.
    const LEVELS: [(usize, u64); 2] = [(1 << 13, 2_500_000), (1 << 17, 1_250_000)];
    /// Eight-way branches per measurement.
    const BRANCHES: u32 = 1_000_000;
    /// Interpreted instructions per measurement.
    const STEPS: u32 = 10_000_000;

    /// Allocates the tables and the bytecode, and takes a first
    /// measurement after a warm-up one.
    fn new() -> Anchor {
        let mut x = 0x1234_5678_9abc_def1u64;
        let mut anchor = Anchor {
            tables: Anchor::LEVELS.map(|(words, _)| (0..words as u64).collect()),
            code: (0..1 << 16).map(|_| xorshift(&mut x) as u32).collect(),
            counters: vec![1; 1 << 16],
            data: (0..1 << 18).map(|_| xorshift(&mut x)).collect(),
            last: 0.0,
            history: Vec::new(),
        };
        anchor.measure();
        anchor.restart();
        anchor
    }

    /// Seconds one measurement takes now.
    fn measure(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for (table, (words, updates)) in self.tables.iter_mut().zip(Anchor::LEVELS) {
            for i in 0..updates {
                let j = (xorshift(&mut x) as usize) & (words - 1);
                table[j] = table[j].wrapping_add(i ^ x);
            }
        }
        black_box(&self.tables);
        black_box(Anchor::branch(&mut x));
        black_box(self.interpret());
        start.elapsed().as_secs_f64()
    }

    /// Branches eight ways on random bits, so that most branches are
    /// mispredicted.
    fn branch(x: &mut u64) -> (u64, u64, u64) {
        let (mut a, mut b, mut c) = (1u64, 2u64, 3u64);
        let mut small = [0u64; 1024];
        for _ in 0..Anchor::BRANCHES {
            let r = xorshift(x);
            match (r >> 7) & 7 {
                0 => a = a.wrapping_add(r),
                1 => b ^= r.rotate_left(3),
                2 => c = c.wrapping_mul(r | 1),
                3 => small[(r & 1023) as usize] += 1,
                4 => a ^= b,
                5 => b = b.wrapping_sub(c),
                6 => c ^= r >> 3,
                _ => small[((r >> 20) & 1023) as usize] ^= a,
            }
        }
        black_box(&small);
        (a, b, c)
    }

    /// Runs the toy interpreter: each bytecode word is an add, a
    /// conditional branch that trains and checks a 2-bit counter indexed
    /// by the pc and the branch history, a load or a store. Returns the
    /// registers and the mispredicted branches.
    fn interpret(&mut self) -> ([u64; 8], u64) {
        let (code_mask, counter_mask) = (self.code.len() - 1, self.counters.len() - 1);
        let data_mask = self.data.len() - 1;
        let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let (mut pc, mut history, mut mispredicted) = (0usize, 0u64, 0u64);
        for _ in 0..Anchor::STEPS {
            let op = self.code[pc];
            let (d, s) = (((op >> 2) & 7) as usize, ((op >> 5) & 7) as usize);
            let mut next = (pc + 1) & code_mask;
            match op & 3 {
                0 => r[d] = r[d].wrapping_add(r[s]).rotate_left(1),
                1 => {
                    let taken = (r[d] ^ history) & 1 == 1;
                    let k = (pc ^ history as usize) & counter_mask;
                    let counter = self.counters[k];
                    mispredicted += u64::from((counter >= 2) != taken);
                    self.counters[k] = if taken {
                        (counter + 1).min(3)
                    } else {
                        counter.saturating_sub(1)
                    };
                    history = (history << 1) | u64::from(taken);
                    if taken {
                        next = (op >> 8) as usize & code_mask;
                    }
                }
                2 => r[d] = self.data[(r[s] as usize) & data_mask],
                _ => self.data[(r[s] as usize ^ pc) & data_mask] = r[d],
            }
            pc = next;
        }
        (r, mispredicted)
    }

    /// Measures afresh before work that does not follow a normalized time.
    fn restart(&mut self) {
        self.last = self.measure();
        self.history.push(self.last);
    }

    /// Rescales `secs`, the host time of work that has just ended, to the
    /// nominal host speed: work timed while the anchor took `k` times its
    /// nominal duration (the mean of the measurements just before and just
    /// after it) counts as `1/k` of itself.
    fn normalize(&mut self, secs: f64) -> f64 {
        let before = self.last;
        self.restart();
        secs * ANCHOR_NOMINAL_S / ((before + self.last) / 2.0)
    }

    /// Median of every measurement so far.
    fn median_s(&self) -> f64 {
        quartiles(&self.history).1
    }
}

/// Times each piece of a round, normalized.
struct Timed<'a> {
    anchor: &'a mut Anchor,
    secs: Vec<f64>,
}

impl Pieces for Timed<'_> {
    fn piece<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(work());
        self.secs
            .push(self.anchor.normalize(start.elapsed().as_secs_f64()));
        out
    }
}

/// `(p25, median, p75)` of a round's duration, assembled piece by piece:
/// each piece's quartiles over the rounds, summed. A slow spell on the
/// host shorter than a round then spoils single pieces, which the
/// per-piece median leaves out, instead of whole rounds.
fn round_secs(rounds: &[Vec<f64>]) -> (f64, f64, f64) {
    let mut sum = (0.0, 0.0, 0.0);
    for k in 0..rounds[0].len() {
        let piece: Vec<f64> = rounds.iter().map(|r| r[k]).collect();
        let (p25, median, p75) = quartiles(&piece);
        sum = (sum.0 + p25, sum.1 + median, sum.2 + p75);
    }
    sum
}

/// The untraced measurement: one set-up whose inputs are used, then
/// `SETUP_REPS` timed batches of set-ups, one untimed warm-up round, then
/// identical timed rounds back to back (a closed loop with one client)
/// until `seconds` have passed.
///
/// Every host time is rescaled to the nominal host speed by the host
/// anchor, measured after each set-up batch and after each piece of a
/// round (one program, one slice of fuzz seeds, or one slice of the long
/// run's cycles). This keeps a slow spell on a shared host out of the
/// metrics.
pub fn run(workload: Workload, size: Size, seed: u64, seconds: f64) -> Result<RunReport, String> {
    settle_allocator();
    let mut anchor = Anchor::new();
    let heap = HeapPeak::start();
    let start = Instant::now();
    let inputs = workload.setup(size, seed)?;
    let per_batch = (SETUP_BATCH_S / start.elapsed().as_secs_f64()).ceil() as usize;
    anchor.restart();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        for _ in 0..per_batch {
            black_box(workload.setup(size, seed)?);
        }
        setup_s.push(anchor.normalize(start.elapsed().as_secs_f64()) / per_batch as f64);
    }

    let warm = round(&inputs, None, &mut Untimed);
    let (mut ops, mut failed) = (warm.ops, warm.failed);
    anchor.restart();
    let faults_before = minor_faults()?;
    // Normalized seconds of each piece, per timed round.
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let mut timed = Timed {
            anchor: &mut anchor,
            secs: Vec::new(),
        };
        let r = round(&inputs, Some(&warm), &mut timed);
        rounds.push(timed.secs);
        ops += r.ops;
        failed += r.failed;
    }
    let page_faults_per_round = (minor_faults()? - faults_before) as f64 / rounds.len() as f64;
    // Every round does the warm-up round's fixed work.
    let round_ops = warm.ops as f64;
    let (t25, t50, t75) = round_secs(&rounds);
    let heap_mb = heap.mb();
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let ((p25, median, p75), n) = match m.name {
                "ops_per_s" => (
                    (round_ops / t75, round_ops / t50, round_ops / t25),
                    rounds.len(),
                ),
                "setup_s" => (quartiles(&setup_s), setup_s.len()),
                "peak_heap_mb" => ((heap_mb, heap_mb, heap_mb), 1),
                other => panic!("end-to-end metric {other} is not measured"),
            };
            // Contention from other tenants only ever slows a round, so the
            // faster rounds track the simulator's own speed best: over 14
            // runs per workload on a busy shared host, the fast quartile
            // spread 2.6-4.6 % where the median spread 3.7-6.0 %.
            let value = if m.name == "ops_per_s" { p75 } else { median };
            Summary {
                metric: m,
                value,
                median,
                p25,
                p75,
                n,
            }
        })
        .collect();
    Ok(RunReport {
        workload: workload.name(),
        seed,
        ops,
        failed,
        metrics,
        anchor_s: anchor.median_s(),
        page_faults_per_round,
    })
}

/// Simulated work and host time of one pass over a set of programs.
#[derive(Debug, Clone, Copy, Default)]
struct Pass {
    instrs: u64,
    cycles: u64,
    secs: f64,
}

impl Pass {
    fn ns_per_instr(&self) -> f64 {
        self.secs * 1e9 / self.instrs.max(1) as f64
    }
}

/// Times `run` over every program, summing the (instructions, cycles) it
/// reports. Instructions are counted on every simulated core.
fn over(programs: &[Prog], mut run: impl FnMut(&Program) -> (u64, u64)) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    for w in programs {
        let (instrs, cycles) = black_box(run(&w.program));
        pass.instrs += instrs;
        pass.cycles += cycles;
    }
    pass.secs = start.elapsed().as_secs_f64();
    pass
}

/// Repeats a pass `TRACE_REPS` times and keeps the median host time; the
/// simulated work is identical every time.
fn median_pass(mut pass: impl FnMut() -> Pass) -> Pass {
    let passes: Vec<Pass> = (0..TRACE_REPS).map(|_| pass()).collect();
    let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    Pass {
        secs: quartiles(&secs).1,
        ..passes[0]
    }
}

/// Median seconds of `TRACE_REPS` calls of `f`.
fn median_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> = (0..TRACE_REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    quartiles(&secs).1
}

fn slip_run(cfg: &SlipstreamConfig, mode: ExecMode, p: &Program) -> SlipstreamStats {
    let mut proc = SlipstreamProcessor::new(cfg.clone(), p);
    proc.run_mode(mode, MAX_CYCLES);
    proc.stats()
}

/// A pass of slipstream runs, also returning the last repetition's stats.
fn slip_pass(
    programs: &[Prog],
    cfg: &SlipstreamConfig,
    mode: ExecMode,
) -> (Pass, Vec<SlipstreamStats>) {
    let mut stats = Vec::new();
    let pass = median_pass(|| {
        stats.clear();
        over(programs, |p| {
            let s = slip_run(cfg, mode, p);
            let work = (s.a_retired + s.r_retired, s.cycles);
            stats.push(s);
            work
        })
    });
    (pass, stats)
}

/// The core model alone: one SS(64x4) `Core` fed the oracle's path.
fn oracle_run(p: &Program) -> (u64, u64) {
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    let mut driver = OracleDriver::new(p);
    let mut retired = Vec::new();
    while !core.halted() && core.now() < MAX_CYCLES {
        core.cycle(&mut driver, &mut retired);
    }
    (core.stats().retired, core.stats().cycles)
}

/// The ladder's calibration row: the same fixed arithmetic loop as the
/// `throughput` binary's, on the SS(64x4) model.
const CALIBRATION_SRC: &str = "
        li r1, 200000
    loop:
        xor r2, r2, r1
        add r3, r3, r2
        slli r4, r3, 1
        srli r5, r4, 2
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    ";

/// Collects per-layer values and the trace's checked operations.
struct Tracer {
    values: BTreeMap<String, f64>,
    ops: u64,
    failed: u64,
}

impl Tracer {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    fn check(&mut self, ok: bool) {
        self.ops += 1;
        self.failed += u64::from(!ok);
    }
}

/// The traced measurement: two checked rounds of the workload, the second
/// counting the host's page faults, then every per-layer row measured on
/// the workload's own inputs.
pub fn trace(workload: Workload, size: Size, seed: u64) -> Result<TraceReport, String> {
    settle_allocator();
    let inputs = workload.setup(size, seed)?;
    let warm = round(&inputs, None, &mut Untimed);
    let faults_before = minor_faults()?;
    let second = round(&inputs, Some(&warm), &mut Untimed);
    let page_faults = minor_faults()? - faults_before;
    let mut t = Tracer {
        values: BTreeMap::new(),
        ops: warm.ops + second.ops,
        failed: warm.failed + second.failed,
    };
    t.set(
        "host.page_faults_per_op",
        page_faults as f64 / second.ops.max(1) as f64,
    );
    ladder(&inputs, &mut t);
    faults(&inputs, &mut t);
    checks(&inputs, &mut t);
    run_length(&inputs, &mut t)?;

    let mut values = Vec::with_capacity(PER_LAYER.len());
    for m in PER_LAYER {
        let v = t
            .values
            .remove(m.name)
            .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
        values.push((m, v));
    }
    if let Some(extra) = t.values.keys().next() {
        return Err(format!("measured {extra}, which the spec does not list"));
    }
    Ok(TraceReport {
        workload: workload.name(),
        seed,
        ops: t.ops,
        failed: t.failed,
        values,
    })
}

/// The layer ladder, scheduler self-time and simulated counts. Rows named
/// `marginal` subtract the adjacent row.
fn ladder(inputs: &Inputs, t: &mut Tracer) {
    let progs = &inputs.programs;
    let cfg = SlipstreamConfig::cmp_2x64x4();

    let calibration = assemble(CALIBRATION_SRC).expect("calibration loop assembles");
    let cal = median_pass(|| {
        let start = Instant::now();
        let s = run_superscalar(
            CoreConfig::ss_64x4(),
            cfg.trace_pred,
            &calibration,
            MAX_CYCLES,
        );
        Pass {
            instrs: s.core.retired,
            cycles: s.core.cycles,
            secs: start.elapsed().as_secs_f64(),
        }
    });
    t.set("host.calibration_ns_per_instr", cal.ns_per_instr());

    let quiet = median_pass(|| {
        let mut states: Vec<ArchState> = progs.iter().map(|w| ArchState::new(&w.program)).collect();
        let start = Instant::now();
        let instrs = progs
            .iter()
            .zip(&mut states)
            .map(|(w, st)| {
                st.run_quiet(&w.program, FUEL)
                    .expect("golden run halted in set-up")
            })
            .sum();
        Pass {
            instrs,
            cycles: instrs,
            secs: start.elapsed().as_secs_f64(),
        }
    });
    t.set("isa.arch.run_quiet_ns_per_instr", quiet.ns_per_instr());

    let oracle = median_pass(|| over(progs, oracle_run));
    t.set("cpu.pipeline.oracle_ns_per_instr", oracle.ns_per_instr());
    t.set(
        "cpu.pipeline.oracle_ns_per_cycle",
        oracle.secs * 1e9 / oracle.cycles.max(1) as f64,
    );

    let superscalar = |core: CoreConfig| {
        median_pass(|| {
            over(progs, |p| {
                let s = run_superscalar(core.clone(), cfg.trace_pred, p, MAX_CYCLES);
                (s.core.retired, s.core.cycles)
            })
        })
    };
    let ss64 = superscalar(CoreConfig::ss_64x4());
    t.set("predict.ss64_ns_per_instr", ss64.ns_per_instr());
    t.set(
        "predict.marginal_ns_per_instr",
        ss64.ns_per_instr() - oracle.ns_per_instr(),
    );
    t.set(
        "cpu.pipeline.ss128_ns_per_instr",
        superscalar(CoreConfig::ss_128x8()).ns_per_instr(),
    );

    let (serial, _) = slip_pass(progs, &cfg, ExecMode::Serial);
    let (windowed, _) = slip_pass(progs, &cfg, ExecMode::Windowed);
    let branches_only = SlipstreamConfig {
        removal: RemovalPolicy::branches_only(),
        ..cfg.clone()
    };
    let (br, _) = slip_pass(progs, &branches_only, ExecMode::Windowed);
    let (l2, l2_stats) = slip_pass(
        progs,
        &SlipstreamConfig::cmp_shared_l2(),
        ExecMode::Windowed,
    );
    let (threaded, _) = slip_pass(progs, &cfg, ExecMode::Threaded);
    t.set("core.slipstream.serial_ns_per_instr", serial.ns_per_instr());
    t.set(
        "core.slipstream.windowed_ns_per_instr",
        windowed.ns_per_instr(),
    );
    t.set(
        "core.slipstream.branches_only_ns_per_instr",
        br.ns_per_instr(),
    );
    t.set(
        "core.slipstream.marginal_ns_per_instr",
        windowed.ns_per_instr() - ss64.ns_per_instr(),
    );
    t.set("cpu.l2.windowed_ns_per_instr", l2.ns_per_instr());
    t.set(
        "cpu.l2.marginal_ns_per_instr",
        l2.ns_per_instr() - windowed.ns_per_instr(),
    );
    t.set(
        "core.slipstream.threaded_ns_per_instr",
        threaded.ns_per_instr(),
    );
    t.set(
        "core.slipstream.threaded_speedup",
        windowed.secs / threaded.secs,
    );
    let new_secs = median_secs(|| {
        for w in progs {
            black_box(SlipstreamProcessor::new(cfg.clone(), &w.program));
        }
    });
    t.set(
        "core.slipstream.new_us",
        new_secs * 1e6 / progs.len() as f64,
    );

    // Scheduler self-time: the same windowed pass with telemetry on.
    let mut tel = Telemetry::new();
    let mut win_stats = Vec::new();
    let traced = median_pass(|| {
        win_stats.clear();
        over(progs, |p| {
            let mut proc = SlipstreamProcessor::new(cfg.clone(), p);
            proc.enable_telemetry();
            proc.run_mode(ExecMode::Windowed, MAX_CYCLES);
            tel.merge(&proc.take_telemetry().expect("telemetry was enabled"));
            let s = proc.stats();
            let work = (s.a_retired + s.r_retired, s.cycles);
            win_stats.push(s);
            work
        })
    });
    t.set(
        "telemetry.overhead_pct",
        100.0 * (traced.secs / windowed.secs - 1.0),
    );
    let span_nanos = |label: &str| {
        SpanKind::ALL
            .iter()
            .find(|k| k.label() == label)
            .map_or(0, |&k| tel.span(k).total_nanos)
    };
    let run_total = span_nanos("run_total").max(1) as f64;
    let mut named = 0.0;
    for label in WINDOWED_SPANS {
        let share = span_nanos(label) as f64 / run_total;
        named += share;
        t.set(format!("core.slipstream.span.{label}_share"), share);
    }
    t.set("core.slipstream.span.other_share", 1.0 - named);

    // Simulated counts, from the windowed and shared-L2 passes.
    let sum = |stats: &[SlipstreamStats], f: fn(&SlipstreamStats) -> u64| -> f64 {
        stats.iter().map(f).sum::<u64>() as f64
    };
    let r_retired = sum(&win_stats, |s| s.r_retired).max(1.0);
    t.set(
        "core.removal_pct",
        100.0 * sum(&win_stats, |s| s.skipped) / r_retired,
    );
    t.set(
        "core.ir_misp_per_kilo",
        1000.0 * sum(&win_stats, |s| s.ir_mispredictions) / r_retired,
    );
    t.set(
        "cpu.accounting.a_sync_wait_pct",
        100.0 * sum(&win_stats, |s| s.a_core.cpi.get(CpiCat::SyncWait))
            / sum(&win_stats, |s| s.a_core.cycles).max(1.0),
    );
    t.set(
        "cpu.l2.misses",
        sum(&l2_stats, |s| s.a_core.l2_misses + s.r_core.l2_misses),
    );
    t.set(
        "cpu.l2.port_stall_cycles",
        sum(&l2_stats, |s| {
            s.a_core.port_stall_cycles + s.r_core.port_stall_cycles
        }),
    );
}

/// Fault injection over the workload's programs, through the same public
/// calls as `run_campaign`: the campaign's per-program preparation, then
/// `enumerate_sites` and one `run_fault_experiment` per site.
fn faults(inputs: &Inputs, t: &mut Tracer) {
    let (per_target, n) = inputs.trace_fault_plan();
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut prepare_secs = 0.0;
    let mut site_ms = Vec::new();
    let (mut prefix, mut cycles, mut fired, mut detected) = (0u64, 0u64, 0u64, 0u64);
    for w in &inputs.programs[..n] {
        let start = Instant::now();
        let golden = golden_state(&w.program, FUEL);
        let mut clean = SlipstreamProcessor::new(cfg.clone(), &w.program);
        let halted = clean.run(MAX_CYCLES);
        let misp = clean.misp_log().to_vec();
        let dynamic = clean.stats().r_retired;
        prepare_secs += start.elapsed().as_secs_f64();
        t.check(halted && matches_golden(&clean, &golden));
        let budget = FAULT_BUDGET_FACTOR * clean.stats().cycles;
        for target in TARGETS {
            for site in enumerate_sites(w.name, target, dynamic, per_target, inputs.seed) {
                let spec = FaultSpec {
                    seq: site.seq,
                    bit: site.bit,
                };
                let start = Instant::now();
                let r = run_fault_experiment(
                    cfg.clone(),
                    &w.program,
                    target,
                    spec,
                    budget,
                    &golden,
                    &misp,
                );
                site_ms.push(start.elapsed().as_secs_f64() * 1e3);
                prefix += r.fired_cycle.unwrap_or(r.cycles);
                cycles += r.cycles;
                fired += u64::from(r.fired);
                detected += u64::from(r.outcome == FaultOutcome::DetectedRecovered);
                t.check(fault_outcome_ok(target, r.outcome));
            }
        }
    }
    let sites = site_ms.len();
    let mut sorted = site_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p90 = sorted[((sites * 9).div_ceil(10)).clamp(1, sites) - 1];
    let mean_ms = site_ms.iter().sum::<f64>() / sites as f64;
    t.set("bench.campaign.prepare_ms", prepare_secs * 1e3);
    t.set("core.fault.site_ms_p50", quartiles(&site_ms).1);
    t.set("core.fault.site_ms_p90", p90);
    t.set("core.fault.sites", sites as f64);
    t.set(
        "core.fault.prefix_cycle_share",
        prefix as f64 / cycles.max(1) as f64,
    );
    let new_ms = t.values["core.slipstream.new_us"] / 1e3;
    t.set("core.fault.new_share", new_ms / mean_ms);
    t.set(
        "core.fault.detected_recovered_pct",
        100.0 * detected as f64 / fired.max(1) as f64,
    );
}

/// Per-program costs of building the inputs and of each standard
/// invariant check.
fn checks(inputs: &Inputs, t: &mut Tracer) {
    let n = inputs.programs.len() as f64;
    let build = median_secs(|| inputs.workload.programs(inputs.size, inputs.seed, false));
    t.set("workloads.build_us_per_program", build * 1e6 / n);
    let golden = median_secs(|| {
        for w in &inputs.programs {
            black_box(golden_state(&w.program, FUEL));
        }
    });
    t.set("isa.arch.golden_us_per_program", golden * 1e6 / n);

    let invariants = standard_invariants();
    let mut secs = vec![0.0; invariants.len()];
    for (w, golden) in inputs.programs.iter().zip(&inputs.goldens) {
        for (inv, total) in invariants.iter().zip(&mut secs) {
            let start = Instant::now();
            let ok = inv.check(&w.program, golden, MAX_CYCLES).is_ok();
            *total += start.elapsed().as_secs_f64();
            t.check(ok);
        }
    }
    for (inv, total) in invariants.iter().zip(secs) {
        t.set(
            format!("core.check.{}.us_per_program", inv.name()),
            total * 1e6 / n,
        );
    }
}

/// Cost per instruction of the windowed run on the workload's programs
/// and on the same programs at a quarter of their length, and heap
/// allocations per retired instruction as the slope between the two, so
/// that one-time construction cancels.
fn run_length(inputs: &Inputs, t: &mut Tracer) -> Result<(), String> {
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let short = inputs.workload.programs(inputs.size, inputs.seed, true);
    let measure = |progs: &[Prog]| {
        let mut allocs = None;
        let pass = median_pass(|| {
            let before = alloc_calls();
            let pass = over(progs, |p| {
                let s = slip_run(&cfg, ExecMode::Windowed, p);
                (s.a_retired + s.r_retired, s.cycles)
            });
            allocs.get_or_insert(alloc_calls() - before);
            pass
        });
        (pass, allocs.expect("at least one pass"))
    };
    let (short_pass, short_allocs) = measure(&short);
    let (long_pass, long_allocs) = measure(&inputs.programs);
    if long_pass.instrs <= short_pass.instrs {
        return Err("the long run retired no more instructions than the short one".into());
    }
    t.set(
        "core.slipstream.windowed_ns_per_instr_short",
        short_pass.ns_per_instr(),
    );
    t.set(
        "core.slipstream.windowed_ns_per_instr_long",
        long_pass.ns_per_instr(),
    );
    t.set(
        "core.slipstream.length_slope_pct",
        100.0 * (long_pass.ns_per_instr() / short_pass.ns_per_instr() - 1.0),
    );
    t.set(
        "core.slipstream.allocs_per_10k_retired",
        long_allocs.saturating_sub(short_allocs) as f64 * 1e4
            / (long_pass.instrs - short_pass.instrs) as f64,
    );
    Ok(())
}
