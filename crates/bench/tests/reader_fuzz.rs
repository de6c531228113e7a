//! Malformed input never panics: every reader of untrusted text —
//! `json::parse`, `parse_jsonl` and `isa::assemble` — returns `Ok` or `Err`
//! on byte-level mutants of the committed inputs. The mutator is
//! deterministic (xorshift64*, fixed seed and counts), and `cargo test`
//! runs it in a debug build, so integer-overflow panics show too. A
//! mutant that panics a reader becomes an `Err` there and an inline unit
//! test beside it.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

use slipstream_bench::{json, parse_jsonl, to_jsonl, RunFile, MAX_CYCLES, TRACE};
use slipstream_core::telemetry::RunManifest;
use slipstream_core::{ExecMode, SlipstreamConfig, SlipstreamProcessor, TraceConfig};
use slipstream_workloads::XorShift64Star;

/// Mutants derived from each seed input.
const MUTANTS_PER_SEED: u64 = 1024;

/// Longest byte range one delete, duplicate or splice moves.
const MAX_RANGE: u64 = 32;

/// Bytes that steer a flip toward the readers' syntax rather than noise.
const SYNTAX: &[u8] = b"{}[]\",:-+.eE0123456789\\ntfu#;()\n\t r";

/// A small run file holding every row type: `program` under the windowed
/// scheduler with telemetry, the flight recorder and samples on.
fn small_run_file(program: &str) -> Vec<u8> {
    let program = slipstream_isa::assemble(program).expect("corpus entries assemble");
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut proc = SlipstreamProcessor::new(cfg.clone(), &program);
    proc.enable_telemetry();
    proc.enable_tracing(TraceConfig {
        ring_capacity: 64,
        metrics_interval: 50,
        ..TRACE
    });
    assert!(proc.run_mode(ExecMode::Windowed, MAX_CYCLES));
    let manifest = RunManifest::new("reader_fuzz", "windowed", &format!("{cfg:?}"));
    let run = RunFile {
        snapshot: proc.take_telemetry().expect("enabled").snapshot(&manifest),
        recording: proc.flight_recording().expect("enabled"),
    };
    to_jsonl(&run).into_bytes()
}

/// The seed inputs, named: the committed `BENCH_*.json` files (not the
/// fuzz smoke's untracked output), the corpus `.ssir` programs, and a
/// small run file of the first program.
fn seeds() -> Vec<(String, Vec<u8>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seeds: Vec<(String, Vec<u8>)> = [root.clone(), root.join("crates/bench/corpus")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("seed directory lists"))
        .map(|e| e.expect("directory entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            let bench = name.starts_with("BENCH_") && name.ends_with(".json");
            let wanted = (bench && name != "BENCH_fuzz_smoke.json") || name.ends_with(".ssir");
            wanted.then(|| (name, std::fs::read(&p).expect("seed file reads")))
        })
        .collect();
    seeds.sort();
    assert!(
        seeds
            .iter()
            .filter(|(n, _)| n.starts_with("BENCH_"))
            .count()
            >= 5
    );
    let (_, program) = seeds
        .iter()
        .find(|(n, _)| n.ends_with(".ssir"))
        .expect("a corpus program");
    let run = small_run_file(std::str::from_utf8(program).expect("corpus files are UTF-8"));
    seeds.push(("run file".to_string(), run));
    seeds
}

/// A byte range of `buf`, as start and (possibly zero) length.
fn range(rng: &mut XorShift64Star, buf: &[u8]) -> (usize, usize) {
    let start = rng.below(buf.len() as u64 + 1) as usize;
    let len = rng.below(MAX_RANGE.min((buf.len() - start) as u64) + 1) as usize;
    (start, len)
}

/// One mutant of `seed`: one to five flips, deletes, duplicates and
/// splices (a range of `donor` inserted), applied in turn.
fn mutate(rng: &mut XorShift64Star, seed: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut buf = seed.to_vec();
    for _ in 0..=rng.below(5) {
        let at = rng.below(buf.len() as u64 + 1) as usize;
        match rng.below(4) {
            0 if at < buf.len() => {
                buf[at] = if rng.chance(1, 2) {
                    buf[at] ^ (1 << rng.below(8))
                } else {
                    SYNTAX[rng.below(SYNTAX.len() as u64) as usize]
                };
            }
            1 => {
                let (start, len) = range(rng, &buf);
                buf.drain(start..start + len);
            }
            2 => {
                let (start, len) = range(rng, &buf);
                let copy = buf[start..start + len].to_vec();
                buf.splice(at..at, copy);
            }
            _ => {
                let (start, len) = range(rng, donor);
                buf.splice(at..at, donor[start..start + len].iter().copied());
            }
        }
    }
    buf
}

#[test]
fn mutated_inputs_never_panic_a_reader() {
    let seeds = seeds();
    let mut rng = XorShift64Star::new(0x5eed_f022);
    for (i, (name, seed)) in seeds.iter().enumerate() {
        let donor = &seeds[(i + 1) % seeds.len()].1;
        for k in 0..MUTANTS_PER_SEED {
            let text = String::from_utf8_lossy(&mutate(&mut rng, seed, donor)).into_owned();
            let read = panic::catch_unwind(AssertUnwindSafe(|| {
                let _ = json::parse(&text);
                let _ = parse_jsonl(&text);
                let _ = slipstream_isa::assemble(&text);
            }));
            assert!(
                read.is_ok(),
                "a reader panicked on mutant {k} of {name}: {text:?}"
            );
        }
    }
}
