//! Malformed input never panics: every reader of untrusted text —
//! `json::parse`, `parse_jsonl` and `isa::assemble` — returns `Ok` or `Err`
//! on mutants of the committed inputs. Byte-level mutants flip, delete,
//! duplicate and splice bytes. Token-level mutants make the edits byte
//! mutation reaches only by chance: an SSIR mnemonic swapped for one of
//! another operand format, an operand dropped or duplicated, a number
//! replaced by an extreme literal, a JSON key dropped. A token mutant that
//! assembles must also disassemble to SSIR that assembles back to the same
//! instructions. The mutators are deterministic (xorshift64*, fixed seeds
//! and counts), and `cargo test` runs them in a debug build, so
//! integer-overflow panics show too. A mutant that panics a reader becomes
//! an `Err` there and an inline unit test beside it.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

use slipstream_bench::{json, parse_jsonl, to_jsonl, RunFile, MAX_CYCLES, TRACE};
use slipstream_core::telemetry::RunManifest;
use slipstream_core::{ExecMode, SlipstreamConfig, SlipstreamProcessor, TraceConfig};
use slipstream_isa::OPCODES;
use slipstream_workloads::XorShift64Star;

/// Mutants derived from each seed input.
const MUTANTS_PER_SEED: u64 = 1024;

/// Longest byte range one delete, duplicate or splice moves.
const MAX_RANGE: u64 = 32;

/// Token-level mutants derived from each seed input.
const TOKEN_MUTANTS_PER_SEED: u64 = 256;

/// Literals a number token is replaced with: the `i64`/`u64` extremes in
/// every spelling the readers accept, and literals too long for any of
/// them.
const EXTREMES: &[&str] = &[
    "-9223372036854775808",
    "9223372036854775807",
    "18446744073709551615",
    "-0x8000000000000000",
    "0xffffffffffffffff",
    "-1",
    "184467440737095516160000",
    "0x1ffffffffffffffff",
    "1e999",
    "-1e-999",
];

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

/// The byte spans of `text`'s number tokens: a digit, or `-` before a
/// digit, not inside a word (so `r12` is a register, not a number), up to
/// the end of its digits, letters, `_`, `.` and exponent sign.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let digit_at = |j: usize| b.get(j).is_some_and(u8::is_ascii_digit);
        let starts = digit_at(i) || (b[i] == b'-' && digit_at(i + 1));
        if starts && (i == 0 || !word(b[i - 1])) {
            let mut end = i + 1;
            while end < b.len()
                && (word(b[end])
                    || b[end] == b'.'
                    || (matches!(b[end], b'+' | b'-') && matches!(b[end - 1], b'e' | b'E')))
            {
                end += 1;
            }
            spans.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

/// The byte spans of `text`'s JSON members: a quoted key, its `:`, its
/// value up to the `,` or closing bracket at its own depth, and the `,`.
fn member_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    // The end of the string opening at `i` (one past its closing quote).
    let string_end = |mut i: usize| {
        i += 1;
        while i < b.len() && b[i] != b'"' {
            i += if b[i] == b'\\' { 2 } else { 1 };
        }
        (i + 1).min(b.len())
    };
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'"' {
            i += 1;
            continue;
        }
        let key_end = string_end(i);
        let mut j = key_end;
        while j < b.len() && b[j].is_ascii_whitespace() {
            j += 1;
        }
        if b.get(j) == Some(&b':') {
            let mut depth = 0usize;
            let mut end = j + 1;
            while end < b.len() {
                match b[end] {
                    b'"' => {
                        end = string_end(end);
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' if depth == 0 => break,
                    b'}' | b']' => depth -= 1,
                    b',' if depth == 0 => {
                        end += 1;
                        break;
                    }
                    _ => {}
                }
                end += 1;
            }
            spans.push((i, end));
        }
        i = key_end;
    }
    spans
}

/// One SSIR instruction line's edit: its mnemonic swapped for one of
/// another operand format, or one operand dropped or duplicated. `None`
/// if the line is no instruction.
fn mutate_instruction(rng: &mut XorShift64Star, line: &str) -> Option<String> {
    let code = line.split([';', '#']).next()?.trim();
    let code = code.rsplit(':').next()?.trim();
    let (mnemonic, rest) = code.split_once(' ').unwrap_or((code, ""));
    let op = OPCODES.iter().find(|op| op.mnemonic == mnemonic)?;
    let mut operands: Vec<&str> = rest
        .split(',')
        .map(str::trim)
        .filter(|o| !o.is_empty())
        .collect();
    let mnemonic = if rng.chance(1, 2) {
        let others: Vec<_> = OPCODES.iter().filter(|o| o.format != op.format).collect();
        others[rng.below(others.len() as u64) as usize].mnemonic
    } else {
        if operands.is_empty() || rng.chance(1, 2) {
            let at = rng.below(operands.len() as u64 + 1) as usize;
            let copy = operands.get(at.saturating_sub(1)).copied().unwrap_or("r1");
            operands.insert(at, copy);
        } else {
            operands.remove(rng.below(operands.len() as u64) as usize);
        }
        mnemonic
    };
    Some(format!("{mnemonic} {}", operands.join(", ")))
}

/// One token-level mutant of `seed`: one to three edits, each an
/// instruction edit (SSIR seeds only), a number replaced by one of
/// [`EXTREMES`], or a JSON member dropped.
fn mutate_tokens(rng: &mut XorShift64Star, seed: &str, ssir: bool) -> String {
    let mut text = seed.to_string();
    for _ in 0..=rng.below(3) {
        let edit = rng.below(3);
        if ssir && edit == 0 {
            let lines: Vec<&str> = text.lines().collect();
            let at = rng.below(lines.len() as u64) as usize;
            if let Some(new) = mutate_instruction(rng, lines[at]) {
                let mut lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                lines[at] = new;
                text = lines.join("\n");
            }
            continue;
        }
        let spans = if edit == 2 && !ssir {
            member_spans(&text)
        } else {
            number_spans(&text)
        };
        if spans.is_empty() {
            continue;
        }
        let (start, end) = spans[rng.below(spans.len() as u64) as usize];
        let with = if edit == 2 && !ssir {
            ""
        } else {
            EXTREMES[rng.below(EXTREMES.len() as u64) as usize]
        };
        text.replace_range(start..end, with);
    }
    text
}

#[test]
fn token_mutants_never_panic_a_reader() {
    let seeds = seeds();
    let mut rng = XorShift64Star::new(0x70ce_f022);
    let mut assembled = 0;
    for (name, seed) in &seeds {
        let seed = std::str::from_utf8(seed).expect("seed inputs are UTF-8");
        let ssir = name.ends_with(".ssir");
        for k in 0..TOKEN_MUTANTS_PER_SEED {
            let text = mutate_tokens(&mut rng, seed, ssir);
            let read = panic::catch_unwind(AssertUnwindSafe(|| {
                let _ = json::parse(&text);
                let _ = parse_jsonl(&text);
                slipstream_isa::assemble(&text).ok()
            }));
            let Ok(program) = read else {
                panic!("a reader panicked on token mutant {k} of {name}: {text:?}");
            };
            if let Some(program) = program.filter(|_| ssir) {
                assembled += 1;
                let shown: Vec<String> = program.instrs().iter().map(|i| i.to_string()).collect();
                let back = slipstream_isa::assemble(&shown.join("\n"))
                    .unwrap_or_else(|e| panic!("{name} token mutant {k}: {e} in {shown:?}"));
                assert_eq!(back.instrs(), program.instrs(), "{name} token mutant {k}");
            }
        }
    }
    assert!(assembled > 0, "some SSIR token mutants assemble");
}
