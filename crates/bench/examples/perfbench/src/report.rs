//! The benchmark's output format and `compare`.
//!
//! A run prints one line per metric, then one JSON object as its last
//! line. `compare` reads the text lines back (there is no JSON reader) and
//! judges a change against its parent with the bounds of the spec.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::measure::{RunReport, TraceReport};
use crate::quartiles;
use crate::spec::{Better, Metric, END_TO_END, WORKLOADS};

/// A number as JSON: every digit of the measured value.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite measurement {v}");
    format!("{v}")
}

fn result_json<'a>(
    ops: u64,
    failed: u64,
    values: impl Iterator<Item = (&'a Metric, f64)>,
) -> String {
    let metrics: Vec<String> = values
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {ops}, \"failed\": {failed}, \"metrics\": {{{}}}}}\n",
        failed == 0,
        metrics.join(", ")
    )
}

/// An untraced run's output: each end-to-end metric with its reported
/// value, median, quartiles and sample count, the checked operations, and
/// the JSON line.
pub fn run_text(r: &RunReport) -> String {
    let mut out = format!("workload {} seed {}\n", r.workload, r.seed);
    for s in &r.metrics {
        let _ = writeln!(
            out,
            "metric {} {} value {} median {} p25 {} p75 {} n {}",
            s.metric.name,
            s.metric.unit,
            num(s.value),
            num(s.median),
            num(s.p25),
            num(s.p75),
            s.n
        );
    }
    let _ = writeln!(out, "host anchor_s {}", num(r.anchor_s));
    let _ = writeln!(
        out,
        "host page_faults_per_round {}",
        num(r.page_faults_per_round)
    );
    let _ = writeln!(out, "ops {}\nfailed_ops {}", r.ops, r.failed);
    out + &result_json(
        r.ops,
        r.failed,
        r.metrics.iter().map(|s| (s.metric, s.value)),
    )
}

/// A traced run's output: each per-layer metric, the checked operations,
/// and the JSON line.
pub fn trace_text(r: &TraceReport) -> String {
    let mut out = format!("workload {} seed {} traced\n", r.workload, r.seed);
    for (m, v) in &r.values {
        let _ = writeln!(out, "layer {} {} {}", m.name, m.unit, num(*v));
    }
    let _ = writeln!(out, "ops {}\nfailed_ops {}", r.ops, r.failed);
    out + &result_json(r.ops, r.failed, r.values.iter().map(|&(m, v)| (m, v)))
}

/// The parts of a saved run's output that `compare` uses.
#[derive(Debug, Clone)]
pub struct SavedRun {
    /// Workload name.
    pub workload: String,
    /// Reported value of each end-to-end metric, by name.
    pub values: BTreeMap<String, f64>,
}

/// Reads a run's output back from its text lines.
pub fn parse_run(text: &str) -> Result<SavedRun, String> {
    let mut workload = None;
    let mut values = BTreeMap::new();
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["workload", name, ..] => workload = Some(name.to_string()),
            ["metric", name, _unit, "value", value, ..] => {
                let v: f64 = value
                    .parse()
                    .map_err(|e| format!("metric {name}: bad value {value:?}: {e}"))?;
                values.insert(name.to_string(), v);
            }
            _ => {}
        }
    }
    Ok(SavedRun {
        workload: workload.ok_or("no `workload` line")?,
        values,
    })
}

/// Reads every file of `dir` as a saved run, in file-name order.
pub fn read_runs(dir: &Path) -> Result<Vec<SavedRun>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    paths.retain(|p| p.is_file());
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// How a change compares with its parent on one metric and workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows, and no gain shown.
    WithinBound,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// A gain by the paired-runs rule: at least ten pairs, the
    /// change wins at least nine in ten, and the medians differ by more
    /// than the parent's interquartile range.
    Improved,
    /// The parent's own runs spread wider than the bound, so no verdict
    /// can be given unless every run of the change beats every run of the
    /// parent.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within_bound",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, end-to-end metric) comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub metric: &'static Metric,
    /// Parent's median of its runs' values.
    pub parent: f64,
    /// Change's median of its runs' values.
    pub change: f64,
    /// How much worse the change's median is, as a share of the parent's
    /// (negative when better).
    pub worse_by: f64,
    /// The parent's interquartile range as a share of its median.
    pub spread: f64,
    /// Runs paired in file-name order.
    pub pairs: usize,
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// The outcome.
    pub verdict: Verdict,
}

/// Judges `change` against `parent` (per-run values of one metric).
pub fn judge(
    workload: &str,
    metric: &'static Metric,
    parent: &[f64],
    change: &[f64],
) -> Comparison {
    let bound = metric.bound.expect("end-to-end metrics have a bound");
    let better = |x: f64, than: f64| match metric.better {
        Better::Higher => x > than,
        Better::Lower => x < than,
    };
    let (p25, parent_median, p75) = quartiles(parent);
    let change_median = quartiles(change).1;
    let worse_by = match metric.better {
        Better::Higher => (parent_median - change_median) / parent_median,
        Better::Lower => (change_median - parent_median) / parent_median,
    };
    let iqr = p75 - p25;
    let spread = iqr / parent_median;
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let beats_every_run = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if spread > bound {
        if beats_every_run {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if pairs >= 10
        && wins * 10 >= pairs * 9
        && worse_by < 0.0
        && (change_median - parent_median).abs() > iqr
    {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    Comparison {
        workload: workload.to_string(),
        metric,
        parent: parent_median,
        change: change_median,
        worse_by,
        spread,
        pairs,
        wins,
        verdict,
    }
}

/// Compares every end-to-end metric on every workload the parent's runs
/// cover. Each workload must appear among the change's runs too.
pub fn compare(parent: &[SavedRun], change: &[SavedRun]) -> Result<Vec<Comparison>, String> {
    let mut out = Vec::new();
    for w in WORKLOADS.iter().map(|w| w.name) {
        if !parent.iter().any(|r| r.workload == w) {
            continue;
        }
        for m in END_TO_END {
            let values = |runs: &[SavedRun], side: &str| -> Result<Vec<f64>, String> {
                let v =
                    runs.iter()
                        .filter(|r| r.workload == w)
                        .map(|r| {
                            r.values.get(m.name).copied().ok_or_else(|| {
                                format!("a {side} run of {w} lacks metric {}", m.name)
                            })
                        })
                        .collect::<Result<Vec<f64>, String>>()?;
                if v.is_empty() {
                    return Err(format!("no {side} runs of {w}"));
                }
                Ok(v)
            };
            out.push(judge(
                w,
                m,
                &values(parent, "parent")?,
                &values(change, "change")?,
            ));
        }
    }
    Ok(out)
}

/// One line per comparison.
pub fn comparison_text(comparisons: &[Comparison]) -> String {
    let mut out = String::new();
    for c in comparisons {
        let _ = writeln!(
            out,
            "{} {} parent {:.6} change {:.6} worse_by {:+.2}% bound {:.0}% spread {:.2}% \
             wins {}/{} {}",
            c.workload,
            c.metric.name,
            c.parent,
            c.change,
            100.0 * c.worse_by,
            100.0 * c.metric.bound.unwrap_or(0.0),
            100.0 * c.spread,
            c.wins,
            c.pairs,
            c.verdict.label()
        );
    }
    out
}
