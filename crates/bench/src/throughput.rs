use crate::json;

/// The README.md region that holds the simulator-throughput table.
pub const THROUGHPUT_REGION: &str = "throughput";

/// One model's best suite pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpeed {
    /// The model's name (`ss64`, `slipstream`, ...).
    pub model: String,
    /// Simulated instructions in one suite pass (A- plus R-stream for the
    /// slipstream models).
    pub instructions: u64,
    /// The pass's simulated instructions per host second.
    pub instrs_per_sec: f64,
    /// The pass's instrs/s over the ops/s of the faster of its two
    /// adjacent host-probe passes: simulated instructions per probe
    /// operation.
    pub per_probe_op: f64,
}

/// A simulator-throughput measurement as `BENCH_throughput.json` holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct Throughput {
    /// The workload-suite scale every pass ran at.
    pub scale: f64,
    /// Suite passes per model.
    pub passes: u32,
    /// Mean host-probe operations per second over the run's probe passes.
    pub probe_ops_per_sec: f64,
    /// Each model's best pass, in measuring order.
    pub models: Vec<ModelSpeed>,
}

impl Throughput {
    /// The document `throughput` commits.
    pub fn to_json(&self) -> String {
        let models = json::array(
            self.models.iter().map(|m| {
                json::Obj::new()
                    .str("model", &m.model)
                    .raw("instructions", m.instructions)
                    .f64("instrs_per_sec", m.instrs_per_sec, 0)
                    .f64("instrs_per_probe_op", m.per_probe_op, 6)
                    .finish()
            }),
            2,
        );
        format!(
            "{{\n  \"scale\": {},\n  \"passes\": {},\n  \"probe_ops_per_sec\": {},\n  \
             \"models\": {models}\n}}\n",
            self.scale,
            self.passes,
            json::f64_fixed(self.probe_ops_per_sec, 0)
        )
    }

    /// Reads a document written by [`Throughput::to_json`]. A missing or
    /// malformed field is an error naming it: a speed gate must not compare
    /// against a guess.
    pub fn parse(text: &str) -> Result<Throughput, String> {
        let doc = json::parse(text)?;
        let number = |v: &json::Value, key: &str| {
            v.get(key)
                .and_then(json::Value::as_f64)
                .filter(|x| *x > 0.0)
                .ok_or(format!("`{key}` is not a positive number"))
        };
        let integer = |v: &json::Value, key: &str| {
            v.get(key)
                .and_then(json::Value::as_u64)
                .ok_or(format!("`{key}` is not an integer"))
        };
        let models = doc
            .get("models")
            .and_then(json::Value::as_arr)
            .ok_or("no `models` array")?
            .iter()
            .map(|m| {
                let model = m.get("model").and_then(json::Value::as_str);
                let model = model.ok_or("a model without a `model` name")?;
                let named = |e: String| format!("{model}: {e}");
                Ok(ModelSpeed {
                    model: model.to_string(),
                    instructions: integer(m, "instructions").map_err(named)?,
                    instrs_per_sec: number(m, "instrs_per_sec").map_err(named)?,
                    per_probe_op: number(m, "instrs_per_probe_op").map_err(named)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Throughput {
            scale: number(&doc, "scale")?,
            passes: u32::try_from(integer(&doc, "passes")?).map_err(|e| e.to_string())?,
            probe_ops_per_sec: number(&doc, "probe_ops_per_sec")?,
            models,
        })
    }

    /// The measurement as a markdown table, the host probe's speed in its
    /// footer.
    pub fn table(&self) -> String {
        let columns: &[crate::Column<ModelSpeed>] = &[
            ("model", false, |m| format!("`{}`", m.model)),
            ("instructions", true, |m| m.instructions.to_string()),
            ("instrs/s", true, |m| millions(m.instrs_per_sec)),
            ("instrs per probe op", true, |m| {
                format!("{:.4}", m.per_probe_op)
            }),
        ];
        let footer = vec![
            "host probe".to_string(),
            String::new(),
            format!("{} ops/s", millions(self.probe_ops_per_sec)),
            String::new(),
        ];
        crate::md_table(&self.models, columns, Some(footer))
    }
}

/// A rate in millions, one decimal (`7.5M`).
fn millions(v: f64) -> String {
    format!("{:.1}M", v / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Throughput {
        Throughput {
            scale: 0.2,
            passes: 5,
            probe_ops_per_sec: 401_234_567.0,
            models: vec![ModelSpeed {
                model: "ss64".to_string(),
                instructions: 309_151,
                instrs_per_sec: 7_512_345.0,
                per_probe_op: 0.018723,
            }],
        }
    }

    #[test]
    fn the_document_reads_back_as_written() {
        let t = sample();
        assert_eq!(Throughput::parse(&t.to_json()).unwrap(), t);
    }

    /// README.md's table is the rendering of the committed file.
    #[test]
    fn readme_table_matches_the_committed_file() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |name: &str| {
            std::fs::read_to_string(root.join(name))
                .unwrap_or_else(|e| panic!("{name} is missing at the repo root ({e})"))
        };
        let committed = Throughput::parse(&read("BENCH_throughput.json"))
            .unwrap_or_else(|e| panic!("BENCH_throughput.json: {e}"));
        let readme = read("README.md");
        let spliced = crate::splice_regions(&readme, &[(THROUGHPUT_REGION, committed.table())])
            .unwrap_or_else(|e| panic!("README.md: {e}"));
        assert!(
            spliced == readme,
            "README.md region {THROUGHPUT_REGION} is stale — re-render it via `cargo run \
             --release -p slipstream-bench --bin throughput`"
        );
    }

    #[test]
    fn a_missing_field_is_an_error_naming_it() {
        let text = sample().to_json();
        for (key, want) in [
            ("\"instrs_per_probe_op\"", "ss64: `instrs_per_probe_op`"),
            ("\"passes\"", "`passes`"),
            ("\"models\"", "`models`"),
        ] {
            let broken = text.replace(key, "\"renamed\"");
            let e = Throughput::parse(&broken).expect_err(key);
            assert!(e.contains(want), "{key}: {e}");
        }
    }
}
