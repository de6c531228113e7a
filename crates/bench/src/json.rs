//! Shared hand-rolled JSON emission (the workspace has no serde and no
//! registry access), plus the crate's one JSON reader: [`parse`] into a
//! [`Value`], for exporter self-checks and every committed-file lookup.
//!
//! Every JSON artifact the bench crate writes — campaign rows, fuzz rows,
//! `BENCH_*.json` documents, and the trace exporters — funnels its string
//! escaping, fixed-precision float formatting, and row-array layout
//! through here so the formats stay consistent and the duplication stays
//! out of the call sites.

use std::fmt::Display;
use std::fmt::Write;

/// Escapes `s` for inclusion in a JSON string literal (without the
/// surrounding quotes): `"` and `\` are backslash-escaped, control
/// characters become `\u00XX` (or the short forms for `\n`, `\r`, `\t`).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Fixed-precision float, the only float style the repo emits (`{:.p$}`).
/// Non-finite values (which JSON cannot represent) render as `null`.
pub fn f64_fixed(v: f64, precision: usize) -> String {
    if v.is_finite() {
        format!("{v:.precision$}")
    } else {
        "null".to_string()
    }
}

/// Builder for a single-line JSON object in the repo's house style:
/// `{"a": 1, "b": "x"}` — `", "` separators, one space after the colon.
#[derive(Debug, Default, Clone)]
pub struct Obj {
    parts: Vec<String>,
}

impl Obj {
    /// An empty object builder.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends `"key": value` with `value` rendered verbatim — for
    /// numbers, booleans, `null`, or pre-rendered nested JSON.
    pub fn raw(mut self, key: &str, value: impl Display) -> Obj {
        self.parts.push(format!("\"{}\": {}", escape(key), value));
        self
    }

    /// Appends `"key": "value"` with the value escaped.
    pub fn str(self, key: &str, value: &str) -> Obj {
        let quoted = string(value);
        self.raw(key, quoted)
    }

    /// Appends `"key": value` as a fixed-precision float.
    pub fn f64(self, key: &str, value: f64, precision: usize) -> Obj {
        let rendered = f64_fixed(value, precision);
        self.raw(key, rendered)
    }

    /// Renders the object on one line.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }
}

/// Renders pre-rendered rows as the repo's standard indented JSON array:
///
/// ```text
/// [
///     row,
///     row
///   ]
/// ```
///
/// `indent` is the indentation (in spaces) of the closing bracket; rows
/// are indented two spaces deeper. An empty row set keeps the same shape
/// (`[\n<indent>]`), matching the historical hand-rolled emitters so
/// refactored call sites stay byte-identical.
pub fn array<I>(rows: I, indent: usize) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let pad = " ".repeat(indent + 2);
    let mut out = String::from("[\n");
    let rows: Vec<_> = rows.into_iter().collect();
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&pad);
        out.push_str(row.as_ref());
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str(&" ".repeat(indent));
    out.push(']');
    out
}

/// Renders pre-rendered values as a single-line JSON array: `[a, b, c]`.
pub fn inline_array<I>(values: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let vals: Vec<_> = values.into_iter().map(|v| v.as_ref().to_string()).collect();
    format!("[{}]", vals.join(", "))
}

/// A parsed JSON value. Numbers keep their raw text, so a `u64` read back
/// is exactly the `u64` written; object members keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members in document order (duplicate keys kept).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number written as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }
}

/// Parses `s` as one complete JSON value (RFC 8259 grammar; duplicate
/// keys are kept, not rejected). Returns the byte offset and a short
/// description on the first error. Malformed input is an `Err`, never a
/// panic.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { src: s, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing data after the top-level value"));
    }
    Ok(v)
}

/// Checks that `s` is one complete JSON value: the self-check behind
/// `trace_dump --smoke` and the exporter round-trip tests, since
/// everything the bench crate writes must parse.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// Most containers one value may nest: deeper than any artifact we emit,
/// and a bound on the parser's recursion.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`; always on a char boundary.
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("byte {}: {}", self.pos, what)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// One value; `depth` counts the containers around it.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character in one piece. Those stoppers are ASCII, so the
            // run ends on a char boundary and needs no UTF-8 re-check.
            let run = self.src.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.src.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The char of a `\uXXXX` escape whose `XXXX` starts at `pos`,
    /// joining a UTF-16 surrogate pair; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = match hi {
            0xd800..=0xdbff => {
                if !self.src[self.pos..].starts_with("\\u") {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&lo) {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(self.err("lone surrogate in \\u escape")),
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))
    }

    /// Four hex digits at `pos`.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| -> Result<(), String> {
            if !p.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(p.err("expected a digit"));
            }
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            Ok(())
        };
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        Ok(Value::Num(self.src[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
        assert_eq!(string("hi"), "\"hi\"");
    }

    #[test]
    fn obj_builds_house_style_single_line_objects() {
        let o = Obj::new()
            .str("bench", "gcc")
            .raw("sites", 12)
            .f64("rate", 0.51234, 4)
            .raw("le", "null")
            .finish();
        assert_eq!(
            o,
            r#"{"bench": "gcc", "sites": 12, "rate": 0.5123, "le": null}"#
        );
    }

    #[test]
    fn array_matches_historical_row_layout() {
        assert_eq!(array(["{}", "{}"], 2), "[\n    {},\n    {}\n  ]");
        assert_eq!(array(Vec::<String>::new(), 4), "[\n    ]");
        assert_eq!(inline_array(["1", "2"]), "[1, 2]");
    }

    #[test]
    fn f64_fixed_renders_non_finite_as_null() {
        assert_eq!(f64_fixed(1.0 / 3.0, 2), "0.33");
        assert_eq!(f64_fixed(f64::NAN, 2), "null");
        assert_eq!(f64_fixed(f64::INFINITY, 2), "null");
    }

    #[test]
    fn parse_reads_back_everything_the_emitters_produce() {
        let doc = format!(
            "{{\n  \"rows\": {},\n  \"x\": {}\n}}\n",
            array(
                [
                    Obj::new().str("b", "a\"b\\é\n").raw("n", 1).finish(),
                    Obj::new().raw("le", "null").f64("m", 2.5, 2).finish(),
                ],
                2,
            ),
            inline_array(["1", "-2.5e3", "true"]),
        );
        let v = parse(&doc).unwrap();
        let rows = v.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("b").and_then(Value::as_str), Some("a\"b\\é\n"));
        assert_eq!(rows[0].get("n").and_then(Value::as_u64), Some(1));
        assert_eq!(rows[1].get("le"), Some(&Value::Null));
        assert_eq!(rows[1].get("m").and_then(Value::as_f64), Some(2.5));
        let x = v.get("x").and_then(Value::as_arr).unwrap();
        assert_eq!(x[1].as_f64(), Some(-2500.0));
        assert_eq!(x[2], Value::Bool(true));
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00\/""#).unwrap(),
            Value::Str("é😀/".to_string())
        );
    }

    #[test]
    fn parse_reads_every_committed_bench_document() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let doc = std::fs::read_to_string(&path).unwrap();
            let v = parse(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            // The fuzz documents nest their per-invariant rows.
            let rows = v.get("rows");
            let rows = rows.and_then(|r| r.get("invariants")).or(rows);
            assert!(
                rows.and_then(Value::as_arr).is_some_and(|r| !r.is_empty()),
                "{name}: rows is not a non-empty array"
            );
            seen += 1;
        }
        assert!(
            seen >= 8,
            "found only {seen} committed BENCH_*.json documents"
        );
    }

    #[test]
    fn parse_reads_a_check_sh_gate_line() {
        // The shape `run_gate` in scripts/check.sh appends with printf.
        let line = r#"{"type": "span", "name": "gate:cargo fmt --check", "count": 1, "total_nanos": 2735043912}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("span"));
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("gate:cargo fmt --check")
        );
        assert_eq!(
            v.get("total_nanos").and_then(Value::as_u64),
            Some(2_735_043_912)
        );
    }

    #[test]
    fn u64_max_round_trips_exactly() {
        let doc = Obj::new().raw("n", u64::MAX).finish();
        let n = parse(&doc).unwrap().get("n").cloned().unwrap();
        assert_eq!(n, Value::Num(u64::MAX.to_string()));
        assert_eq!(n.as_u64(), Some(u64::MAX));
        assert_eq!(Value::Num("18446744073709551616".into()).as_u64(), None);
    }

    #[test]
    fn parse_rejects_malformed_input_without_panicking() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ))
        .is_ok());
        let too_deep = nested(MAX_DEPTH + 1);
        let mut bad: Vec<String> = [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "{} trailing",
            "{\"a\": nul}",
            "-",
            "1.",
            "\"raw\ncontrol\"",
            "\"\\x\"",
            r#""\u12g4""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\ud800""#,
            r#""\ud800\u0041""#,
            r#""\udc00""#,
            "\"é\\",
            &too_deep,
        ]
        .map(String::from)
        .to_vec();
        // Every proper prefix of a valid document is truncated input.
        let doc = r#"{"rows": [{"bench": "gcc", "v": -1.5e3, "s": "é\u00e9"}], "ok": true}"#;
        assert!(parse(doc).is_ok());
        bad.extend(
            doc.char_indices()
                .map(|(i, _)| doc[..i].to_string())
                .filter(|p| !p.is_empty()),
        );
        for b in &bad {
            assert!(parse(b).is_err(), "accepted: {b:?}");
        }
        // `parse` takes `&str`: invalid UTF-8 in a string is refused where
        // file bytes become text (`read_to_string` does this check), and a
        // lone surrogate above is the only way JSON text can spell it.
        let raw = b"{\"k\": \"\xff\xfe\"}".to_vec();
        assert!(String::from_utf8(raw)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .is_err());
    }
}
