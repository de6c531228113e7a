use std::collections::HashMap;
use std::fmt;

use crate::instr::Instr;
use crate::program::{Program, DEFAULT_TEXT_BASE};
use crate::reg::Reg;

/// An assembly error, with the 1-based source line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// Assembles SSIR assembly text into a [`Program`].
///
/// # Syntax
///
/// ```text
/// ; comments start with ';' or '#'
/// .org 0x1000          ; optional text base (default 0x1000)
///     li   r1, table   ; labels are usable as immediates
///     li   r2, 10
/// loop:
///     ld   r3, 0(r1)   ; off(base) memory operands
///     addi r1, r1, 8
///     addi r2, r2, -1
///     bne  r2, r0, loop
///     halt
///
/// .data 0x100000       ; switch to data emission at an address
/// table: .word 1, 2, 3 ; 8-byte words
/// buf:   .space 64     ; zero-filled bytes
/// ```
///
/// Pseudo-instructions: `li rd, imm` and `mv rd, rs` (= `addi rd, rs, 0`).
/// Branch/jump targets and `li` immediates may be labels. Registers are
/// `r0`..`r63` (`r0` reads as zero).
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered (unknown mnemonic, bad
/// operand, duplicate/undefined label, ...).
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    Assembler::new().assemble(src)
}

#[derive(Debug, Clone)]
enum Operand {
    Reg(Reg),
    Imm(i64),
    Label(String),
    Mem { off: OffExpr, base: Reg },
}

#[derive(Debug, Clone)]
enum OffExpr {
    Imm(i64),
    Label(String),
}

#[derive(Debug, Clone)]
struct PendingInstr {
    line: usize,
    mnemonic: String,
    operands: Vec<Operand>,
}

struct Assembler {
    labels: HashMap<String, u64>,
}

impl Assembler {
    fn new() -> Assembler {
        Assembler {
            labels: HashMap::new(),
        }
    }

    fn assemble(mut self, src: &str) -> Result<Program, AsmError> {
        let mut text_base = DEFAULT_TEXT_BASE;
        let mut text_base_set = false;
        let mut pending: Vec<PendingInstr> = Vec::new();
        let mut data: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut mode_data_cursor: Option<u64> = None;
        let mut next_pc_index: u64 = 0;

        // Single structural pass that records instructions symbolically and
        // lays out data; label resolution happens afterwards.
        for (lineno, raw) in src.lines().enumerate() {
            let line = lineno + 1;
            let mut text = raw;
            if let Some(i) = text.find([';', '#']) {
                text = &text[..i];
            }
            let mut text = text.trim();
            // Peel off leading labels ("foo:" possibly followed by code).
            while let Some(colon) = find_label_colon(text) {
                let name = text[..colon].trim();
                if !is_ident(name) {
                    return Err(err(line, format!("invalid label name `{name}`")));
                }
                let addr = match mode_data_cursor {
                    Some(cursor) => cursor,
                    None => text_base + 4 * next_pc_index,
                };
                if self.labels.insert(name.to_string(), addr).is_some() {
                    return Err(err(line, format!("duplicate label `{name}`")));
                }
                text = text[colon + 1..].trim();
            }
            if text.is_empty() {
                continue;
            }

            let (mnemonic, rest) = split_mnemonic(text);
            match mnemonic {
                ".org" => {
                    if next_pc_index != 0 || text_base_set {
                        return Err(err(line, ".org must precede all instructions".into()));
                    }
                    text_base = parse_imm(rest.trim(), line)? as u64;
                    text_base_set = true;
                }
                ".data" => {
                    let addr = parse_imm(rest.trim(), line)? as u64;
                    mode_data_cursor = Some(addr);
                    data.push((addr, Vec::new()));
                }
                ".word" => {
                    let seg = data
                        .last_mut()
                        .ok_or_else(|| err(line, ".word outside a .data section".into()))?;
                    let cursor = mode_data_cursor.as_mut().expect("in data mode");
                    for field in rest.split(',') {
                        let v = parse_imm(field.trim(), line)?;
                        seg.1.extend_from_slice(&(v as u64).to_le_bytes());
                        *cursor += 8;
                    }
                }
                ".space" => {
                    let seg = data
                        .last_mut()
                        .ok_or_else(|| err(line, ".space outside a .data section".into()))?;
                    let cursor = mode_data_cursor.as_mut().expect("in data mode");
                    let n = parse_imm(rest.trim(), line)?;
                    if n < 0 {
                        return Err(err(line, ".space size must be non-negative".into()));
                    }
                    seg.1.extend(std::iter::repeat_n(0u8, n as usize));
                    *cursor += n as u64;
                }
                m if m.starts_with('.') => {
                    return Err(err(line, format!("unknown directive `{m}`")));
                }
                _ => {
                    if mode_data_cursor.is_some() {
                        return Err(err(line, "instructions are not allowed after .data".into()));
                    }
                    let operands = parse_operands(rest, line)?;
                    pending.push(PendingInstr {
                        line,
                        mnemonic: mnemonic.to_string(),
                        operands,
                    });
                    next_pc_index += 1;
                }
            }
        }

        let mut instrs = Vec::with_capacity(pending.len());
        for p in &pending {
            instrs.push(self.lower(p)?);
        }
        data.retain(|(_, bytes)| !bytes.is_empty());
        Ok(Program::new(text_base, instrs, data))
    }

    fn resolve(&self, name: &str, line: usize) -> Result<u64, AsmError> {
        self.labels
            .get(name)
            .copied()
            .ok_or_else(|| err(line, format!("undefined label `{name}`")))
    }

    fn imm_of(&self, op: &Operand, line: usize) -> Result<i64, AsmError> {
        match op {
            Operand::Imm(v) => Ok(*v),
            Operand::Label(l) => Ok(self.resolve(l, line)? as i64),
            _ => Err(err(line, "expected an immediate or label".into())),
        }
    }

    fn target_of(&self, op: &Operand, line: usize) -> Result<u64, AsmError> {
        match op {
            Operand::Label(l) => self.resolve(l, line),
            Operand::Imm(v) => Ok(*v as u64),
            _ => Err(err(line, "expected a branch/jump target".into())),
        }
    }

    fn lower(&self, p: &PendingInstr) -> Result<Instr, AsmError> {
        let line = p.line;
        let ops = &p.operands;
        let reg = |i: usize| -> Result<Reg, AsmError> {
            match ops.get(i) {
                Some(Operand::Reg(r)) => Ok(*r),
                _ => Err(err(line, format!("operand {} must be a register", i + 1))),
            }
        };
        let memop = |i: usize| -> Result<(i64, Reg), AsmError> {
            match ops.get(i) {
                Some(Operand::Mem { off, base }) => {
                    let off = match off {
                        OffExpr::Imm(v) => *v,
                        OffExpr::Label(l) => self.resolve(l, line)? as i64,
                    };
                    Ok((off, *base))
                }
                _ => Err(err(line, format!("operand {} must be off(base)", i + 1))),
            }
        };
        let want = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(
                    line,
                    format!("`{}` takes {} operand(s), got {}", p.mnemonic, n, ops.len()),
                ))
            }
        };

        macro_rules! rrr {
            ($variant:ident) => {{
                want(3)?;
                Instr::$variant {
                    d: reg(0)?,
                    a: reg(1)?,
                    b: reg(2)?,
                }
            }};
        }
        macro_rules! rri {
            ($variant:ident) => {{
                want(3)?;
                Instr::$variant {
                    d: reg(0)?,
                    a: reg(1)?,
                    imm: self.imm_of(&ops[2], line)?,
                }
            }};
        }
        macro_rules! branch {
            ($variant:ident) => {{
                want(3)?;
                Instr::$variant {
                    a: reg(0)?,
                    b: reg(1)?,
                    target: self.target_of(&ops[2], line)?,
                }
            }};
        }

        Ok(match p.mnemonic.as_str() {
            "add" => rrr!(Add),
            "sub" => rrr!(Sub),
            "and" => rrr!(And),
            "or" => rrr!(Or),
            "xor" => rrr!(Xor),
            "slt" => rrr!(Slt),
            "sltu" => rrr!(Sltu),
            "sll" => rrr!(Sll),
            "srl" => rrr!(Srl),
            "sra" => rrr!(Sra),
            "mul" => rrr!(Mul),
            "div" => rrr!(Div),
            "rem" => rrr!(Rem),
            "addi" => rri!(Addi),
            "andi" => rri!(Andi),
            "ori" => rri!(Ori),
            "xori" => rri!(Xori),
            "slti" => rri!(Slti),
            "slli" => rri!(Slli),
            "srli" => rri!(Srli),
            "srai" => rri!(Srai),
            "li" => {
                want(2)?;
                Instr::Li {
                    d: reg(0)?,
                    imm: self.imm_of(&ops[1], line)?,
                }
            }
            "mv" => {
                want(2)?;
                Instr::Addi {
                    d: reg(0)?,
                    a: reg(1)?,
                    imm: 0,
                }
            }
            "ld" => {
                want(2)?;
                let (off, base) = memop(1)?;
                Instr::Ld {
                    d: reg(0)?,
                    base,
                    off,
                }
            }
            "st" => {
                want(2)?;
                let (off, base) = memop(1)?;
                Instr::St {
                    s: reg(0)?,
                    base,
                    off,
                }
            }
            "ldb" => {
                want(2)?;
                let (off, base) = memop(1)?;
                Instr::Ldb {
                    d: reg(0)?,
                    base,
                    off,
                }
            }
            "stb" => {
                want(2)?;
                let (off, base) = memop(1)?;
                Instr::Stb {
                    s: reg(0)?,
                    base,
                    off,
                }
            }
            "beq" => branch!(Beq),
            "bne" => branch!(Bne),
            "blt" => branch!(Blt),
            "bge" => branch!(Bge),
            "j" => {
                want(1)?;
                Instr::J {
                    target: self.target_of(&ops[0], line)?,
                }
            }
            "jal" => {
                want(2)?;
                Instr::Jal {
                    link: reg(0)?,
                    target: self.target_of(&ops[1], line)?,
                }
            }
            "jr" => {
                want(1)?;
                Instr::Jr { a: reg(0)? }
            }
            "halt" => {
                want(0)?;
                Instr::Halt
            }
            "nop" => {
                want(0)?;
                Instr::Nop
            }
            other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
        })
    }
}

fn err(line: usize, msg: String) -> AsmError {
    AsmError { line, msg }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Finds the colon ending a leading label, ignoring colons elsewhere.
fn find_label_colon(text: &str) -> Option<usize> {
    let colon = text.find(':')?;
    // Only treat it as a label if everything before it looks like one word.
    let head = text[..colon].trim();
    (is_ident(head) || head.is_empty()).then_some(colon)
}

fn split_mnemonic(text: &str) -> (&str, &str) {
    match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], &text[i..]),
        None => (text, ""),
    }
}

fn parse_reg(tok: &str) -> Option<Reg> {
    let rest = tok.strip_prefix('r')?;
    let idx: u8 = rest.parse().ok()?;
    Reg::try_new(idx)
}

fn parse_imm(tok: &str, line: usize) -> Result<i64, AsmError> {
    let tok = tok.trim();
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let parsed = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).map(|v| v as i64)
    } else {
        body.replace('_', "").parse::<i64>()
    };
    match parsed {
        Ok(v) if neg => v
            .checked_neg()
            .ok_or_else(|| err(line, format!("immediate `{tok}` out of range"))),
        Ok(v) => Ok(v),
        Err(_) => Err(err(line, format!("invalid immediate `{tok}`"))),
    }
}

fn parse_operands(rest: &str, line: usize) -> Result<Vec<Operand>, AsmError> {
    let rest = rest.trim();
    if rest.is_empty() {
        return Ok(Vec::new());
    }
    rest.split(',')
        .map(|tok| parse_operand(tok.trim(), line))
        .collect()
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand, AsmError> {
    if tok.is_empty() {
        return Err(err(line, "empty operand".into()));
    }
    // off(base) memory operand
    if let Some(open) = tok.find('(') {
        let close = tok
            .rfind(')')
            .filter(|&close| close > open)
            .ok_or_else(|| err(line, format!("unclosed `(` in `{tok}`")))?;
        let off_str = tok[..open].trim();
        let base_str = tok[open + 1..close].trim();
        let base = parse_reg(base_str)
            .ok_or_else(|| err(line, format!("invalid base register `{base_str}`")))?;
        let off = if off_str.is_empty() {
            OffExpr::Imm(0)
        } else if is_ident(off_str) && parse_reg(off_str).is_none() {
            OffExpr::Label(off_str.to_string())
        } else {
            OffExpr::Imm(parse_imm(off_str, line)?)
        };
        return Ok(Operand::Mem { off, base });
    }
    if let Some(r) = parse_reg(tok) {
        return Ok(Operand::Reg(r));
    }
    if is_ident(tok) {
        return Ok(Operand::Label(tok.to_string()));
    }
    Ok(Operand::Imm(parse_imm(tok, line)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_program_assembles() {
        let p = assemble("li r1, 5\nadd r2, r1, r1\nhalt").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(
            p.instrs()[1],
            Instr::Add {
                d: Reg::new(2),
                a: Reg::new(1),
                b: Reg::new(1)
            }
        );
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = assemble("start:\nbeq r0, r0, end\nj start\nend:\nhalt").unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Beq {
                a: Reg::ZERO,
                b: Reg::ZERO,
                target: 0x1008
            }
        );
        assert_eq!(p.instrs()[1], Instr::J { target: 0x1000 });
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let p = assemble("loop: addi r1, r1, 1\nj loop").unwrap();
        assert_eq!(p.instrs()[1], Instr::J { target: 0x1000 });
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("; header\n# more\n\nli r1, 1 ; trailing\nhalt # done").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn memory_operands() {
        let p = assemble("ld r1, 8(r2)\nst r1, -16(r3)\nldb r4, (r5)\nhalt").unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Ld {
                d: Reg::new(1),
                base: Reg::new(2),
                off: 8
            }
        );
        assert_eq!(
            p.instrs()[1],
            Instr::St {
                s: Reg::new(1),
                base: Reg::new(3),
                off: -16
            }
        );
        assert_eq!(
            p.instrs()[2],
            Instr::Ldb {
                d: Reg::new(4),
                base: Reg::new(5),
                off: 0
            }
        );
    }

    #[test]
    fn data_sections_and_label_immediates() {
        let src = "li r1, table\nld r2, 0(r1)\nhalt\n.data 0x100000\ntable: .word 42, 43\nbuf: .space 16\nafter: .word 1";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Li {
                d: Reg::new(1),
                imm: 0x10_0000
            }
        );
        let mem = p.initial_memory();
        assert_eq!(mem.load_word(0x10_0000), 42);
        assert_eq!(mem.load_word(0x10_0008), 43);
        // `after` comes 16 (buf) bytes past table+16
        assert_eq!(mem.load_word(0x10_0020), 1);
    }

    #[test]
    fn data_label_as_offset() {
        let src = "ld r1, table(r0)\nhalt\n.data 0x2000\ntable: .word 9";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Ld {
                d: Reg::new(1),
                base: Reg::ZERO,
                off: 0x2000
            }
        );
    }

    #[test]
    fn org_sets_text_base() {
        let p = assemble(".org 0x8000\nhalt").unwrap();
        assert_eq!(p.entry(), 0x8000);
    }

    #[test]
    fn hex_and_underscore_immediates() {
        let p = assemble("li r1, 0xff\nli r2, 1_000\nli r3, -0x10\nhalt").unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Li {
                d: Reg::new(1),
                imm: 255
            }
        );
        assert_eq!(
            p.instrs()[1],
            Instr::Li {
                d: Reg::new(2),
                imm: 1000
            }
        );
        assert_eq!(
            p.instrs()[2],
            Instr::Li {
                d: Reg::new(3),
                imm: -16
            }
        );
    }

    #[test]
    fn pseudo_mv() {
        let p = assemble("mv r1, r2\nhalt").unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Addi {
                d: Reg::new(1),
                a: Reg::new(2),
                imm: 0
            }
        );
    }

    #[test]
    fn error_unknown_mnemonic() {
        let e = assemble("frobnicate r1").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("frobnicate"));
    }

    #[test]
    fn error_undefined_label() {
        let e = assemble("j nowhere").unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn error_duplicate_label() {
        let e = assemble("a:\nnop\na:\nhalt").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn error_wrong_operand_count() {
        let e = assemble("add r1, r2").unwrap_err();
        assert!(e.msg.contains("takes 3"));
    }

    #[test]
    fn error_bad_register() {
        let e = assemble("add r1, r2, r64").unwrap_err();
        assert!(e.msg.contains("register"));
    }

    #[test]
    fn error_instruction_after_data() {
        let e = assemble(".data 0x2000\n.word 1\nnop").unwrap_err();
        assert!(e.msg.contains("after .data"));
    }

    #[test]
    fn error_org_after_code() {
        let e = assemble("nop\n.org 0x4000").unwrap_err();
        assert!(e.msg.contains(".org"));
    }

    #[test]
    fn error_parentheses_out_of_order() {
        for src in ["lw r1, )r2(", "lw r1, 4)r2(", "sw r1, 8)(r2"] {
            let e = assemble(src).unwrap_err();
            assert!(e.msg.contains("unclosed `(`"), "{src}: {e}");
        }
    }

    #[test]
    fn error_negated_immediate_overflows() {
        let e = assemble("li r1, -0x8000000000000000").unwrap_err();
        assert!(e.msg.contains("out of range"), "{e}");
        let p = assemble("li r1, -0x7fffffffffffffff").unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Li {
                d: Reg::new(1),
                imm: -i64::MAX
            }
        );
    }
}
