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
                        *cursor = advance(*cursor, 8, line)?;
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
                    *cursor = advance(*cursor, n as u64, line)?;
                    seg.1.extend(std::iter::repeat_n(0u8, n as usize));
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
                    // The text must end inside the address space, so every
                    // PC and label address is a `u64`.
                    advance(text_base, 4 * next_pc_index, line)?;
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

    fn lower(&self, p: &PendingInstr) -> Result<Instr, AsmError> {
        let o = Operands { asm: self, p };
        if p.mnemonic == "mv" {
            o.want(2)?;
            return Ok(Instr::Addi {
                d: o.reg(0)?,
                a: o.reg(1)?,
                imm: 0,
            });
        }
        Instr::lower(&p.mnemonic, &o)?
            .ok_or_else(|| err(p.line, format!("unknown mnemonic `{}`", p.mnemonic)))
    }
}

/// One instruction line's parsed operands, read in the shapes its opcode's
/// format asks for ([`Instr::lower`], generated from the opcode table).
pub(crate) struct Operands<'a> {
    asm: &'a Assembler,
    p: &'a PendingInstr,
}

impl Operands<'_> {
    /// Checks that the line has exactly `n` operands.
    pub(crate) fn want(&self, n: usize) -> Result<(), AsmError> {
        let got = self.p.operands.len();
        if got == n {
            Ok(())
        } else {
            Err(self.err(format!(
                "`{}` takes {} operand(s), got {}",
                self.p.mnemonic, n, got
            )))
        }
    }

    /// Operand `i` as a register.
    pub(crate) fn reg(&self, i: usize) -> Result<Reg, AsmError> {
        match self.p.operands.get(i) {
            Some(Operand::Reg(r)) => Ok(*r),
            _ => Err(self.err(format!("operand {} must be a register", i + 1))),
        }
    }

    /// Operand `i` as an immediate or a label's address.
    pub(crate) fn imm(&self, i: usize) -> Result<i64, AsmError> {
        match &self.p.operands[i] {
            Operand::Imm(v) => Ok(*v),
            Operand::Label(l) => Ok(self.asm.resolve(l, self.p.line)? as i64),
            _ => Err(self.err("expected an immediate or label".into())),
        }
    }

    /// Operand `i` as `off(base)`, returned as `(off, base)`.
    pub(crate) fn mem(&self, i: usize) -> Result<(i64, Reg), AsmError> {
        match self.p.operands.get(i) {
            Some(Operand::Mem { off, base }) => {
                let off = match off {
                    OffExpr::Imm(v) => *v,
                    OffExpr::Label(l) => self.asm.resolve(l, self.p.line)? as i64,
                };
                Ok((off, *base))
            }
            _ => Err(self.err(format!("operand {} must be off(base)", i + 1))),
        }
    }

    /// Operand `i` as a branch or jump target: a label or an address.
    pub(crate) fn target(&self, i: usize) -> Result<u64, AsmError> {
        match &self.p.operands[i] {
            Operand::Label(l) => self.asm.resolve(l, self.p.line),
            Operand::Imm(v) => Ok(*v as u64),
            _ => Err(self.err("expected a branch/jump target".into())),
        }
    }

    fn err(&self, msg: String) -> AsmError {
        err(self.p.line, msg)
    }
}

fn err(line: usize, msg: String) -> AsmError {
    AsmError { line, msg }
}

/// `addr + len`, or an error if that runs past the end of the address
/// space.
fn advance(addr: u64, len: u64, line: usize) -> Result<u64, AsmError> {
    addr.checked_add(len)
        .ok_or_else(|| err(line, "past the end of the address space".into()))
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
    // The magnitude as a 64-bit word. Hex may use all 64 bits; a decimal
    // magnitude must fit an `i64`, or be 2^63 under a minus sign, so that
    // `i64::MIN` reads back the way `Display` writes it.
    let magnitude = match body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => body
            .replace('_', "")
            .parse::<u64>()
            .ok()
            .filter(|&v| v <= i64::MAX as u64 + u64::from(neg)),
    };
    match magnitude {
        Some(v) if neg => Ok((v as i64).wrapping_neg()),
        Some(v) => Ok(v as i64),
        None => Err(err(line, format!("invalid immediate `{tok}`"))),
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
    fn error_past_the_end_of_the_address_space() {
        for src in [
            ".org 0xfffffffffffffffc\nhalt",
            ".org 0xfffffffffffffff8\nstart: nop\nend: halt",
            "halt\n.data 0xfffffffffffffff8\n.word 1, 2",
            "halt\n.data 0xfffffffffffffff0\n.space 17",
        ] {
            let e = assemble(src).unwrap_err();
            assert!(e.msg.contains("past the end"), "{src}: {e}");
        }
        let p = assemble(".org 0xfffffffffffffff4\nnop\nend: halt").unwrap();
        assert_eq!(p.text_end(), 0xffff_ffff_ffff_fffc);
    }

    #[test]
    fn error_negated_immediate_overflows() {
        // A negated magnitude may be 2^63 (`i64::MIN`), in hex or decimal,
        // but no more.
        for src in ["li r1, -0x8000000000000000", "li r1, -9223372036854775808"] {
            let p = assemble(src).unwrap();
            assert_eq!(
                p.instrs()[0],
                Instr::Li {
                    d: Reg::new(1),
                    imm: i64::MIN
                },
                "{src}"
            );
        }
        for src in ["li r1, -9223372036854775809", "li r1, 9223372036854775808"] {
            let e = assemble(src).unwrap_err();
            assert!(e.msg.contains("invalid immediate"), "{src}: {e}");
        }
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
