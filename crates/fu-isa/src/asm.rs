//! A small textual assembler and disassembler for RTM programs.
//!
//! The RTM has no program counter — the host streams instruction words to
//! the coprocessor — so an "RTM program" is simply a list of instruction
//! words the host will transmit. The examples and tests author these in a
//! tiny assembly dialect rather than raw hex:
//!
//! ```text
//! ; compute (a + b) - c with flags in f1
//! LOADI r1, 100
//! LOADI r2, 23
//! ADD   r3, r1, r2, f1
//! SUB   r3, r3, r4, f1
//! FENCE
//! ```
//!
//! Operand conventions per mnemonic (defaults: flag registers `f0`):
//!
//! | form | syntax |
//! |------|--------|
//! | arithmetic, 2 sources | `ADD rd, rs1, rs2 [, fD [, fS]]` (ADC/SBB/CMPB read carry from `fS`) |
//! | INC/DEC | `INC rd, rs [, fD]` |
//! | NEG (operates on the *second* operand, per the thesis) | `NEG rd, rs [, fD]` |
//! | CMP/CMPB (no data result) | `CMP rs1, rs2 [, fD [, fS]]` |
//! | logic, 2 sources | `AND rd, rs1, rs2 [, fD]` |
//! | NOT / LCOPY | `NOT rd, rs [, fD]` |
//! | TEST | `TEST rs1, rs2 [, fD]` |
//! | shifts | `SHL rd, rs1, rs2` or `SHL rd, rs1, #imm` |
//! | widening multiply | `MUL rlo, rhi, rs1, rs2` |
//! | divide (quotient + remainder) | `DIV rq, rrem, rs1, rs2` |
//! | floating point | `FADD/FSUB/FMUL rd, rs1, rs2 [, fD]`, `FCMP rs1, rs2 [, fD]` |
//! | popcount | `POPCNT rd, rs` |
//! | management | `NOP`, `COPY rd, rs`, `LOADI rd, imm`, `COPYF fd, fs`, `SETF fd, imm`, `FENCE` |
//!
//! # The line lexer
//!
//! The host assembles every word of every job it streams, so
//! [`assemble_line`] makes one left-to-right pass over the bytes of a
//! line and allocates nothing unless it reports an error. It skips
//! leading whitespace (`char::is_whitespace`, so U+00A0 and U+2003
//! count) and takes the mnemonic up to the first whitespace character or
//! `;`. From there each comma starts an operand token, trimmed of
//! whitespace and skipped when empty, until the `;` of a comment or the
//! end of the line. Each token is parsed as it ends, into a fixed inline
//! array of operands. Tokens past the array are still parsed and
//! counted, so a malformed operand anywhere on the line is reported
//! before the mnemonic is looked at. The mnemonic is then upper-cased
//! into a six-byte buffer and matched once. Its arm reads the operands it
//! expects, and any left over are the "extra operands" error. A valid
//! line never builds an error value: those are made only on the way out.
//! [`assemble`] splits lines at `\n` and sizes its output once from the
//! source's length, so a program costs one allocation whatever its
//! length.

use crate::funit_codes;
use crate::instr::{InstrWord, RegNum, UserInstr};
use crate::mgmt::MgmtOp;
use crate::variety::{ArithOp, LogicOp, ShiftVariety};

#[cfg(test)]
mod reference;

/// An assembly error with its source line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// Operand kinds after lexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Data(RegNum),
    Flag(RegNum),
    Imm(u32),
}

/// Operands a line keeps inline. No form reads past its fifth operand;
/// the rest are lexed and counted only.
const INLINE_OPS: usize = 8;

fn parse_num(s: &str) -> Option<u32> {
    let (digits, radix) = match s.as_bytes() {
        [b'0', b'x' | b'X', ..] => (&s[2..], 16),
        [b'0', b'b' | b'B', ..] => (&s[2..], 2),
        _ => (s, 10),
    };
    u32::from_str_radix(digits, radix).ok()
}

/// Byte length of the whitespace character (`char::is_whitespace`) that
/// starts at byte `i` of `s`, or 0. Only the first byte of a multi-byte
/// character can start one, so a scan may step through the rest byte by
/// byte.
#[inline]
fn space_len(s: &str, i: usize) -> usize {
    match s.as_bytes()[i] {
        b' ' | b'\t'..=b'\r' => 1,
        0..=0xbf => 0,
        _ => wide_space_len(&s[i..]),
    }
}

#[cold]
fn wide_space_len(s: &str) -> usize {
    s.chars()
        .next()
        .filter(|c| c.is_whitespace())
        .map_or(0, char::len_utf8)
}

/// The operand a non-empty, trimmed token spells, if any. Its error
/// is built apart, by [`operand_error`], so the hot path returns a
/// register-sized value.
fn parse_operand(tok: &str) -> Option<Operand> {
    match tok.as_bytes() {
        [b'r' | b'R', b'0'..=b'9', ..] => parse_num(&tok[1..])?.try_into().ok().map(Operand::Data),
        [b'f' | b'F', b'0'..=b'9', ..] => parse_num(&tok[1..])?.try_into().ok().map(Operand::Flag),
        [b'#', ..] => parse_num(&tok[1..]).map(Operand::Imm),
        [b'0'..=b'9', ..] => parse_num(tok).map(Operand::Imm),
        _ => None,
    }
}

/// Why [`parse_operand`] rejected `tok`.
#[cold]
fn operand_error(tok: &str, line: usize) -> AsmError {
    let (kind, digits) = match tok.as_bytes() {
        [b'r' | b'R', b'0'..=b'9', ..] => ("data", &tok[1..]),
        [b'f' | b'F', b'0'..=b'9', ..] => ("flag", &tok[1..]),
        [b'#', ..] => ("", &tok[1..]),
        [b'0'..=b'9', ..] => ("", tok),
        _ => {
            return AsmError {
                line,
                msg: format!("unrecognised operand `{tok}`"),
            }
        }
    };
    let msg = match parse_num(digits) {
        // Only a register number can parse and still be rejected.
        Some(n) => format!("{kind} register {n} out of range (0..=255)"),
        None => format!("invalid number `{digits}`"),
    };
    AsmError { line, msg }
}

/// A line's lexed operands and the read cursor of its mnemonic's arm.
struct Ops<'a> {
    ops: [Operand; INLINE_OPS],
    /// Operands lexed, including any beyond the inline array.
    len: usize,
    idx: usize,
    line: usize,
    mnemonic: &'a str,
}

impl<'a> Ops<'a> {
    fn err(&self, msg: String) -> AsmError {
        AsmError {
            line: self.line,
            msg: format!("{}: {msg}", self.mnemonic),
        }
    }

    /// The operand under the cursor; `None` past the last one.
    fn peek(&self) -> Option<&Operand> {
        debug_assert!(
            self.idx < INLINE_OPS,
            "no form reads past the inline operands"
        );
        self.ops[..self.len.min(INLINE_OPS)].get(self.idx)
    }

    /// Take the operand under the cursor when `accept` maps it; otherwise
    /// report `want` against what is there.
    fn expect<T>(
        &mut self,
        want: &str,
        accept: impl Fn(Operand) -> Option<T>,
    ) -> Result<T, AsmError> {
        match self.peek().copied().and_then(&accept) {
            Some(v) => {
                self.idx += 1;
                Ok(v)
            }
            None => Err(self.expected(want)),
        }
    }

    /// Kept out of line, so that the operand readers inline into each
    /// form without their error formatting.
    #[cold]
    fn expected(&self, want: &str) -> AsmError {
        self.err(format!(
            "expected {want} at operand {}, found {:?}",
            self.idx + 1,
            self.peek()
        ))
    }

    fn data(&mut self) -> Result<RegNum, AsmError> {
        self.expect("data register", |op| match op {
            Operand::Data(r) => Some(r),
            _ => None,
        })
    }

    fn flag(&mut self) -> Result<RegNum, AsmError> {
        self.expect("flag register", |op| match op {
            Operand::Flag(r) => Some(r),
            _ => None,
        })
    }

    fn flag_or(&mut self, default: RegNum) -> Result<RegNum, AsmError> {
        if self.peek().is_none() {
            return Ok(default);
        }
        self.flag()
    }

    fn imm(&mut self) -> Result<u32, AsmError> {
        self.expect("immediate", |op| match op {
            Operand::Imm(v) => Some(v),
            _ => None,
        })
    }

    fn data_or_imm(&mut self) -> Result<Operand, AsmError> {
        self.expect("data register or immediate", |op| match op {
            Operand::Flag(_) => None,
            op => Some(op),
        })
    }

    fn finish(&self) -> Result<(), AsmError> {
        if self.idx == self.len {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected extra operands after operand {}",
                self.idx
            )))
        }
    }
}

fn user(func: u8, variety: u8) -> UserInstr {
    UserInstr {
        func,
        variety,
        dst_flag: 0,
        dst_reg: 0,
        aux_reg: 0,
        src1: 0,
        src2: 0,
        src3: 0,
    }
}

fn arith(o: &mut Ops, op: ArithOp) -> Result<UserInstr, AsmError> {
    let mut u = user(funit_codes::ARITH, op.variety().0);
    match op {
        ArithOp::Add | ArithOp::Adc | ArithOp::Sub | ArithOp::Sbb => {
            u.dst_reg = o.data()?;
            u.src1 = o.data()?;
            u.src2 = o.data()?;
            u.dst_flag = o.flag_or(0)?;
            u.aux_reg = o.flag_or(0)?;
        }
        ArithOp::Inc | ArithOp::Dec => {
            u.dst_reg = o.data()?;
            u.src1 = o.data()?;
            u.dst_flag = o.flag_or(0)?;
        }
        ArithOp::Neg => {
            u.dst_reg = o.data()?;
            u.src2 = o.data()?; // NEG works on the second operand
            u.dst_flag = o.flag_or(0)?;
        }
        ArithOp::Cmp | ArithOp::Cmpb => {
            u.src1 = o.data()?;
            u.src2 = o.data()?;
            u.dst_flag = o.flag_or(0)?;
            u.aux_reg = o.flag_or(0)?;
        }
    }
    Ok(u)
}

fn logic(o: &mut Ops, op: LogicOp) -> Result<UserInstr, AsmError> {
    let mut u = user(funit_codes::LOGIC, op.variety().0);
    match op {
        LogicOp::Not | LogicOp::Copy => {
            u.dst_reg = o.data()?;
            u.src1 = o.data()?;
        }
        LogicOp::Test => {
            u.src1 = o.data()?;
            u.src2 = o.data()?;
        }
        _ => {
            u.dst_reg = o.data()?;
            u.src1 = o.data()?;
            u.src2 = o.data()?;
        }
    }
    u.dst_flag = o.flag_or(0)?;
    Ok(u)
}

fn shift(o: &mut Ops, kind: ShiftVariety) -> Result<UserInstr, AsmError> {
    let mut u = user(funit_codes::SHIFT, kind.0);
    u.dst_reg = o.data()?;
    u.src1 = o.data()?;
    match o.data_or_imm()? {
        Operand::Data(r) => u.src2 = r,
        Operand::Imm(v) => {
            if v > 255 {
                return Err(o.err(format!("shift amount {v} exceeds 8 bits")));
            }
            u.variety |= ShiftVariety::IMM_AMOUNT;
            u.src3 = v as u8;
        }
        Operand::Flag(_) => unreachable!("data_or_imm filters flags"),
    }
    u.dst_flag = o.flag_or(0)?;
    Ok(u)
}

/// FADD/FSUB/FMUL (`rd, rs1, rs2`) and FCMP (variety 3: `rs1, rs2`, flags
/// only).
fn fpu(o: &mut Ops, variety: u8) -> Result<UserInstr, AsmError> {
    let mut u = user(funit_codes::FPU, variety);
    if variety != 3 {
        u.dst_reg = o.data()?;
    }
    u.src1 = o.data()?;
    u.src2 = o.data()?;
    u.dst_flag = o.flag_or(0)?;
    Ok(u)
}

/// MUL (`rlo, rhi, rs1, rs2`) and DIV (`rq, rrem, rs1, rs2`): the second
/// destination travels in the aux field.
fn two_results(o: &mut Ops, func: u8) -> Result<UserInstr, AsmError> {
    let mut u = user(func, 0);
    u.dst_reg = o.data()?;
    u.aux_reg = o.data()?;
    u.src1 = o.data()?;
    u.src2 = o.data()?;
    u.dst_flag = o.flag_or(0)?;
    Ok(u)
}

/// Assemble one instruction line; `;` starts a comment. `line` is used
/// for error reporting only.
pub fn assemble_line(text: &str, line: usize) -> Result<Option<InstrWord>, AsmError> {
    let bytes = text.as_bytes();
    let skip_space = |mut i: usize| {
        while i < bytes.len() {
            match space_len(text, i) {
                0 => break,
                n => i += n,
            }
        }
        i
    };
    let start = skip_space(0);
    let mut i = start;
    while i < bytes.len() && bytes[i] != b';' && space_len(text, i) == 0 {
        i += 1;
    }
    let mnemonic = &text[start..i];
    if mnemonic.is_empty() {
        return Ok(None);
    }
    let mut o = Ops {
        ops: [Operand::Imm(0); INLINE_OPS],
        len: 0,
        idx: 0,
        line,
        mnemonic,
    };
    // One operand per comma up to the comment, trimmed; empty ones are
    // skipped. `end` follows the token's last non-space byte.
    loop {
        let start = skip_space(i);
        let mut end = start;
        i = start;
        while i < bytes.len() && bytes[i] != b',' && bytes[i] != b';' {
            let space = match bytes[i] {
                b'!'..=b'~' => 0,
                _ => space_len(text, i),
            };
            if space == 0 {
                i += 1;
                end = i;
            } else {
                i += space;
            }
        }
        if end > start {
            let tok = &text[start..end];
            let op = parse_operand(tok).ok_or_else(|| operand_error(tok, line))?;
            if let Some(slot) = o.ops.get_mut(o.len) {
                *slot = op;
            }
            o.len += 1;
        }
        if bytes.get(i) != Some(&b',') {
            break;
        }
        i += 1;
    }

    // Upper-case into a buffer as long as the longest mnemonic; a longer
    // one matches nothing.
    let mut buf = [0u8; 6];
    let key = match buf.get_mut(..mnemonic.len()) {
        Some(key) => {
            key.copy_from_slice(mnemonic.as_bytes());
            key.make_ascii_uppercase();
            &*key
        }
        None => &[],
    };
    let word = match key {
        b"NOP" => MgmtOp::Nop.encode(),
        b"COPY" => MgmtOp::Copy {
            dst: o.data()?,
            src: o.data()?,
        }
        .encode(),
        b"LOADI" => MgmtOp::LoadImm {
            dst: o.data()?,
            imm: o.imm()?,
        }
        .encode(),
        b"COPYF" => MgmtOp::CopyFlags {
            dst: o.flag()?,
            src: o.flag()?,
        }
        .encode(),
        b"SETF" => MgmtOp::SetFlags {
            dst: o.flag()?,
            imm: o.imm()? as u8,
        }
        .encode(),
        b"FENCE" => MgmtOp::Fence.encode(),
        b"ADD" => InstrWord::user(arith(&mut o, ArithOp::Add)?),
        b"ADC" => InstrWord::user(arith(&mut o, ArithOp::Adc)?),
        b"SUB" => InstrWord::user(arith(&mut o, ArithOp::Sub)?),
        b"SBB" => InstrWord::user(arith(&mut o, ArithOp::Sbb)?),
        b"INC" => InstrWord::user(arith(&mut o, ArithOp::Inc)?),
        b"DEC" => InstrWord::user(arith(&mut o, ArithOp::Dec)?),
        b"NEG" => InstrWord::user(arith(&mut o, ArithOp::Neg)?),
        b"CMP" => InstrWord::user(arith(&mut o, ArithOp::Cmp)?),
        b"CMPB" => InstrWord::user(arith(&mut o, ArithOp::Cmpb)?),
        b"AND" => InstrWord::user(logic(&mut o, LogicOp::And)?),
        b"OR" => InstrWord::user(logic(&mut o, LogicOp::Or)?),
        b"XOR" => InstrWord::user(logic(&mut o, LogicOp::Xor)?),
        b"NAND" => InstrWord::user(logic(&mut o, LogicOp::Nand)?),
        b"NOR" => InstrWord::user(logic(&mut o, LogicOp::Nor)?),
        b"XNOR" => InstrWord::user(logic(&mut o, LogicOp::Xnor)?),
        b"NOT" => InstrWord::user(logic(&mut o, LogicOp::Not)?),
        b"ANDN" => InstrWord::user(logic(&mut o, LogicOp::Andn)?),
        b"LCOPY" => InstrWord::user(logic(&mut o, LogicOp::Copy)?),
        b"TEST" => InstrWord::user(logic(&mut o, LogicOp::Test)?),
        b"SHL" => InstrWord::user(shift(&mut o, ShiftVariety::SHL)?),
        b"SHR" => InstrWord::user(shift(&mut o, ShiftVariety::SHR)?),
        b"SAR" => InstrWord::user(shift(&mut o, ShiftVariety::SAR)?),
        b"ROL" => InstrWord::user(shift(&mut o, ShiftVariety::ROL)?),
        b"FADD" => InstrWord::user(fpu(&mut o, 0)?),
        b"FSUB" => InstrWord::user(fpu(&mut o, 1)?),
        b"FMUL" => InstrWord::user(fpu(&mut o, 2)?),
        b"FCMP" => InstrWord::user(fpu(&mut o, 3)?),
        b"MUL" => InstrWord::user(two_results(&mut o, funit_codes::MUL)?),
        b"DIV" => InstrWord::user(two_results(&mut o, funit_codes::DIV)?),
        b"POPCNT" => {
            let mut u = user(funit_codes::POPCOUNT, 0);
            u.dst_reg = o.data()?;
            u.src1 = o.data()?;
            u.dst_flag = o.flag_or(0)?;
            InstrWord::user(u)
        }
        _ => {
            return Err(AsmError {
                line,
                msg: format!("unknown mnemonic `{mnemonic}`"),
            })
        }
    };
    o.finish()?;
    Ok(Some(word))
}

/// Assemble a multi-line program. Blank lines and `;` comments are
/// ignored.
///
/// ```
/// use fu_isa::asm::{assemble, disassemble};
///
/// let program = assemble(
///     "LOADI r1, 100      ; management primitive
///      ADD r3, r1, r2, f1 ; arithmetic unit, flags to f1
///      FENCE",
/// ).unwrap();
/// assert_eq!(program.len(), 3);
/// assert!(!program[0].is_user());
/// assert!(program[1].is_user());
/// assert_eq!(disassemble(program[2]), "FENCE");
/// ```
pub fn assemble(source: &str) -> Result<Vec<InstrWord>, AsmError> {
    // A word's line holds at least three bytes (`NOP`) and, unless it is
    // the last, a newline: one allocation for any program.
    let mut out = Vec::with_capacity((source.len() + 1) / 4);
    // Lines end at `\n`; a `\r` before it is trailing whitespace.
    let mut start = 0;
    for (i, bytes) in source.as_bytes().split(|&b| b == b'\n').enumerate() {
        let line = &source[start..start + bytes.len()];
        start += bytes.len() + 1;
        if let Some(w) = assemble_line(line, i + 1)? {
            out.push(w);
        }
    }
    Ok(out)
}

/// Disassemble one instruction word back to text (best effort: unknown
/// encodings render as raw `.word` directives).
pub fn disassemble(w: InstrWord) -> String {
    if !w.is_user() {
        return match MgmtOp::decode(w) {
            Ok(MgmtOp::Nop) => "NOP".into(),
            Ok(MgmtOp::Copy { dst, src }) => format!("COPY r{dst}, r{src}"),
            Ok(MgmtOp::LoadImm { dst, imm }) => format!("LOADI r{dst}, {imm:#x}"),
            Ok(MgmtOp::CopyFlags { dst, src }) => format!("COPYF f{dst}, f{src}"),
            Ok(MgmtOp::SetFlags { dst, imm }) => format!("SETF f{dst}, {imm:#x}"),
            Ok(MgmtOp::Fence) => "FENCE".into(),
            Err(_) => format!(".word {:#018x}", w.0),
        };
    }
    let u = w.as_user();
    match u.func {
        funit_codes::ARITH => {
            if let Some(op) = ArithOp::from_variety(crate::variety::ArithVariety(u.variety)) {
                let m = op.mnemonic();
                return match op {
                    ArithOp::Add | ArithOp::Adc | ArithOp::Sub | ArithOp::Sbb => format!(
                        "{m} r{}, r{}, r{}, f{}, f{}",
                        u.dst_reg, u.src1, u.src2, u.dst_flag, u.aux_reg
                    ),
                    ArithOp::Inc | ArithOp::Dec => {
                        format!("{m} r{}, r{}, f{}", u.dst_reg, u.src1, u.dst_flag)
                    }
                    ArithOp::Neg => format!("{m} r{}, r{}, f{}", u.dst_reg, u.src2, u.dst_flag),
                    ArithOp::Cmp | ArithOp::Cmpb => format!(
                        "{m} r{}, r{}, f{}, f{}",
                        u.src1, u.src2, u.dst_flag, u.aux_reg
                    ),
                };
            }
            format!(".word {:#018x}", w.0)
        }
        funit_codes::LOGIC => {
            let v = crate::variety::LogicVariety(u.variety);
            let named = LogicOp::ALL.into_iter().find(|op| op.variety() == v);
            match named {
                Some(op @ (LogicOp::Not | LogicOp::Copy)) => format!(
                    "{} r{}, r{}, f{}",
                    op.mnemonic(),
                    u.dst_reg,
                    u.src1,
                    u.dst_flag
                ),
                Some(LogicOp::Test) => {
                    format!("TEST r{}, r{}, f{}", u.src1, u.src2, u.dst_flag)
                }
                Some(op) => format!(
                    "{} r{}, r{}, r{}, f{}",
                    op.mnemonic(),
                    u.dst_reg,
                    u.src1,
                    u.src2,
                    u.dst_flag
                ),
                None => format!(".word {:#018x}", w.0),
            }
        }
        funit_codes::SHIFT => {
            let m = match u.variety & 0b11 {
                0b00 => "SHL",
                0b01 => "SHR",
                0b10 => "SAR",
                _ => "ROL",
            };
            if u.variety & ShiftVariety::IMM_AMOUNT != 0 {
                format!(
                    "{m} r{}, r{}, #{}, f{}",
                    u.dst_reg, u.src1, u.src3, u.dst_flag
                )
            } else {
                format!(
                    "{m} r{}, r{}, r{}, f{}",
                    u.dst_reg, u.src1, u.src2, u.dst_flag
                )
            }
        }
        funit_codes::MUL => format!(
            "MUL r{}, r{}, r{}, r{}, f{}",
            u.dst_reg, u.aux_reg, u.src1, u.src2, u.dst_flag
        ),
        funit_codes::DIV => format!(
            "DIV r{}, r{}, r{}, r{}, f{}",
            u.dst_reg, u.aux_reg, u.src1, u.src2, u.dst_flag
        ),
        funit_codes::FPU => match u.variety {
            0 => format!(
                "FADD r{}, r{}, r{}, f{}",
                u.dst_reg, u.src1, u.src2, u.dst_flag
            ),
            1 => format!(
                "FSUB r{}, r{}, r{}, f{}",
                u.dst_reg, u.src1, u.src2, u.dst_flag
            ),
            2 => format!(
                "FMUL r{}, r{}, r{}, f{}",
                u.dst_reg, u.src1, u.src2, u.dst_flag
            ),
            3 => format!("FCMP r{}, r{}, f{}", u.src1, u.src2, u.dst_flag),
            _ => format!(".word {:#018x}", w.0),
        },
        funit_codes::POPCOUNT => {
            format!("POPCNT r{}, r{}, f{}", u.dst_reg, u.src1, u.dst_flag)
        }
        _ => format!(".word {:#018x}", w.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_blanks_skipped() {
        let prog = assemble("; header\n\n  ; indented comment\nNOP ; trailing\n").unwrap();
        assert_eq!(prog.len(), 1);
        assert_eq!(prog[0], MgmtOp::Nop.encode());
    }

    #[test]
    fn arithmetic_forms() {
        let w = assemble_line("ADD r3, r1, r2, f1", 1).unwrap().unwrap();
        let u = w.as_user();
        assert_eq!(u.func, funit_codes::ARITH);
        assert_eq!(u.variety, ArithOp::Add.variety().0);
        assert_eq!((u.dst_reg, u.src1, u.src2, u.dst_flag), (3, 1, 2, 1));

        let w = assemble_line("adc r3, r1, r2, f1, f2", 1).unwrap().unwrap();
        let u = w.as_user();
        assert_eq!(u.aux_reg, 2, "ADC's carry source flag register");

        let w = assemble_line("NEG r5, r6", 1).unwrap().unwrap();
        let u = w.as_user();
        assert_eq!(u.src2, 6, "NEG takes the second operand slot");
        assert_eq!(u.src1, 0);

        let w = assemble_line("CMP r1, r2, f3", 1).unwrap().unwrap();
        let u = w.as_user();
        assert_eq!(u.dst_reg, 0, "CMP writes no data register");
        assert_eq!(u.dst_flag, 3);
    }

    #[test]
    fn default_flag_register_is_f0() {
        let u = assemble_line("ADD r1, r2, r3", 1)
            .unwrap()
            .unwrap()
            .as_user();
        assert_eq!(u.dst_flag, 0);
        assert_eq!(u.aux_reg, 0);
    }

    #[test]
    fn logic_and_shift_forms() {
        let u = assemble_line("XOR r1, r2, r3", 1)
            .unwrap()
            .unwrap()
            .as_user();
        assert_eq!(u.func, funit_codes::LOGIC);
        assert_eq!(u.variety, LogicOp::Xor.variety().0);

        let u = assemble_line("NOT r1, r2", 1).unwrap().unwrap().as_user();
        assert_eq!(u.variety, LogicOp::Not.variety().0);

        let u = assemble_line("SHL r1, r2, #5", 1)
            .unwrap()
            .unwrap()
            .as_user();
        assert_eq!(u.func, funit_codes::SHIFT);
        assert!(u.variety & ShiftVariety::IMM_AMOUNT != 0);
        assert_eq!(u.src3, 5);

        let u = assemble_line("SAR r1, r2, r3", 1)
            .unwrap()
            .unwrap()
            .as_user();
        assert_eq!(u.variety & 0b11, ShiftVariety::SAR.0);
        assert_eq!(u.src2, 3);
    }

    #[test]
    fn mul_and_popcnt_forms() {
        let u = assemble_line("MUL r1, r2, r3, r4", 1)
            .unwrap()
            .unwrap()
            .as_user();
        assert_eq!((u.dst_reg, u.aux_reg, u.src1, u.src2), (1, 2, 3, 4));
        let u = assemble_line("POPCNT r9, r8", 1)
            .unwrap()
            .unwrap()
            .as_user();
        assert_eq!((u.dst_reg, u.src1), (9, 8));
    }

    #[test]
    fn mgmt_forms() {
        assert_eq!(
            assemble_line("LOADI r7, 0x1234", 1).unwrap().unwrap(),
            MgmtOp::LoadImm {
                dst: 7,
                imm: 0x1234
            }
            .encode()
        );
        assert_eq!(
            assemble_line("SETF f2, 0b101", 1).unwrap().unwrap(),
            MgmtOp::SetFlags { dst: 2, imm: 0b101 }.encode()
        );
        assert_eq!(
            assemble_line("COPY r1, r2", 1).unwrap().unwrap(),
            MgmtOp::Copy { dst: 1, src: 2 }.encode()
        );
        assert_eq!(
            assemble_line("FENCE", 1).unwrap().unwrap(),
            MgmtOp::Fence.encode()
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("NOP\nFROB r1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("FROB"));

        let err = assemble_line("ADD r1, f2, r3", 7).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.msg.contains("expected data register"));

        let err = assemble_line("ADD r1, r2, r3, r4", 1).unwrap_err();
        assert!(err.msg.contains("expected flag register"));

        let err = assemble_line("NOP r1", 1).unwrap_err();
        assert!(err.msg.contains("extra operands"));

        let err = assemble_line("LOADI r1, 99999999999", 1).unwrap_err();
        assert!(err.msg.contains("invalid number"));

        let err = assemble_line("COPY r1, r300", 1).unwrap_err();
        assert!(err.msg.contains("out of range"));

        let err = assemble_line("SHL r1, r2, #300", 1).unwrap_err();
        assert!(err.msg.contains("exceeds 8 bits"));
    }

    #[test]
    fn disassemble_roundtrips_through_assembler() {
        let source = "\
ADD r3, r1, r2, f1, f0
ADC r3, r1, r2, f1, f2
SUB r4, r3, r2, f0, f0
INC r5, r5, f0
NEG r6, r7, f2
CMP r1, r2, f3, f0
CMPB r1, r2, f3, f4
AND r1, r2, r3, f0
NOT r4, r5, f0
TEST r1, r2, f7
SHL r1, r2, #31, f0
ROL r1, r2, r3, f0
MUL r1, r2, r3, r4, f0
DIV r5, r6, r7, r8, f1
FADD r1, r2, r3, f1
FSUB r1, r2, r3, f1
FMUL r1, r2, r3, f2
FCMP r2, r3, f3
POPCNT r9, r8, f0
COPY r1, r2
LOADI r7, 0xff
COPYF f1, f2
SETF f3, 0x15
FENCE
NOP";
        let words = assemble(source).unwrap();
        assert_eq!(words.len(), 25);
        for w in words {
            let text = disassemble(w);
            let again = assemble_line(&text, 1).unwrap().unwrap();
            assert_eq!(again, w, "disassembly `{text}` did not roundtrip");
        }
    }

    #[test]
    fn unknown_words_render_as_directives() {
        let w = InstrWord::user(UserInstr {
            func: 0x7f,
            variety: 0,
            dst_flag: 0,
            dst_reg: 0,
            aux_reg: 0,
            src1: 0,
            src2: 0,
            src3: 0,
        });
        assert!(disassemble(w).starts_with(".word"));
        let w = InstrWord::mgmt(0x70, 0, 0, 0);
        assert!(disassemble(w).starts_with(".word"));
    }
}
