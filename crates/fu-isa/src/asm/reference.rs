//! The line assembler as it was before the one-pass lexer: it splits the
//! line into a `Vec` of operands and matches an upper-cased copy of the
//! mnemonic against each unit's table in turn. Kept verbatim as the
//! oracle the differential tests hold [`super::assemble_line`] to.

use super::{user, AsmError, Operand};
use crate::funit_codes;
use crate::instr::{InstrWord, RegNum};
use crate::mgmt::MgmtOp;
use crate::variety::{ArithOp, LogicOp, ShiftVariety};

fn parse_operand(tok: &str, line: usize) -> Result<Operand, AsmError> {
    let err = |msg: String| AsmError { line, msg };
    let parse_num = |s: &str| -> Result<u32, AsmError> {
        let (digits, radix) = if let Some(hex) = s.strip_prefix("0x").or(s.strip_prefix("0X")) {
            (hex, 16)
        } else if let Some(bin) = s.strip_prefix("0b").or(s.strip_prefix("0B")) {
            (bin, 2)
        } else {
            (s, 10)
        };
        u32::from_str_radix(digits, radix).map_err(|_| err(format!("invalid number `{s}`")))
    };
    let reg_num = |s: &str, kind: &str| -> Result<RegNum, AsmError> {
        let n = parse_num(s)?;
        u8::try_from(n).map_err(|_| err(format!("{kind} register {n} out of range (0..=255)")))
    };
    if let Some(rest) = tok.strip_prefix('r').or(tok.strip_prefix('R')) {
        if rest.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return Ok(Operand::Data(reg_num(rest, "data")?));
        }
    }
    if let Some(rest) = tok.strip_prefix('f').or(tok.strip_prefix('F')) {
        if rest.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return Ok(Operand::Flag(reg_num(rest, "flag")?));
        }
    }
    if let Some(rest) = tok.strip_prefix('#') {
        return Ok(Operand::Imm(parse_num(rest)?));
    }
    if tok.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return Ok(Operand::Imm(parse_num(tok)?));
    }
    Err(err(format!("unrecognised operand `{tok}`")))
}

struct Ops<'a> {
    ops: Vec<Operand>,
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

    fn data(&mut self) -> Result<RegNum, AsmError> {
        match self.ops.get(self.idx) {
            Some(Operand::Data(r)) => {
                self.idx += 1;
                Ok(*r)
            }
            other => Err(self.err(format!(
                "expected data register at operand {}, found {other:?}",
                self.idx + 1
            ))),
        }
    }

    fn flag_or(&mut self, default: RegNum) -> Result<RegNum, AsmError> {
        match self.ops.get(self.idx) {
            Some(Operand::Flag(r)) => {
                self.idx += 1;
                Ok(*r)
            }
            None => Ok(default),
            other => Err(self.err(format!(
                "expected flag register at operand {}, found {other:?}",
                self.idx + 1
            ))),
        }
    }

    fn flag(&mut self) -> Result<RegNum, AsmError> {
        match self.ops.get(self.idx) {
            Some(Operand::Flag(r)) => {
                self.idx += 1;
                Ok(*r)
            }
            other => Err(self.err(format!(
                "expected flag register at operand {}, found {other:?}",
                self.idx + 1
            ))),
        }
    }

    fn imm(&mut self) -> Result<u32, AsmError> {
        match self.ops.get(self.idx) {
            Some(Operand::Imm(v)) => {
                self.idx += 1;
                Ok(*v)
            }
            other => Err(self.err(format!(
                "expected immediate at operand {}, found {other:?}",
                self.idx + 1
            ))),
        }
    }

    fn data_or_imm(&mut self) -> Result<Operand, AsmError> {
        match self.ops.get(self.idx) {
            Some(op @ (Operand::Data(_) | Operand::Imm(_))) => {
                self.idx += 1;
                Ok(*op)
            }
            other => Err(self.err(format!(
                "expected data register or immediate at operand {}, found {other:?}",
                self.idx + 1
            ))),
        }
    }

    fn finish(&self) -> Result<(), AsmError> {
        if self.idx == self.ops.len() {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected extra operands after operand {}",
                self.idx
            )))
        }
    }
}

/// Assemble one instruction line (without comments). `line` is used for
/// error reporting only.
pub fn assemble_line(text: &str, line: usize) -> Result<Option<InstrWord>, AsmError> {
    let text = text.split(';').next().unwrap_or("").trim();
    if text.is_empty() {
        return Ok(None);
    }
    let (mnemonic, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    let ops: Result<Vec<Operand>, AsmError> = rest
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|t| parse_operand(t, line))
        .collect();
    let mut o = Ops {
        ops: ops?,
        idx: 0,
        line,
        mnemonic,
    };
    let upper = mnemonic.to_ascii_uppercase();

    // Management primitives.
    let mgmt = match upper.as_str() {
        "NOP" => Some(MgmtOp::Nop),
        "COPY" => Some(MgmtOp::Copy {
            dst: o.data()?,
            src: o.data()?,
        }),
        "LOADI" => Some(MgmtOp::LoadImm {
            dst: o.data()?,
            imm: o.imm()?,
        }),
        "COPYF" => Some(MgmtOp::CopyFlags {
            dst: o.flag()?,
            src: o.flag()?,
        }),
        "SETF" => Some(MgmtOp::SetFlags {
            dst: o.flag()?,
            imm: o.imm()? as u8,
        }),
        "FENCE" => Some(MgmtOp::Fence),
        _ => None,
    };
    if let Some(op) = mgmt {
        o.finish()?;
        return Ok(Some(op.encode()));
    }

    // Arithmetic unit.
    if let Some(op) = ArithOp::from_mnemonic(&upper) {
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
        o.finish()?;
        return Ok(Some(InstrWord::user(u)));
    }

    // Logic unit.
    if let Some(op) = LogicOp::from_mnemonic(&upper) {
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
        o.finish()?;
        return Ok(Some(InstrWord::user(u)));
    }

    // Shift unit.
    let shift = match upper.as_str() {
        "SHL" => Some(ShiftVariety::SHL),
        "SHR" => Some(ShiftVariety::SHR),
        "SAR" => Some(ShiftVariety::SAR),
        "ROL" => Some(ShiftVariety::ROL),
        _ => None,
    };
    if let Some(kind) = shift {
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
        o.finish()?;
        return Ok(Some(InstrWord::user(u)));
    }

    // Floating-point unit.
    let fpu_variety = match upper.as_str() {
        "FADD" => Some(0u8),
        "FSUB" => Some(1),
        "FMUL" => Some(2),
        "FCMP" => Some(3),
        _ => None,
    };
    if let Some(variety) = fpu_variety {
        let mut u = user(funit_codes::FPU, variety);
        if variety == 3 {
            // FCMP rs1, rs2 [, fD] — flags only.
            u.src1 = o.data()?;
            u.src2 = o.data()?;
        } else {
            u.dst_reg = o.data()?;
            u.src1 = o.data()?;
            u.src2 = o.data()?;
        }
        u.dst_flag = o.flag_or(0)?;
        o.finish()?;
        return Ok(Some(InstrWord::user(u)));
    }

    match upper.as_str() {
        "MUL" => {
            let mut u = user(funit_codes::MUL, 0);
            u.dst_reg = o.data()?; // low half
            u.aux_reg = o.data()?; // high half (second destination)
            u.src1 = o.data()?;
            u.src2 = o.data()?;
            u.dst_flag = o.flag_or(0)?;
            o.finish()?;
            Ok(Some(InstrWord::user(u)))
        }
        "DIV" => {
            // DIV rq, rrem, rs1, rs2 — quotient and remainder.
            let mut u = user(funit_codes::DIV, 0);
            u.dst_reg = o.data()?; // quotient
            u.aux_reg = o.data()?; // remainder (second destination)
            u.src1 = o.data()?;
            u.src2 = o.data()?;
            u.dst_flag = o.flag_or(0)?;
            o.finish()?;
            Ok(Some(InstrWord::user(u)))
        }
        "POPCNT" => {
            let mut u = user(funit_codes::POPCOUNT, 0);
            u.dst_reg = o.data()?;
            u.src1 = o.data()?;
            u.dst_flag = o.flag_or(0)?;
            o.finish()?;
            Ok(Some(InstrWord::user(u)))
        }
        _ => Err(AsmError {
            line,
            msg: format!("unknown mnemonic `{mnemonic}`"),
        }),
    }
}

/// The reference's whole-program assembler, as [`super::assemble`] was.
fn assemble(source: &str) -> Result<Vec<InstrWord>, AsmError> {
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        if let Some(w) = assemble_line(line, i + 1)? {
            out.push(w);
        }
    }
    Ok(out)
}

mod tests {
    use proptest::prelude::*;
    use proptest::TestRng;

    use super::super::disassemble;

    /// Every mnemonic with its operand kinds: `D` data register, `F` flag
    /// register, `I` immediate, `X` data register or immediate; lower
    /// case marks a trailing optional operand.
    const FORMS: [(&str, &str); 36] = [
        ("NOP", ""),
        ("COPY", "DD"),
        ("LOADI", "DI"),
        ("COPYF", "FF"),
        ("SETF", "FI"),
        ("FENCE", ""),
        ("ADD", "DDDff"),
        ("ADC", "DDDff"),
        ("SUB", "DDDff"),
        ("SBB", "DDDff"),
        ("INC", "DDf"),
        ("DEC", "DDf"),
        ("NEG", "DDf"),
        ("CMP", "DDff"),
        ("CMPB", "DDff"),
        ("AND", "DDDf"),
        ("OR", "DDDf"),
        ("XOR", "DDDf"),
        ("NAND", "DDDf"),
        ("NOR", "DDDf"),
        ("XNOR", "DDDf"),
        ("NOT", "DDf"),
        ("ANDN", "DDDf"),
        ("LCOPY", "DDf"),
        ("TEST", "DDf"),
        ("SHL", "DDXf"),
        ("SHR", "DDXf"),
        ("SAR", "DDXf"),
        ("ROL", "DDXf"),
        ("FADD", "DDDf"),
        ("FSUB", "DDDf"),
        ("FMUL", "DDDf"),
        ("FCMP", "DDf"),
        ("MUL", "DDDDf"),
        ("DIV", "DDDDf"),
        ("POPCNT", "DDf"),
    ];

    const UNKNOWN: [&str; 8] = [
        "FROB", "ADDX", "POPCNTS", "MOV", "A", "ÄDD", "ADD,", "LOADIMM",
    ];

    /// Separators, Unicode whitespace included (U+00A0, U+2003).
    const SPACES: [&str; 7] = ["", " ", "  ", "\t", "\u{a0}", "\u{2003}", " \t\u{a0}"];

    const BAD: [&str; 22] = [
        "r256",
        "f300",
        "r0x100",
        "R99999999999",
        "0xZZ",
        "0b2",
        "99999999999",
        "#",
        "#-1",
        "0x",
        "1_000",
        "+",
        "#0b",
        "x1",
        "r",
        "f",
        "-3",
        "rx",
        "$5",
        "ä1",
        "r1 r2",
        "#0x1g",
    ];

    fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
        xs[rng.below(xs.len() as u64) as usize]
    }

    fn coin(rng: &mut TestRng, one_in: u64) -> bool {
        rng.below(one_in) == 0
    }

    fn mixed_case(rng: &mut TestRng, s: &str) -> String {
        s.chars()
            .map(|c| {
                if coin(rng, 2) {
                    c.to_ascii_lowercase()
                } else {
                    c
                }
            })
            .collect()
    }

    /// `v` in decimal, hex or binary, either prefix case.
    fn number(rng: &mut TestRng, v: u32) -> String {
        match rng.below(5) {
            0 | 1 => format!("{v}"),
            2 => format!("0x{v:x}"),
            3 => format!("0X{v:X}"),
            _ => format!("{}{v:b}", pick(rng, &["0b", "0B"])),
        }
    }

    fn value(rng: &mut TestRng) -> u32 {
        match rng.below(4) {
            0 => rng.below(16) as u32,
            1 => rng.below(256) as u32,
            2 => pick(rng, &[255, 256, 300, u32::MAX]),
            _ => rng.next_u64() as u32,
        }
    }

    fn operand(rng: &mut TestRng, kind: char) -> String {
        match kind.to_ascii_uppercase() {
            'D' => {
                let r = rng.below(256) as u32;
                format!("{}{}", pick(rng, &["r", "R"]), number(rng, r))
            }
            'F' => {
                let f = rng.below(256) as u32;
                format!("{}{}", pick(rng, &["f", "F"]), number(rng, f))
            }
            'I' => {
                let v = value(rng);
                format!("{}{}", pick(rng, &["", "#"]), number(rng, v))
            }
            _ => {
                let k = pick(rng, &['D', 'I']);
                operand(rng, k)
            }
        }
    }

    /// One source line: valid forms of every mnemonic, mutated into
    /// missing, mistyped, malformed or surplus operands, unknown
    /// mnemonics, blank and comment-only lines.
    fn draw_line(rng: &mut TestRng) -> String {
        if coin(rng, 12) {
            return pick(
                rng,
                &[
                    "",
                    "   ",
                    "\t",
                    "; only a comment",
                    " ;x, y",
                    "\u{a0}",
                    "\r",
                ],
            )
            .into();
        }
        let (mnemonic, kinds) = if coin(rng, 16) {
            (pick(rng, &UNKNOWN), "DDf")
        } else {
            pick(rng, &FORMS)
        };
        let required = kinds.chars().filter(char::is_ascii_uppercase).count();
        let optional = rng.below((kinds.len() - required) as u64 + 1) as usize;
        let mut ops: Vec<String> = kinds
            .chars()
            .take(required + optional)
            .map(|k| operand(rng, k))
            .collect();
        match rng.below(8) {
            0 if !ops.is_empty() => {
                ops.remove(rng.below(ops.len() as u64) as usize);
            }
            1 if !ops.is_empty() => {
                let i = rng.below(ops.len() as u64) as usize;
                let k = pick(rng, &['D', 'F', 'I']);
                ops[i] = operand(rng, k);
            }
            2 if !ops.is_empty() => {
                let i = rng.below(ops.len() as u64) as usize;
                ops[i] = pick(rng, &BAD).into();
            }
            3 => {
                for _ in 0..rng.below(13) {
                    let k = pick(rng, &['D', 'F', 'I']);
                    ops.push(operand(rng, k));
                }
                if ops.len() > 8 && coin(rng, 2) {
                    let i = 8 + rng.below(ops.len() as u64 - 8) as usize;
                    ops[i] = pick(rng, &BAD).into();
                }
            }
            _ => {}
        }
        let mut line = pick(rng, &SPACES).to_string();
        line += &mixed_case(rng, mnemonic);
        for (i, op) in ops.iter().enumerate() {
            if i == 0 {
                line += pick(rng, &[" ", "\t", "\u{a0}", "\u{2003}", " \u{2003}"]);
            } else {
                line += pick(rng, &SPACES);
                line += pick(rng, &[",", ",", ",", ",,", ", ,"]);
            }
            line += pick(rng, &SPACES);
            line += op;
        }
        line += pick(rng, &SPACES);
        if coin(rng, 3) {
            line += pick(rng, &["; trailing", ";", "; a, b ; c", ";\u{2003}é"]);
        }
        if coin(rng, 4) {
            line += "\r";
        }
        line
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass assembler and the reference agree on every drawn
        /// line (the same word or the same error, line number and message
        /// included) and on whole programs joined by LF or CRLF; every
        /// word assembled disassembles to text that assembles back to it.
        #[test]
        fn one_pass_assembler_matches_the_reference(seed: u64) {
            let mut rng = TestRng::new(seed);
            let mut source = String::new();
            for n in 1..=48 {
                let line = draw_line(&mut rng);
                let got = super::super::assemble_line(&line, n);
                prop_assert_eq!(&got, &super::assemble_line(&line, n), "line {:?}", line);
                if let Ok(Some(w)) = got {
                    let text = disassemble(w);
                    prop_assert_eq!(super::super::assemble_line(&text, 1), Ok(Some(w)), "{}", text);
                }
                source += &line;
                source += pick(&mut rng, &["\n", "\n", "\r\n"]);
            }
            prop_assert_eq!(super::super::assemble(&source), super::assemble(&source));
            // A program of only the valid lines assembles in full.
            let valid: String = source
                .lines()
                .filter(|l| super::assemble_line(l, 1).is_ok())
                .map(|l| format!("{l}\r\n"))
                .collect();
            prop_assert_eq!(super::super::assemble(&valid), super::assemble(&valid));
        }
    }

    /// The generator reaches every mnemonic's valid form and every error
    /// the assembler can report, so the property above compares them all.
    #[test]
    fn drawn_lines_cover_every_form_and_error() {
        let mut rng = TestRng::new(0xA55E_4B1E);
        let mut assembled = std::collections::BTreeSet::new();
        let mut errors = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let line = draw_line(&mut rng);
            match super::assemble_line(&line, 1) {
                Ok(Some(_)) => {
                    let m = line.split(';').next().unwrap().split_whitespace().next();
                    assembled.insert(m.unwrap().to_ascii_uppercase());
                }
                Ok(None) => {}
                Err(e) => {
                    let kind = [
                        "invalid number",
                        "out of range",
                        "unrecognised operand",
                        "unknown mnemonic",
                        "expected data register at",
                        "expected flag register",
                        "expected immediate",
                        "expected data register or immediate",
                        "extra operands",
                        "exceeds 8 bits",
                    ]
                    .into_iter()
                    .find(|k| e.msg.contains(k));
                    errors.insert(kind.unwrap_or_else(|| panic!("unclassified {e}")));
                }
            }
        }
        for (m, _) in FORMS {
            assert!(assembled.contains(m), "{m} never assembled");
        }
        assert_eq!(errors.len(), 10, "errors seen: {errors:?}");
    }
}
