//! An independent golden model of the coprocessor's register and flag
//! files, shared by the root integration tests (`mod golden;`). It
//! interprets each operation with `u64` arithmetic, never touching the
//! simulator's `Word`/variety machinery, so agreement with it checks the
//! whole stack: framing, decode, interlocks, dispatch, kernels, write
//! arbitration and response ordering.

use fu_isa::variety::{ArithOp, LogicOp};

/// Independent interpretation of the instruction stream.
#[derive(Debug, Clone)]
pub struct Golden {
    pub regs: Vec<u32>,
    pub flags: Vec<(bool, bool, bool, bool)>, // C, Z, N, V
}

impl Golden {
    pub fn new(n_regs: usize, n_flags: usize) -> Golden {
        Golden {
            regs: vec![0; n_regs],
            flags: vec![(false, false, false, false); n_flags],
        }
    }

    fn set_flags(&mut self, f: usize, full: u64, signed_ovf: bool) {
        let r = full as u32;
        self.flags[f] = (full >> 32 != 0, r == 0, r >> 31 == 1, signed_ovf);
    }

    pub fn arith(&mut self, op: ArithOp, d: usize, s1: usize, s2: usize, fd: usize, fs: usize) {
        let a = self.regs[s1] as u64;
        let b = self.regs[s2] as u64;
        let carry_in = self.flags[fs].0;
        let (x, y, ci) = match op {
            ArithOp::Add => (a, b, false),
            ArithOp::Adc => (a, b, carry_in),
            ArithOp::Sub | ArithOp::Cmp => (a, !b & 0xffff_ffff, true),
            ArithOp::Sbb | ArithOp::Cmpb => (a, !b & 0xffff_ffff, carry_in),
            ArithOp::Inc => (a, 0, true),
            ArithOp::Dec => (a, 0xffff_ffff, false),
            ArithOp::Neg => (0, !b & 0xffff_ffff, true),
        };
        let full = x + y + ci as u64;
        let res = full as u32;
        let sa = (x as u32) >> 31 == 1;
        let sb = (y as u32) >> 31 == 1;
        let sr = res >> 31 == 1;
        self.set_flags(fd, full, sa == sb && sa != sr);
        if !matches!(op, ArithOp::Cmp | ArithOp::Cmpb) {
            self.regs[d] = res;
        }
    }

    pub fn logic(&mut self, op: LogicOp, d: usize, s1: usize, s2: usize, fd: usize) {
        let a = self.regs[s1];
        let b = self.regs[s2];
        let r = match op {
            LogicOp::And | LogicOp::Test => a & b,
            LogicOp::Or => a | b,
            LogicOp::Xor => a ^ b,
            LogicOp::Nand => !(a & b),
            LogicOp::Nor => !(a | b),
            LogicOp::Xnor => !(a ^ b),
            LogicOp::Not => !a,
            LogicOp::Andn => a & !b,
            LogicOp::Copy => a,
        };
        self.flags[fd] = (false, r == 0, r >> 31 == 1, false);
        if op != LogicOp::Test {
            self.regs[d] = r;
        }
    }
}
