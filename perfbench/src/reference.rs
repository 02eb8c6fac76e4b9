//! Input generation and the reference model the outputs are checked
//! against.
//!
//! The benchmark owns both. The program under test only ever sees the
//! generated jobs, and its answers are compared with a 32-bit
//! interpreter that shares no code with the simulated pipeline.

/// splitmix64: a seedable, stateless-per-index generator.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sequential generator over [`splitmix64`].
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator keyed by `seed` and a per-stream `salt`, so the
    /// workloads' streams are independent for one seed.
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(splitmix64(seed ^ salt.wrapping_mul(0xD129_42E2_96FE_945F)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Registers an arithmetic job loads, computes on and reads back.
pub const ARITH_REGS: usize = 8;

/// The two-operand ALU operations the arithmetic jobs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Wrapping 32-bit addition.
    Add,
    /// Wrapping 32-bit subtraction, `a − b`.
    Sub,
    /// Bitwise exclusive or.
    Xor,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
}

impl Op {
    const ALL: [Op; 5] = [Op::Add, Op::Sub, Op::Xor, Op::Or, Op::And];

    fn mnemonic(self) -> &'static str {
        match self {
            Op::Add => "ADD",
            Op::Sub => "SUB",
            Op::Xor => "XOR",
            Op::Or => "OR",
            Op::And => "AND",
        }
    }

    /// What the operation computes on 32-bit words.
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            Op::Add => a.wrapping_add(b),
            Op::Sub => a.wrapping_sub(b),
            Op::Xor => a ^ b,
            Op::Or => a | b,
            Op::And => a & b,
        }
    }
}

/// One register-to-register instruction: `dst ← a op b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Operation.
    pub op: Op,
    /// Destination register.
    pub dst: u8,
    /// First source register.
    pub a: u8,
    /// Second source register.
    pub b: u8,
}

/// A self-contained arithmetic program: load every register it uses with
/// an immediate, run `ops`, read every register back. It never depends
/// on what ran on its shard before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArithProgram {
    /// Immediate loaded into `r0..r7` before the first operation.
    pub init: [u32; ARITH_REGS],
    /// The operations, in program order.
    pub ops: Vec<Instr>,
}

impl ArithProgram {
    /// A random program of `n_ops` operations.
    pub fn random(rng: &mut Rng, n_ops: usize) -> ArithProgram {
        let mut init = [0u32; ARITH_REGS];
        for v in &mut init {
            *v = rng.next_u32();
        }
        let regs = ARITH_REGS as u64;
        let ops = (0..n_ops)
            .map(|i| Instr {
                op: Op::ALL[rng.below(Op::ALL.len() as u64) as usize],
                dst: (i % ARITH_REGS) as u8,
                a: rng.below(regs) as u8,
                b: rng.below(regs) as u8,
            })
            .collect();
        ArithProgram { init, ops }
    }

    /// Instructions the program issues: the loads plus the operations.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        (ARITH_REGS + self.ops.len()) as u64
    }

    /// The program as assembly text for `Job::Program`.
    #[must_use]
    pub fn source(&self) -> String {
        let mut s = String::new();
        for (r, v) in self.init.iter().enumerate() {
            s.push_str(&format!("LOADI r{r}, {v:#x}\n"));
        }
        for (i, ins) in self.ops.iter().enumerate() {
            s.push_str(&format!(
                "{} r{}, r{}, r{}, f{}\n",
                ins.op.mnemonic(),
                ins.dst,
                ins.a,
                ins.b,
                i % 4
            ));
        }
        s
    }

    /// Register values after the program, by the reference interpreter.
    #[must_use]
    pub fn expected(&self) -> [u32; ARITH_REGS] {
        let mut r = self.init;
        for ins in &self.ops {
            r[ins.dst as usize] = ins.op.eval(r[ins.a as usize], r[ins.b as usize]);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpreter_matches_hand_worked_program() {
        let p = ArithProgram {
            init: [7, 5, 0xffff_ffff, 1, 0xf0, 0x0f, 0, 0],
            ops: vec![
                Instr {
                    op: Op::Add,
                    dst: 0,
                    a: 0,
                    b: 1,
                }, // 12
                Instr {
                    op: Op::Sub,
                    dst: 1,
                    a: 1,
                    b: 0,
                }, // 5 - 12
                Instr {
                    op: Op::Add,
                    dst: 2,
                    a: 2,
                    b: 3,
                }, // wraps to 0
                Instr {
                    op: Op::Or,
                    dst: 3,
                    a: 4,
                    b: 5,
                }, // 0xff
                Instr {
                    op: Op::And,
                    dst: 4,
                    a: 4,
                    b: 5,
                }, // 0
                Instr {
                    op: Op::Xor,
                    dst: 5,
                    a: 3,
                    b: 4,
                }, // 0xff
            ],
        };
        assert_eq!(
            p.expected(),
            [12, 5u32.wrapping_sub(12), 0, 0xff, 0, 0xff, 0, 0]
        );
        assert_eq!(p.instructions(), 14);
        let src = p.source();
        assert!(src.starts_with("LOADI r0, 0x7\n"));
        assert!(src.contains("SUB r1, r1, r0, f1\n"));
    }

    #[test]
    fn generator_replays_per_seed() {
        let a = ArithProgram::random(&mut Rng::new(9, 1), 64);
        let b = ArithProgram::random(&mut Rng::new(9, 1), 64);
        let c = ArithProgram::random(&mut Rng::new(10, 1), 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.ops.len(), 64);
    }
}
