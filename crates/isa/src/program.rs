//! Shader/kernel programs and static validation.

use crate::op::{Instr, Op};
use crate::reg::{Reg, MAX_REGS, NUM_PARAMS, NUM_PREDS};
use std::fmt;

/// A validated, executable instruction sequence.
///
/// Programs are straight-line instruction arrays; control flow uses
/// instruction indices (resolved from labels by the assembler).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    instrs: Vec<Instr>,
    /// Scoreboard masks per pc, computed once at construction.
    masks: Vec<RegMasks>,
    regs_used: usize,
}

/// Register bitmasks of one instruction (bit `r` stands for `rN`; exact
/// because validation bounds every register below [`MAX_REGS`] = 64).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RegMasks {
    /// Sources and destinations: what a pending write blocks.
    hazard: u64,
    /// Destinations: what issuing the instruction marks pending.
    dst: u64,
}

fn reg_mask(regs: &[Reg]) -> u64 {
    regs.iter().fold(0, |m, r| m | 1 << r.0)
}

/// Error produced when validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no instructions.
    Empty,
    /// No `exit` is reachable (specifically: the program lacks any `exit`).
    NoExit,
    /// A register index is out of range at the given instruction.
    BadReg(usize),
    /// A predicate index is out of range at the given instruction.
    BadPred(usize),
    /// A parameter index is out of range at the given instruction.
    BadParam(usize),
    /// A branch target or reconvergence index is out of range.
    BadBranch(usize),
    /// An `exit` instruction carries a guard, which is unsupported.
    GuardedExit(usize),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => f.write_str("program is empty"),
            ProgramError::NoExit => f.write_str("program has no exit instruction"),
            ProgramError::BadReg(i) => write!(f, "register index out of range at #{i}"),
            ProgramError::BadPred(i) => write!(f, "predicate index out of range at #{i}"),
            ProgramError::BadParam(i) => write!(f, "parameter index out of range at #{i}"),
            ProgramError::BadBranch(i) => write!(f, "branch target out of range at #{i}"),
            ProgramError::GuardedExit(i) => write!(f, "guarded exit not supported at #{i}"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if any instruction references an
    /// out-of-range register/predicate/parameter, any branch index is out of
    /// bounds, the program is empty, or no `exit` exists.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Result<Self, ProgramError> {
        let mut p = Self {
            name: name.into(),
            instrs,
            masks: Vec::new(),
            regs_used: 0,
        };
        p.validate()?;
        p.masks = p
            .instrs
            .iter()
            .map(|i| {
                let dst = reg_mask(&i.op.dst_regs());
                RegMasks {
                    hazard: dst | reg_mask(&i.op.src_regs()),
                    dst,
                }
            })
            .collect();
        let all = p.masks.iter().fold(0, |m, k| m | k.hazard);
        p.regs_used = (u64::BITS - all.leading_zeros()) as usize;
        Ok(p)
    }

    fn validate(&self) -> Result<(), ProgramError> {
        use crate::reg::{Operand, Special};
        if self.instrs.is_empty() {
            return Err(ProgramError::Empty);
        }
        if !self.instrs.iter().any(|i| i.op == Op::Exit) {
            return Err(ProgramError::NoExit);
        }
        let check_operand = |o: &Operand, idx: usize| -> Result<(), ProgramError> {
            match o {
                Operand::Reg(r) if r.0 as usize >= MAX_REGS => Err(ProgramError::BadReg(idx)),
                Operand::Special(Special::Param(k)) if *k as usize >= NUM_PARAMS => {
                    Err(ProgramError::BadParam(idx))
                }
                Operand::Special(Special::Input(k)) if *k as usize >= crate::reg::NUM_INPUTS => {
                    Err(ProgramError::BadParam(idx))
                }
                _ => Ok(()),
            }
        };
        for (idx, instr) in self.instrs.iter().enumerate() {
            if let Some((p, _)) = instr.guard {
                if p.0 as usize >= NUM_PREDS {
                    return Err(ProgramError::BadPred(idx));
                }
            }
            for r in instr.op.dst_regs().iter().chain(instr.op.src_regs().iter()) {
                if r.0 as usize >= MAX_REGS {
                    return Err(ProgramError::BadReg(idx));
                }
            }
            match &instr.op {
                Op::Mov { a, .. } | Op::Unary { a, .. } | Op::Cvt { a, .. } => {
                    check_operand(a, idx)?
                }
                Op::Alu { a, b, .. } | Op::SetP { a, b, .. } | Op::Sel { a, b, .. } => {
                    check_operand(a, idx)?;
                    check_operand(b, idx)?;
                }
                Op::Mad { a, b, c, .. } => {
                    check_operand(a, idx)?;
                    check_operand(b, idx)?;
                    check_operand(c, idx)?;
                }
                Op::St { a, .. } => check_operand(a, idx)?,
                Op::Bra { target, reconv }
                    if *target >= self.instrs.len() || *reconv > self.instrs.len() =>
                {
                    return Err(ProgramError::BadBranch(idx));
                }
                Op::Exit if instr.guard.is_some() => {
                    return Err(ProgramError::GuardedExit(idx));
                }
                _ => {}
            }
            if let Op::SetP { p, .. } = &instr.op {
                if p.0 as usize >= NUM_PREDS {
                    return Err(ProgramError::BadPred(idx));
                }
            }
            if let Op::Sel { p, .. } = &instr.op {
                if p.0 as usize >= NUM_PREDS {
                    return Err(ProgramError::BadPred(idx));
                }
            }
        }
        Ok(())
    }

    /// The program's name (for stats and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn instr(&self, pc: usize) -> &Instr {
        &self.instrs[pc]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the program has no instructions (never true for a
    /// validated program).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// All instructions, in order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Highest general-purpose register index used, plus one (the per-thread
    /// register demand used for occupancy limits).
    pub fn regs_used(&self) -> usize {
        self.regs_used
    }

    /// Registers the instruction at `pc` reads or writes, as a bitmask: a
    /// warp with any of them still pending must not issue it.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn hazard_mask(&self, pc: usize) -> u64 {
        self.masks[pc].hazard
    }

    /// Registers the instruction at `pc` writes, as a bitmask.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn dst_mask(&self, pc: usize) -> u64 {
        self.masks[pc].dst
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".entry {}", self.name)?;
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "  #{i:<3} {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{DType, Operand, Reg};

    fn exit() -> Instr {
        Instr::new(Op::Exit)
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(Program::new("t", vec![]).unwrap_err(), ProgramError::Empty);
    }

    #[test]
    fn missing_exit_rejected() {
        let p = Program::new("t", vec![Instr::new(Op::Nop)]);
        assert_eq!(p.unwrap_err(), ProgramError::NoExit);
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let p = Program::new(
            "t",
            vec![
                Instr::new(Op::Bra {
                    target: 10,
                    reconv: 1,
                }),
                exit(),
            ],
        );
        assert_eq!(p.unwrap_err(), ProgramError::BadBranch(0));
    }

    #[test]
    fn guarded_exit_rejected() {
        let p = Program::new(
            "t",
            vec![Instr::guarded(crate::reg::PReg(0), false, Op::Exit)],
        );
        assert_eq!(p.unwrap_err(), ProgramError::GuardedExit(0));
    }

    #[test]
    fn regs_used_counts_tex_quad() {
        let p = Program::new(
            "t",
            vec![
                Instr::new(Op::Tex2d {
                    d: Reg(8),
                    u: Reg(0),
                    v: Reg(1),
                    sampler: 0,
                }),
                exit(),
            ],
        )
        .unwrap();
        assert_eq!(p.regs_used(), 12); // r8..r11 -> 12
        assert_eq!(p.dst_mask(0), 0xf << 8);
        assert_eq!(p.hazard_mask(0), 0xf << 8 | 0b11);
        assert_eq!((p.dst_mask(1), p.hazard_mask(1)), (0, 0));
    }

    #[test]
    fn valid_program_accessors() {
        let p = Program::new(
            "simple",
            vec![
                Instr::new(Op::Alu {
                    kind: crate::op::AluKind::Add,
                    ty: DType::F32,
                    d: Reg(1),
                    a: Operand::ImmF(1.0),
                    b: Operand::ImmF(2.0),
                }),
                exit(),
            ],
        )
        .unwrap();
        assert_eq!(p.name(), "simple");
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(p.to_string().contains("add.f32 r1"));
    }
}
