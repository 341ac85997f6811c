//! Warp-wide functional execution.
//!
//! The timing model (in `emerald-gpu`) decides *when* an instruction issues;
//! this module decides *what it does*: it executes one instruction across
//! all active lanes, mutating the per-thread register state, and reports the
//! raw per-lane memory accesses so the timing model can replay them through
//! the coalescer and cache hierarchy (the classic functional/timing split
//! used by GPGPU-Sim, which Emerald builds on).

use crate::op::{AluKind, CmpOp, Instr, MemSpace, Op, UnaryKind};
use crate::program::Program;
use crate::reg::{input, DType, Operand, Special, ThreadState};
use emerald_common::types::{AccessKind, Addr, WARP_SIZE};

/// Which hardware surface/cache a memory access targets (Table 2 of the
/// paper: L1D data/pixel, L1T texture, L1Z depth, L1C constant & vertex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Surface {
    /// Global/GPGPU data and pixel color (L1D).
    Data,
    /// Texture texels (L1T).
    Texture,
    /// Depth buffer (L1Z).
    Depth,
    /// Constant and vertex data (L1C).
    ConstVertex,
    /// Per-core scratchpad (banked SRAM, no cache).
    Shared,
}

/// One lane-level memory access produced by executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Lane that produced the access.
    pub lane: u8,
    /// Read or write.
    pub kind: AccessKind,
    /// Target surface (selects the L1 cache).
    pub surface: Surface,
    /// Byte address.
    pub addr: Addr,
    /// Access size in bytes.
    pub size: u8,
}

/// Control-flow outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fall through to `pc + 1`.
    Next,
    /// A branch; `taken` is the lane mask that takes the branch. The SIMT
    /// stack in the core decides whether this diverges.
    Branch {
        /// Lanes (of the currently active set) that take the branch.
        taken: u32,
    },
    /// All active lanes exited.
    Exit,
    /// The warp reached a CTA barrier and must wait.
    Barrier,
}

/// Result of executing one instruction warp-wide.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// Per-lane memory accesses for the timing model (pre-coalescing).
    pub accesses: Vec<MemAccess>,
    /// Control-flow outcome.
    pub outcome: Outcome,
    /// Lanes killed by this instruction (fragment `ztest` failures); the
    /// core removes them from the active mask permanently.
    pub killed: u32,
}

impl StepResult {
    fn fall_through() -> Self {
        Self {
            accesses: Vec::new(),
            outcome: Outcome::Next,
            killed: 0,
        }
    }
}

/// Environment an executing warp sees beyond its own registers: memory
/// contents, bound textures and the render targets.
///
/// `emerald-gpu` implements this for compute launches (global memory only);
/// `emerald-core` layers the graphics surfaces on top.
pub trait ExecCtx {
    /// Functional 32-bit load.
    fn load(&mut self, space: MemSpace, addr: Addr) -> u32;

    /// Functional 32-bit store.
    fn store(&mut self, space: MemSpace, addr: Addr, value: u32);

    /// Samples bound texture `sampler` at `(u, v)`, pushing the touched
    /// texel line addresses into `texel_addrs`. Non-graphics contexts may
    /// return a constant.
    fn tex2d(&mut self, sampler: u8, u: f32, v: f32, texel_addrs: &mut Vec<Addr>) -> [f32; 4];

    /// Depth-tests fragment `(x, y)` against depth `z`; returns whether the
    /// fragment survives plus the depth-buffer address touched. When
    /// `write` is set and the test passes, the implementation updates the
    /// depth buffer.
    fn ztest(&mut self, x: u32, y: u32, z: f32, write: bool) -> (bool, Addr);

    /// Reads the destination pixel at `(x, y)` and returns
    /// `(blended RGBA, color-buffer address)` for source color `src`.
    fn blend(&mut self, x: u32, y: u32, src: [f32; 4]) -> ([f32; 4], Addr);

    /// Writes `rgba` to the framebuffer at `(x, y)`; returns the
    /// color-buffer address.
    fn fb_write(&mut self, x: u32, y: u32, rgba: [f32; 4]) -> Addr;
}

/// A no-op context for pure-ALU programs (tests, microbenchmarks).
#[derive(Debug, Default, Clone)]
pub struct NullCtx;

impl ExecCtx for NullCtx {
    fn load(&mut self, _: MemSpace, _: Addr) -> u32 {
        0
    }
    fn store(&mut self, _: MemSpace, _: Addr, _: u32) {}
    fn tex2d(&mut self, _: u8, _: f32, _: f32, _: &mut Vec<Addr>) -> [f32; 4] {
        [0.0; 4]
    }
    fn ztest(&mut self, _: u32, _: u32, _: f32, _: bool) -> (bool, Addr) {
        (true, 0)
    }
    fn blend(&mut self, _: u32, _: u32, src: [f32; 4]) -> ([f32; 4], Addr) {
        (src, 0)
    }
    fn fb_write(&mut self, _: u32, _: u32, _: [f32; 4]) -> Addr {
        0
    }
}

fn surface_for(space: MemSpace) -> Surface {
    match space {
        MemSpace::Global => Surface::Data,
        MemSpace::Const | MemSpace::Vertex => Surface::ConstVertex,
        MemSpace::Shared => Surface::Shared,
    }
}

fn read_operand(o: &Operand, t: &ThreadState, lane: usize, params: &[u32]) -> u32 {
    match o {
        Operand::Reg(r) => t.reg(*r),
        Operand::ImmF(v) => v.to_bits(),
        Operand::ImmI(v) => *v,
        Operand::Special(Special::LaneId) => lane as u32,
        Operand::Special(Special::Input(k)) => t.inputs[*k as usize],
        Operand::Special(Special::Param(k)) => params.get(*k as usize).copied().unwrap_or(0),
    }
}

fn alu(kind: AluKind, ty: DType, a: u32, b: u32) -> u32 {
    match ty {
        DType::F32 => {
            let (x, y) = (f32::from_bits(a), f32::from_bits(b));
            let r = match kind {
                AluKind::Add => x + y,
                AluKind::Sub => x - y,
                AluKind::Mul => x * y,
                AluKind::Div => x / y,
                AluKind::Min => x.min(y),
                AluKind::Max => x.max(y),
                // Bit ops on f32 operate on the raw bits.
                AluKind::And => return a & b,
                AluKind::Or => return a | b,
                AluKind::Xor => return a ^ b,
                AluKind::Shl => return a.wrapping_shl(b),
                AluKind::Shr => return a.wrapping_shr(b),
            };
            r.to_bits()
        }
        DType::S32 => {
            let (x, y) = (a as i32, b as i32);
            let r = match kind {
                AluKind::Add => x.wrapping_add(y),
                AluKind::Sub => x.wrapping_sub(y),
                AluKind::Mul => x.wrapping_mul(y),
                AluKind::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                AluKind::Min => x.min(y),
                AluKind::Max => x.max(y),
                AluKind::And => x & y,
                AluKind::Or => x | y,
                AluKind::Xor => x ^ y,
                AluKind::Shl => x.wrapping_shl(y as u32),
                AluKind::Shr => x.wrapping_shr(y as u32),
            };
            r as u32
        }
        DType::U32 => match kind {
            AluKind::Add => a.wrapping_add(b),
            AluKind::Sub => a.wrapping_sub(b),
            AluKind::Mul => a.wrapping_mul(b),
            AluKind::Div => a.checked_div(b).unwrap_or(0),
            AluKind::Min => a.min(b),
            AluKind::Max => a.max(b),
            AluKind::And => a & b,
            AluKind::Or => a | b,
            AluKind::Xor => a ^ b,
            AluKind::Shl => a.wrapping_shl(b),
            AluKind::Shr => a.wrapping_shr(b),
        },
    }
}

fn unary(kind: UnaryKind, ty: DType, a: u32) -> u32 {
    match ty {
        DType::F32 => {
            let x = f32::from_bits(a);
            let r = match kind {
                UnaryKind::Neg => -x,
                UnaryKind::Abs => x.abs(),
                UnaryKind::Rcp => 1.0 / x,
                UnaryKind::Sqrt => x.sqrt(),
                UnaryKind::Rsqrt => 1.0 / x.sqrt(),
                UnaryKind::Floor => x.floor(),
                UnaryKind::Frac => x - x.floor(),
                UnaryKind::Ex2 => x.exp2(),
                UnaryKind::Lg2 => x.log2(),
                UnaryKind::Sin => x.sin(),
                UnaryKind::Cos => x.cos(),
            };
            r.to_bits()
        }
        DType::S32 => {
            let x = a as i32;
            let r = match kind {
                UnaryKind::Neg => x.wrapping_neg(),
                UnaryKind::Abs => x.wrapping_abs(),
                _ => x, // SFU ops are float-only; integer forms pass through
            };
            r as u32
        }
        DType::U32 => a,
    }
}

fn compare(cmp: CmpOp, ty: DType, a: u32, b: u32) -> bool {
    match ty {
        DType::F32 => {
            let (x, y) = (f32::from_bits(a), f32::from_bits(b));
            match cmp {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        DType::S32 => {
            let (x, y) = (a as i32, b as i32);
            match cmp {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        DType::U32 => match cmp {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        },
    }
}

fn convert(from: DType, to: DType, a: u32) -> u32 {
    match (from, to) {
        (DType::F32, DType::S32) => {
            let x = f32::from_bits(a);
            if x.is_nan() {
                0
            } else {
                (x as i32) as u32 // `as` saturates in Rust
            }
        }
        (DType::F32, DType::U32) => {
            let x = f32::from_bits(a);
            if x.is_nan() {
                0
            } else {
                x as u32
            }
        }
        (DType::S32, DType::F32) => ((a as i32) as f32).to_bits(),
        (DType::U32, DType::F32) => (a as f32).to_bits(),
        _ => a,
    }
}

#[allow(clippy::needless_range_loop)] // lane index doubles as the mask bit
fn guard_mask(instr: &Instr, threads: &[ThreadState], active: u32) -> u32 {
    match instr.guard {
        None => active,
        Some((p, neg)) => {
            let mut m = 0u32;
            for lane in 0..WARP_SIZE.min(threads.len()) {
                if active & (1 << lane) != 0 {
                    let v = threads[lane].preds[p.0 as usize];
                    if v != neg {
                        m |= 1 << lane;
                    }
                }
            }
            m
        }
    }
}

/// Executes the instruction at `pc` of `program` for the lanes in `active`.
///
/// Mutates `threads` (register state, and memory via `ctx`) and reports
/// memory accesses plus the control-flow outcome. `params` are the uniform
/// launch parameters.
///
/// # Panics
///
/// Panics if `pc` is out of range (programs are validated at construction,
/// so a well-behaved core never does this).
pub fn execute(
    program: &Program,
    pc: usize,
    active: u32,
    threads: &mut [ThreadState],
    params: &[u32],
    ctx: &mut dyn ExecCtx,
) -> StepResult {
    let instr = program.instr(pc);
    let mask = guard_mask(instr, threads, active);
    let mut res = StepResult::fall_through();
    let n = WARP_SIZE.min(threads.len());
    let lanes = || (0..n).filter(|l| mask & (1 << l) != 0);

    match &instr.op {
        Op::Nop => {}
        Op::Mov { d, a } => {
            for (lane, t) in threads.iter_mut().enumerate().take(WARP_SIZE) {
                if mask & (1 << lane) != 0 {
                    let v = read_operand(a, t, lane, params);
                    t.set_reg(*d, v);
                }
            }
        }
        Op::Alu { kind, ty, d, a, b } => {
            for lane in lanes() {
                let x = read_operand(a, &threads[lane], lane, params);
                let y = read_operand(b, &threads[lane], lane, params);
                threads[lane].set_reg(*d, alu(*kind, *ty, x, y));
            }
        }
        Op::Mad { ty, d, a, b, c } => {
            for lane in lanes() {
                let x = read_operand(a, &threads[lane], lane, params);
                let y = read_operand(b, &threads[lane], lane, params);
                let z = read_operand(c, &threads[lane], lane, params);
                let prod = alu(AluKind::Mul, *ty, x, y);
                threads[lane].set_reg(*d, alu(AluKind::Add, *ty, prod, z));
            }
        }
        Op::Unary { kind, ty, d, a } => {
            for lane in lanes() {
                let x = read_operand(a, &threads[lane], lane, params);
                threads[lane].set_reg(*d, unary(*kind, *ty, x));
            }
        }
        Op::Cvt { d, a, from, to } => {
            for lane in lanes() {
                let x = read_operand(a, &threads[lane], lane, params);
                threads[lane].set_reg(*d, convert(*from, *to, x));
            }
        }
        Op::SetP { p, cmp, ty, a, b } => {
            for lane in lanes() {
                let x = read_operand(a, &threads[lane], lane, params);
                let y = read_operand(b, &threads[lane], lane, params);
                threads[lane].preds[p.0 as usize] = compare(*cmp, *ty, x, y);
            }
        }
        Op::Sel { d, p, a, b } => {
            for lane in lanes() {
                let t = &threads[lane];
                let v = if t.preds[p.0 as usize] {
                    read_operand(a, t, lane, params)
                } else {
                    read_operand(b, t, lane, params)
                };
                threads[lane].set_reg(*d, v);
            }
        }
        Op::Ld {
            space,
            d,
            addr,
            offset,
        } => {
            for lane in lanes() {
                let base = threads[lane].reg(*addr) as i64;
                let a = (base + *offset as i64) as Addr;
                let v = ctx.load(*space, a);
                threads[lane].set_reg(*d, v);
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Read,
                    surface: surface_for(*space),
                    addr: a,
                    size: 4,
                });
            }
        }
        Op::St {
            space,
            a,
            addr,
            offset,
        } => {
            for lane in lanes() {
                let base = threads[lane].reg(*addr) as i64;
                let ad = (base + *offset as i64) as Addr;
                let v = read_operand(a, &threads[lane], lane, params);
                ctx.store(*space, ad, v);
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Write,
                    surface: surface_for(*space),
                    addr: ad,
                    size: 4,
                });
            }
        }
        Op::Bra { .. } => {
            res.outcome = Outcome::Branch { taken: mask };
        }
        Op::Bar => {
            res.outcome = Outcome::Barrier;
        }
        Op::Exit => {
            res.outcome = Outcome::Exit;
        }
        Op::Tex2d { d, u, v, sampler } => {
            let mut texels = Vec::new();
            for lane in lanes() {
                let uu = threads[lane].reg_f32(*u);
                let vv = threads[lane].reg_f32(*v);
                texels.clear();
                let rgba = ctx.tex2d(*sampler, uu, vv, &mut texels);
                for (i, c) in rgba.iter().enumerate() {
                    threads[lane].set_reg_f32(crate::reg::Reg(d.0 + i as u8), *c);
                }
                for &ta in &texels {
                    res.accesses.push(MemAccess {
                        lane: lane as u8,
                        kind: AccessKind::Read,
                        surface: Surface::Texture,
                        addr: ta,
                        size: 4,
                    });
                }
            }
        }
        Op::Ztest { z, write } => {
            for lane in lanes() {
                let t = &threads[lane];
                let x = t.inputs[input::FRAG_X];
                let y = t.inputs[input::FRAG_Y];
                let zv = t.reg_f32(*z);
                let (pass, addr) = ctx.ztest(x, y, zv, *write);
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Read,
                    surface: Surface::Depth,
                    addr,
                    size: 4,
                });
                if pass {
                    if *write {
                        res.accesses.push(MemAccess {
                            lane: lane as u8,
                            kind: AccessKind::Write,
                            surface: Surface::Depth,
                            addr,
                            size: 4,
                        });
                    }
                } else {
                    res.killed |= 1 << lane;
                }
            }
        }
        Op::Blend { c } => {
            for lane in lanes() {
                let t = &threads[lane];
                let x = t.inputs[input::FRAG_X];
                let y = t.inputs[input::FRAG_Y];
                let src = [
                    t.reg_f32(crate::reg::Reg(c.0)),
                    t.reg_f32(crate::reg::Reg(c.0 + 1)),
                    t.reg_f32(crate::reg::Reg(c.0 + 2)),
                    t.reg_f32(crate::reg::Reg(c.0 + 3)),
                ];
                let (out, addr) = ctx.blend(x, y, src);
                for (i, v) in out.iter().enumerate() {
                    threads[lane].set_reg_f32(crate::reg::Reg(c.0 + i as u8), *v);
                }
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Read,
                    surface: Surface::Data,
                    addr,
                    size: 4,
                });
            }
        }
        Op::FbWrite { c } => {
            for lane in lanes() {
                let t = &threads[lane];
                let x = t.inputs[input::FRAG_X];
                let y = t.inputs[input::FRAG_Y];
                let rgba = [
                    t.reg_f32(crate::reg::Reg(c.0)),
                    t.reg_f32(crate::reg::Reg(c.0 + 1)),
                    t.reg_f32(crate::reg::Reg(c.0 + 2)),
                    t.reg_f32(crate::reg::Reg(c.0 + 3)),
                ];
                let addr = ctx.fb_write(x, y, rgba);
                res.accesses.push(MemAccess {
                    lane: lane as u8,
                    kind: AccessKind::Write,
                    surface: Surface::Data,
                    addr,
                    size: 4,
                });
            }
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::reg::Reg;

    fn warp(n: usize) -> Vec<ThreadState> {
        vec![ThreadState::new(); n]
    }

    #[test]
    fn mov_and_alu_respect_mask() {
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             add.s32 r1, r0, 10\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        let active = 0b0101;
        let mut ctx = NullCtx;
        execute(&p, 0, active, &mut threads, &[], &mut ctx);
        execute(&p, 1, active, &mut threads, &[], &mut ctx);
        assert_eq!(threads[0].reg(Reg(1)), 10);
        assert_eq!(threads[2].reg(Reg(1)), 12);
        // Inactive lanes untouched.
        assert_eq!(threads[1].reg(Reg(1)), 0);
        assert_eq!(threads[3].reg(Reg(1)), 0);
    }

    #[test]
    fn f32_arithmetic() {
        let p = assemble(
            "mov.b32 r0, 3.0\n\
             mul.f32 r1, r0, 2.0\n\
             mad.f32 r2, r1, 0.5, 1.0\n\
             rsqrt.f32 r3, 4.0\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(1);
        let mut ctx = NullCtx;
        for pc in 0..4 {
            execute(&p, pc, 1, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].reg_f32(Reg(1)), 6.0);
        assert_eq!(threads[0].reg_f32(Reg(2)), 4.0);
        assert_eq!(threads[0].reg_f32(Reg(3)), 0.5);
    }

    #[test]
    fn setp_and_guarded_execution() {
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             setp.lt.s32 p0, r0, 2\n\
             @p0 mov.b32 r1, 7\n\
             @!p0 mov.b32 r1, 9\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        let mut ctx = NullCtx;
        for pc in 0..4 {
            execute(&p, pc, 0xf, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].reg(Reg(1)), 7);
        assert_eq!(threads[1].reg(Reg(1)), 7);
        assert_eq!(threads[2].reg(Reg(1)), 9);
        assert_eq!(threads[3].reg(Reg(1)), 9);
    }

    #[test]
    fn branch_reports_taken_mask() {
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             setp.ge.s32 p0, r0, 2\n\
             @p0 bra SKIP, reconv=SKIP\n\
             mov.b32 r1, 1\n\
             SKIP:\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        let mut ctx = NullCtx;
        execute(&p, 0, 0xf, &mut threads, &[], &mut ctx);
        execute(&p, 1, 0xf, &mut threads, &[], &mut ctx);
        let r = execute(&p, 2, 0xf, &mut threads, &[], &mut ctx);
        assert_eq!(r.outcome, Outcome::Branch { taken: 0b1100 });
    }

    #[test]
    fn loads_and_stores_report_accesses() {
        #[derive(Default)]
        struct MapCtx(std::collections::HashMap<Addr, u32>);
        impl ExecCtx for MapCtx {
            fn load(&mut self, _: MemSpace, a: Addr) -> u32 {
                *self.0.get(&a).unwrap_or(&0)
            }
            fn store(&mut self, _: MemSpace, a: Addr, v: u32) {
                self.0.insert(a, v);
            }
            fn tex2d(&mut self, _: u8, _: f32, _: f32, _: &mut Vec<Addr>) -> [f32; 4] {
                [0.0; 4]
            }
            fn ztest(&mut self, _: u32, _: u32, _: f32, _: bool) -> (bool, Addr) {
                (true, 0)
            }
            fn blend(&mut self, _: u32, _: u32, s: [f32; 4]) -> ([f32; 4], Addr) {
                (s, 0)
            }
            fn fb_write(&mut self, _: u32, _: u32, _: [f32; 4]) -> Addr {
                0
            }
        }
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             shl.u32 r1, r0, 2\n\
             add.u32 r1, r1, %param0\n\
             st.global.b32 [r1+0], r0\n\
             ld.global.b32 r2, [r1+0]\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        let mut ctx = MapCtx::default();
        let params = [0x1000u32];
        for pc in 0..3 {
            execute(&p, pc, 0xf, &mut threads, &params, &mut ctx);
        }
        let st = execute(&p, 3, 0xf, &mut threads, &params, &mut ctx);
        assert_eq!(st.accesses.len(), 4);
        assert_eq!(st.accesses[0].kind, AccessKind::Write);
        assert_eq!(st.accesses[3].addr, 0x100c);
        let ld = execute(&p, 4, 0xf, &mut threads, &params, &mut ctx);
        assert_eq!(ld.accesses.len(), 4);
        assert_eq!(threads[3].reg(Reg(2)), 3);
    }

    #[test]
    fn ztest_kills_failing_lanes() {
        struct ZCtx;
        impl ExecCtx for ZCtx {
            fn load(&mut self, _: MemSpace, _: Addr) -> u32 {
                0
            }
            fn store(&mut self, _: MemSpace, _: Addr, _: u32) {}
            fn tex2d(&mut self, _: u8, _: f32, _: f32, _: &mut Vec<Addr>) -> [f32; 4] {
                [0.0; 4]
            }
            fn ztest(&mut self, x: u32, _: u32, _: f32, _: bool) -> (bool, Addr) {
                (x.is_multiple_of(2), x as Addr * 4) // even x passes
            }
            fn blend(&mut self, _: u32, _: u32, s: [f32; 4]) -> ([f32; 4], Addr) {
                (s, 0)
            }
            fn fb_write(&mut self, _: u32, _: u32, _: [f32; 4]) -> Addr {
                0
            }
        }
        let p = assemble(
            "mov.b32 r0, %input2\n\
             ztest.w r0\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(4);
        for (i, t) in threads.iter_mut().enumerate() {
            t.inputs[input::FRAG_X] = i as u32;
            t.inputs[input::FRAG_Y] = 0;
            t.set_input_f32(input::FRAG_Z, 0.5);
        }
        let mut ctx = ZCtx;
        execute(&p, 0, 0xf, &mut threads, &[], &mut ctx);
        let r = execute(&p, 1, 0xf, &mut threads, &[], &mut ctx);
        assert_eq!(r.killed, 0b1010); // odd x killed
                                      // Passing lanes emit read+write, failing lanes read only.
        let writes = r
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count();
        assert_eq!(writes, 2);
    }

    #[test]
    fn integer_div_by_zero_yields_zero() {
        let p = assemble(
            "mov.b32 r0, 5\n\
             div.s32 r1, r0, 0\n\
             div.u32 r2, r0, 0\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(1);
        let mut ctx = NullCtx;
        for pc in 0..3 {
            execute(&p, pc, 1, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].reg(Reg(1)), 0);
        assert_eq!(threads[0].reg(Reg(2)), 0);
    }

    #[test]
    fn conversions() {
        let p = assemble(
            "mov.b32 r0, 3.7\n\
             cvt.s32.f32 r1, r0\n\
             cvt.f32.s32 r2, r1\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(1);
        let mut ctx = NullCtx;
        for pc in 0..3 {
            execute(&p, pc, 1, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].reg(Reg(1)), 3);
        assert_eq!(threads[0].reg_f32(Reg(2)), 3.0);
    }

    #[test]
    fn sel_picks_by_predicate() {
        let p = assemble(
            "mov.b32 r0, %laneid\n\
             setp.eq.s32 p1, r0, 0\n\
             sel.b32 r1, p1, 100, 200\n\
             exit",
        )
        .unwrap();
        let mut threads = warp(2);
        let mut ctx = NullCtx;
        for pc in 0..3 {
            execute(&p, pc, 0b11, &mut threads, &[], &mut ctx);
        }
        assert_eq!(threads[0].reg(Reg(1)), 100);
        assert_eq!(threads[1].reg(Reg(1)), 200);
    }
}
