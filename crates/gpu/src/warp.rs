//! Resident warp state.

use crate::simt::SimtStack;
use emerald_isa::reg::MAX_REGS;
use emerald_isa::{Program, ThreadState};
use std::sync::Arc;

/// Set bit indices of `mask`, ascending.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// Identifies what a finished warp belonged to, so the launcher (compute
/// dispatcher or graphics pipeline) can account completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarpTag {
    /// A compute warp: `(kernel id, CTA index)`.
    Compute {
        /// Kernel launch id.
        kernel: usize,
        /// CTA (thread block) index within the grid.
        cta: usize,
    },
    /// A warp launched by an external engine (the graphics pipeline);
    /// the payload is interpreted by that engine.
    External(u64),
}

/// A warp resident in a SIMT core.
#[derive(Debug)]
pub struct Warp {
    /// Per-lane architectural state.
    pub threads: Vec<ThreadState>,
    /// Reconvergence stack.
    pub stack: SimtStack,
    /// The shader/kernel this warp runs.
    pub program: Arc<Program>,
    /// Uniform launch parameters (shared: cloning per issue is a refcount
    /// bump, not a heap allocation).
    pub params: Arc<[u32]>,
    /// Owner bookkeeping tag.
    pub tag: WarpTag,
    /// Scoreboard: bit `r` is set while `rN` has an in-flight write.
    pending: u64,
    /// Outstanding producers per register (nonzero exactly on `pending`).
    producers: [u32; MAX_REGS],
    /// Outstanding memory tokens (LSU completions we still wait on before
    /// the warp may fully retire).
    pub outstanding_mem: u32,
    /// Waiting at a CTA barrier.
    pub at_barrier: bool,
    /// All paths retired (still occupies the slot until
    /// `outstanding_mem == 0`).
    pub exited: bool,
    /// CTA barrier group: `(kernel, cta, warps_in_cta)`.
    pub cta_group: Option<(usize, usize, usize)>,
    /// Dynamic instructions issued (stats).
    pub instrs_issued: u64,
}

impl Warp {
    /// Creates a warp whose lanes `0..threads.len()` are active.
    pub fn new(
        threads: Vec<ThreadState>,
        program: Arc<Program>,
        params: Vec<u32>,
        tag: WarpTag,
    ) -> Self {
        assert!(!threads.is_empty() && threads.len() <= 32);
        let mask = if threads.len() == 32 {
            u32::MAX
        } else {
            (1u32 << threads.len()) - 1
        };
        Self {
            threads,
            stack: SimtStack::new(mask),
            program,
            params: params.into(),
            tag,
            pending: 0,
            producers: [0; MAX_REGS],
            outstanding_mem: 0,
            at_barrier: false,
            exited: false,
            cta_group: None,
            instrs_issued: 0,
        }
    }

    /// True when the warp has fully retired (no paths, no pending memory).
    pub fn is_finished(&self) -> bool {
        self.exited && self.outstanding_mem == 0
    }

    /// True when the scheduler may issue this warp's next instruction.
    pub fn can_issue(&self) -> bool {
        !self.exited && !self.at_barrier && !self.stack.is_done()
    }

    /// Scoreboard check: does the instruction at the current pc depend on a
    /// register still being produced?
    pub fn has_hazard(&self) -> bool {
        self.pending != 0 && self.pending & self.program.hazard_mask(self.stack.pc()) != 0
    }

    /// Gives every register in `mask` one more in-flight producer.
    pub fn acquire_regs(&mut self, mask: u64) {
        for r in bits(mask) {
            self.producers[r] += 1;
        }
        self.pending |= mask;
    }

    /// Retires one producer of every register in `mask` (writeback);
    /// registers with no producer pending are left alone.
    pub fn release_regs(&mut self, mask: u64) {
        for r in bits(mask & self.pending) {
            self.producers[r] -= 1;
            if self.producers[r] == 0 {
                self.pending &= !(1 << r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_isa::{assemble, ThreadState};

    fn warp(src: &str) -> Warp {
        Warp::new(
            vec![ThreadState::new(); 4],
            Arc::new(assemble(src).unwrap()),
            vec![],
            WarpTag::External(0),
        )
    }

    #[test]
    fn partial_warp_mask() {
        let w = warp("exit");
        assert_eq!(w.stack.active_mask(), 0xf);
        let full = Warp::new(
            vec![ThreadState::new(); 32],
            Arc::new(assemble("exit").unwrap()),
            vec![],
            WarpTag::External(1),
        );
        assert_eq!(full.stack.active_mask(), u32::MAX);
    }

    #[test]
    fn scoreboard_hazard_detection() {
        let mut w = warp("add.f32 r2, r1, r0\nexit");
        assert!(!w.has_hazard());
        w.acquire_regs(1 << 1);
        assert!(w.has_hazard()); // r1 is a source
        w.release_regs(1 << 1);
        assert!(!w.has_hazard());
        // WAW: pending r2 blocks too.
        w.acquire_regs(1 << 2);
        assert!(w.has_hazard());
        // An unrelated register does not.
        w.release_regs(1 << 2);
        w.acquire_regs(1 << 7);
        assert!(!w.has_hazard());
    }

    #[test]
    fn release_is_counted() {
        let mut w = warp("add.f32 r2, r1, r0\nexit");
        w.acquire_regs(1 << 1);
        w.acquire_regs(1 << 1);
        w.release_regs(1 << 1);
        assert!(w.has_hazard(), "second producer still pending");
        w.release_regs(1 << 1);
        assert!(!w.has_hazard());
        w.release_regs(1 << 1);
        assert_eq!(w.pending, 0, "releasing an idle register is a no-op");
    }

    /// Random acquire/release/hazard sequences against a counted map of
    /// register → outstanding producers, the scoreboard's definition.
    #[test]
    fn scoreboard_matches_a_counted_reference() {
        use emerald_common::check::check;
        use std::collections::BTreeMap;
        check("scoreboard_reference", |rng| {
            // Registers come from a small pool so producers repeat and
            // releases often hit registers that are not pending.
            let mut reg = || rng.below(8) as u8;
            let (d, a, b, c) = (reg(), reg(), reg(), reg());
            let src = if d < 5 && a % 2 == 0 {
                format!("tex2d r{d}, [r{a}, r{b}], s0\nexit")
            } else {
                format!("mad.f32 r{d}, r{a}, r{b}, r{c}\nexit")
            };
            let mut w = warp(&src);
            let op = w.program.instr(0).op.clone();
            let touched: Vec<u8> = op
                .src_regs()
                .iter()
                .chain(op.dst_regs().iter())
                .map(|r| r.0)
                .collect();
            let mut reference: BTreeMap<u8, u32> = BTreeMap::new();
            for _ in 0..64 {
                let regs: Vec<u8> = {
                    let n = 1 + rng.below(4);
                    let mut v: Vec<u8> = (0..n).map(|_| rng.below(8) as u8).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                let mask = regs.iter().fold(0u64, |m, &r| m | 1 << r);
                if rng.chance(0.5) {
                    w.acquire_regs(mask);
                    for &r in &regs {
                        *reference.entry(r).or_insert(0) += 1;
                    }
                } else {
                    w.release_regs(mask);
                    for r in &regs {
                        if let Some(n) = reference.get_mut(r) {
                            *n -= 1;
                            if *n == 0 {
                                reference.remove(r);
                            }
                        }
                    }
                }
                let pending = reference.keys().fold(0u64, |m, &r| m | 1 << r);
                assert_eq!(w.pending, pending, "{src}");
                let hazard = touched.iter().any(|r| reference.contains_key(r));
                assert_eq!(w.has_hazard(), hazard, "{src}");
            }
        });
    }

    #[test]
    fn bits_lists_set_indices_ascending() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(
            bits(1 | 1 << 5 | 1 << 63).collect::<Vec<_>>(),
            vec![0, 5, 63]
        );
    }

    #[test]
    fn finished_requires_memory_drain() {
        let mut w = warp("exit");
        w.exited = true;
        w.outstanding_mem = 1;
        assert!(!w.is_finished());
        w.outstanding_mem = 0;
        assert!(w.is_finished());
    }

    #[test]
    #[should_panic]
    fn oversized_warp_rejected() {
        let _ = Warp::new(
            vec![ThreadState::new(); 33],
            Arc::new(assemble("exit").unwrap()),
            vec![],
            WarpTag::External(0),
        );
    }
}
