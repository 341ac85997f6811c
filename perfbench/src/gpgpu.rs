//! `gpgpu`: GPU-only compute on `Gpu::run_to_idle` through a
//! `SimpleMemPort`, on the case-study-I GPU (four SIMT cores, 128 KiB L2).
//!
//! Each step launches one saxpy kernel, then one ALU-loop kernel:
//!
//! * saxpy (`y = a*x + y`) streams a slice of two rings whose combined
//!   size is four times the L2, so each slice comes from DRAM: the LSU,
//!   coalescer, caches and DRAM are on the critical path.
//! * the ALU loop runs a per-thread `mad.f32` recurrence with no global
//!   memory inside the loop and one store at the end: issue and execute.
//!
//! The seed sets the input values, the scalars, and the order in which a
//! fixed multiset of launch sizes is visited, so every seed does the same
//! amount of work per cycle of the plan. Outputs are compared exactly
//! against the host computing the ISA's f32 semantics (`mad.f32` rounds
//! the product, then the sum).

use crate::counts::{dram_counts, ratio};
use crate::replay;
use crate::span::Tracer;
use crate::stats::{digest, fold};
use crate::{Layer, Workload, COUNT_STEPS};
use emerald::common::types::{Addr, Cycle};
use emerald::common::Xorshift64;
use emerald::gpu::gpu::MemPort;
use emerald::gpu::GlobalMemCtx;
use emerald::mem::req::{MemRequest, MemResponse};
use emerald::obs::{Registry, Snapshot};
use emerald::prelude::*;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Elements in each of the `x` and `y` rings (2 × 256 KiB = 4 × L2).
const RING: usize = 65_536;
/// Saxpy launch sizes, visited in a seeded order (whole CTAs of 64).
/// Small, medium twice, large: the median step is a medium one.
const SAXPY_SIZES: [usize; 4] = [1536, 2048, 2048, 2560];
/// ALU-loop launch sizes, paired with the saxpy sizes.
const ALU_SIZES: [usize; 4] = [768, 1024, 1024, 1280];
/// Iterations of the ALU loop.
const ALU_ITERS: u32 = 48;
/// Steps in one seeded plan; the run cycles through it.
const PLAN: usize = 64;
/// Per-launch simulation budget (a deadlock fails loudly).
const MAX_CYCLES: Cycle = 50_000_000;

const SAXPY_SRC: &str = "
    mov.b32 r0, %input0
    shl.u32 r1, r0, 2
    add.u32 r2, r1, %param0
    add.u32 r3, r1, %param1
    ld.global.b32 r4, [r2+0]
    ld.global.b32 r5, [r3+0]
    mov.b32 r6, %param2
    mad.f32 r7, r6, r4, r5
    st.global.b32 [r3+0], r7
    exit";

const ALU_SRC: &str = "
    mov.b32 r0, %input0
    and.b32 r1, r0, 255
    cvt.f32.u32 r2, r1
    mul.f32 r2, r2, 0.0078125
    mov.b32 r3, 0
    LOOP:
    mad.f32 r2, r2, %param1, %param2
    add.u32 r3, r3, 1
    setp.lt.u32 p0, r3, %param3
    @p0 bra LOOP, reconv=DONE
    DONE:
    shl.u32 r4, r0, 2
    add.u32 r4, r4, %param0
    st.global.b32 [r4+0], r2
    exit";

/// One step's launches.
#[derive(Debug, Clone, Copy)]
struct Launch {
    n: usize,
    off: usize,
    a: f32,
    m: usize,
    b: f32,
    c: f32,
}

/// Memory-port call accounting of the traced run.
#[derive(Debug, Default, Clone, Copy)]
struct PortCounts {
    ns: u64,
    calls: u64,
    sends: u64,
    accepted: u64,
}

/// A `MemPort` that times and counts every call and forwards it
/// unchanged, `next_event` included, so event skipping is unaffected.
/// `next_event` takes `&self`, hence the cells.
struct TimedPort<'a> {
    inner: &'a mut SimpleMemPort,
    ns: Cell<u64>,
    calls: Cell<u64>,
    sends: u64,
    accepted: u64,
}

impl<'a> TimedPort<'a> {
    fn new(inner: &'a mut SimpleMemPort) -> Self {
        Self {
            inner,
            ns: Cell::new(0),
            calls: Cell::new(0),
            sends: 0,
            accepted: 0,
        }
    }

    fn clock(&self, t0: Instant) {
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }

    fn counts(&self) -> PortCounts {
        PortCounts {
            ns: self.ns.get(),
            calls: self.calls.get(),
            sends: self.sends,
            accepted: self.accepted,
        }
    }
}

impl MemPort for TimedPort<'_> {
    fn tick(&mut self, now: Cycle) {
        let t0 = Instant::now();
        self.inner.tick(now);
        self.clock(t0);
    }

    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let t0 = Instant::now();
        let r = self.inner.try_send(req, now);
        self.clock(t0);
        self.sends += 1;
        self.accepted += r.is_ok() as u64;
        r
    }

    fn recv(&mut self, now: Cycle) -> Option<MemResponse> {
        let t0 = Instant::now();
        let r = self.inner.recv(now);
        self.clock(t0);
        r
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let t0 = Instant::now();
        let r = self.inner.next_event(now);
        self.clock(t0);
        r
    }
}

/// Count-window state.
struct Window {
    reg0: Snapshot,
    cycles: u64,
    port: PortCounts,
}

pub struct Gpgpu {
    gpu: Gpu,
    ctx: GlobalMemCtx,
    port: SimpleMemPort,
    mem: SharedMem,
    saxpy: Arc<Program>,
    alu: Arc<Program>,
    x: Addr,
    y: Addr,
    out: Addr,
    now: Cycle,
    plan: Vec<Launch>,
    i: usize,
    /// Host mirror of the `y` ring (the `x` ring never changes).
    xs: Vec<f32>,
    ys: Vec<f32>,
    last_cycles: (u64, u64),
    window: Option<Window>,
}

fn seeded_plan(rng: &mut Xorshift64) -> Vec<Launch> {
    // Each block of four steps visits every size once, in a seeded order.
    let mut plan = Vec::with_capacity(PLAN);
    let mut off = 0usize;
    while plan.len() < PLAN {
        let mut order = [0usize, 1, 2, 3];
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below(k as u64 + 1) as usize);
        }
        for &k in &order {
            let n = SAXPY_SIZES[k];
            if off + n > RING {
                off = 0;
            }
            plan.push(Launch {
                n,
                off,
                a: rng.next_f32() * 3.0 - 1.5,
                m: ALU_SIZES[k],
                b: 0.5 + rng.next_f32() * 0.45,
                c: rng.next_f32() * 2.0 - 1.0,
            });
            off += n;
        }
    }
    plan
}

fn write_f32s(mem: &SharedMem, base: Addr, vals: &[f32]) {
    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    mem.write(|m| m.write_bytes(base, &bytes));
}

fn read_u32s(mem: &SharedMem, base: Addr, n: usize) -> Vec<u32> {
    mem.read(|m| {
        m.read_bytes(base, n * 4)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    })
}

impl Gpgpu {
    fn publish(&self) -> Registry {
        let mut reg = Registry::new();
        self.gpu.publish(&mut reg, "gpu");
        self.port.mem.publish(&mut reg, "mem.dram");
        reg
    }

    fn run_kernel(&mut self, k: Kernel, tr: &mut Tracer) -> u64 {
        self.gpu.launch_kernel(k);
        let cycles = if tr.on() {
            tr.span("gpu.run_to_idle", |tr| {
                let mut port = TimedPort::new(&mut self.port);
                let cycles = self
                    .gpu
                    .run_to_idle(self.now, MAX_CYCLES, &mut self.ctx, &mut port);
                let c = port.counts();
                tr.inner("mem.port", c.ns);
                if let Some(w) = &mut self.window {
                    w.port.ns += c.ns;
                    w.port.calls += c.calls;
                    w.port.sends += c.sends;
                    w.port.accepted += c.accepted;
                }
                cycles
            })
        } else {
            self.gpu
                .run_to_idle(self.now, MAX_CYCLES, &mut self.ctx, &mut self.port)
        };
        self.now += cycles;
        cycles
    }
}

impl Workload for Gpgpu {
    fn setup(seed: u64) -> (Self, f64) {
        let mut rng = Xorshift64::new(seed ^ 0x6770_6770);
        let xs: Vec<f32> = (0..RING).map(|_| rng.next_f32() * 4.0 - 2.0).collect();
        let ys: Vec<f32> = (0..RING).map(|_| rng.next_f32() * 4.0 - 2.0).collect();
        let plan = seeded_plan(&mut rng);

        let t0 = Instant::now();
        let mut cfg = GpuConfig::case_study_1();
        cfg.threads = 1;
        let gpu = Gpu::new(cfg);
        let mem = SharedMem::with_capacity(1 << 20);
        let ctx = GlobalMemCtx::new(mem.clone());
        let port = SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
            2,
            DramConfig::lpddr3_1600(),
        )));
        let x = mem.alloc((RING * 4) as u64, 128);
        let y = mem.alloc((RING * 4) as u64, 128);
        let max_m = *ALU_SIZES.iter().max().expect("sizes");
        let out = mem.alloc((max_m * 4) as u64, 128);
        write_f32s(&mem, x, &xs);
        write_f32s(&mem, y, &ys);
        let saxpy = Arc::new(assemble(SAXPY_SRC).expect("saxpy assembles"));
        let alu = Arc::new(assemble(ALU_SRC).expect("ALU loop assembles"));
        let setup_s = t0.elapsed().as_secs_f64();
        (
            Self {
                gpu,
                ctx,
                port,
                mem,
                saxpy,
                alu,
                x,
                y,
                out,
                now: 0,
                plan,
                i: 0,
                xs,
                ys,
                last_cycles: (0, 0),
                window: None,
            },
            setup_s,
        )
    }

    fn step(&mut self, tr: &mut Tracer) -> u64 {
        let l = self.plan[self.i % PLAN];
        let saxpy = Kernel::linear(
            Arc::clone(&self.saxpy),
            l.n,
            64,
            vec![
                (self.x + (l.off * 4) as u64) as u32,
                (self.y + (l.off * 4) as u64) as u32,
                l.a.to_bits(),
            ],
        );
        let c1 = self.run_kernel(saxpy, tr);
        let alu = Kernel::linear(
            Arc::clone(&self.alu),
            l.m,
            64,
            vec![self.out as u32, l.b.to_bits(), l.c.to_bits(), ALU_ITERS],
        );
        let c2 = self.run_kernel(alu, tr);
        self.last_cycles = (c1, c2);
        if let Some(w) = &mut self.window {
            w.cycles += c1 + c2;
        }
        c1 + c2
    }

    fn check(&mut self, _tr: &mut Tracer) -> Result<u64, String> {
        let l = self.plan[self.i % PLAN];
        self.i += 1;
        // Host saxpy on the mirror: product rounded, then the sum.
        for j in l.off..l.off + l.n {
            self.ys[j] += l.a * self.xs[j];
        }
        let got_y = read_u32s(&self.mem, self.y + (l.off * 4) as u64, l.n);
        let bad_y = got_y
            .iter()
            .zip(&self.ys[l.off..l.off + l.n])
            .filter(|(g, w)| **g != w.to_bits())
            .count();
        let got_out = read_u32s(&self.mem, self.out, l.m);
        let bad_out = got_out
            .iter()
            .enumerate()
            .filter(|&(gid, g)| {
                let mut acc = (gid & 255) as f32 * 0.007_812_5;
                for _ in 0..ALU_ITERS {
                    acc = acc * l.b + l.c;
                }
                *g != acc.to_bits()
            })
            .count();
        if bad_y + bad_out > 0 {
            return Err(format!(
                "{bad_y} of {} saxpy outputs and {bad_out} of {} ALU-loop outputs differ from the host",
                l.n, l.m
            ));
        }
        let bytes: Vec<u8> = got_y
            .iter()
            .chain(&got_out)
            .flat_map(|v| v.to_le_bytes())
            .collect();
        Ok(fold(&[
            self.last_cycles.0,
            self.last_cycles.1,
            digest(&bytes),
        ]))
    }

    fn begin_counts(&mut self) {
        self.port.mem.enable_trace();
        self.window = Some(Window {
            reg0: self.publish().snapshot(),
            cycles: 0,
            port: PortCounts::default(),
        });
    }

    fn end_counts(&mut self, tr: &mut Tracer, out: &mut Layer) -> Result<(), String> {
        let w = self.window.take().expect("count window open");
        let d = self.publish().delta_since(&w.reg0);
        let steps = COUNT_STEPS as f64;
        let get = |p: &str| d.get(p).map_or(0.0, |v| v.scalar());
        let issued = get("gpu.issued");
        out.insert("gpu.cycles", w.cycles as f64 / steps);
        out.insert("gpu.issued", issued / steps);
        out.insert("gpu.ipc", issued / (w.cycles.max(1) as f64));
        out.insert("gpu.l1d_hit_rate", ratio(&d, "gpu.cores.l1d.hits"));
        out.insert("gpu.l2_hit_rate", ratio(&d, "gpu.l2.hits"));
        out.insert("gpu.mem_reads", get("gpu.mem_reads") / steps);
        out.insert("gpu.mem_writes", get("gpu.mem_writes") / steps);
        out.insert("mem.port_calls", w.port.calls as f64 / steps);
        out.insert(
            "mem.send_accept_ratio",
            w.port.accepted as f64 / w.port.sends.max(1) as f64,
        );
        dram_counts(&d, steps, out);
        // ns of GPU self time per warp instruction, over the window.
        let gpu_self_ns = window_gpu_self_ns(tr);
        out.insert("gpu.host_ns_per_instr", gpu_self_ns / issued.max(1.0));
        let trace = self.port.mem.take_trace();
        replay::replay(tr, self.port.mem.config(), trace, out)
    }
}

/// GPU self time (run-to-idle minus port time) over the count window's
/// steps, in ns.
fn window_gpu_self_ns(tr: &Tracer) -> f64 {
    let selfs = tr.self_times();
    tr.spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == "gpu.run_to_idle" && (s.step as usize) < COUNT_STEPS)
        .map(|(_, ns)| ns as f64)
        .sum()
}
