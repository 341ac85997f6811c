//! `soc_dense`: case study I. Consecutive `Soc::run_frame` calls render a
//! dense M model under DASH-DCB with LPDDR3-1333, four scripted CPUs and
//! the 60 FPS display; each frame is followed by `Soc::publish` into a
//! `Registry` and its JSON dump.
//!
//! The seed sets the camera start frame and which frames shade with
//! late-Z (one in each block of four, at a seeded position). Every
//! frame's framebuffer is compared with `core::reference::render_reference`
//! of the same draw; no pixel may differ.

use crate::counts::soc_counts;
use crate::replay;
use crate::span::Tracer;
use crate::stats::{digest, fb_digest, fold};
use crate::{Layer, Workload, COUNT_STEPS};
use emerald::common::types::Cycle;
use emerald::common::Xorshift64;
use emerald::core::reference::{diff_pixels, render_reference};
use emerald::obs::{Registry, Snapshot};
use emerald::prelude::*;
use emerald::soc::experiment::MemCfgKind;
use std::time::Instant;

/// Framebuffer size.
const WIDTH: u32 = 64;
const HEIGHT: u32 = 48;
/// GPU frame period (DASH feedback grid); the display refreshes twice
/// per period.
const PERIOD: Cycle = 200_000;
/// Per-frame simulation budget (a deadlock fails loudly).
const MAX_CYCLES: Cycle = 500_000_000;
/// Index into `m_models()`: M2, the textured cube.
const MODEL: usize = 1;
/// Camera frames advance by this stride: 10° of the 180-frame orbit, so
/// the views repeat every 36 steps and any run covers the whole orbit
/// several times over (frame cost varies about threefold around it).
const CAMERA_STRIDE: u32 = 5;
const CLEAR: [f32; 4] = [0.05, 0.05, 0.08, 1.0];

pub struct SocDense {
    soc: Soc,
    binding: SceneBinding,
    aspect: f32,
    start: u32,
    /// Late-Z position inside each block of four frames, per block.
    rng: Xorshift64,
    late_slot: u64,
    i: u32,
    last: Option<(u32, bool, u64, u64)>,
    reg: Registry,
    json: String,
    ref_mem: SharedMem,
    ref_binding: SceneBinding,
    ref_rt: RenderTarget,
    window: Option<Window>,
}

/// Count-window state. The renderer's `gfx.*` counters restart every
/// frame, so they are summed frame by frame; the memory system, CPU and
/// display counters are cumulative and taken as a delta.
struct Window {
    reg0: Snapshot,
    gfx: Registry,
    frame_cycles: u64,
}

impl SocDense {
    fn frame_of(&self, i: u32) -> u32 {
        self.start + i * CAMERA_STRIDE
    }
}

impl Workload for SocDense {
    fn setup(seed: u64) -> (Self, f64) {
        let mut rng = Xorshift64::new(seed ^ 0x50C_DE75);
        let start = rng.below(180) as u32;
        let model = emerald::scene::workloads::m_models().swap_remove(MODEL);

        let t0 = Instant::now();
        let mut cfg = SocConfig::case_study_1(
            MemCfgKind::Dcb.build(DramConfig::lpddr3_1333()),
            WIDTH,
            HEIGHT,
            PERIOD,
        );
        cfg.gpu.threads = 1;
        let soc = Soc::new(cfg);
        let binding = SceneBinding::new(&soc.mem, &model);
        let setup_s = t0.elapsed().as_secs_f64();

        // The reference renders from its own copy of the scene.
        let ref_mem = SharedMem::with_capacity(1 << 20);
        let ref_binding = SceneBinding::new(&ref_mem, &model);
        let ref_rt = RenderTarget::alloc(&ref_mem, WIDTH, HEIGHT);
        (
            Self {
                soc,
                binding,
                aspect: WIDTH as f32 / HEIGHT as f32,
                start,
                late_slot: 0,
                rng,
                i: 0,
                last: None,
                reg: Registry::new(),
                json: String::new(),
                ref_mem,
                ref_binding,
                ref_rt,
                window: None,
            },
            setup_s,
        )
    }

    fn step(&mut self, tr: &mut Tracer) -> u64 {
        if self.i.is_multiple_of(4) {
            self.late_slot = self.rng.below(4);
        }
        let frame = self.frame_of(self.i);
        let late_z = u64::from(self.i % 4) == self.late_slot;
        let draw = self.binding.draw_for_frame(frame, self.aspect, late_z);
        let t0 = self.soc.now();
        let rec = tr.span("soc.run_frame", |_| {
            self.soc.run_frame(vec![draw], MAX_CYCLES)
        });
        let cycles = self.soc.now() - t0;
        self.json = tr.span("obs.publish", |_| {
            self.soc.publish(&mut self.reg);
            self.reg.to_json_compact()
        });
        self.last = Some((frame, late_z, rec.total_cycles, rec.gpu_cycles));
        if let Some(w) = &mut self.window {
            w.frame_cycles += rec.total_cycles;
        }
        self.i += 1;
        cycles
    }

    fn check(&mut self, _tr: &mut Tracer) -> Result<u64, String> {
        let (frame, late_z, total, gpu) = self.last.expect("a step ran");
        let fb = self.soc.rt.read_color(&self.soc.mem);
        self.ref_rt.clear(&self.ref_mem, CLEAR, 1.0);
        let dc = self.ref_binding.draw_for_frame(frame, self.aspect, late_z);
        render_reference(
            &self.ref_mem,
            self.ref_rt,
            &dc,
            self.ref_binding.fs_options(late_z),
        );
        let diff = diff_pixels(&fb, &self.ref_rt.read_color(&self.ref_mem));
        if diff > 0 {
            return Err(format!(
                "frame {frame} (late-Z {late_z}): {diff} pixels differ from the reference"
            ));
        }
        if let Some(w) = &mut self.window {
            for (path, v) in self.reg.iter().filter(|(p, _)| p.starts_with("gfx.")) {
                w.gfx.merge_value(path, v.clone());
            }
        }
        Ok(fold(&[
            total,
            gpu,
            fb_digest(&fb),
            digest(self.json.as_bytes()),
        ]))
    }

    fn begin_counts(&mut self) {
        self.soc.memsys.enable_trace();
        self.soc.publish(&mut self.reg);
        self.window = Some(Window {
            reg0: self.reg.snapshot(),
            gfx: Registry::new(),
            frame_cycles: 0,
        });
    }

    fn end_counts(&mut self, tr: &mut Tracer, out: &mut Layer) -> Result<(), String> {
        let w = self.window.take().expect("count window open");
        self.soc.publish(&mut self.reg);
        let mut d = self.reg.delta_since(&w.reg0);
        for (path, v) in w.gfx.iter() {
            d.set(path, v.clone());
        }
        let steps = COUNT_STEPS as f64;
        soc_counts(&d, steps, out);
        out.insert("soc.frame_cycles", w.frame_cycles as f64 / steps);
        out.insert("obs.json_bytes", self.json.len() as f64);
        let trace = self.soc.memsys.take_trace();
        replay::replay(tr, self.soc.memsys.config(), trace, out)
    }
}
