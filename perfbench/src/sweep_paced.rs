//! `sweep_paced`: sweep requests through `serve::run_jobs(fork = true)`
//! at `min(2, nproc)` workers. One step is one request: K vsync-paced
//! `I1` sessions (`"vsync": 1000000`) that share one warmed prefix, so the
//! engine warms it once, checkpoints it, and restores it once per
//! session.
//!
//! The seed derives each request's prefix (its GPU frame period), the
//! sessions' frame offsets and their late-Z seeds. A pool of seeded
//! requests is parsed and expanded at set-up and visited in turn.
//!
//! Checks per step: the request yields K forked sessions from one prefix,
//! and one of them, re-run cold from its own spec, equals its forked twin
//! in cycles, framebuffer digest and registry JSON.

use crate::counts::soc_counts;
use crate::replay;
use crate::span::Tracer;
use crate::stats::{digest, fb_digest, fold};
use crate::{Layer, Workload, COUNT_STEPS};
use emerald::common::json::Json;
use emerald::common::stats::{Ratio, Summary};
use emerald::common::Xorshift64;
use emerald::obs::Registry;
use emerald::serve::session::{Session, StartMode};
use emerald::serve::sweep::{JobParams, JobSpec};
use emerald::serve::{SessionResult, SweepSpec};
use emerald::soc::Soc;
use std::sync::OnceLock;
use std::time::Instant;

/// Distinct seeded requests; step `i` runs request `i % POOL`.
const POOL: usize = 8;
/// Sessions per request: two frame offsets × two late-Z seeds.
const SESSIONS: usize = 4;
const WARMUP: u32 = 1;
const FRAMES: u32 = 1;
const VSYNC: u64 = 1_000_000;
/// Requests whose prefix state the `snap` probe checkpoints and restores.
const SNAP_PROBES: usize = 4;
/// Per-frame simulation budget, as the sweep engine uses.
const MAX_CYCLES: u64 = 500_000_000;

struct Request {
    jobs: Vec<JobSpec>,
    /// The session re-run cold as the forked twin's check.
    twin: usize,
}

pub struct SweepPaced {
    requests: Vec<Request>,
    i: usize,
    last: Option<(usize, emerald::serve::sched::SweepOutcome)>,
    window: Option<Window>,
}

/// Count-window accumulators over the sessions of the window's requests.
#[derive(Default)]
struct Window {
    /// Session registries, merged.
    reg: Registry,
    json_bytes: u64,
    sessions: u64,
    cycles: u64,
    prefixes: u64,
}

fn request_spec(rng: &mut Xorshift64, n: usize) -> String {
    let period = 200_000 + 1_000 * rng.below(50);
    let off_a = rng.below(32);
    let off_b = off_a + 1 + rng.below(31);
    // Bit 0 forces late-Z on the measured frame: one of each per offset.
    let seed_a = rng.below(1 << 16);
    let seed_b = seed_a ^ 1;
    format!(
        r#"{{"name": "paced{n}",
            "base": {{"model": "I1", "period": {period}, "warmup": {WARMUP}, "frames": {FRAMES}, "vsync": {VSYNC}}},
            "axes": [
                {{"key": "frame_offset", "values": [{off_a}, {off_b}]}},
                {{"key": "seed", "values": [{seed_a}, {seed_b}]}}
            ],
            "fork": true}}"#
    )
}

/// Rebuilds a registry from its JSON dump (counters, ratios and
/// summaries; the instruments the per-layer counts read).
fn registry_from_json(doc: &Json) -> Registry {
    fn walk(reg: &mut Registry, path: &str, v: &Json) {
        let num = |k: &str| v.get(k).and_then(Json::as_num).unwrap_or(0.0);
        match v {
            Json::Num(n) => reg.set_counter(path, *n as u64),
            Json::Obj(fields) => match v.get("kind").and_then(Json::as_str) {
                Some("ratio") => reg.set_ratio(
                    path,
                    Ratio {
                        num: num("num") as u64,
                        den: num("den") as u64,
                    },
                ),
                Some("summary") => reg.set_summary(
                    path,
                    Summary::from_parts(num("count") as u64, num("sum"), num("min"), num("max")),
                ),
                Some(_) => {}
                None => {
                    for (k, child) in fields {
                        let p = if path.is_empty() {
                            k.clone()
                        } else {
                            format!("{path}.{k}")
                        };
                        walk(reg, &p, child);
                    }
                }
            },
            _ => {}
        }
    }
    let mut reg = Registry::new();
    walk(&mut reg, "", doc);
    reg
}

fn signature(r: &SessionResult) -> (u64, u64, &str) {
    (r.cycles, r.fb_digest, &r.registry_json)
}

/// Frame index and late-Z flag of measured frame `i`, as the sweep
/// engine draws them.
fn measured_frame(p: &JobParams, i: u32) -> (u32, bool) {
    (p.warmup + p.frame_offset + i, (p.seed >> (i % 64)) & 1 == 1)
}

fn paced_frame(
    soc: &mut Soc,
    binding: &emerald::core::session::SceneBinding,
    p: &JobParams,
    frame: u32,
    late_z: bool,
) {
    let aspect = p.width as f32 / p.height as f32;
    soc.run_frame(
        vec![binding.draw_for_frame(frame, aspect, late_z)],
        MAX_CYCLES,
    );
    if let Some(slot) = soc.now().checked_div(p.vsync) {
        soc.idle_until((slot + 1) * p.vsync);
    }
}

impl SweepPaced {
    /// The `snap` probe on request `k`'s prefix state: warm a SoC, time
    /// `Soc::checkpoint` and `Soc::restore`, then run one member's
    /// measured frames on both the straight and the restored SoC; they
    /// must agree bit for bit. The straight SoC's DRAM requests feed the
    /// memory replay, and its publish times the `obs` layer.
    fn snap_probe(&self, tr: &mut Tracer, k: usize, out: &mut Layer) -> Result<u64, String> {
        let job = &self.requests[k].jobs[0];
        let p = &job.params;
        let cfg = p.soc_config()?;
        let mut soc = Soc::new(cfg.clone());
        let binding = emerald::core::session::SceneBinding::new(&soc.mem, &p.workload()?);
        soc.memsys.enable_trace();
        for w in 0..p.warmup {
            paced_frame(&mut soc, &binding, p, w, false);
        }
        let bytes = tr.span("snap.checkpoint", |_| soc.checkpoint());
        let mut restored = tr
            .span("snap.restore", |_| Soc::restore(&bytes, &cfg))
            .map_err(|e| format!("restoring the prefix of request {k}: {e:?}"))?;
        for i in 0..p.frames {
            let (frame, late_z) = measured_frame(p, i);
            paced_frame(&mut soc, &binding, p, frame, late_z);
            paced_frame(&mut restored, &binding, p, frame, late_z);
        }
        let dump = |s: &Soc| {
            let mut reg = Registry::new();
            s.publish(&mut reg);
            reg.to_json_compact()
        };
        let straight = (
            soc.now(),
            fb_digest(&soc.rt.read_color(&soc.mem)),
            tr.span("obs.publish", |_| dump(&soc)),
        );
        let warm = (
            restored.now(),
            fb_digest(&restored.rt.read_color(&restored.mem)),
            dump(&restored),
        );
        if straight != warm {
            return Err(format!(
                "request {k}: restored prefix diverged from the straight run (cycles {} vs {})",
                warm.0, straight.0
            ));
        }
        if k == 0 {
            let trace = soc.memsys.take_trace();
            replay::replay(tr, soc.memsys.config(), trace, out)?;
        }
        Ok(bytes.len() as u64)
    }
}

impl Workload for SweepPaced {
    fn setup(seed: u64) -> (Self, f64) {
        let mut rng = Xorshift64::new(seed ^ 0x5EE9_0ACE);
        let texts: Vec<(String, usize)> = (0..POOL)
            .map(|n| {
                (
                    request_spec(&mut rng, n),
                    rng.below(SESSIONS as u64) as usize,
                )
            })
            .collect();
        let t0 = Instant::now();
        let requests = texts
            .iter()
            .map(|(text, twin)| {
                let spec = SweepSpec::parse(text).expect("generated spec parses");
                Request {
                    jobs: spec.expand().expect("generated spec expands"),
                    twin: *twin,
                }
            })
            .collect();
        let setup_s = t0.elapsed().as_secs_f64();
        (
            Self {
                requests,
                i: 0,
                last: None,
                window: None,
            },
            setup_s,
        )
    }

    fn step(&mut self, tr: &mut Tracer) -> u64 {
        let k = self.i % POOL;
        self.i += 1;
        let jobs = self.requests[k].jobs.clone();
        let outcome = tr.span("serve.run_jobs", |tr| {
            let submitted = Instant::now();
            let first = OnceLock::new();
            let on_result = |_: &SessionResult| {
                let _ = first.set(submitted.elapsed());
            };
            let outcome =
                emerald::serve::sched::run_jobs(jobs, true, Self::workers(), Some(&on_result));
            if let Some(d) = first.get() {
                tr.inner("serve.first_result", d.as_nanos() as u64);
            }
            outcome
        });
        let cycles = outcome.total_cycles;
        self.last = Some((k, outcome));
        cycles
    }

    fn check(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let (k, outcome) = self.last.take().expect("a step ran");
        let req = &self.requests[k];
        if outcome.results.len() != SESSIONS || outcome.prefixes != 1 {
            return Err(format!(
                "request {k}: {} sessions from {} prefixes, want {SESSIONS} from 1",
                outcome.results.len(),
                outcome.prefixes
            ));
        }
        if let Some(r) = outcome
            .results
            .iter()
            .find(|r| r.start != StartMode::Forked)
        {
            return Err(format!("request {k}: session {} was not forked", r.id));
        }
        let mut twin = Session::new_cold(req.jobs[req.twin].clone())?;
        while tr.span("soc.run_frame", |_| twin.step()) {}
        let cold = twin.finish();
        let forked = &outcome.results[req.twin];
        if signature(&cold) != signature(forked) {
            return Err(format!(
                "request {k}: session {} re-run cold differs from its forked twin (cycles {} vs {})",
                req.twin, cold.cycles, forked.cycles
            ));
        }
        if let Some(w) = &mut self.window {
            w.prefixes += outcome.prefixes as u64;
            for r in &outcome.results {
                let doc = Json::parse(&r.registry_json)?;
                w.reg.merge(&registry_from_json(&doc));
                w.json_bytes += r.registry_json.len() as u64;
                w.sessions += 1;
                w.cycles += r.cycles;
            }
        }
        let mut parts = Vec::with_capacity(outcome.results.len() * 3);
        for r in &outcome.results {
            parts.extend([r.cycles, r.fb_digest, digest(r.registry_json.as_bytes())]);
        }
        Ok(fold(&parts))
    }

    fn begin_counts(&mut self) {
        self.window = Some(Window::default());
    }

    /// Scheduler workers: two, or one on a single-CPU host.
    fn workers() -> usize {
        crate::stats::nproc().min(2)
    }

    fn end_counts(&mut self, tr: &mut Tracer, out: &mut Layer) -> Result<(), String> {
        let w = self.window.take().expect("count window open");
        let steps = COUNT_STEPS as f64;
        soc_counts(&w.reg, steps, out);
        // Paced frames: simulated cycles per frame, vsync idle included.
        let frames = f64::from(WARMUP + FRAMES) * w.sessions as f64;
        out.insert("soc.frame_cycles", w.cycles as f64 / frames.max(1.0));
        out.insert(
            "obs.json_bytes",
            w.json_bytes as f64 / w.sessions.max(1) as f64,
        );
        out.insert("serve.sessions", w.sessions as f64 / steps);
        out.insert("serve.prefixes", w.prefixes as f64 / steps);
        let mut snap_bytes = 0u64;
        for k in 0..SNAP_PROBES {
            tr.set_step((1 << 32) + k as u64);
            snap_bytes += self.snap_probe(tr, k, out)?;
        }
        out.insert("snap.bytes", snap_bytes as f64 / SNAP_PROBES as f64);
        Ok(())
    }
}
