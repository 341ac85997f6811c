//! The repository benchmark: three closed-loop workloads driven through
//! the public API at intra-sim `threads = 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gpgpu|soc_dense|sweep_paced> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics (`setup_s`,
//! `step_ms_p50`, `step_ms_p90`, `sim_cycles_per_s`, `peak_rss_mib`).
//! With `--trace 1` it spends half its time untraced and half traced and
//! reports the per-layer metrics, writing the spans as a Chrome trace to
//! `perfbench/out/`. The last line of standard output is the result
//! object; the line before it carries run metadata. Any failed check
//! makes `correct` false and the exit code 1. See `perfbench/README.md`.

mod counts;
mod gpgpu;
mod replay;
mod soc_dense;
mod span;
mod stats;
mod sweep_paced;

use span::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. The first builds the
/// measured instance; the others are spread evenly over the untraced
/// pass, between steps, so they sample the same host conditions as the
/// step times.
const SETUPS: usize = 21;
/// Steps run before measurement starts (modelled caches warm, lazy
/// host state settled). Reported with set-up, never in step times.
const WARMUP_STEPS: usize = 3;
/// Fewest measured steps in the untraced pass, whatever the time
/// budget: p90 then has at least ten steps beyond it.
const MIN_STEPS: usize = 100;
/// Steps of the traced phase over which simulated counts are taken.
/// Fixed, so the counts are deterministic for a seed.
pub const COUNT_STEPS: usize = 16;
/// Measured steps re-run from a fresh set-up to check that the same seed
/// gives the same simulated results.
const REPLICA_STEPS: usize = 2;

/// Per-layer values gathered by a traced phase, by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// One closed-loop workload.
pub trait Workload: Sized {
    /// Builds the workload's state from its seed. Returns the state and
    /// the seconds spent in library set-up (the part `setup_s` times;
    /// the benchmark's own checking state is excluded).
    fn setup(seed: u64) -> (Self, f64);
    /// Runs one step and returns the simulated cycles it covered; the
    /// runner times it. Layer calls go through `tr`.
    fn step(&mut self, tr: &mut Tracer) -> u64;
    /// Checks the last step's outputs (untimed) and returns a
    /// fingerprint of its simulated results.
    fn check(&mut self, tr: &mut Tracer) -> Result<u64, String>;
    /// Opens the count window (traced phase only).
    fn begin_counts(&mut self);
    /// Closes the count window: writes the simulated counts and the
    /// probe results into `out`. A probe that perturbs the model is an
    /// error, not a number.
    fn end_counts(&mut self, tr: &mut Tracer, out: &mut Layer) -> Result<(), String>;
    /// Host threads the workload runs its sessions on.
    fn workers() -> usize {
        1
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Library code reads `EMERALD_*` variables (clocking mode, CPU
/// batching, thread count, profiling, debug output), so an inherited one
/// would silently change the program under measurement.
fn refuse_inherited_env() -> Result<(), String> {
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("EMERALD_"))
        .collect();
    if inherited.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with inherited {}: modes are set through config fields only",
            inherited.join(", ")
        ))
    }
}

fn main() {
    let args = match refuse_inherited_env().and_then(|()| parse_args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <gpgpu|soc_dense|sweep_paced> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "gpgpu" => run::<gpgpu::Gpgpu>(&args),
        "soc_dense" => run::<soc_dense::SocDense>(&args),
        "sweep_paced" => run::<sweep_paced::SweepPaced>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (gpgpu, soc_dense, sweep_paced)");
            std::process::exit(2);
        }
    };
    let correct = report.failures.is_empty();
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", report.meta);
    let failed = report.failures.len() as u64;
    println!(
        "{}",
        result_json(correct, report.attempted, failed, &report.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Everything a run reports.
struct Report {
    attempted: u64,
    failures: Vec<String>,
    /// `(name, value, unit)` in output order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    meta: String,
}

/// One pass over a workload instance: step times, cycles, and the
/// fingerprint of every checked step (`None` where the check failed).
#[derive(Default)]
struct Phase {
    step_ms: Vec<f64>,
    cycles: u64,
    /// Fingerprints of warm-up and measured steps, in order.
    prints: Vec<Option<u64>>,
    failures: Vec<String>,
}

impl Phase {
    fn record_check(&mut self, r: Result<u64, String>) {
        let step = self.prints.len();
        match r {
            Ok(fp) => self.prints.push(Some(fp)),
            Err(e) => {
                self.failures.push(format!("step {step}: {e}"));
                self.prints.push(None);
            }
        }
    }

    /// Runs and checks `n` untimed steps.
    fn unmeasured<W: Workload>(&mut self, w: &mut W, n: usize) {
        let mut off = Tracer::new(false);
        for _ in 0..n {
            w.step(&mut off);
            let r = w.check(&mut off);
            self.record_check(r);
        }
    }

    /// Runs measured steps until `budget_s` has passed and at least
    /// `min_steps` ran. With `tr` on, the first [`COUNT_STEPS`] form the
    /// count window, closed by the workload's probes. With `setups`
    /// given, an untimed set-up from `seed` runs between steps each time
    /// another equal share of the budget has passed (the rest after the
    /// last step), and its time is appended.
    fn measure<W: Workload>(
        &mut self,
        w: &mut W,
        tr: &mut Tracer,
        budget_s: f64,
        min_steps: usize,
        layer: &mut Layer,
        mut setups: Option<(u64, &mut Vec<f64>)>,
    ) {
        let t_start = Instant::now();
        let mut i = 0usize;
        while i < min_steps || t_start.elapsed().as_secs_f64() < budget_s {
            spare_setup::<W>(&mut setups, t_start.elapsed().as_secs_f64() / budget_s);
            if tr.on() && i == 0 {
                w.begin_counts();
            }
            tr.set_step(i as u64);
            let t0 = Instant::now();
            let cycles = tr.span("step", |tr| w.step(tr));
            self.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.cycles += cycles;
            let r = tr.span("check", |tr| w.check(tr));
            self.record_check(r);
            i += 1;
            if tr.on() && i == COUNT_STEPS {
                tr.set_step(u64::MAX);
                if let Err(e) = w.end_counts(tr, layer) {
                    self.failures.push(format!("probe: {e}"));
                }
            }
        }
        for _ in 0..SETUPS {
            spare_setup::<W>(&mut setups, f64::INFINITY);
        }
    }
}

/// Runs one spare set-up once `done`, the share of the budget passed,
/// reaches the next of `SETUPS - 1` even marks, and records its time.
fn spare_setup<W: Workload>(setups: &mut Option<(u64, &mut Vec<f64>)>, done: f64) {
    let Some((seed, times)) = setups else {
        return;
    };
    let spares = (SETUPS - 1) as f64;
    if times.len() < SETUPS && done * spares >= times.len() as f64 {
        let (w, s) = W::setup(*seed);
        drop(w);
        times.push(s);
    }
}

/// Fingerprint mismatches between two passes over the same seed, for
/// steps both passes checked successfully.
fn compare_prints(what: &str, a: &[Option<u64>], b: &[Option<u64>]) -> Vec<String> {
    a.iter()
        .zip(b)
        .enumerate()
        .filter_map(|(i, pair)| match pair {
            (Some(x), Some(y)) if x != y => {
                Some(format!("{what}: step {i} fingerprint {x:016x} != {y:016x}"))
            }
            _ => None,
        })
        .collect()
}

fn run<W: Workload>(args: &Args) -> Report {
    let name = args.workload.as_str();
    let (mut w, s) = W::setup(args.seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    setup_s.push(s);

    let mut main = Phase::default();
    let t0 = Instant::now();
    main.unmeasured(&mut w, WARMUP_STEPS);
    let warmup_s = t0.elapsed().as_secs_f64();
    let (budget, min_steps) = if args.trace {
        (args.seconds / 2.0, COUNT_STEPS)
    } else {
        (args.seconds, MIN_STEPS)
    };
    let mut layer = Layer::new();
    let mut untraced = Tracer::new(false);
    let setups = (!args.trace).then_some((args.seed, &mut setup_s));
    main.measure(&mut w, &mut untraced, budget, min_steps, &mut layer, setups);
    drop(w);

    // A second instance from the same seed: the traced pass, or a short
    // replica. Either way the steps it shares with the first pass must
    // agree bit for bit.
    let (mut w, _) = W::setup(args.seed);
    let mut second = Phase::default();
    second.unmeasured(&mut w, WARMUP_STEPS);
    let mut tracer = Tracer::new(args.trace);
    if args.trace {
        second.measure(&mut w, &mut tracer, budget, COUNT_STEPS, &mut layer, None);
    } else {
        second.unmeasured(&mut w, REPLICA_STEPS);
    }
    drop(w);

    let mut attempted = (main.prints.len() + second.prints.len()) as u64;
    let mut failures = std::mem::take(&mut main.failures);
    failures.append(&mut second.failures);
    let what = if args.trace {
        "traced vs untraced pass"
    } else {
        "replica of the same seed"
    };
    failures.extend(compare_prints(what, &main.prints, &second.prints));

    let p50 = stats::median(&main.step_ms);
    let p90 = stats::quantile(&main.step_ms, 0.9);
    let sim_s = main.step_ms.iter().sum::<f64>() / 1e3;
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut trace_file = String::new();
    if args.trace {
        // The probes and the span-tree check are one operation each.
        attempted += 2;
        if let Err(e) = tracer.check_nesting() {
            failures.push(format!("span tree: {e}"));
        }
        layer_host_times(&tracer, &mut layer);
        let traced_p50 = stats::median(&second.step_ms);
        layer.insert("trace.overhead_pct", (traced_p50 / p50 - 1.0) * 100.0);
        for &(metric, unit) in PER_LAYER {
            metrics.push((metric, layer.get(metric).copied().unwrap_or(0.0), unit));
        }
        trace_file = format!("perfbench/out/{name}-seed{}.trace.json", args.seed);
        if let Err(e) = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&trace_file, tracer.chrome_json()))
        {
            failures.push(format!("writing {trace_file}: {e}"));
        }
    } else {
        metrics.push(("setup_s", stats::median(&setup_s), "s"));
        metrics.push(("step_ms_p50", p50, "ms"));
        metrics.push(("step_ms_p90", p90, "ms"));
        metrics.push(("sim_cycles_per_s", main.cycles as f64 / sim_s, "1/s"));
        metrics.push(("peak_rss_mib", stats::peak_rss_mib(), "MiB"));
    }

    eprintln!(
        "{name} seed={}: setup {:.4} s (median of {}), warm-up {WARMUP_STEPS} steps {warmup_s:.3} s, {} steps p50 {p50:.3} ms p90 {p90:.3} ms, {:.0} sim cycles/s",
        args.seed,
        stats::median(&setup_s),
        setup_s.len(),
        main.step_ms.len(),
        main.cycles as f64 / sim_s
    );
    let mut meta = emerald::common::json::JsonWriter::new();
    meta.begin_obj().key("meta").begin_obj();
    meta.key("workload").str(name);
    meta.key("seed").num_u64(args.seed);
    meta.key("seconds").num(args.seconds);
    meta.key("trace").bool(args.trace);
    meta.key("nproc").num_u64(stats::nproc() as u64);
    meta.key("workers").num_u64(W::workers() as u64);
    meta.key("intra_sim_threads").num_u64(1);
    meta.key("git_commit").str(&stats::git_commit());
    meta.key("setup_s_each").begin_arr();
    for s in &setup_s {
        meta.num(*s);
    }
    meta.end_arr();
    meta.key("warmup_steps").num_u64(WARMUP_STEPS as u64);
    meta.key("warmup_s").num(warmup_s);
    meta.key("steps").num_u64(main.step_ms.len() as u64);
    meta.key("steps_beyond_p90")
        .num_u64(main.step_ms.iter().filter(|&&t| t > p90).count() as u64);
    meta.key("sim_cycles").num_u64(main.cycles);
    // Same seed, same fingerprint: comparable across runs and commits.
    let prints: Vec<u64> = main
        .prints
        .iter()
        .take(WARMUP_STEPS + COUNT_STEPS)
        .map(|p| p.unwrap_or(0))
        .collect();
    meta.key("run_fingerprint")
        .str(&format!("{:016x}", stats::fold(&prints)));
    if args.trace {
        meta.key("traced_steps")
            .num_u64(second.step_ms.len() as u64);
        meta.key("count_steps").num_u64(COUNT_STEPS as u64);
        meta.key("layer_self_share").begin_obj();
        for (layer_name, share) in layer_shares(&tracer) {
            meta.key(layer_name).num(share);
        }
        meta.end_obj();
        meta.key("chrome_trace").str(&trace_file);
    }
    meta.end_obj().end_obj();
    Report {
        attempted,
        failures,
        metrics,
        meta: meta.finish(),
    }
}

/// Every per-layer metric with its unit, in output order. A metric the
/// workload does not exercise (or cannot separate from outside) reads 0;
/// the README lists which apply where.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gpu.run_to_idle_ms", "ms"),
    ("gpu.self_ms", "ms"),
    ("gpu.host_ns_per_instr", "ns"),
    ("gpu.cycles", "count"),
    ("gpu.issued", "count"),
    ("gpu.ipc", "instr/cycle"),
    ("gpu.l1d_hit_rate", "ratio"),
    ("gpu.l2_hit_rate", "ratio"),
    ("gpu.mem_reads", "count"),
    ("gpu.mem_writes", "count"),
    ("core.fragments", "count"),
    ("core.raster_tiles", "count"),
    ("core.hiz_killed", "count"),
    ("core.tex_samples", "count"),
    ("mem.port_ms", "ms"),
    ("mem.port_calls", "count"),
    ("mem.send_accept_ratio", "ratio"),
    ("mem.replay_ms", "ms"),
    ("mem.replay_ns_per_req", "ns"),
    ("mem.replay_retries", "count"),
    ("mem.dram_serviced", "count"),
    ("mem.dram_bytes", "bytes"),
    ("mem.dram_row_hit_rate", "ratio"),
    ("mem.dram_avg_read_latency", "cycles"),
    ("soc.run_frame_ms", "ms"),
    ("soc.frame_cycles", "count"),
    ("soc.cpu_instrs", "count"),
    ("soc.cpu_stall_cycles", "count"),
    ("soc.display_frames_aborted", "count"),
    ("snap.checkpoint_ms", "ms"),
    ("snap.restore_ms", "ms"),
    ("snap.bytes", "bytes"),
    ("obs.publish_ms", "ms"),
    ("obs.json_bytes", "bytes"),
    ("serve.run_jobs_ms", "ms"),
    ("serve.first_result_ms", "ms"),
    ("serve.sessions", "count"),
    ("serve.prefixes", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
];

/// Host-time metrics from the spans: for each span name, the median over
/// steps of the per-step total (duration, and self time for `gpu`).
fn layer_host_times(tr: &Tracer, layer: &mut Layer) {
    let spans = tr.spans();
    let selfs = tr.self_times();
    // name -> step -> (total duration ns, total self ns)
    let mut per: BTreeMap<&'static str, BTreeMap<u64, (u64, u64)>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let e = per.entry(s.name).or_default().entry(s.step).or_default();
        e.0 += s.dur_ns();
        e.1 += self_ns;
    }
    let med = |name: &str, use_self: bool| -> Option<f64> {
        let steps = per.get(name)?;
        let v: Vec<f64> = steps
            .values()
            .map(|&(d, s)| if use_self { s } else { d } as f64 / 1e6)
            .collect();
        Some(stats::median(&v))
    };
    let pairs: [(&'static str, &str, bool); 10] = [
        ("gpu.run_to_idle_ms", "gpu.run_to_idle", false),
        ("gpu.self_ms", "gpu.run_to_idle", true),
        ("mem.port_ms", "mem.port", false),
        ("soc.run_frame_ms", "soc.run_frame", false),
        ("snap.checkpoint_ms", "snap.checkpoint", false),
        ("snap.restore_ms", "snap.restore", false),
        ("obs.publish_ms", "obs.publish", false),
        ("serve.run_jobs_ms", "serve.run_jobs", false),
        ("serve.first_result_ms", "serve.first_result", false),
        ("mem.replay_ms", "mem.replay", false),
    ];
    for (metric, span_name, use_self) in pairs {
        if let Some(v) = med(span_name, use_self) {
            layer.insert(metric, v);
        }
    }
    if let Some(v) = med("step", true) {
        layer.insert("trace.unattributed_ms", v);
    }
}

/// Each layer's share of traced step wall time (self times; `step` is
/// the unattributed remainder).
fn layer_shares(tr: &Tracer) -> Vec<(&'static str, f64)> {
    let spans = tr.spans();
    let selfs = tr.self_times();
    let mut in_step = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_step[i] = s.name == "step" || s.parent.is_some_and(|p| in_step[p]);
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut wall = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if !in_step[i] {
            continue;
        }
        if s.name == "step" {
            wall += s.dur_ns();
            *by_layer.entry("unattributed").or_default() += selfs[i];
        } else {
            *by_layer.entry(s.layer()).or_default() += selfs[i];
        }
    }
    by_layer
        .into_iter()
        .map(|(k, v)| (k, v as f64 / wall.max(1) as f64))
        .collect()
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut w = emerald::common::json::JsonWriter::new();
    w.begin_obj();
    w.key("correct").bool(correct);
    w.key("attempted").num_u64(attempted);
    w.key("failed").num_u64(failed);
    w.key("metrics").begin_obj();
    for (name, value, unit) in metrics {
        w.key(name).begin_obj();
        w.key("value").num(*value);
        w.key("unit").str(unit);
        w.end_obj();
    }
    w.end_obj().end_obj();
    w.finish()
}
