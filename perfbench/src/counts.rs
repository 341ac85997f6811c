//! Per-layer simulated counts read from registry deltas. Every count is
//! taken over the fixed count window, so it is deterministic for a seed
//! and identical under any host-only change.

use crate::Layer;
use emerald::obs::{Registry, Value};

/// Writes the DRAM counters of registry delta `d` (published under
/// `mem.dram`), per step over `steps` steps.
pub fn dram_counts(d: &Registry, steps: f64, out: &mut Layer) {
    let get = |p: &str| d.get(p).map_or(0.0, |v| v.scalar());
    out.insert("mem.dram_serviced", get("mem.dram.serviced") / steps);
    out.insert("mem.dram_bytes", get("mem.dram.bytes") / steps);
    out.insert("mem.dram_row_hit_rate", ratio(d, "mem.dram.row_hits"));
    out.insert(
        "mem.dram_avg_read_latency",
        get("mem.dram.read_latency_sum") / get("mem.dram.reads_serviced").max(1.0),
    );
}

/// The value of a ratio instrument, 0 when it has no samples.
pub fn ratio(d: &Registry, path: &str) -> f64 {
    match d.get(path) {
        Some(Value::Ratio(r)) if r.den > 0 => r.num as f64 / r.den as f64,
        _ => 0.0,
    }
}

/// Sum of the counters `{prefix}N.{leaf}` over every index `N`.
pub fn sum_indexed(d: &Registry, prefix: &str, leaf: &str) -> f64 {
    d.iter()
        .filter(|(path, _)| {
            path.strip_prefix(prefix)
                .and_then(|rest| rest.split_once('.'))
                .is_some_and(|(n, l)| {
                    l == leaf && !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())
                })
        })
        .map(|(_, v)| v.scalar())
        .sum()
}

/// The GPU, renderer, DRAM and CPU/display counters of a SoC registry
/// delta `d` (as `Soc::publish` lays it out), per step over `steps`.
pub fn soc_counts(d: &Registry, steps: f64, out: &mut Layer) {
    let get = |p: &str| d.get(p).map_or(0.0, |v| v.scalar());
    let gpu_cycles = match d.get("gfx.draw_cycles") {
        Some(Value::Summary(s)) => s.sum(),
        _ => 0.0,
    };
    let issued = get("gfx.gpu.issued");
    out.insert("gpu.cycles", gpu_cycles / steps);
    out.insert("gpu.issued", issued / steps);
    out.insert(
        "gpu.ipc",
        if gpu_cycles > 0.0 {
            issued / gpu_cycles
        } else {
            0.0
        },
    );
    out.insert("gpu.l1d_hit_rate", ratio(d, "gfx.gpu.cores.l1d.hits"));
    out.insert("gpu.l2_hit_rate", ratio(d, "gfx.gpu.l2.hits"));
    out.insert("gpu.mem_reads", get("gfx.gpu.mem_reads") / steps);
    out.insert("gpu.mem_writes", get("gfx.gpu.mem_writes") / steps);
    out.insert(
        "core.fragments",
        sum_indexed(d, "gfx.cluster", "fragments") / steps,
    );
    out.insert(
        "core.raster_tiles",
        sum_indexed(d, "gfx.cluster", "raster_tiles") / steps,
    );
    out.insert(
        "core.hiz_killed",
        sum_indexed(d, "gfx.cluster", "hiz_killed") / steps,
    );
    out.insert("core.tex_samples", get("gfx.ctx.tex_samples") / steps);
    dram_counts(d, steps, out);
    out.insert(
        "soc.cpu_instrs",
        sum_indexed(d, "soc.cpu", "instrs") / steps,
    );
    out.insert(
        "soc.cpu_stall_cycles",
        sum_indexed(d, "soc.cpu", "stall_cycles") / steps,
    );
    out.insert(
        "soc.display_frames_aborted",
        get("soc.display.frames_aborted") / steps,
    );
}
