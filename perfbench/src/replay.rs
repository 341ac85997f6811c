//! Memory-system replay probe: the requests a run recorded with
//! `MemorySystem::enable_trace` are fed, at their recorded cycles, into a
//! fresh `MemorySystem` built from the same configuration, which is then
//! ticked until every request is serviced. The replay isolates the host
//! cost of the memory layer (scheduler, banks, mapping) from the rest of
//! the model.
//!
//! The replay runs without the requesters' backpressure and without DASH
//! deadline feedback, so its timing is not the original run's; it must
//! still service exactly the recorded requests and bytes.

use crate::span::Tracer;
use crate::Layer;
use emerald::common::event::NextEvent;
use emerald::common::types::Cycle;
use emerald::mem::req::MemRequest;
use emerald::mem::system::{MemorySystem, MemorySystemConfig};
use std::collections::VecDeque;

/// Replays `trace` into a fresh memory system under a `mem.replay` span
/// and writes `mem.replay_ns_per_req` and `mem.replay_retries` (the
/// enqueue attempts the fresh system refused and the replay repeated a
/// cycle later).
pub fn replay(
    tr: &mut Tracer,
    cfg: &MemorySystemConfig,
    trace: Vec<(Cycle, MemRequest)>,
    out: &mut Layer,
) -> Result<(), String> {
    let reqs = trace.len() as u64;
    let bytes: u64 = trace.iter().map(|(_, r)| r.bytes as u64).sum();
    let t0 = std::time::Instant::now();
    let (serviced, served_bytes, retries) = tr.span("mem.replay", |_| run(cfg, trace));
    let ns = t0.elapsed().as_nanos() as f64;
    if serviced != reqs || served_bytes != bytes {
        return Err(format!(
            "mem replay serviced {serviced} requests / {served_bytes} bytes of {reqs} / {bytes}"
        ));
    }
    out.insert("mem.replay_ns_per_req", ns / reqs.max(1) as f64);
    out.insert("mem.replay_retries", retries as f64);
    Ok(())
}

fn run(cfg: &MemorySystemConfig, trace: Vec<(Cycle, MemRequest)>) -> (u64, u64, u64) {
    let mut sys = MemorySystem::new(cfg.clone());
    let mut pending: VecDeque<(Cycle, MemRequest)> = trace.into();
    let mut retry: VecDeque<MemRequest> = VecDeque::new();
    let (mut serviced, mut bytes, mut retries) = (0u64, 0u64, 0u64);
    let mut now: Cycle = pending.front().map_or(0, |(c, _)| *c);
    while !pending.is_empty() || !retry.is_empty() || !sys.is_idle() {
        // Refused requests go first, in order, before this cycle's new ones.
        let mut held = VecDeque::new();
        while let Some(r) = retry.pop_front() {
            if let Err(r) = sys.enqueue(r, now) {
                retries += 1;
                held.push_back(r);
            }
        }
        while pending.front().is_some_and(|(c, _)| *c <= now) {
            let (_, r) = pending.pop_front().expect("front");
            if !held.is_empty() {
                held.push_back(r);
            } else if let Err(r) = sys.enqueue(r, now) {
                retries += 1;
                held.push_back(r);
            }
        }
        retry = held;
        sys.tick(now);
        for resp in sys.drain_finished(now) {
            serviced += 1;
            bytes += resp.bytes as u64;
        }
        // Jump over quiet stretches: the next recorded request or the
        // memory system's own next event, whichever is first.
        let next_req = if retry.is_empty() {
            pending.front().map(|(c, _)| *c)
        } else {
            Some(now + 1)
        };
        let wake = emerald::common::event::earliest(next_req, sys.next_event(now));
        now = wake.map_or(now + 1, |t| t.max(now + 1));
    }
    (serviced, bytes, retries)
}
