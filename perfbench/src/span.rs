//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in a span: a
//! name (`<layer>.<what>`), start and end, the parent span and the id of
//! the step it belongs to. Spans stay in memory and are written out once,
//! at exit, as Chrome-trace JSON. With tracing off the recorder only runs
//! the wrapped closure, so the untraced run pays nothing.
//!
//! A span's *self time* is its duration minus the time its children
//! cover. Children of one parent never overlap (the benchmark drives one
//! layer at a time), so the self times of a step's spans add up to the
//! step's wall time exactly.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `gpu.run_to_idle`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Step (or probe) id the span belongs to.
    pub step: u64,
    /// True when the caller measured the span (see [`Tracer::inner`]); it
    /// is laid at its parent's start.
    pub inner: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The recorder. `on == false` makes every method a pass-through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    step: u64,
}

impl Tracer {
    /// A recorder that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            step: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the id given to spans opened from now on.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            step: self.step,
            inner: false,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Records a child of the innermost open span that starts with it and
    /// lasts `ns`, measured by the caller: either the summed time of many
    /// calls too short to record one by one (the memory port), or an
    /// interval observed inside the callee (time to first result).
    pub fn inner(&mut self, name: &'static str, ns: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent,
            step: self.step,
            inner: true,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (duration minus the time its children
    /// cover), indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Checks the tree is well formed: every child lies inside its parent
    /// and the children of one parent do not cover more than the parent.
    /// Then the self times of each root's subtree sum to the root's wall
    /// time.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!(
                        "span {i} ({}) leaves its parent {p} ({})",
                        s.name, ps.name
                    ));
                }
                child_ns[p] += s.dur_ns();
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if child_ns[i] > s.dur_ns() {
                return Err(format!(
                    "children of span {i} ({}) cover {} ns of its {} ns",
                    s.name,
                    child_ns[i],
                    s.dur_ns()
                ));
            }
        }
        Ok(())
    }

    /// Chrome-trace JSON (`{"traceEvents": [...]}`, complete events only):
    /// one track, nesting shown by the viewer; the step id, parent index
    /// and self time ride in `args`.
    pub fn chrome_json(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"step\":{},\"parent\":{},\"self_us\":{:.3},\"inner\":{}}}}}",
                s.name,
                s.layer(),
                // Caller-measured spans sit on their own track: a sum is
                // not an interval and would otherwise hide its parent.
                if s.inner { 2 } else { 1 },
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.step,
                s.parent.map_or(-1, |p| p as i64),
                self_ns as f64 / 1e3,
                s.inner
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.span("step", |t| {
            t.span("gpu.a", |t| {
                std::hint::black_box((0..1000).sum::<u64>());
                t.inner("mem.port", 0);
            });
            t.span("obs.b", |_| ());
        });
        t.check_nesting().unwrap();
        let total: u64 = t.self_times().iter().sum();
        assert_eq!(total, t.spans()[0].dur_ns());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
