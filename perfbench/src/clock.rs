//! Time source and span recorder.
//!
//! The workspace audit (rule R2) bans wall-clock reads outside a few
//! sanctioned files, so the benchmark reads time only through the sanctioned
//! profiler, `miss_util::profile`. [`Clock`] keeps exactly one profile scope
//! open; each read closes it, which adds the scope's elapsed nanoseconds to
//! the phase total, and opens the next. The phase total is then the time
//! since the clock started, less the few nanoseconds the profiler spends
//! between closing one scope and opening the next.
//!
//! [`Tracer`] wraps the clock. [`Tracer::time`] always measures (the outer
//! timings every run needs); with tracing on it also records a [`Span`]
//! (name, start, end, parent, request id). Spans stay in memory until the
//! run writes them out.

use miss_util::profile;

const CLOCK_PHASE: &str = "perfbench.clock";
const COST_PHASE: &str = "perfbench.scope_cost";

/// Profile scopes the program itself has closed: every phase but the
/// benchmark's own `perfbench.*` ones. `MISS_PROFILE` is on for the whole
/// process, so the library's scopes (serve.gemm, train/adam, ...) run in
/// every measured figure.
pub fn program_scopes() -> u64 {
    profile::snapshot()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("perfbench."))
        .map(|(_, s)| s.calls)
        .sum()
}

/// Monotonic nanosecond clock built on profile-scope deltas.
pub struct Clock {
    segment: Option<profile::Scope>,
}

impl Clock {
    /// Start the clock. Fails when `MISS_PROFILE` is off, since the
    /// profiler then records nothing.
    pub fn start() -> Result<Clock, String> {
        if !profile::enabled() {
            return Err(
                "MISS_PROFILE is not set: the benchmark reads time through miss_util::profile"
                    .into(),
            );
        }
        Ok(Clock {
            segment: Some(profile::scope(CLOCK_PHASE)),
        })
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&mut self) -> u64 {
        self.segment = None;
        self.segment = Some(profile::scope(CLOCK_PHASE));
        profile::snapshot()
            .into_iter()
            .find(|(name, _)| *name == CLOCK_PHASE)
            .map_or(0, |(_, s)| u64::try_from(s.total_ns).unwrap_or(u64::MAX))
    }
}

/// One recorded interval. `virtual_time` spans live on the serving
/// simulation's timeline (scheduled arrivals plus measured service times)
/// rather than the host clock.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
    pub virtual_time: bool,
}

impl Span {
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time and count of every span with one name.
#[derive(Clone, Debug, Default)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
    pub leaf: bool,
}

pub struct Tracer {
    clock: Clock,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Result<Tracer, String> {
        Ok(Tracer {
            clock: Clock::start()?,
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        })
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Turn span recording on or off; returns the previous setting.
    pub fn set_recording(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.recording, on)
    }

    pub fn now_ns(&mut self) -> u64 {
        self.clock.now_ns()
    }

    /// Host nanoseconds one profile scope costs to open and close, on this
    /// thread with no lock contention, averaged over `n` scopes.
    pub fn scope_cost_ns(&mut self, n: u32) -> f64 {
        let start = self.clock.now_ns();
        for _ in 0..n {
            drop(profile::scope(COST_PHASE));
        }
        self.clock.now_ns().saturating_sub(start) as f64 / f64::from(n.max(1))
    }

    /// Run `f`, returning its result and elapsed nanoseconds; records a
    /// span named `name` (child of the innermost open span) when recording.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let start = self.clock.now_ns();
        let idx = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent: self.open.last().copied(),
                request: None,
                virtual_time: false,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = self.clock.now_ns();
        if let Some(i) = idx {
            self.open.pop();
            if let Some(s) = self.spans.get_mut(i) {
                s.end_ns = end;
            }
        }
        (out, end.saturating_sub(start))
    }

    /// Record a span on the serving simulation's virtual timeline; returns
    /// its index (for children) or `None` when not recording.
    pub fn record_virtual(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.recording {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            virtual_time: true,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name self time (span length minus the children it covers),
    /// total time and count, for one timeline, in name order.
    pub fn layer_totals(&self, virtual_time: bool) -> Vec<(&'static str, LayerTotal)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let (Some(c), Some(h)) = (child_ns.get_mut(p), has_child.get_mut(p)) {
                    *c += s.len_ns();
                    *h = true;
                }
            }
        }
        let mut out: std::collections::BTreeMap<&'static str, LayerTotal> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.virtual_time != virtual_time {
                continue;
            }
            let e = out.entry(s.name).or_insert(LayerTotal {
                leaf: true,
                ..LayerTotal::default()
            });
            e.self_ns += s.len_ns().saturating_sub(child_ns[i]);
            e.total_ns += s.len_ns();
            e.count += 1;
            e.leaf &= !has_child[i];
        }
        out.into_iter().collect()
    }

    /// Durations (ns) of every host span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| !s.virtual_time && s.name == name)
            .map(Span::len_ns)
            .collect()
    }

    /// Sum over host spans named `child` of their durations, grouped by the
    /// nearest ancestor named `group`, in the order the groups were opened.
    pub fn sums_per(&self, group: &str, child: &str) -> Vec<u64> {
        let mut slot = vec![None; self.spans.len()];
        let mut sums = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.virtual_time {
                continue;
            }
            if s.name == group {
                slot[i] = Some(sums.len());
                sums.push(0u64);
                continue;
            }
            slot[i] = s.parent.and_then(|p| slot.get(p).copied().flatten());
            if s.name == child {
                if let Some(g) = slot[i] {
                    sums[g] += s.len_ns();
                }
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
            virtual_time: false,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer {
            clock: Clock { segment: None },
            recording: true,
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let t = tracer_with(vec![
            span("step", 0, 100, None),
            span("micro", 10, 40, Some(0)),
            span("forward", 12, 30, Some(1)),
            span("micro", 50, 90, Some(0)),
        ]);
        let totals = t.layer_totals(false);
        let get = |n: &str| totals.iter().find(|(k, _)| *k == n).map(|(_, v)| v.clone());
        let step = get("step").expect("step");
        assert_eq!((step.self_ns, step.total_ns, step.leaf), (30, 100, false));
        let micro = get("micro").expect("micro");
        assert_eq!((micro.self_ns, micro.count, micro.leaf), (52, 2, false));
        let fwd = get("forward").expect("forward");
        assert_eq!((fwd.self_ns, fwd.leaf), (18, true));
        assert_eq!(t.sums_per("step", "forward"), vec![18]);
        assert_eq!(t.durations("micro"), vec![30, 40]);
    }
}
