//! Host-time spans recorded by the benchmark around calls into the crates'
//! public functions, their self times, and their Chrome-trace export.
//!
//! Spans live in memory until the run ends.  Each carries a name, start and
//! end (nanoseconds since the tracer was created), its parent span, the
//! operation it belongs to, and the modelled cost the devices were charged
//! while it was open.

use sketch_gpu_sim::{Device, KernelCost};
use sketch_obs::{chrome_trace, JsonValue, Stopwatch, TraceEvent, Track};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in its tracer.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `la.geqrf`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Modelled cost charged to the metered devices while the span was open.
    pub cost: KernelCost,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Stopwatch,
    devices: Vec<Arc<Device>>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer whose spans are charged the cost recorded on `devices`.
    pub fn new(devices: Vec<Arc<Device>>) -> Self {
        Self {
            epoch: Stopwatch::start(),
            devices,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Attribute the spans opened from now on to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`.  Spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let cost_before = self.metered_cost();
        let start_ns = self.epoch.elapsed_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
            cost: KernelCost::zero(),
        });
        self.stack.push(id);
        let out = f(self);
        let end_ns = self.epoch.elapsed_ns();
        self.stack.pop();
        let cost = self.metered_cost() - cost_before;
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.cost = cost;
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn metered_cost(&self) -> KernelCost {
        self.devices
            .iter()
            .fold(KernelCost::zero(), |acc, d| acc + d.tracker().snapshot())
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it, so overlapping children are not subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, intervals)| s.dur_ns() - union_len(intervals))
        .collect()
}

fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (lo, hi) in intervals {
        match current {
            Some((clo, chi)) if lo <= chi => current = Some((clo, chi.max(hi))),
            _ => {
                if let Some((clo, chi)) = current {
                    total += chi - clo;
                }
                current = Some((lo, hi));
            }
        }
    }
    total + current.map_or(0, |(lo, hi)| hi - lo)
}

/// What one operation's spans add up to, by span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpProfile {
    /// Duration of the operation's root span, nanoseconds.
    pub op_ns: u64,
    /// Name of the root span.
    pub root: &'static str,
    /// Summed self times of every span of the operation's tree, nanoseconds.
    pub self_sum_ns: u64,
    /// Per span name: summed duration (ns), summed self time (ns) and summed
    /// cost over every span of that name in the operation, the tree under the
    /// root and any probe roots alike.
    pub by_name: BTreeMap<&'static str, (u64, u64, KernelCost)>,
}

impl OpProfile {
    /// Summed duration of the spans named `name`, milliseconds (0 if none).
    pub fn ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.0 as f64 * 1e-6)
    }

    /// Summed self time of the spans named `name`, milliseconds (0 if none).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.1 as f64 * 1e-6)
    }

    /// Summed cost of the spans named `name`.
    pub fn cost(&self, name: &str) -> KernelCost {
        self.by_name.get(name).map_or(KernelCost::zero(), |v| v.2)
    }
}

/// Profile operation `op`: its root is the first root span carrying `op`;
/// later roots of the same operation (probes, replays) count in `by_name` but
/// not in `op_ns` or `self_sum_ns`.
pub fn op_profile(spans: &[Span], self_ns: &[u64], op: u64) -> Option<OpProfile> {
    let root = spans.iter().find(|s| s.op == op && s.parent.is_none())?;
    let mut in_tree = vec![false; spans.len()];
    let mut profile = OpProfile {
        op_ns: root.dur_ns(),
        root: root.name,
        ..OpProfile::default()
    };
    for s in spans.iter().filter(|s| s.op == op) {
        in_tree[s.id] = s.id == root.id || s.parent.is_some_and(|p| in_tree[p]);
        if in_tree[s.id] {
            profile.self_sum_ns += self_ns[s.id];
        }
        let entry = profile
            .by_name
            .entry(s.name)
            .or_insert((0, 0, KernelCost::zero()));
        entry.0 += s.dur_ns();
        entry.1 += self_ns[s.id];
        entry.2 += s.cost;
    }
    Some(profile)
}

/// Export spans through `sketch_obs`'s Chrome-trace writer.  The writer lays
/// wall-clock events end to end, so each slice's `ts` is then set to the
/// span's real start and its `args` gain the span, parent and operation ids.
pub fn to_chrome_trace(spans: &[Span]) -> JsonValue {
    let events: Vec<TraceEvent> = spans
        .iter()
        .map(|s| TraceEvent {
            name: s.name.to_string(),
            device: 0,
            track: Track::Wall,
            sim: None,
            wall_ns: s.dur_ns(),
            cost: s.cost.into(),
        })
        .collect();
    let mut doc = chrome_trace(&events);
    if let JsonValue::Object(fields) = &mut doc {
        if let Some((_, JsonValue::Array(slices))) =
            fields.iter_mut().find(|(k, _)| k == "traceEvents")
        {
            let complete = slices
                .iter_mut()
                .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"));
            for (slice, span) in complete.zip(spans) {
                if let JsonValue::Object(kv) = slice {
                    for (key, value) in kv.iter_mut() {
                        match key.as_str() {
                            "ts" => *value = JsonValue::Float(span.start_ns as f64 * 1e-3),
                            "args" => {
                                if let JsonValue::Object(args) = value {
                                    args.push(("span_id".into(), JsonValue::UInt(span.id as u64)));
                                    args.push((
                                        "parent_id".into(),
                                        span.parent
                                            .map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64)),
                                    ));
                                    args.push(("op_id".into(), JsonValue::UInt(span.op)));
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }
    doc
}
