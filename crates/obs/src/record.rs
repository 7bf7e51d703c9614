//! The span/event recorder API.
//!
//! A [`Recorder`] is the sink that instrumented layers (the simulated device,
//! the stream scheduler, the profiler, the wall-clock sampler) emit
//! [`TraceEvent`]s into.  Two implementations ship here:
//!
//! * [`NoopRecorder`] — the zero-cost default.  Its [`Recorder::enabled`] is
//!   `false`, so instrumented hot paths skip event construction entirely
//!   (no allocation, no lock; one relaxed atomic load at the call site).
//! * [`TraceCollector`] — a thread-safe in-memory buffer whose contents feed
//!   the exporters in [`crate::export`].

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which track of the trace an event belongs to.
///
/// The first two mirror the simulated stream kinds in gpu-sim (one compute and
/// one communication stream per device); the remaining tracks carry
/// serially-clocked kernel launches, driver phases, and measured wall-clock
/// samples.  Each `(device, track)` pair renders as its own row in Perfetto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The device's simulated compute stream (overlapped schedule).
    Compute,
    /// The device's simulated communication stream (overlapped schedule).
    Comm,
    /// Kernel launches under the device's serial modelled clock.
    Kernel,
    /// Driver phases (the Figure-5 breakdown) under a profiler-local modelled clock.
    Phase,
    /// Measured wall-clock samples (host time, not modelled time).
    Wall,
    /// Fault and recovery markers: device deaths and the recovery spans the
    /// executor spends recomputing lost shards on the survivors.
    Fault,
}

impl Track {
    /// Stable short name used in exports and tests.
    pub fn name(self) -> &'static str {
        match self {
            Track::Compute => "compute",
            Track::Comm => "comm",
            Track::Kernel => "kernel",
            Track::Phase => "phase",
            Track::Wall => "wall",
            Track::Fault => "fault",
        }
    }
}

/// The cost of the region an event covers, flattened to plain integers so the
/// bottom crate needs no dependency on gpu-sim's `KernelCost` or sketch-dist's
/// `CommCost` (both convert into this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Bytes read from device memory.
    pub bytes_read: u64,
    /// Bytes written to device memory.
    pub bytes_written: u64,
    /// Floating point operations.
    pub flops: u64,
    /// Kernel launches in the region.
    pub launches: u64,
    /// Bytes moved over the interconnect by collectives.
    pub comm_bytes: u64,
}

impl CostBreakdown {
    /// Accumulate another region's cost into this one.
    pub fn accumulate(&mut self, other: &CostBreakdown) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.flops += other.flops;
        self.launches += other.launches;
        self.comm_bytes += other.comm_bytes;
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Phase or kernel name (e.g. `"s0 countsketch shard 2"`).
    pub name: String,
    /// Device ordinal within its pool (wall events use the host pseudo-device).
    pub device: usize,
    /// Which track the span belongs to.
    pub track: Track,
    /// Modelled sim-time interval `(start, end)` in seconds; `None` for
    /// wall-only events.  This half of the trace is deterministic.
    pub sim: Option<(f64, f64)>,
    /// Measured wall-clock nanoseconds of the region (0 when not measured).
    pub wall_ns: u64,
    /// Cost counters of the region.
    pub cost: CostBreakdown,
}

/// The sink instrumented layers emit events into.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Whether event construction is worthwhile.  Hot paths check this before
    /// building a [`TraceEvent`]; when `false` they pay nothing else.
    fn enabled(&self) -> bool;
    /// Record one event.  Called only when [`Recorder::enabled`] is `true`.
    fn record(&self, event: TraceEvent);
}

/// A shared handle to a recorder.
pub type RecorderHandle = Arc<dyn Recorder>;

/// The zero-cost default recorder: disabled, drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

/// Locks `mutex`, recovering the guard if a thread panicked while holding it.
///
/// Every mutex in the workspace guards plain data that no critical section can
/// leave half-updated, so a poisoned lock is safe to keep using.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread-safe in-memory event buffer.
///
/// Events are appended under a mutex in emission order; the simulated-clock
/// half of that order is deterministic (see the determinism contract in
/// ARCHITECTURE.md § Observability), so two runs of the same workload produce
/// bit-identical sim tracks.
#[derive(Debug, Default)]
pub struct TraceCollector {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceCollector {
    /// Create an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty collector behind a shareable handle.
    pub fn shared() -> Arc<TraceCollector> {
        Arc::new(Self::new())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.events).is_empty()
    }

    /// Clone out the events recorded so far, in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        lock(&self.events).clone()
    }

    /// Drain the buffer, returning all events recorded so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *lock(&self.events))
    }
}

impl Recorder for TraceCollector {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        lock(&self.events).push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            device: 0,
            track: Track::Compute,
            sim: Some((0.0, 1.0)),
            wall_ns: 5,
            cost: CostBreakdown::default(),
        }
    }

    #[test]
    fn noop_recorder_is_disabled() {
        assert!(!NoopRecorder.enabled());
        NoopRecorder.record(ev("dropped"));
    }

    #[test]
    fn collector_preserves_emission_order() {
        let c = TraceCollector::new();
        assert!(c.is_empty());
        c.record(ev("a"));
        c.record(ev("b"));
        assert_eq!(c.len(), 2);
        let events = c.snapshot();
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        assert_eq!(c.take().len(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let c = TraceCollector::shared();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.record(ev(&format!("t{i}"))))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn cost_accumulates() {
        let mut a = CostBreakdown {
            bytes_read: 1,
            bytes_written: 2,
            flops: 3,
            launches: 4,
            comm_bytes: 5,
        };
        a.accumulate(&a.clone());
        assert_eq!(a.bytes_read, 2);
        assert_eq!(a.comm_bytes, 10);
    }

    #[test]
    fn track_names_are_stable() {
        let names: Vec<_> = [
            Track::Compute,
            Track::Comm,
            Track::Kernel,
            Track::Phase,
            Track::Wall,
            Track::Fault,
        ]
        .iter()
        .map(|t| t.name())
        .collect();
        assert_eq!(
            names,
            ["compute", "comm", "kernel", "phase", "wall", "fault"]
        );
    }
}
