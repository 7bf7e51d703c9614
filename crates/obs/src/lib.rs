//! # sketch-obs
//!
//! The observability substrate of the workspace: one place to record *what a
//! run actually did* — which kernels launched on which simulated device, how
//! the pipelined schedule laid work out on each stream, where the driver
//! phases spent modelled and measured time — and to export it for humans and
//! tools.
//!
//! This is the **bottom crate** of the workspace (std + vendored shims only),
//! so every layer above it can emit into the same sink:
//!
//! * [`record`] — the [`Recorder`] trait, the zero-cost [`NoopRecorder`]
//!   default, and the thread-safe [`TraceCollector`] buffer.  Events
//!   ([`TraceEvent`]) carry a name, device ordinal, [`Track`] (stream kind),
//!   modelled sim-time interval, measured wall-clock nanoseconds, and a
//!   [`CostBreakdown`] of the region.
//! * [`metrics`] — [`MetricsRegistry`]: monotonic counters and fixed-bucket
//!   histograms with a deterministic flat-JSON summary.
//! * [`export`] — Chrome trace-event JSON ([`export::chrome_trace`]) loadable
//!   in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`, one track
//!   per device×stream plus a wall-clock track.
//! * [`json`] — the workspace's minimal RFC 8259 implementation
//!   ([`JsonValue`]), re-exported by `sketch-core` as `spec::json`.
//! * [`wall`] — the sanctioned wall-clock capture path ([`Stopwatch`]); CI
//!   grep-gates any other direct `Instant::now()` call site.
//!
//! The **determinism contract**: every event on a sim-time track
//! ([`Track::Compute`], [`Track::Comm`], [`Track::Kernel`], [`Track::Phase`])
//! has timestamps computed purely from the modelled cost roofline, so the sim
//! half of a trace is bit-identical across runs, thread counts, and host
//! machines; only `wall_ns` fields and [`Track::Wall`] events vary.  See
//! ARCHITECTURE.md § Observability for the dataflow diagram and how to open a
//! trace in Perfetto.

#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod record;
pub mod wall;

pub use export::{chrome_trace, chrome_trace_with_metrics, write_json, HOST_PID};
pub use json::{JsonError, JsonValue};
pub use metrics::{Histogram, MetricsRegistry};
pub use record::{
    lock, CostBreakdown, NoopRecorder, Recorder, RecorderHandle, TraceCollector, TraceEvent, Track,
};
pub use wall::{rustc_version, Stopwatch};
