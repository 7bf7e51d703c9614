//! # sketch-bench
//!
//! The benchmark harness: the `paper` binary regenerates every table and figure of
//! the paper's evaluation, and one binary per extension figure measures the rest.
//!
//! Every figure is regenerated at two scales:
//!
//! * **measured** — the kernels actually run on this machine at a reduced problem size
//!   (no GPU; the rayon shim schedules real host threads); both the modelled H100 time
//!   and the wall-clock time are reported,
//! * **paper scale** — the same cost formulas evaluated analytically at the paper's
//!   `d ∈ {2²¹, 2²², 2²³}`, `n ∈ {32 … 256}` and pushed through the H100 roofline model.
//!   A unit test (`analytic::tests`) checks the analytic formulas against the costs the
//!   real kernels record, so the projection cannot silently drift from the
//!   implementation.
//!
//! Binaries (run with `cargo run -p sketch-bench --release --bin <name> [-- --smoke]`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `paper <section>` | one of `table1` (Table 1), `fig2`…`fig8` (Figures 2–8), `dist_comm` (Section 7 communication volumes, cost model) or `ablations` (atomic vs gather, layouts, radix, SyRK); `all` runs every section.  Exits 1 if a headline claim (Figures 2, 5, 8, Section 7) breaks |
//! | `fig_lowrank` | RSVD vs deterministic truncated QR on low-rank matrices |
//! | `fig_scaling` | multi-device strong/weak scaling + overlap ablation (modelled) |
//! | `fig_serve` | multi-tenant co-scheduling vs FIFO |
//! | `fig_faults` | bit-exact recovery from device death |
//! | `fig_kernels` | blocked vs naive GEMM (with the SIMD tier), tiled vs untiled FWHT, one-pass vs per-element GEMV |
//! | `fig_walltime` | measured wall-clock across thread counts + bitwise gate |

pub mod analytic;
pub mod config;
pub mod lsq_experiments;
pub mod report;
pub mod sketch_experiments;
pub mod walltime;

pub use config::{ExperimentScale, SweepPoint};
pub use report::Table;
