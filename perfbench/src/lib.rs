//! The repository benchmark: four closed-loop workloads over the
//! CountSketch reproduction's public API, timed end to end with tracing off,
//! and split by layer in a separate traced run.
//!
//! * `lsq_multisketch` — the paper's method: Count-Gauss multisketch least
//!   squares on a 4-device pool (`sketch-core`, `sketch-dist`).
//! * `lsq_normal_eq` — the paper's baseline on the same problems (`sketch-la`
//!   Gram, GEMV, POTRF).
//! * `rsvd_countsketch` — randomized SVD with a CountSketch test matrix
//!   (`sketch-la` GEMM and QR, `sketch-lowrank`).
//! * `serve_mixed` — a 64-job multi-tenant `ServeEngine` batch (`sketch-serve`
//!   control plane, `sketch-rng` operand materialisation, many small
//!   `sketch-dist` runs).

pub mod inputs;
pub mod lsq;
pub mod provenance;
pub mod rsvd;
pub mod runner;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
