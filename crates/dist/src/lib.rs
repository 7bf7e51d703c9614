//! # sketch-dist
//!
//! Block-row distributed sketching simulation (Section 7 of the paper).
//!
//! The paper closes by arguing that the Count-Gauss multisketch "will almost
//! certainly outperform the Gaussian in a distributed setting": both reduce the
//! same tiny `2n x n` matrix across processes, but the multisketch's local work
//! is CountSketch-shaped rather than a fat GEMM.  This crate reproduces that
//! argument quantitatively:
//!
//! * [`BlockRowMatrix`] — a tall matrix partitioned into `P` contiguous row
//!   blocks, one per simulated rank;
//! * [`distributed_sketch`] — the spec-driven entry point: build the sketch
//!   described by a [`sketch_core::Pipeline`] and dispatch to the matching
//!   typed driver;
//! * [`distributed_countsketch`] / [`distributed_gaussian`] /
//!   [`distributed_multisketch`] — apply one *global* sketch to the distributed
//!   matrix: every rank sketches its local block with its slice of the
//!   operator, then the partial results are allreduce-summed;
//! * [`DistributedRun`] — the reduced result plus per-process
//!   [`KernelCost`](sketch_gpu_sim::KernelCost)s and the modelled [`CommCost`]
//!   of the allreduce.
//!
//! The distributed CountSketch folds contributions in global row order, and the
//! single-device kernel folds each output cell in that same ascending order by
//! construction (an ascending-row scatter, independent of thread count under
//! the workspace's threaded rayon shim) — so the two results are **bit-for-bit
//! identical**.
//!
//! On top of the volume model sits the **multi-device pipelined executor**
//! ([`executor`]): a [`Pipeline`](sketch_core::Pipeline) of sketch stages runs
//! across a [`DevicePool`](sketch_gpu_sim::DevicePool), each stage sharded along
//! its bitwise-lossless [`ShardAxis`](sketch_core::ShardAxis), with each shard's
//! ring collective overlapped against the next shard's compute on simulated
//! streams.  The executed result stays bit-for-bit identical to single-device
//! execution for every sketch kind, independent of shard and device count.
//!
//! ## Example: the Section 7 volume model
//!
//! ```
//! use sketch_core::{EmbeddingDim, Pipeline, SketchOperator, SketchSpec};
//! use sketch_dist::{distributed_sketch, BlockRowMatrix};
//! use sketch_gpu_sim::Device;
//! use sketch_la::{Layout, Matrix};
//!
//! let device = Device::unlimited();
//! let a = Matrix::random_gaussian(1 << 10, 8, Layout::RowMajor, 1, 0);
//! let spec = SketchSpec::countsketch(1 << 10, EmbeddingDim::Exact(128), 2);
//! let dist = BlockRowMatrix::split(&a, 4);
//! let run = distributed_sketch(&device, &dist, &Pipeline::single(spec.clone())).unwrap();
//! let single = spec.build(&device).unwrap().apply_matrix(&device, &a).unwrap();
//! assert_eq!(run.result.max_abs_diff(&single).unwrap(), 0.0);
//! assert_eq!(run.per_process_cost.len(), 4);
//! assert!(run.comm.total_words() > 0);
//! ```
//!
//! ## Example: pipelined execution on four simulated H100s
//!
//! ```
//! use sketch_core::{EmbeddingDim, Pipeline, SketchOperator, SketchSpec};
//! use sketch_dist::{pipelined_sketch, ExecutorOptions};
//! use sketch_gpu_sim::{Device, DevicePool};
//! use sketch_la::{Layout, Matrix};
//!
//! let a = Matrix::random_gaussian(1 << 12, 8, Layout::RowMajor, 1, 0);
//! let plan = Pipeline::single(SketchSpec::countsketch(1 << 12, EmbeddingDim::Square(2), 7));
//!
//! let pool = DevicePool::h100(4);
//! let run = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap();
//!
//! // Bit-for-bit identical to the single-device kernel…
//! let device = Device::h100();
//! let single = plan.build_for(&device, 8).unwrap().apply_matrix(&device, &a).unwrap();
//! assert_eq!(run.result.max_abs_diff(&single).unwrap(), 0.0);
//! // …and faster than running the same shards with no overlap.
//! assert!(run.pipelined_seconds < run.serial_seconds);
//! assert!(run.overlap_efficiency() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod comm;
pub mod drivers;
pub mod error;
pub mod executor;

pub use block::BlockRowMatrix;
pub use comm::{CommCost, CommPattern};
pub use drivers::{
    distributed_countsketch, distributed_gaussian, distributed_multisketch, distributed_sketch,
    DistributedRun,
};
pub use error::DistError;
pub use executor::{
    pipelined_sketch, DeviceFailure, ExecutorOptions, FaultReport, PipelinedRun, Schedule,
    ShardAssignment,
};
