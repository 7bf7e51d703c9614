//! # sketch-dist
//!
//! Multi-device sketching: one pipelined executor over a simulated device pool.
//!
//! The **multi-device pipelined executor** ([`executor`], entry point
//! [`pipelined_sketch`]) runs a [`Pipeline`](sketch_core::Pipeline) of sketch
//! stages across a [`DevicePool`](sketch_gpu_sim::DevicePool), each stage
//! sharded along its bitwise-lossless [`ShardAxis`](sketch_core::ShardAxis),
//! with each shard's ring collective overlapped against the next shard's
//! compute on simulated streams.  The executed result stays bit-for-bit
//! identical to single-device execution for every sketch kind, independent of
//! shard and device count.  Alongside it:
//!
//! * [`CommCost`] — the modelled volume of the ring collectives;
//! * [`BlockRowMatrix`] — a tall matrix partitioned into contiguous row
//!   blocks, the streaming source of the single-pass low-rank driver.
//!
//! The paper's Section 7 argument — the Count-Gauss multisketch reduces the
//! same tiny `2n x n` matrix as the Gaussian while its per-rank work stays
//! CountSketch-shaped — assumes each rank runs the whole pipeline on its own
//! rows and sums the `2n x n` partials.  That reassociates the arithmetic, so
//! the executor does not run it: to stay bitwise it allreduces the `2n² x n`
//! CountSketch intermediate instead.  Section 7 is therefore reproduced as a
//! cost model (the `paper dist_comm` table in `sketch-bench`, from [`CommCost`] and the
//! per-rank kernel costs), not as an execution mode.
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
pub mod executor;

pub use block::BlockRowMatrix;
pub use comm::{CommCost, CommPattern};
pub use executor::{
    pipelined_sketch, DeviceFailure, ExecutorOptions, FaultReport, PipelinedRun, Schedule,
    ShardAssignment,
};
