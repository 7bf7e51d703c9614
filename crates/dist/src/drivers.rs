//! The distributed sketching drivers.
//!
//! All three drivers follow the same shape: every rank applies its slice of
//! the *global* operator to its local block, then the `P` partial results are
//! allreduce-summed.  Linearity of the sketches makes the sum equal the
//! single-device result; for the CountSketch the fold order is chosen so the
//! equality is exact to the last bit, not just up to rounding.

use crate::block::BlockRowMatrix;
use crate::comm::CommCost;
use crate::error::DistError;
use sketch_core::{CountSketch, GaussianSketch, MultiSketch, Pipeline, SketchKind, SketchOperator};
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::{blas3, Layout, Matrix};

/// Result of one distributed sketch application.
#[derive(Debug, Clone)]
pub struct DistributedRun {
    /// The reduced sketch `S A`, identical on every rank after the allreduce.
    pub result: Matrix,
    /// Modelled kernel cost of each rank's local sketch application, indexed
    /// by rank.
    pub per_process_cost: Vec<KernelCost>,
    /// Modelled communication volume of the allreduce.
    pub comm: CommCost,
}

fn check_dims(sketch: &dyn SketchOperator, dist: &BlockRowMatrix) -> Result<(), DistError> {
    if sketch.input_dim() == dist.nrows() {
        Ok(())
    } else {
        Err(DistError::dimension_mismatch(
            sketch.name(),
            sketch.input_dim(),
            dist.nrows(),
            format!(
                "block-row {}x{} over {} processes",
                dist.nrows(),
                dist.ncols(),
                dist.num_processes()
            ),
        ))
    }
}

/// Spec-driven entry point: build the sketch described by `plan` for the
/// distributed operand and dispatch to the matching typed driver.
///
/// Supported plans: a single CountSketch stage, a single Gaussian stage, or the
/// Count→Gauss multisketch pipeline — the three operators Section 7 compares.
pub fn distributed_sketch(
    device: &Device,
    dist: &BlockRowMatrix,
    plan: &Pipeline,
) -> Result<DistributedRun, DistError> {
    let ncols = dist.ncols();
    if plan.is_count_gauss() {
        let sketch = plan.build_multisketch(device, ncols)?;
        return distributed_multisketch(device, dist, &sketch);
    }
    match plan.stages.as_slice() {
        [spec] if spec.kind == SketchKind::CountSketch => {
            let sketch = spec.resolve(ncols).build_countsketch(device)?;
            distributed_countsketch(device, dist, &sketch)
        }
        [spec] if spec.kind == SketchKind::Gaussian => {
            let sketch = spec.resolve(ncols).build_gaussian(device)?;
            distributed_gaussian(device, dist, &sketch)
        }
        _ => Err(DistError::invalid_param(
            "distributed_sketch supports a single count-sketch/gaussian stage or the \
             count-gauss pipeline",
        )),
    }
}

/// Apply a global [`CountSketch`] to a block-row distributed matrix.
///
/// Rank `r` owns global rows `[r0, r1)` and therefore the columns `[r0, r1)`
/// of `S`: it streams its local rows into the shared `k x n` accumulator in
/// increasing global row order.  The single-device kernel folds each output
/// cell's contributions in that same ascending order — by construction of its
/// ascending-row scatter, for **any** thread count of the workspace's threaded
/// rayon shim — so the reduced result is **bit-for-bit identical** to
/// `sketch.apply_matrix(device, a)`, the property the
/// `distributed_equivalence` integration test pins down.
pub fn distributed_countsketch(
    device: &Device,
    dist: &BlockRowMatrix,
    sketch: &CountSketch,
) -> Result<DistributedRun, DistError> {
    check_dims(sketch, dist)?;
    let n = dist.ncols();
    let k = sketch.output_dim();
    let p = dist.num_processes();
    let rows = sketch.rows();
    let signs = sketch.signs();

    let mut result = Matrix::zeros_with_layout(k, n, Layout::RowMajor);
    let mut per_process_cost = Vec::with_capacity(p);
    for (range, block) in dist.iter() {
        for (local, global) in range.clone().enumerate() {
            let target = rows[global];
            let sign = if signs[global] { 1.0 } else { -1.0 };
            for c in 0..n {
                result.add_to(target, c, sign * block.get(local, c));
            }
        }
        let cost = CountSketch::apply_cost(range.len(), k, n, block.layout() == Layout::ColMajor);
        device.record(cost);
        per_process_cost.push(cost);
    }

    Ok(DistributedRun {
        result,
        per_process_cost,
        comm: CommCost::allreduce(p, k, n),
    })
}

/// Apply a global [`GaussianSketch`] to a block-row distributed matrix.
///
/// Rank `r` multiplies the column slice `S[:, r0..r1]` with its local block
/// (a GEMM over the local rows only) and the `k x n` partials are
/// allreduce-summed.  The result matches the single-device GEMM up to
/// floating-point reassociation of the row sums.
pub fn distributed_gaussian(
    device: &Device,
    dist: &BlockRowMatrix,
    sketch: &GaussianSketch,
) -> Result<DistributedRun, DistError> {
    check_dims(sketch, dist)?;
    let n = dist.ncols();
    let k = sketch.output_dim();
    let p = dist.num_processes();
    let s = sketch.matrix();

    let mut partials = Vec::with_capacity(p);
    let mut per_process_cost = Vec::with_capacity(p);
    for (range, block) in dist.iter() {
        let start = range.start;
        // Column slice of S owned by this rank (a view in a real
        // implementation; the copy is not charged to the device).
        let s_local = Matrix::from_fn(k, range.len(), s.layout(), |i, j| s.get(i, start + j));
        let (partial, cost) = {
            let tracker = device.tracker();
            let before = tracker.snapshot();
            let partial = blas3::gemm(device, 1.0, &s_local, block, 0.0, None)?;
            (partial, tracker.snapshot() - before)
        };
        partials.push(partial);
        per_process_cost.push(cost);
    }

    Ok(DistributedRun {
        result: allreduce_sum(&partials),
        per_process_cost,
        comm: CommCost::allreduce(p, k, n),
    })
}

/// Apply a global [`MultiSketch`] to a block-row distributed matrix.
///
/// Rank `r` runs the *whole* pipeline locally — its slice of the CountSketch
/// followed by the (replicated) Gaussian stage — so only the final `2n x n`
/// matrix is reduced: the multisketch communicates as little as the Gaussian
/// sketch while its per-rank compute stays CountSketch-shaped (Section 7).
pub fn distributed_multisketch(
    device: &Device,
    dist: &BlockRowMatrix,
    sketch: &MultiSketch,
) -> Result<DistributedRun, DistError> {
    check_dims(sketch, dist)?;
    let n = dist.ncols();
    let k = sketch.output_dim();
    let p = dist.num_processes();
    let rows = sketch.count_stage().rows();
    let signs = sketch.count_stage().signs();
    let k1 = sketch.intermediate_dim();

    let mut partials = Vec::with_capacity(p);
    let mut per_process_cost = Vec::with_capacity(p);
    for (range, block) in dist.iter() {
        // Rank-local slice of the CountSketch stage: the same target rows and
        // signs, re-indexed to the local block.
        let local_count = CountSketch::from_parts(
            range.len(),
            k1,
            rows[range.clone()].to_vec(),
            signs[range.clone()].to_vec(),
        );
        let local_multi = MultiSketch::new(local_count, sketch.gauss_stage().clone())?;
        let (partial, cost) = {
            let tracker = device.tracker();
            let before = tracker.snapshot();
            let partial = local_multi.apply_matrix(device, block)?;
            (partial, tracker.snapshot() - before)
        };
        partials.push(partial);
        per_process_cost.push(cost);
    }

    Ok(DistributedRun {
        result: allreduce_sum(&partials),
        per_process_cost,
        comm: CommCost::allreduce(p, k, n),
    })
}

/// Element-wise sum of the per-rank partials in rank order (the numerical
/// effect of a deterministic, rank-ordered reduction).
fn allreduce_sum(partials: &[Matrix]) -> Matrix {
    let first = &partials[0];
    let mut out = Matrix::zeros_with_layout(first.nrows(), first.ncols(), first.layout());
    for partial in partials {
        for i in 0..out.nrows() {
            for j in 0..out.ncols() {
                out.add_to(i, j, partial.get(i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_core::{EmbeddingDim, SketchSpec};

    fn device() -> Device {
        Device::unlimited()
    }

    /// The paper's `k = 2n²` CountSketch for a `d x n` operand, via its spec.
    fn countsketch_of(dev: &Device, d: usize, n: usize, seed: u64) -> CountSketch {
        SketchSpec::countsketch(d, EmbeddingDim::Square(2), seed)
            .resolve(n)
            .build_countsketch(dev)
            .unwrap()
    }

    /// The paper's `k = 2n` Gaussian for a `d x n` operand, via its spec.
    fn gaussian_of(dev: &Device, d: usize, n: usize, seed: u64) -> GaussianSketch {
        SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), seed)
            .resolve(n)
            .build_gaussian(dev)
            .unwrap()
    }

    /// The paper's Count→Gauss multisketch for a `d x n` operand, via its pipeline.
    fn multisketch_of(dev: &Device, d: usize, n: usize, seed: u64) -> MultiSketch {
        Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), seed)
            .build_multisketch(dev, n)
            .unwrap()
    }

    #[test]
    fn distributed_countsketch_is_bit_for_bit_single_device() {
        let dev = device();
        let d = 1 << 10;
        let n = 8;
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 3, 0);
        let sketch = countsketch_of(&dev, d, n, 7);
        let single = sketch.apply_matrix(&dev, &a).unwrap();
        for p in [1usize, 2, 3, 8] {
            let dist = BlockRowMatrix::split(&a, p);
            let run = distributed_countsketch(&dev, &dist, &sketch).unwrap();
            assert_eq!(
                run.result.max_abs_diff(&single).unwrap(),
                0.0,
                "p = {p} drifted from the single-device result"
            );
            assert_eq!(run.per_process_cost.len(), p);
        }
    }

    #[test]
    fn distributed_gaussian_matches_single_device_numerically() {
        let dev = device();
        let d = 512;
        let n = 6;
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 4, 0);
        let sketch = gaussian_of(&dev, d, n, 5);
        let single = sketch.apply_matrix(&dev, &a).unwrap();
        let dist = BlockRowMatrix::split(&a, 4);
        let run = distributed_gaussian(&dev, &dist, &sketch).unwrap();
        assert!(run.result.max_abs_diff(&single).unwrap() < 1e-10);
    }

    #[test]
    fn distributed_multisketch_matches_single_device_numerically() {
        let dev = device();
        let d = 512;
        let n = 6;
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 8, 0);
        let sketch = multisketch_of(&dev, d, n, 9);
        let single = sketch.apply_matrix(&dev, &a).unwrap();
        let dist = BlockRowMatrix::split(&a, 4);
        let run = distributed_multisketch(&dev, &dist, &sketch).unwrap();
        assert!(run.result.max_abs_diff(&single).unwrap() < 1e-9);
        assert_eq!(run.result.nrows(), 2 * n);
    }

    #[test]
    fn spec_driven_dispatch_matches_the_typed_drivers() {
        let dev = device();
        let d = 512;
        let n = 6;
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 2, 0);
        let dist = BlockRowMatrix::split(&a, 3);

        let count_plan = Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7));
        let run = distributed_sketch(&dev, &dist, &count_plan).unwrap();
        let typed = distributed_countsketch(&dev, &dist, &countsketch_of(&dev, d, n, 7)).unwrap();
        assert_eq!(run.result.max_abs_diff(&typed.result).unwrap(), 0.0);

        let gauss_plan = Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 5));
        let run = distributed_sketch(&dev, &dist, &gauss_plan).unwrap();
        assert_eq!(run.result.nrows(), 2 * n);

        let multi_plan =
            Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 9);
        let run = distributed_sketch(&dev, &dist, &multi_plan).unwrap();
        let typed = distributed_multisketch(&dev, &dist, &multisketch_of(&dev, d, n, 9)).unwrap();
        assert_eq!(run.result.max_abs_diff(&typed.result).unwrap(), 0.0);

        // Unsupported plans are rejected, not panicked on.
        let srht_plan = Pipeline::single(SketchSpec::srht(d, EmbeddingDim::Ratio(2), 1));
        assert!(distributed_sketch(&dev, &dist, &srht_plan).is_err());
    }

    #[test]
    fn multisketch_communicates_like_gaussian_but_computes_like_countsketch() {
        let dev = device();
        let d = 1 << 12;
        let n = 8;
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 1, 0);
        let dist = BlockRowMatrix::split(&a, 4);
        let count = countsketch_of(&dev, d, n, 1);
        let gauss = gaussian_of(&dev, d, n, 2);
        let multi = multisketch_of(&dev, d, n, 3);

        let run_c = distributed_countsketch(&dev, &dist, &count).unwrap();
        let run_g = distributed_gaussian(&dev, &dist, &gauss).unwrap();
        let run_m = distributed_multisketch(&dev, &dist, &multi).unwrap();

        // Section 7: the multisketch reduces the same 2n x n matrix as the
        // Gaussian — much less than the CountSketch's 2n² x n.
        assert_eq!(run_m.comm.total_words(), run_g.comm.total_words());
        assert!(run_c.comm.total_words() > run_m.comm.total_words());

        // …while each rank's arithmetic stays far below the Gaussian GEMM
        // (d_loc ≫ 2n² at these sizes).
        let max_flops =
            |run: &DistributedRun| run.per_process_cost.iter().map(|c| c.flops).max().unwrap();
        assert!(max_flops(&run_m) < max_flops(&run_g));
        assert!(max_flops(&run_c) < max_flops(&run_m));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let dev = device();
        let a = Matrix::random_gaussian(100, 4, Layout::RowMajor, 1, 0);
        let dist = BlockRowMatrix::split(&a, 2);
        let sketch = SketchSpec::countsketch(99, EmbeddingDim::Exact(32), 1)
            .build_countsketch(&dev)
            .unwrap();
        let err = distributed_countsketch(&dev, &dist, &sketch).unwrap_err();
        match err {
            DistError::DimensionMismatch {
                expected, found, ..
            } => assert_eq!((expected, found), (99, 100)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn per_process_cost_shrinks_as_processes_grow() {
        let dev = device();
        let d = 1 << 10;
        let n = 4;
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 2, 0);
        let sketch = SketchSpec::countsketch(d, EmbeddingDim::Exact(64), 3)
            .build_countsketch(&dev)
            .unwrap();
        let flops_at = |p: usize| {
            let dist = BlockRowMatrix::split(&a, p);
            let run = distributed_countsketch(&dev, &dist, &sketch).unwrap();
            run.per_process_cost.iter().map(|c| c.flops).max().unwrap()
        };
        assert!(flops_at(8) < flops_at(2));
    }
}
