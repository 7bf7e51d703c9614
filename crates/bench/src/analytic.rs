//! Analytic cost formulas used to project the experiments to the paper's problem sizes.
//!
//! The kernels in this workspace record deterministic costs that depend only on the
//! operand shapes, so each figure can be evaluated at `d = 2²¹ … 2²³` without allocating
//! terabytes of data: this module re-states those cost formulas as closed-form functions
//! of `(d, n)` and the unit tests check them against the costs the real kernels record
//! at small sizes, guaranteeing the projection cannot drift from the implementation.

use sketch_core::fwht::global_passes;
use sketch_core::fwht::DEFAULT_TILE;
use sketch_dist::CommCost;
use sketch_gpu_sim::{KernelCost, Phase};

/// Bytes of `n` doubles.
const fn f64b(n: u64) -> u64 {
    n * 8
}

/// Fraction of the device memory one method's working set may occupy before the
/// benchmark harness marks it out-of-memory (the blank bars of Figures 2 and 5).
///
/// The paper reports the Gaussian sketch failing at `(d, n) = (2²², 256)` and
/// `(2²³, 128)`, where `A` plus the stored `2n x d` Gaussian is ≈26 GB — well below the
/// card's 80 GB, so the failure must come from the rest of the benchmark suite's
/// resident buffers (both layouts of `A`, every other method's sketches and outputs,
/// cuRAND states, 100-trial bookkeeping).  A 30 % budget for a single method's working
/// set reproduces exactly the paper's blank set: both reported points exceed it and
/// every point the paper does plot stays below it.  See EXPERIMENTS.md for the
/// calibration table.
pub const SUITE_MEMORY_FRACTION: f64 = 0.3;

/// Whether a method's working set (operand + method-specific buffers) exceeds the
/// benchmark-suite memory budget on the given device.
pub fn exceeds_suite_memory(
    method: SketchMethod,
    d: usize,
    n: usize,
    spec: &sketch_gpu_sim::DeviceSpec,
) -> bool {
    let a_bytes = (d * n * 8) as u64;
    let budget = (spec.memory_bytes as f64 * SUITE_MEMORY_FRACTION) as u64;
    a_bytes + method.extra_device_bytes(d, n) > budget
}

/// The operations compared in Figures 2–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SketchMethod {
    /// Gram matrix `AᵀA` via GEMM (the normal-equations reference cost).
    Gram,
    /// Dense Gaussian sketch, `k = 2n`.
    Gaussian,
    /// CountSketch with the Algorithm 2 kernel, `k = 2n²`.
    CountAlg2,
    /// CountSketch applied with the generic SpMM baseline, `k = 2n²`.
    CountSpmm,
    /// Multisketch: CountSketch to `2n²` then Gaussian to `2n`.
    MultiSketch,
    /// SRHT with the radix-4 FWHT, `k = 2n`.
    Srht,
}

impl SketchMethod {
    /// All methods in the order Figure 2 plots them.
    pub const ALL: [SketchMethod; 6] = [
        SketchMethod::Gram,
        SketchMethod::Gaussian,
        SketchMethod::CountAlg2,
        SketchMethod::CountSpmm,
        SketchMethod::MultiSketch,
        SketchMethod::Srht,
    ];

    /// Label matching the paper's x-axis ticks.
    pub fn label(&self) -> &'static str {
        match self {
            SketchMethod::Gram => "Gram",
            SketchMethod::Gaussian => "Gauss",
            SketchMethod::CountAlg2 => "Count (Alg 2)",
            SketchMethod::CountSpmm => "Count (SPMM)",
            SketchMethod::MultiSketch => "Multi",
            SketchMethod::Srht => "SRHT",
        }
    }

    /// Output dimension used by the paper's experiments for a width-`n` operand.
    pub fn embedding_dim(&self, n: usize) -> usize {
        match self {
            SketchMethod::Gram => n,
            SketchMethod::Gaussian | SketchMethod::MultiSketch | SketchMethod::Srht => 2 * n,
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => 2 * n * n,
        }
    }

    /// Bytes the method must hold on the device beyond `A` itself (used to reproduce
    /// the Gaussian OOM at the largest paper sizes).
    pub fn extra_device_bytes(&self, d: usize, n: usize) -> u64 {
        let d = d as u64;
        let n = n as u64;
        match self {
            SketchMethod::Gram => f64b(n * n),
            // The stored 2n x d Gaussian plus the 2n x n result.
            SketchMethod::Gaussian => f64b(2 * n * d) + f64b(2 * n * n),
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => f64b(2 * n * n * n) + 5 * d,
            SketchMethod::MultiSketch => {
                f64b(2 * n * n * n) + 5 * d + f64b(2 * n * 2 * n * n) + f64b(2 * n * n)
            }
            SketchMethod::Srht => f64b((d.next_power_of_two()) * n) + f64b(2 * n * n),
        }
    }

    /// Cost of generating the sketch's random ingredients (the `Sketch gen` stack of
    /// Figure 2); mirrors the `generation_cost` each operator records.
    pub fn generation_cost(&self, d: usize, n: usize) -> KernelCost {
        let d64 = d as u64;
        let n64 = n as u64;
        match self {
            SketchMethod::Gram => KernelCost::zero(),
            SketchMethod::Gaussian => {
                let k = 2 * n64;
                KernelCost::new(0, f64b(k * d64), k * d64 * 12, 1)
            }
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => {
                KernelCost::new(0, d64 * 5, d64, 1)
            }
            SketchMethod::MultiSketch => {
                let k1 = 2 * n64 * n64;
                let k2 = 2 * n64;
                KernelCost::new(0, d64 * 5, d64, 1)
                    + KernelCost::new(0, f64b(k2 * k1), k2 * k1 * 12, 1)
            }
            SketchMethod::Srht => {
                let k = 2 * n64;
                KernelCost::new(0, d64 + 4 * k, d64 + k, 1)
            }
        }
    }

    /// Cost of applying the operator to a dense row-major `d x n` matrix; mirrors the
    /// costs the kernels record (validated against them in the tests below).
    pub fn apply_cost(&self, d: usize, n: usize) -> KernelCost {
        let d64 = d as u64;
        let n64 = n as u64;
        match self {
            SketchMethod::Gram => gemm_cost(n64, d64, n64, false),
            SketchMethod::Gaussian => gemm_cost(2 * n64, d64, n64, false),
            SketchMethod::CountAlg2 => countsketch_apply_cost(d64, n64, 2 * n64 * n64),
            SketchMethod::CountSpmm => {
                // spmm: nnz = d, output rows k = 2n².
                let k = 2 * n64 * n64;
                let nnz = d64;
                let idx_bytes = 8 * (nnz + k + 1);
                KernelCost::new(
                    f64b(nnz) + idx_bytes + f64b(nnz * n64) * sketch_sparse::SPMM_GATHER_PENALTY,
                    f64b(k * n64),
                    2 * nnz * n64,
                    1,
                )
            }
            SketchMethod::MultiSketch => {
                let k1 = 2 * n64 * n64;
                let k2 = 2 * n64;
                // CountSketch stage + (Zᵀ = Yᵀ Gᵀ) GEMM + transpose of the small result.
                countsketch_apply_cost(d64, n64, k1)
                    + gemm_cost(n64, k1, k2, false)
                    + KernelCost::new(f64b(k2 * n64), f64b(k2 * n64), 0, 1)
            }
            SketchMethod::Srht => {
                let k = 2 * n64;
                let d_pad = (d.next_power_of_two()) as u64;
                let bits = d_pad.trailing_zeros() as u64;
                let passes = global_passes(d.next_power_of_two(), DEFAULT_TILE);
                // Sign flip + pad, FWHT passes, sampling.
                KernelCost::new(f64b(d64 * n64) + f64b(d64), f64b(d_pad * n64), d64 * n64, 1)
                    + KernelCost::new(
                        f64b(d_pad * n64) * passes,
                        f64b(d_pad * n64) * passes,
                        2 * d_pad * n64 * bits,
                        passes.max(1),
                    )
                    + KernelCost::new(f64b(k * n64) + 4 * k, f64b(k * n64), k * n64, 1)
            }
        }
    }

    /// Section 7's rank-local model of the sketch on a `d x n` operand split block-row
    /// across `p` ranks: each rank applies its column slice of the global operator to
    /// its own rows, then the `embedding_dim(n) x n` partials are ring-allreduced.
    ///
    /// Returns the allreduce's [`CommCost`] and the kernel cost of the largest rank,
    /// which holds `ceil(d / p)` rows.  This is a cost model only: the executor keeps
    /// its results bitwise by allreducing the Count→Gauss intermediate instead.
    pub fn rank_local_cost(&self, d: usize, n: usize, p: usize) -> (CommCost, KernelCost) {
        (
            CommCost::allreduce(p, self.embedding_dim(n), n),
            self.apply_cost(d.div_ceil(p), n),
        )
    }

    /// The *useful* (Table 1) traffic and arithmetic, used to normalise Figures 3–4.
    pub fn useful_cost(&self, d: usize, n: usize) -> KernelCost {
        let d64 = d as u64;
        let n64 = n as u64;
        match self {
            SketchMethod::Gram => {
                KernelCost::new(f64b(d64 * n64), f64b(n64 * n64), 2 * d64 * n64 * n64, 1)
            }
            SketchMethod::Gaussian => KernelCost::new(
                f64b(d64 * n64),
                f64b(2 * n64 * n64),
                2 * d64 * n64 * 2 * n64,
                1,
            ),
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => {
                KernelCost::new(f64b(d64 * n64), f64b(d64 * n64), d64 * n64, 1)
            }
            SketchMethod::MultiSketch => {
                let k1 = 2 * n64 * n64;
                let k2 = 2 * n64;
                KernelCost::new(f64b(d64 * n64), f64b(d64 * n64), d64 * n64, 1)
                    + KernelCost::new(f64b(k1 * n64), f64b(k2 * n64), 2 * k1 * k2 * n64, 1)
            }
            SketchMethod::Srht => {
                let d_pad = (d.next_power_of_two()) as u64;
                let bits = d_pad.trailing_zeros() as u64;
                let passes = global_passes(d.next_power_of_two(), DEFAULT_TILE);
                KernelCost::new(
                    f64b(d_pad * n64) * passes,
                    f64b(d_pad * n64) * passes,
                    2 * d_pad * n64 * bits,
                    1,
                )
            }
        }
    }
}

/// Cost the GEMM kernel records for an `m x k` times `k x n` product.
pub fn gemm_cost(m: u64, k: u64, n: u64, accumulate: bool) -> KernelCost {
    let read_c = if accumulate { m * n } else { 0 };
    KernelCost::new(f64b(m * k + k * n + read_c), f64b(m * n), 2 * m * n * k, 1)
}

/// Cost the Algorithm 2 CountSketch kernel records for a row-major `d x n` operand.
pub fn countsketch_apply_cost(d: u64, n: u64, k: u64) -> KernelCost {
    KernelCost::new(
        f64b(d * n) + f64b(d * n) + d * 5,
        f64b(d * n) + f64b(k * n),
        d * n,
        2,
    )
}

/// Cost the GEMV kernel records for an `m x k` operand (no initial `y`).
pub fn gemv_cost(m: u64, k: u64) -> KernelCost {
    KernelCost::new(f64b(m * k + k), f64b(m), 2 * m * k, 1)
}

/// Cost the Householder QR records for an `m x n` factorisation.
pub fn geqrf_cost(m: u64, n: u64) -> KernelCost {
    let flops = 2 * m * n * n - (2 * n * n * n) / 3;
    let passes = n.div_ceil(32).max(1);
    KernelCost::new(f64b(m * n) * passes, f64b(m * n) * passes, flops, n)
}

/// Cost of applying `Qᵀ` (from an `m x n` QR) to one vector.
pub fn ormqr_cost(m: u64, n: u64) -> KernelCost {
    KernelCost::new(f64b(m * n + m), f64b(m), 4 * m * n, 1)
}

/// Cost of a Cholesky factorisation of an `n x n` Gram matrix.
pub fn potrf_cost(n: u64) -> KernelCost {
    KernelCost::new(
        f64b(n * n),
        f64b(n * (n + 1) / 2),
        n * n * n / 3 + 2 * n * n,
        1,
    )
}

/// Cost of one triangular solve with an `n x n` factor.
pub fn trsv_cost(n: u64) -> KernelCost {
    KernelCost::new(f64b(n * (n + 1) / 2 + n), f64b(n), n * n, 1)
}

/// Cost of the right-sided TRSM preconditioning `A₀ = A R⁻¹` (`d x n` operand).
pub fn trsm_right_cost(d: u64, n: u64) -> KernelCost {
    KernelCost::new(f64b(n * (n + 1) / 2 + d * n), f64b(d * n), d * n * n, 1)
}

/// Cost of a row/column-major layout conversion of a `rows x cols` matrix.
pub fn layout_conversion_cost(rows: u64, cols: u64) -> KernelCost {
    KernelCost::new(f64b(rows * cols), f64b(rows * cols), 0, 1)
}

/// The least squares methods of Figure 5, with their per-phase analytic costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LsqMethod {
    /// Normal equations.
    NormalEq,
    /// Sketch-and-solve with the given sketch.
    SketchAndSolve(SketchMethod),
    /// rand_cholQR least squares driven by the multisketch.
    RandCholQr,
}

impl LsqMethod {
    /// The six methods of Figure 5, in plot order.
    pub const FIGURE5: [LsqMethod; 6] = [
        LsqMethod::NormalEq,
        LsqMethod::SketchAndSolve(SketchMethod::Gaussian),
        LsqMethod::SketchAndSolve(SketchMethod::CountAlg2),
        LsqMethod::SketchAndSolve(SketchMethod::MultiSketch),
        LsqMethod::SketchAndSolve(SketchMethod::Srht),
        LsqMethod::RandCholQr,
    ];

    /// Label matching the paper's Figure 5 x-axis.
    pub fn label(&self) -> &'static str {
        match self {
            LsqMethod::NormalEq => "Normal Eq",
            LsqMethod::SketchAndSolve(SketchMethod::Gaussian) => "Gauss",
            LsqMethod::SketchAndSolve(SketchMethod::CountAlg2) => "Count",
            LsqMethod::SketchAndSolve(SketchMethod::MultiSketch) => "Multi",
            LsqMethod::SketchAndSolve(SketchMethod::Srht) => "SRHT",
            LsqMethod::SketchAndSolve(_) => "Sketch",
            LsqMethod::RandCholQr => "rand_cholQR",
        }
    }

    /// Per-phase analytic costs of solving a `d x n` least squares problem.
    pub fn phase_costs(&self, d: usize, n: usize) -> Vec<(Phase, KernelCost)> {
        let d64 = d as u64;
        let n64 = n as u64;
        match self {
            LsqMethod::NormalEq => vec![
                (Phase::GramMatrix, gemm_cost(n64, d64, n64, false)),
                (Phase::ATransposeB, gemv_cost(n64, d64)),
                (Phase::Potrf, potrf_cost(n64)),
                (Phase::Trsv, trsv_cost(n64)),
                (Phase::Trsv, trsv_cost(n64)),
            ],
            LsqMethod::SketchAndSolve(sketch) => {
                let k = sketch.embedding_dim(n) as u64;
                vec![
                    (Phase::SketchGen, sketch.generation_cost(d, n)),
                    (Phase::MatrixSketch, sketch.apply_cost(d, n)),
                    (Phase::VectorSketch, sketch_vector_cost(*sketch, d64, n64)),
                    (
                        Phase::Geqrf,
                        layout_conversion_cost(k, n64) + geqrf_cost(k, n64),
                    ),
                    (Phase::Ormqr, ormqr_cost(k, n64)),
                    (Phase::Trsv, trsv_cost(n64)),
                ]
            }
            LsqMethod::RandCholQr => {
                let sketch = SketchMethod::MultiSketch;
                let k = sketch.embedding_dim(n) as u64;
                vec![
                    (Phase::SketchGen, sketch.generation_cost(d, n)),
                    (Phase::MatrixSketch, sketch.apply_cost(d, n)),
                    (
                        Phase::Geqrf,
                        layout_conversion_cost(k, n64) + geqrf_cost(k, n64),
                    ),
                    (Phase::Trsm, trsm_right_cost(d64, n64)),
                    (Phase::GramMatrix, gemm_cost(n64, d64, n64, false)),
                    (Phase::ATransposeB, gemv_cost(n64, d64)),
                    (Phase::Potrf, potrf_cost(n64)),
                    (Phase::Trsv, trsv_cost(n64)),
                    (Phase::Trsv, trsv_cost(n64)),
                    (Phase::Trsv, trsv_cost(n64)),
                ]
            }
        }
    }

    /// Total analytic cost across phases.
    pub fn total_cost(&self, d: usize, n: usize) -> KernelCost {
        self.phase_costs(d, n)
            .into_iter()
            .fold(KernelCost::zero(), |acc, (_, c)| acc + c)
    }
}

/// Analytic cost of sketching the right-hand side vector.
fn sketch_vector_cost(sketch: SketchMethod, d: u64, n: u64) -> KernelCost {
    match sketch {
        SketchMethod::Gram => KernelCost::zero(),
        SketchMethod::Gaussian => gemv_cost(2 * n, d),
        SketchMethod::CountAlg2 | SketchMethod::CountSpmm => {
            let k = 2 * n * n;
            KernelCost::new(f64b(2 * d) + d * 5, f64b(d + k), d, 2)
        }
        SketchMethod::MultiSketch => {
            let k1 = 2 * n * n;
            KernelCost::new(f64b(2 * d) + d * 5, f64b(d + k1), d, 2) + gemv_cost(2 * n, k1)
        }
        SketchMethod::Srht => {
            let d_usize = d as usize;
            SketchMethod::Srht.apply_cost(d_usize, 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};
    use sketch_gpu_sim::Device;
    use sketch_la::blas3::gram_gemm;
    use sketch_la::{Layout, Matrix};

    /// The paper-convention spec for one sketch method (None for the Gram baseline).
    fn pipeline_of(method: SketchMethod, d: usize, seed: u64) -> Option<Pipeline> {
        match method {
            SketchMethod::Gram => None,
            SketchMethod::Gaussian => Some(Pipeline::single(SketchSpec::gaussian(
                d,
                EmbeddingDim::Ratio(2),
                seed,
            ))),
            SketchMethod::CountAlg2 | SketchMethod::CountSpmm => Some(Pipeline::single(
                SketchSpec::countsketch(d, EmbeddingDim::Square(2), seed),
            )),
            SketchMethod::MultiSketch => Some(Pipeline::count_gauss(
                d,
                EmbeddingDim::Square(2),
                EmbeddingDim::Ratio(2),
                seed,
            )),
            SketchMethod::Srht => Some(Pipeline::single(SketchSpec::srht(
                d,
                EmbeddingDim::Ratio(2),
                seed,
            ))),
        }
    }

    /// The guarantee behind the paper-scale projections: the analytic formulas must
    /// match the costs the real kernels record, byte for byte and flop for flop.  The
    /// shapes include the rank slices of the Section 7 table (`d.div_ceil(p)` rows),
    /// uneven ones too, so [`SketchMethod::rank_local_cost`] is pinned as well.
    #[test]
    fn analytic_apply_costs_match_recorded_costs() {
        let shapes = [
            (2048usize, 16usize),
            // Section 7 table (d = 2^14, n = 32): the largest rank at p = 2 and p = 16.
            ((1 << 14) / 2, 32),
            ((1 << 14) / 16, 32),
            // An uneven split: d = 3000 over p = 7 ranks.
            (3000usize.div_ceil(7), 8),
        ];
        for (d, n) in shapes {
            let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 1, 0);
            for method in SketchMethod::ALL {
                let device = Device::unlimited();
                match method {
                    SketchMethod::Gram => {
                        let _ = gram_gemm(&device, &a).unwrap();
                    }
                    SketchMethod::CountSpmm => {
                        let s = pipeline_of(method, d, 3).unwrap().stages[0]
                            .resolve(n)
                            .build_countsketch(&device)
                            .unwrap();
                        device.tracker().reset();
                        let _ = s.apply_matrix_spmm(&device, &a).unwrap();
                    }
                    _ => {
                        let s = pipeline_of(method, d, 3)
                            .unwrap()
                            .build_for(&device, n)
                            .unwrap();
                        device.tracker().reset();
                        let _ = s.apply_matrix(&device, &a).unwrap();
                    }
                }
                let recorded = device.tracker().snapshot();
                let analytic = method.apply_cost(d, n);
                assert_eq!(
                    recorded,
                    analytic,
                    "{} at {d}x{n}: recorded {recorded:?} vs analytic {analytic:?}",
                    method.label()
                );
            }
        }
    }

    /// Section 7's ordering: the multisketch reduces the same `2n x n` matrix as the
    /// Gaussian, far less than the CountSketch's `2n² x n`, while its largest rank's
    /// arithmetic sits between the CountSketch's and the Gaussian GEMM's.
    #[test]
    fn rank_local_costs_order_the_section7_methods() {
        let (d, n, p) = (1 << 12, 8, 4);
        let (comm_c, cost_c) = SketchMethod::CountAlg2.rank_local_cost(d, n, p);
        let (comm_g, cost_g) = SketchMethod::Gaussian.rank_local_cost(d, n, p);
        let (comm_m, cost_m) = SketchMethod::MultiSketch.rank_local_cost(d, n, p);
        assert_eq!(comm_m.total_words(), comm_g.total_words());
        assert!(comm_c.total_words() > comm_m.total_words());
        assert!(cost_c.flops < cost_m.flops);
        assert!(cost_m.flops < cost_g.flops);
    }

    #[test]
    fn analytic_generation_costs_match_recorded_costs() {
        let d = 1024usize;
        let n = 8usize;
        for method in [
            SketchMethod::Gaussian,
            SketchMethod::CountAlg2,
            SketchMethod::MultiSketch,
            SketchMethod::Srht,
        ] {
            let device = Device::unlimited();
            let _ = pipeline_of(method, d, 3)
                .unwrap()
                .build_for(&device, n)
                .unwrap();
            assert_eq!(
                device.tracker().snapshot(),
                method.generation_cost(d, n),
                "{}",
                method.label()
            );
        }
    }

    #[test]
    fn gaussian_runs_out_of_memory_at_the_paper_sizes_where_the_bars_are_blank() {
        use sketch_gpu_sim::DeviceSpec;
        let spec = DeviceSpec::h100();
        // Figure 2: blank Gaussian bars at (2^22, 256) and (2^23, 128) — and nowhere
        // else in the sweep.
        for (d, n) in [(1usize << 22, 256usize), (1 << 23, 128)] {
            assert!(
                exceeds_suite_memory(SketchMethod::Gaussian, d, n, &spec),
                "expected the Gaussian to be flagged at d=2^{} n={n}",
                d.trailing_zeros()
            );
        }
        for (d, n) in [
            (1usize << 21, 256usize),
            (1 << 22, 128),
            (1 << 23, 64),
            (1 << 21, 32),
        ] {
            assert!(
                !exceeds_suite_memory(SketchMethod::Gaussian, d, n, &spec),
                "the Gaussian bar is plotted in the paper at d=2^{} n={n}",
                d.trailing_zeros()
            );
        }
        // The multisketch and CountSketch never exceed the budget.
        for (d, n) in [(1usize << 23, 128usize), (1 << 22, 256)] {
            assert!(!exceeds_suite_memory(
                SketchMethod::MultiSketch,
                d,
                n,
                &spec
            ));
            assert!(!exceeds_suite_memory(SketchMethod::CountAlg2, d, n, &spec));
        }
    }

    #[test]
    fn figure5_labels_and_phase_sets_are_sensible() {
        assert_eq!(LsqMethod::FIGURE5.len(), 6);
        for m in LsqMethod::FIGURE5 {
            let phases = m.phase_costs(1 << 16, 64);
            assert!(!phases.is_empty());
            let total = m.total_cost(1 << 16, 64);
            assert!(total.flops > 0);
            assert!(!m.label().is_empty());
        }
        // The normal equations have no sketch phases.
        let ne_phases = LsqMethod::NormalEq.phase_costs(1024, 8);
        assert!(ne_phases.iter().all(|(p, _)| *p != Phase::MatrixSketch));
    }

    #[test]
    fn multisketch_beats_normal_equations_at_the_papers_headline_point() {
        // d = 2^22, n = 256: the paper reports the multisketched solver is up to 77%
        // faster than the normal equations.
        let device = Device::h100();
        let d = 1 << 22;
        let n = 256;
        let ne: f64 = LsqMethod::NormalEq
            .phase_costs(d, n)
            .iter()
            .map(|(_, c)| device.model_time(c))
            .sum();
        let multi: f64 = LsqMethod::SketchAndSolve(SketchMethod::MultiSketch)
            .phase_costs(d, n)
            .iter()
            .map(|(_, c)| device.model_time(c))
            .sum();
        assert!(
            multi < ne,
            "multi {multi} should beat normal equations {ne}"
        );
        let speedup = (ne - multi) / ne;
        assert!(
            speedup > 0.3,
            "expected a substantial speedup, got {:.1}%",
            100.0 * speedup
        );
    }
}
