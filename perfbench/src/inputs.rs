//! Input generation.  Every input is a pure function of the workload seed, so
//! the same seed gives byte-identical inputs on every run and host.

use sketch_core::{EmbeddingDim, Pipeline, SketchSpec};
use sketch_gpu_sim::Device;
use sketch_la::{blas3, norms, Layout, Matrix};
use sketch_lsq::LsqProblem;
use sketch_rng::fill;
use sketch_serve::{DeadlineClass, JobSpec, OperandSpec};

/// Full-size or the reduced `--smoke` size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Reduced sizes that run every workload and check in seconds.
    Smoke,
}

/// Rows and columns of the least-squares problems.
pub fn lsq_shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (1 << 18, 32),
        Scale::Smoke => (1 << 13, 8),
    }
}

/// Shape of the RSVD input: `m x n`, planted signal rank, target rank `k`
/// and oversampling `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsvdShape {
    /// Rows.
    pub m: usize,
    /// Columns.
    pub n: usize,
    /// Rank of the planted signal, also the target rank `k`.
    pub rank: usize,
    /// Oversampling `p`.
    pub oversample: usize,
}

/// The RSVD input shape at `scale`.
pub fn rsvd_shape(scale: Scale) -> RsvdShape {
    match scale {
        Scale::Full => RsvdShape {
            m: 16384,
            n: 512,
            rank: 32,
            oversample: 8,
        },
        Scale::Smoke => RsvdShape {
            m: 1024,
            n: 128,
            rank: 8,
            oversample: 8,
        },
    }
}

/// Standard deviation of the planted noise relative to unit-variance signal
/// factors: the rank-`r` signal's singular values are about `sqrt(m n)`,
/// far above the noise's spectral norm of about `0.1 (sqrt(m) + sqrt(n))`.
const RSVD_NOISE_SIGMA: f64 = 0.1;

/// SplitMix64 finaliser over `(seed, tag, index)`: the seed of item `index`
/// of stream `tag` derived from the workload seed.
pub fn derive_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's performance problem (`kappa(A) = 1e2`, noisy planted
/// solution) at `scale`, generated on a scratch device so its cost is not
/// charged to the benchmark's pool.
pub fn lsq_problem(scale: Scale, seed: u64) -> Result<LsqProblem, String> {
    let (d, n) = lsq_shape(scale);
    LsqProblem::performance(&Device::unlimited(), d, n, seed).map_err(|e| e.to_string())
}

/// A rank-`r` signal from one GEMM of Philox factors plus planted Gaussian
/// noise, with the noise's Frobenius norm.
#[derive(Debug, Clone)]
pub struct RsvdInput {
    /// The dense `m x n` column-major input.
    pub a: Matrix,
    /// `||N||_F` of the planted noise `N`.
    pub noise_fro: f64,
}

/// Generate the RSVD input for `shape` and `seed`.
pub fn rsvd_input(shape: RsvdShape, seed: u64) -> Result<RsvdInput, String> {
    let RsvdShape { m, n, rank, .. } = shape;
    let u = Matrix::random_gaussian(m, rank, Layout::ColMajor, seed, 1);
    let v = Matrix::random_gaussian(rank, n, Layout::ColMajor, seed, 2);
    let signal =
        blas3::gemm(&Device::unlimited(), 1.0, &u, &v, 0.0, None).map_err(|e| e.to_string())?;
    // The signal is added into the noise buffer, so set-up holds two m x n
    // buffers rather than four.
    let mut data = fill::scaled_gaussian_vec(seed, 3, m * n, RSVD_NOISE_SIGMA);
    let noise_fro = norms::vec_norm2(&data);
    for (j, column) in data.chunks_exact_mut(m).enumerate() {
        for (i, x) in column.iter_mut().enumerate() {
            *x += signal.get(i, j);
        }
    }
    Ok(RsvdInput {
        a: Matrix::from_vec(m, n, Layout::ColMajor, data),
        noise_fro,
    })
}

/// Jobs in one `serve_mixed` batch.
fn serve_batch_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => 64,
        Scale::Smoke => 16,
    }
}

/// The tenants jobs are spread over.
const TENANTS: [&str; 4] = ["tenant-a", "tenant-b", "tenant-c", "tenant-d"];

/// Every `SPAN_EVERY`-th job asks for two devices.
pub const SPAN_EVERY: usize = 7;

/// One `serve_mixed` batch: jobs from four tenants with mixed deadline
/// classes and priorities, cycling CountSketch, Count-Gauss, SRHT and
/// hash-CountSketch pipelines over dense and CSR operands.
///
/// The multiset of job shapes is the same for every seed, so every batch
/// does the same amount of work; the seed permutes the submission order and
/// draws the deadline classes, priorities and all data and sketch seeds.
pub fn serve_jobs(scale: Scale, seed: u64) -> Vec<JobSpec> {
    let (rows, cols): (&[usize], &[usize]) = match scale {
        Scale::Full => (&[4096, 8192, 16384], &[8, 16]),
        Scale::Smoke => (&[512, 1024, 2048], &[4, 8]),
    };
    let len = serve_batch_len(scale);
    let mut order: Vec<usize> = (0..len).collect();
    for j in (1..len).rev() {
        order.swap(
            j,
            (derive_seed(seed, 3, j as u64) % (j as u64 + 1)) as usize,
        );
    }
    order
        .into_iter()
        .enumerate()
        .map(|(j, shape)| {
            let d = rows[(shape / 4) % rows.len()];
            let n = cols[(shape / 12) % cols.len()];
            let job_seed = derive_seed(seed, 4, j as u64);
            let pipeline = match shape % 4 {
                0 => Pipeline::single(SketchSpec::countsketch(
                    d,
                    EmbeddingDim::Square(2),
                    job_seed,
                )),
                1 => Pipeline::count_gauss(
                    d,
                    EmbeddingDim::Square(2),
                    EmbeddingDim::Ratio(2),
                    job_seed,
                ),
                2 => Pipeline::single(SketchSpec::srht(d, EmbeddingDim::Ratio(2), job_seed)),
                _ => Pipeline::single(SketchSpec::hash_countsketch(
                    d,
                    EmbeddingDim::Square(2),
                    job_seed,
                )),
            };
            let operand = if (shape / 24) % 2 == 0 {
                OperandSpec::Dense {
                    rows: d,
                    cols: n,
                    seed: job_seed,
                }
            } else {
                OperandSpec::Csr {
                    rows: d,
                    cols: n,
                    nnz_target: d * n / 8,
                    seed: job_seed,
                }
            };
            let draw = derive_seed(seed, 5, j as u64);
            let deadline = [
                DeadlineClass::Interactive,
                DeadlineClass::Standard,
                DeadlineClass::Batch,
            ][(draw % 3) as usize];
            JobSpec::new(TENANTS[j % TENANTS.len()], pipeline, operand)
                .with_deadline(deadline)
                .with_priority(((draw >> 8) % 4) as u8)
                .with_devices(if j % SPAN_EVERY == SPAN_EVERY - 1 {
                    2
                } else {
                    1
                })
                .with_arrival(j as f64 * 2e-6)
        })
        .collect()
}

/// Bytes of one batch's operands once materialised: dense `d n` doubles, CSR
/// values, column indices and row pointers.
pub fn serve_working_set_bytes(jobs: &[JobSpec]) -> u64 {
    jobs.iter()
        .map(|job| match job.operand {
            OperandSpec::Dense { rows, cols, .. } => 8 * (rows * cols) as u64,
            OperandSpec::Csr {
                rows, nnz_target, ..
            } => 16 * nnz_target as u64 + 8 * (rows as u64 + 1),
        })
        .sum()
}
