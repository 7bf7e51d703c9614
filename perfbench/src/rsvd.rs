//! `rsvd_countsketch`: randomized SVD with a CountSketch test matrix on one
//! simulated H100.

use crate::inputs::{derive_seed, rsvd_input, rsvd_shape, RsvdInput, RsvdShape, Scale};
use crate::trace::Tracer;
use crate::workload::{same_bits, same_matrix, OpOutcome, Workload};
use sketch_gpu_sim::Device;
use sketch_la::qr::geqrf;
use sketch_la::{blas3, jacobi_svd, Layout, Matrix, Op};
use sketch_lowrank::{rsvd, LowRankParams, MatVecLike, RangeSketch, SvdResult};
use sketch_obs::Stopwatch;
use std::sync::Arc;

/// Largest accepted `||A - U S V^T||_F / ||N||_F` for target rank `k` and
/// oversampling `p`: three times the HMT (Theorem 10.5) bound on the expected
/// Frobenius error of a Gaussian rangefinder, `sqrt(1 + k / (p - 1))` times
/// the best rank-`k` error, which here is at most `||N||_F`.  With `p = 8` the
/// range leaks signal in proportion to the noise, so the ratio sits near 2
/// whatever the noise level; the factor 3 covers the spread of single draws.
fn accuracy_bound(k: usize, p: usize) -> f64 {
    3.0 * (1.0 + k as f64 / (p.max(2) - 1) as f64).sqrt()
}

/// Every this many operations the approximation error is measured (the
/// reconstruction costs about as much as the op).
const ACCURACY_CHECK_EVERY: u64 = 4;

/// Rows of `U S V^T` the accuracy check forms at a time.
const RESIDUAL_ROWS: usize = 1024;

/// Every this many traced operations the rebuild is compared with `rsvd()`.
const BLACK_BOX_CHECK_EVERY: u64 = 4;

/// The RSVD workload.
pub struct Rsvd {
    seed: u64,
    shape: RsvdShape,
    input: RsvdInput,
    device: Arc<Device>,
    check: Device,
    traced_ops: u64,
}

impl Rsvd {
    /// Generate the input and the device.
    pub fn new(scale: Scale, seed: u64) -> Result<Self, String> {
        let shape = rsvd_shape(scale);
        Ok(Self {
            seed,
            shape,
            input: rsvd_input(shape, seed)?,
            device: Arc::new(Device::h100()),
            check: Device::unlimited(),
            traced_ops: 0,
        })
    }

    fn params(&self, i: u64) -> LowRankParams {
        LowRankParams::new(self.shape.rank)
            .with_oversample(self.shape.oversample)
            .with_power_iters(0)
            .with_sketch(RangeSketch::CountSketch)
            .with_seed(derive_seed(self.seed, 2, i), 0)
    }

    /// `rsvd` with `q = 0`, rebuilt call by call the way `range_finder_on`
    /// and `svd_from_range` make them.
    fn traced_rsvd(&self, params: &LowRankParams, t: &mut Tracer) -> Result<SvdResult, String> {
        let device: &Device = &self.device;
        let a = &self.input.a;
        let (m, n) = (a.nrows(), a.ncols());
        let l = (params.k + params.oversample).min(m.min(n));
        t.span("lowrank.rsvd", |t| {
            let q = t.span("lowrank.range_finder", |t| {
                let omega = t
                    .span("lowrank.test_matrix", |_| {
                        params
                            .sketch
                            .test_matrix(device, n, l, params.seed, params.stream)
                    })
                    .map_err(|e| e.to_string())?;
                let y = t
                    .span("la.gemm", |_| a.mul_right(device, &omega))
                    .map_err(|e| e.to_string())?;
                let factors = t
                    .span("la.geqrf", |_| geqrf(device, &y))
                    .map_err(|e| e.to_string())?;
                Ok::<Matrix, String>(t.span("la.q_thin", |_| factors.q_thin(device)))
            })?;
            let b = t
                .span("la.gemm", |_| a.mul_transpose_right(device, &q))
                .map_err(|e| e.to_string())?;
            let svd = t
                .span("la.jacobi_svd", |_| jacobi_svd(device, &b))
                .map_err(|e| e.to_string())?;
            let u_full = t
                .span("la.gemm", |_| {
                    blas3::gemm_op(device, 1.0, Op::NoTrans, &q, Op::Trans, &svd.vt, 0.0, None)
                })
                .map_err(|e| e.to_string())?;
            let k = params.k.min(svd.s.len());
            let u = u_full.submatrix(m, k).map_err(|e| e.to_string())?;
            let vt = Matrix::from_fn(k, n, Layout::ColMajor, |i, j| svd.u.get(j, i));
            Ok(SvdResult {
                u,
                s: svd.s[..k].to_vec(),
                vt,
            })
        })
    }
}

/// `||A - U S V^T||_F`, forming [`RESIDUAL_ROWS`] rows of `U S V^T` at a
/// time so the check never holds a second `m x n` matrix.
fn residual_fro(device: &Device, a: &Matrix, svd: &SvdResult) -> Result<f64, String> {
    let (m, n, k) = (a.nrows(), a.ncols(), svd.s.len());
    let mut sum = 0.0;
    for r0 in (0..m).step_by(RESIDUAL_ROWS) {
        let rows = RESIDUAL_ROWS.min(m - r0);
        let us = Matrix::from_fn(rows, k, Layout::ColMajor, |i, j| {
            svd.u.get(r0 + i, j) * svd.s[j]
        });
        let block = blas3::gemm(device, 1.0, &us, &svd.vt, 0.0, None).map_err(|e| e.to_string())?;
        for j in 0..n {
            for i in 0..rows {
                let d = a.get(r0 + i, j) - block.get(i, j);
                sum += d * d;
            }
        }
    }
    Ok(sum.sqrt())
}

fn same_svd(a: &SvdResult, b: &SvdResult) -> bool {
    same_matrix(&a.u, &b.u) && same_bits(&a.s, &b.s) && same_matrix(&a.vt, &b.vt)
}

impl Workload for Rsvd {
    fn warm_up(&mut self) -> Result<(), String> {
        rsvd(&self.device, &self.input.a, &self.params(u64::MAX))
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn working_set_bytes(&self) -> u64 {
        self.input.a.size_bytes()
    }

    fn devices(&self) -> Vec<Arc<Device>> {
        vec![Arc::clone(&self.device)]
    }

    fn op(&mut self, i: u64) -> OpOutcome {
        let params = self.params(i);
        let before = self.device.tracker().snapshot();
        let watch = Stopwatch::start();
        let result = rsvd(&self.device, &self.input.a, &params);
        let ms = watch.elapsed_seconds() * 1e3;
        let cost = self.device.tracker().snapshot() - before;
        let checked = result.map_err(|e| e.to_string()).and_then(|svd| {
            if svd.rank() != self.shape.rank {
                return Err(format!("rank {} != {}", svd.rank(), self.shape.rank));
            }
            if !i.is_multiple_of(ACCURACY_CHECK_EVERY) {
                return Ok(None);
            }
            let ratio = residual_fro(&self.check, &self.input.a, &svd)? / self.input.noise_fro;
            let bound = accuracy_bound(self.shape.rank, self.shape.oversample);
            if !(ratio.is_finite() && ratio <= bound) {
                return Err(format!("op {i}: accuracy ratio {ratio} exceeds {bound}"));
            }
            Ok(Some(ratio))
        });
        match checked {
            Ok(accuracy) => OpOutcome {
                ms,
                work: 1,
                model_ms: self.device.model_time(&cost) * 1e3,
                cost,
                accuracy,
                queue_wait_p95_model_ms: None,
                failure: None,
            },
            Err(why) => OpOutcome::failed(ms, why),
        }
    }

    fn traced_op(&mut self, i: u64, t: &mut Tracer) -> Result<Vec<(&'static str, f64)>, String> {
        let params = self.params(i);
        let rebuilt = self.traced_rsvd(&params, t)?;
        self.traced_ops += 1;
        if (self.traced_ops - 1).is_multiple_of(BLACK_BOX_CHECK_EVERY) {
            let black_box =
                rsvd(&self.device, &self.input.a, &params).map_err(|e| e.to_string())?;
            if !same_svd(&rebuilt, &black_box) {
                return Err(format!("op {i}: the rebuilt rsvd differs from rsvd()"));
            }
        }
        Ok(Vec::new())
    }
}
