//! `lsq_multisketch` and `lsq_normal_eq`: the paper's method and its
//! baseline on the same generated problems.

use crate::inputs::{derive_seed, lsq_problem, Scale};
use crate::trace::Tracer;
use crate::workload::{same_bits, same_matrix, OpOutcome, Workload};
use sketch_core::{MultiSketch, Operand, SketchOperator};
use sketch_dist::{pipelined_sketch, ExecutorOptions, PipelinedRun};
use sketch_gpu_sim::{Device, DevicePool};
use sketch_la::blas2::{gemv, trsv, Triangle};
use sketch_la::blas3::gram_gemm;
use sketch_la::chol::potrf_upper;
use sketch_la::norms::relative_residual;
use sketch_la::qr::geqrf;
use sketch_la::{Layout, Op};
use sketch_lsq::solvers::{distortion_bound, qr_direct};
use sketch_lsq::{solve, LsqProblem, Method};
use sketch_obs::Stopwatch;
use std::sync::Arc;

/// Devices in the benchmark's pool.
const POOL_DEVICES: usize = 4;

/// The distortion `eps` the multisketch residual is checked against:
/// `||b - A x|| <= sqrt((1 + eps) / (1 - eps)) ||b - A x_QR||`, here 3.
/// With the paper's `k = 2n` Gaussian stage the squared ratio is about
/// `1 + n / (k - n - 1)` on average (ratio near 1.42) with an F-distributed
/// spread, so `eps = 0.5` (bound 1.73) is exceeded by a few percent of sound
/// draws; a broken sketch misses 3 by far.
const MULTISKETCH_EPS: f64 = 0.8;

/// Largest `| ratio - 1 |` accepted from the normal equations at `kappa = 1e2`.
const NORMAL_EQ_TOLERANCE: f64 = 1e-6;

/// Every this many operations the multisketch solution is also computed on a
/// pool of one and compared bit for bit.
const SOLO_CHECK_EVERY: u64 = 32;

/// Normal-equations solves timed after a multisketch run for the headline
/// comparison.
const HEADLINE_BASELINE_OPS: usize = 3;

/// One least-squares workload.
pub struct Lsq {
    method: Method,
    seed: u64,
    problem: LsqProblem,
    pool: DevicePool,
    solo: DevicePool,
    check: Device,
    /// `||b - A x_QR|| / ||b||`, set by [`Workload::reference`].
    reference: Option<f64>,
    /// The normal-equations solution of the first operation (deterministic).
    first_x: Option<Vec<f64>>,
}

impl Lsq {
    fn new(method: Method, scale: Scale, seed: u64) -> Result<Self, String> {
        Ok(Self {
            method,
            seed,
            problem: lsq_problem(scale, seed)?,
            pool: DevicePool::h100(POOL_DEVICES),
            solo: DevicePool::h100(1),
            check: Device::unlimited(),
            reference: None,
            first_x: None,
        })
    }

    /// The `lsq_multisketch` workload.
    pub fn multisketch(scale: Scale, seed: u64) -> Result<Self, String> {
        Self::new(Method::MultiSketch, scale, seed)
    }

    /// The `lsq_normal_eq` workload.
    pub fn normal_eq(scale: Scale, seed: u64) -> Result<Self, String> {
        Self::new(Method::NormalEquations, scale, seed)
    }

    fn sketch_seed(&self, i: u64) -> u64 {
        derive_seed(self.seed, 1, i)
    }

    /// `||b - A x|| / ||b - A x_QR||`.
    fn accuracy(&self, x: &[f64]) -> Result<f64, String> {
        let reference = self.reference.ok_or("the QR reference was not computed")?;
        let residual = relative_residual(&self.check, &self.problem.a, x, &self.problem.b)
            .map_err(|e| e.to_string())?;
        Ok(residual / reference)
    }

    fn check_accuracy(&self, ratio: f64) -> Result<(), String> {
        if !ratio.is_finite() || ratio < 1.0 - 1e-9 {
            return Err(format!("accuracy ratio {ratio} is not a residual ratio"));
        }
        match self.method {
            Method::NormalEquations if (ratio - 1.0).abs() > NORMAL_EQ_TOLERANCE => Err(format!(
                "normal-equations residual ratio {ratio} differs from the QR reference by more \
                 than {NORMAL_EQ_TOLERANCE}"
            )),
            Method::MultiSketch if ratio > distortion_bound(MULTISKETCH_EPS) => Err(format!(
                "multisketch residual ratio {ratio} exceeds distortion_bound({MULTISKETCH_EPS}) = {}",
                distortion_bound(MULTISKETCH_EPS)
            )),
            _ => Ok(()),
        }
    }

    /// Algorithm 1 with the Count-Gauss multisketch, rebuilt call by call the
    /// way `sketch_and_solve` makes them.
    fn traced_multisketch(
        &self,
        seed: u64,
        t: &mut Tracer,
    ) -> Result<(Vec<f64>, PipelinedRun, MultiSketch), String> {
        let device = self.pool.device(0);
        let (a, b, n) = (&self.problem.a, &self.problem.b, self.problem.ncols());
        let plan = Method::MultiSketch
            .sketch_pipeline(self.problem.nrows(), seed)
            .ok_or("the multisketch has a pipeline")?;
        t.span("lsq.solve", |t| {
            let stages = plan.resolve(n).map_err(|e| e.to_string())?;
            let count = t
                .span("core.countsketch_gen", |_| {
                    stages[0].build_countsketch(device)
                })
                .map_err(|e| e.to_string())?;
            let gauss = t
                .span("core.gaussian_gen", |_| stages[1].build_gaussian(device))
                .map_err(|e| e.to_string())?;
            let sketch = MultiSketch::new(count, gauss).map_err(|e| e.to_string())?;
            let run = t
                .span("dist.pipelined_sketch", |_| {
                    pipelined_sketch(&self.pool, a, &plan, &ExecutorOptions::default())
                })
                .map_err(|e| e.to_string())?;
            let z = t
                .span("core.vector_sketch", |_| sketch.apply_vector(device, b))
                .map_err(|e| e.to_string())?;
            let w = t.span("la.layout_convert", |_| {
                run.result.to_layout(device, Layout::ColMajor)
            });
            let factors = t
                .span("la.geqrf", |_| geqrf(device, &w))
                .map_err(|e| e.to_string())?;
            let qtz = t
                .span("la.ormqr", |_| factors.apply_qt_vec(device, &z))
                .map_err(|e| e.to_string())?;
            let r = factors.r();
            let x = t
                .span("la.trsv", |_| {
                    trsv(device, Triangle::Upper, Op::NoTrans, &r, &qtz[..n])
                })
                .map_err(|e| e.to_string())?;
            Ok((x, run, sketch))
        })
    }

    /// Bare kernels on the same plan and input, after the operation: each
    /// multisketch stage alone, and the fused operator's `apply_operand`,
    /// which the executor must match bit for bit.
    fn multisketch_probes(
        &self,
        sketch: &MultiSketch,
        run: &PipelinedRun,
        t: &mut Tracer,
    ) -> Result<(), String> {
        let device = self.pool.device(0);
        let a = Operand::Dense(&self.problem.a);
        t.span("probe", |t| {
            let y = t
                .span("core.countsketch_apply", |_| {
                    sketch.count_stage().apply_operand(device, a)
                })
                .map_err(|e| e.to_string())?;
            t.span("core.gaussian_apply", |_| {
                sketch
                    .gauss_stage()
                    .apply_operand(device, Operand::Dense(&y))
            })
            .map_err(|e| e.to_string())?;
            let bare = t
                .span("dist.bare_apply", |_| sketch.apply_operand(device, a))
                .map_err(|e| e.to_string())?;
            if !same_matrix(&bare, &run.result) {
                return Err("pipelined_sketch differs from the bare apply_operand".into());
            }
            Ok(())
        })
    }

    /// The normal equations, rebuilt call by call the way `normal_equations`
    /// makes them.
    fn traced_normal_eq(&self, t: &mut Tracer) -> Result<Vec<f64>, String> {
        let device = self.pool.device(0);
        let (a, b) = (&self.problem.a, &self.problem.b);
        t.span("lsq.solve", |t| {
            let gram = t
                .span("la.gram", |_| gram_gemm(device, a))
                .map_err(|e| e.to_string())?;
            let atb = t
                .span("la.gemv", |_| gemv(device, 1.0, Op::Trans, a, b, 0.0, None))
                .map_err(|e| e.to_string())?;
            let r = t
                .span("la.potrf", |_| potrf_upper(device, &gram))
                .map_err(|e| e.to_string())?;
            let y = t
                .span("la.trsv", |_| {
                    trsv(device, Triangle::Upper, Op::Trans, &r, &atb)
                })
                .map_err(|e| e.to_string())?;
            t.span("la.trsv", |_| {
                trsv(device, Triangle::Upper, Op::NoTrans, &r, &y)
            })
            .map_err(|e| e.to_string())
        })
    }
}

impl Workload for Lsq {
    fn warm_up(&mut self) -> Result<(), String> {
        solve(
            &self.pool,
            &self.problem,
            self.method,
            self.sketch_seed(u64::MAX),
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    }

    fn reference(&mut self) -> Result<(), String> {
        let qr = qr_direct(&self.check, &self.problem).map_err(|e| e.to_string())?;
        let residual = qr
            .relative_residual(&self.check, &self.problem)
            .map_err(|e| e.to_string())?;
        if !(residual.is_finite() && residual > 0.0) {
            return Err(format!("QR reference residual {residual} is not positive"));
        }
        self.reference = Some(residual);
        Ok(())
    }

    fn working_set_bytes(&self) -> u64 {
        self.problem.a.size_bytes() + 8 * self.problem.b.len() as u64
    }

    fn devices(&self) -> Vec<Arc<Device>> {
        self.pool.devices().to_vec()
    }

    fn op(&mut self, i: u64) -> OpOutcome {
        let seed = self.sketch_seed(i);
        let before = self.pool.total_cost();
        let watch = Stopwatch::start();
        let result = solve(&self.pool, &self.problem, self.method, seed);
        let ms = watch.elapsed_seconds() * 1e3;
        let cost = self.pool.total_cost() - before;
        let sol = match result {
            Ok(sol) => sol,
            Err(e) => return OpOutcome::failed(ms, e.to_string()),
        };
        let checked = self.accuracy(&sol.x).and_then(|ratio| {
            self.check_accuracy(ratio)?;
            if self.method == Method::MultiSketch && i.is_multiple_of(SOLO_CHECK_EVERY) {
                let solo = solve(&self.solo, &self.problem, self.method, seed)
                    .map_err(|e| e.to_string())?;
                if !same_bits(&solo.x, &sol.x) {
                    return Err(format!(
                        "op {i}: the {POOL_DEVICES}-device solution differs from the pool of one"
                    ));
                }
            }
            Ok(ratio)
        });
        match checked {
            Ok(ratio) => OpOutcome {
                ms,
                work: 1,
                model_ms: sol.model_ms(),
                cost,
                accuracy: Some(ratio),
                queue_wait_p95_model_ms: None,
                failure: None,
            },
            Err(why) => OpOutcome::failed(ms, why),
        }
    }

    fn traced_op(&mut self, i: u64, t: &mut Tracer) -> Result<Vec<(&'static str, f64)>, String> {
        let seed = self.sketch_seed(i);
        match self.method {
            Method::NormalEquations => {
                let x = self.traced_normal_eq(t)?;
                let expected = match &self.first_x {
                    Some(x0) => x0.clone(),
                    None => {
                        let sol = solve(&self.pool, &self.problem, self.method, seed)
                            .map_err(|e| e.to_string())?;
                        self.first_x = Some(sol.x.clone());
                        sol.x
                    }
                };
                if !same_bits(&x, &expected) {
                    return Err("the rebuilt normal equations differ from solve()".into());
                }
                Ok(Vec::new())
            }
            _ => {
                let (x, run, sketch) = self.traced_multisketch(seed, t)?;
                self.multisketch_probes(&sketch, &run, t)?;
                let black_box = solve(&self.pool, &self.problem, self.method, seed)
                    .map_err(|e| e.to_string())?;
                if !same_bits(&x, &black_box.x) {
                    return Err("the rebuilt multisketch solve differs from solve()".into());
                }
                let shards: usize = run.schedules.iter().map(|s| s.num_shards()).sum();
                Ok(vec![
                    ("dist.model_makespan_ms", run.pipelined_seconds * 1e3),
                    ("dist.comm_bytes", run.comm_total_bytes() as f64),
                    ("dist.shards", shards as f64),
                ])
            }
        }
    }

    fn epilogue(&mut self, op_ms_p50: f64, model_ms_p50: f64) -> Vec<String> {
        if self.method != Method::MultiSketch {
            return Vec::new();
        }
        let mut host = Vec::new();
        let mut model = Vec::new();
        for _ in 0..HEADLINE_BASELINE_OPS {
            let watch = Stopwatch::start();
            match solve(&self.pool, &self.problem, Method::NormalEquations, 0) {
                Ok(sol) => {
                    host.push(watch.elapsed_seconds() * 1e3);
                    model.push(sol.model_ms());
                }
                Err(e) => return vec![format!("headline unavailable: {e}")],
            }
        }
        let (Some(ne_host), Some(ne_model)) =
            (crate::stats::median(&host), crate::stats::median(&model))
        else {
            return Vec::new();
        };
        vec![format!(
            "headline (informational, no gate) lsq_multisketch / lsq_normal_eq: \
             op_ms_p50 {op_ms_p50:.3} / {ne_host:.3} = {:.4} (host; baseline median of \
             {HEADLINE_BASELINE_OPS} solves in this run); model_ms {model_ms_p50:.4} / \
             {ne_model:.4} = {:.4} (modelled H100)",
            op_ms_p50 / ne_host,
            model_ms_p50 / ne_model
        )]
    }
}
