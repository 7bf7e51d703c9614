//! `serve_mixed`: one operation is one multi-tenant `ServeEngine` batch.

use crate::inputs::{serve_jobs, serve_working_set_bytes, Scale};
use crate::trace::Tracer;
use crate::workload::{same_matrix, OpOutcome, Workload};
use sketch_core::{Operand, Pipeline, SketchKind};
use sketch_dist::{pipelined_sketch, ExecutorOptions, PipelinedRun};
use sketch_gpu_sim::{Device, DevicePool};
use sketch_la::Matrix;
use sketch_obs::Stopwatch;
use sketch_serve::{
    AdmissionController, JobSpec, OperandData, ServeEngine, ServiceReport, TenantLimits,
};
use std::sync::Arc;

/// Devices in the shared pool.
const POOL_DEVICES: usize = 4;

/// Admission limits: finite, so every job is really checked against them,
/// and wide enough to admit every job of a batch.
fn admission() -> AdmissionController {
    AdmissionController::new().with_default(
        TenantLimits::unlimited()
            .with_max_in_flight(64)
            .with_max_sketch_bytes(1 << 30)
            .with_max_modelled_flops(1 << 40),
    )
}

/// The serve workload.
pub struct Serve {
    jobs: Vec<JobSpec>,
    pool: DevicePool,
    solo: DevicePool,
    /// The first batch's ledger; every later batch must render identically.
    ledger: Option<String>,
}

impl Serve {
    /// Generate the batch and the pool.
    pub fn new(scale: Scale, seed: u64) -> Result<Self, String> {
        Ok(Self {
            jobs: serve_jobs(scale, seed),
            pool: DevicePool::h100(POOL_DEVICES),
            solo: DevicePool::h100(1),
            ledger: None,
        })
    }

    /// Submit the batch to a fresh engine and run it.  Returns the report
    /// and how many submissions were refused.
    fn batch(&self, t: Option<&mut Tracer>) -> Result<(ServiceReport, usize), String> {
        let mut engine = ServeEngine::new(&self.pool, admission(), self.jobs.len());
        let submit = |engine: &mut ServeEngine<'_>| {
            self.jobs
                .iter()
                .filter(|job| engine.submit((*job).clone()).is_err())
                .count()
        };
        let (refused, report) = match t {
            None => (submit(&mut engine), engine.run()),
            Some(t) => t.span("serve.batch", |t| {
                let refused = t.span("serve.submit", |_| submit(&mut engine));
                (refused, t.span("serve.run", |_| engine.run()))
            }),
        };
        Ok((report.map_err(|e| e.to_string())?, refused))
    }

    /// The checks every batch must pass: every job ran, and the ledger is
    /// byte-identical to the first batch's.
    fn check_batch(&mut self, report: &ServiceReport, refused: usize) -> Result<(), String> {
        if refused > 0 || report.jobs_rejected() > 0 || !report.service.abandoned.is_empty() {
            return Err(format!(
                "{refused} submissions refused, {} jobs rejected, {} abandoned",
                report.jobs_rejected(),
                report.service.abandoned.len()
            ));
        }
        if report.jobs_run() != self.jobs.len() as u64 {
            return Err(format!(
                "ran {} of {} jobs",
                report.jobs_run(),
                self.jobs.len()
            ));
        }
        let ledger = report.to_json().render();
        match &self.ledger {
            None => self.ledger = Some(ledger),
            Some(first) if *first != ledger => {
                return Err("the ledger differs from the first batch with the same seed".into())
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// The sketch `job` produces when run alone on a pool of one.
    fn solo_run(&self, job: &JobSpec) -> Result<PipelinedRun, String> {
        run_operand(
            &self.solo,
            &job.salted_pipeline(),
            &job.operand.materialize(),
        )
    }
}

fn run_operand(
    pool: &DevicePool,
    plan: &Pipeline,
    operand: &OperandData,
) -> Result<PipelinedRun, String> {
    let opts = ExecutorOptions::default();
    match operand {
        OperandData::Dense(m) => pipelined_sketch(pool, m, plan, &opts),
        OperandData::Csr(c) => pipelined_sketch(pool, Operand::Csr(c), plan, &opts),
    }
    .map_err(|e| e.to_string())
}

fn as_operand(data: &OperandData) -> Operand<'_> {
    match data {
        OperandData::Dense(m) => Operand::Dense(m),
        OperandData::Csr(c) => Operand::Csr(c),
    }
}

/// Span names of a stage's generation and application.
fn stage_spans(kind: SketchKind) -> (&'static str, &'static str) {
    match kind {
        SketchKind::Gaussian => ("core.gaussian_gen", "core.gaussian_apply"),
        SketchKind::Srht => ("core.srht_gen", "core.srht_apply"),
        _ => ("core.countsketch_gen", "core.countsketch_apply"),
    }
}

/// Replay one scheduled job from public calls: materialise its operand, run
/// its salted pipeline on the devices it was given (must match the served
/// result bit for bit), then time each stage's kernels and the whole plan's
/// bare `apply_operand` on one device.
fn replay_job(
    t: &mut Tracer,
    pool: &DevicePool,
    job: &JobSpec,
    devices: &[usize],
    served: &Matrix,
) -> Result<(), String> {
    let data = t.span("serve.materialize", |_| job.operand.materialize());
    let sub = pool.subpool(devices).map_err(|e| e.to_string())?;
    let plan = job.salted_pipeline();
    let run = t.span("dist.pipelined_sketch", |_| run_operand(&sub, &plan, &data))?;
    if !same_matrix(&run.result, served) {
        return Err(format!(
            "replayed job differs from the served result on {devices:?}"
        ));
    }
    let device = pool.device(0);
    let operand = as_operand(&data);
    let mut current: Option<Matrix> = None;
    for spec in plan.resolve(operand.ncols()).map_err(|e| e.to_string())? {
        let (gen, apply) = stage_spans(spec.kind);
        let op = t
            .span(gen, |_| spec.build(device))
            .map_err(|e| e.to_string())?;
        let input = current.as_ref().map_or(operand, Operand::Dense);
        current = Some(
            t.span(apply, |_| op.apply_operand(device, input))
                .map_err(|e| e.to_string())?,
        );
    }
    let fused = plan
        .build_for(device, operand.ncols())
        .map_err(|e| e.to_string())?;
    let bare = t
        .span("dist.bare_apply", |_| fused.apply_operand(device, operand))
        .map_err(|e| e.to_string())?;
    if !same_matrix(&bare, &run.result) {
        return Err("pipelined_sketch differs from the bare apply_operand".into());
    }
    Ok(())
}

fn queue_wait_p95_ms(report: &ServiceReport) -> f64 {
    let waits: Vec<f64> = report
        .tenants
        .values()
        .flat_map(|l| l.queue_waits.iter().copied())
        .collect();
    crate::stats::percentile_permille(&waits, 950).unwrap_or(0.0) * 1e3
}

impl Workload for Serve {
    fn warm_up(&mut self) -> Result<(), String> {
        self.batch(None).map(|_| ())
    }

    fn working_set_bytes(&self) -> u64 {
        serve_working_set_bytes(&self.jobs)
    }

    fn devices(&self) -> Vec<Arc<Device>> {
        self.pool.devices().to_vec()
    }

    fn op(&mut self, i: u64) -> OpOutcome {
        let before = self.pool.total_cost();
        let watch = Stopwatch::start();
        let result = self.batch(None);
        let ms = watch.elapsed_seconds() * 1e3;
        let cost = self.pool.total_cost() - before;
        let (report, refused) = match result {
            Ok(r) => r,
            Err(e) => return OpOutcome::failed(ms, e),
        };
        let checked = self.check_batch(&report, refused).and_then(|()| {
            // Fresh engines number jobs in submission order.
            let sample = (i % self.jobs.len() as u64) as usize;
            let served = report
                .service
                .jobs
                .iter()
                .find(|j| j.seq == sample as u64)
                .ok_or_else(|| format!("job {sample} missing from the report"))?;
            let solo = self.solo_run(&self.jobs[sample])?;
            if !same_matrix(&solo.result, &served.run.result) {
                return Err(format!("job {sample} differs from its solo run"));
            }
            Ok(())
        });
        match checked {
            Ok(()) => OpOutcome {
                ms,
                work: report.jobs_run(),
                model_ms: report.service.makespan() * 1e3,
                cost,
                accuracy: None,
                queue_wait_p95_model_ms: Some(queue_wait_p95_ms(&report)),
                failure: None,
            },
            Err(why) => OpOutcome::failed(ms, why),
        }
    }

    fn traced_op(&mut self, _i: u64, t: &mut Tracer) -> Result<Vec<(&'static str, f64)>, String> {
        let (report, refused) = self.batch(Some(t))?;
        self.check_batch(&report, refused)?;
        t.span("serve.replay", |t| {
            for served in &report.service.jobs {
                let job = self
                    .jobs
                    .get(served.seq as usize)
                    .ok_or_else(|| format!("unknown job {}", served.seq))?;
                replay_job(
                    t,
                    &self.pool,
                    job,
                    &served.device_ordinals,
                    &served.run.result,
                )?;
            }
            Ok::<(), String>(())
        })?;
        let utilizations = report.service.utilizations();
        let shards: usize = report
            .service
            .jobs
            .iter()
            .flat_map(|j| j.run.schedules.iter().map(|s| s.num_shards()))
            .sum();
        let comm: u64 = report
            .service
            .jobs
            .iter()
            .map(|j| j.run.comm_total_bytes())
            .sum();
        Ok(vec![
            ("serve.jobs", report.jobs_run() as f64),
            ("serve.jobs_rejected", report.jobs_rejected() as f64),
            ("serve.retries", report.service.retries as f64),
            (
                "serve.utilization_mean",
                crate::stats::mean(&utilizations).unwrap_or(0.0),
            ),
            ("dist.model_makespan_ms", report.service.makespan() * 1e3),
            ("dist.comm_bytes", comm as f64),
            ("dist.shards", shards as f64),
        ])
    }
}
