//! The contract every workload implements, and helpers they share.

use crate::inputs::Scale;
use crate::trace::Tracer;
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::Matrix;
use std::sync::Arc;

/// The four workloads, by the name the command line takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Count-Gauss multisketch least squares on a 4-device pool.
    LsqMultisketch,
    /// Normal-equations least squares on the same problems.
    LsqNormalEq,
    /// CountSketch randomized SVD of a dense noisy low-rank matrix.
    RsvdCountsketch,
    /// A 64-job multi-tenant `ServeEngine` batch on a 4-device pool.
    ServeMixed,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::LsqMultisketch,
        Kind::LsqNormalEq,
        Kind::RsvdCountsketch,
        Kind::ServeMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LsqMultisketch => "lsq_multisketch",
            Kind::LsqNormalEq => "lsq_normal_eq",
            Kind::RsvdCountsketch => "rsvd_countsketch",
            Kind::ServeMixed => "serve_mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generate inputs, build the pool and run one warm-up operation.
    pub fn setup(self, scale: Scale, seed: u64) -> Result<Box<dyn Workload>, String> {
        let mut workload: Box<dyn Workload> = match self {
            Kind::LsqMultisketch => Box::new(crate::lsq::Lsq::multisketch(scale, seed)?),
            Kind::LsqNormalEq => Box::new(crate::lsq::Lsq::normal_eq(scale, seed)?),
            Kind::RsvdCountsketch => Box::new(crate::rsvd::Rsvd::new(scale, seed)?),
            Kind::ServeMixed => Box::new(crate::serve::Serve::new(scale, seed)?),
        };
        workload.warm_up()?;
        Ok(workload)
    }
}

/// What one untraced operation produced.
#[derive(Debug, Clone, Default)]
pub struct OpOutcome {
    /// Host wall time of the operation alone, checks excluded, milliseconds.
    pub ms: f64,
    /// Units of work completed: jobs for a serve batch, else 1 (0 on failure).
    pub work: u64,
    /// Modelled H100 time of the operation, milliseconds.
    pub model_ms: f64,
    /// Modelled cost the devices were charged during the operation.
    pub cost: KernelCost,
    /// The workload's accuracy ratio, where it defines one.
    pub accuracy: Option<f64>,
    /// Modelled p95 queue wait across tenants (serve batches only), ms.
    pub queue_wait_p95_model_ms: Option<f64>,
    /// Why the operation failed (error, rejection or failed check).
    pub failure: Option<String>,
}

impl OpOutcome {
    /// A failed operation that took `ms`.
    pub fn failed(ms: f64, why: impl Into<String>) -> Self {
        Self {
            ms,
            failure: Some(why.into()),
            ..Self::default()
        }
    }
}

/// One workload: its inputs, pool and checks.
pub trait Workload {
    /// Run one untimed operation so caches and lazy set-up are warm.
    fn warm_up(&mut self) -> Result<(), String>;

    /// Compute untimed references the checks compare against.
    fn reference(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Bytes of input one operation reads.
    fn working_set_bytes(&self) -> u64;

    /// Devices whose cost trackers spans are charged from.
    fn devices(&self) -> Vec<Arc<Device>>;

    /// Operation `i` as a black-box call, then its correctness checks.
    fn op(&mut self, i: u64) -> OpOutcome;

    /// Operation `i` rebuilt from public calls inside spans, checked against
    /// the black-box call; probes follow under further roots of the same
    /// operation.  Returns per-operation values that come from results rather
    /// than spans.
    fn traced_op(
        &mut self,
        i: u64,
        tracer: &mut Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String>;

    /// Extra report lines once the timed phases are over.
    fn epilogue(&mut self, _op_ms_p50: f64, _model_ms_p50: f64) -> Vec<String> {
        Vec::new()
    }
}

/// Whether two slices hold the same bit patterns.
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two matrices have the same shape, layout and bit patterns.
pub(crate) fn same_matrix(a: &Matrix, b: &Matrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.layout() == b.layout()
        && same_bits(a.as_slice(), b.as_slice())
}
