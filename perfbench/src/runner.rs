//! One workload run: set-up, the untraced closed loop that gives the
//! end-to-end metrics, the traced closed loop that gives the per-layer
//! metrics, and the report.

use crate::inputs::{derive_seed, Scale};
use crate::provenance::{peak_rss_mib, reset_peak_rss, Provenance};
use crate::stats::{failed_frac, median, percentile_permille, tail_permille};
use crate::trace::{op_profile, self_times_ns, to_chrome_trace, OpProfile, Tracer};
use crate::workload::{Kind, OpOutcome, Workload};
use sketch_obs::{JsonValue, Stopwatch};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// The end-to-end metrics the final JSON line carries with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics the final JSON line carries with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("rng.gaussian_ns_per_sample", "ns"),
    ("core.countsketch_gen_ms", "ms"),
    ("core.countsketch_apply_ms", "ms"),
    ("core.countsketch_apply_gbps", "GB/s"),
    ("core.gaussian_gen_ms", "ms"),
    ("core.gaussian_apply_ms", "ms"),
    ("core.srht_gen_ms", "ms"),
    ("core.srht_apply_ms", "ms"),
    ("core.vector_sketch_ms", "ms"),
    ("dist.pipelined_sketch_ms", "ms"),
    ("dist.bare_apply_ms", "ms"),
    ("dist.overhead_ratio", "ratio"),
    ("dist.model_makespan_ms", "ms"),
    ("dist.comm_bytes", "bytes"),
    ("dist.shards", "count"),
    ("la.gram_ms", "ms"),
    ("la.gram_gflops", "GFLOP/s"),
    ("la.gemv_ms", "ms"),
    ("la.gemv_gbps", "GB/s"),
    ("la.potrf_trsv_ms", "ms"),
    ("la.gemm_ms", "ms"),
    ("la.gemm_gflops", "GFLOP/s"),
    ("la.geqrf_ms", "ms"),
    ("la.ormqr_ms", "ms"),
    ("la.q_thin_ms", "ms"),
    ("la.jacobi_svd_ms", "ms"),
    ("la.layout_convert_ms", "ms"),
    ("lowrank.test_matrix_ms", "ms"),
    ("lowrank.range_finder_ms", "ms"),
    ("lowrank.self_ms", "ms"),
    ("lowrank.accuracy_ratio", "ratio"),
    ("lsq.self_ms", "ms"),
    ("lsq.accuracy_ratio", "ratio"),
    ("serve.submit_us_per_job", "us"),
    ("serve.run_ms", "ms"),
    ("serve.materialize_ms", "ms"),
    ("serve.control_plane_ms", "ms"),
    ("serve.jobs_rejected", "count"),
    ("serve.retries", "count"),
    ("serve.utilization_mean", "ratio"),
    ("serve.queue_wait_p95_model_ms", "ms"),
    ("model.op_ms", "ms"),
    ("model.flops", "count"),
    ("model.bytes_computed", "bytes"),
    ("obs.trace_overhead_frac", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
];

/// Gaussian samples drawn by the `rng.gaussian_fill` probe after each traced
/// operation.
const RNG_PROBE_SAMPLES: usize = 1 << 19;

/// How one workload run is carried out.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub kind: Kind,
    /// Full or smoke sizes.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds (both phases together when tracing).
    pub seconds: f64,
    /// Whether to run the traced phase.
    pub trace: bool,
    /// Set-ups timed; the last one is kept and its median reported.
    pub setups: usize,
    /// Fixed `(untraced, traced)` operation counts instead of a time budget.
    pub fixed_ops: Option<(u64, u64)>,
    /// Where the Chrome trace is written when tracing.
    pub trace_path: PathBuf,
}

/// A metric as reported: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (untraced and traced).
    pub attempted: u64,
    /// Operations that errored, were rejected or failed a check.
    pub failed: u64,
    /// Every end-to-end metric measured, including those printed only.
    pub e2e: Vec<Metric>,
    /// Every per-layer metric (traced runs only).
    pub layers: Vec<Metric>,
    /// Human-readable lines, printed before the final JSON line.
    pub lines: Vec<String>,
}

impl Report {
    fn failure(why: String) -> Self {
        Self {
            attempted: 1,
            failed: 1,
            lines: vec![format!("FAILED {why}")],
            ..Self::default()
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, and the named
    /// metrics.
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let all: Vec<&Metric> = self.e2e.iter().chain(&self.layers).collect();
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let value = all
                    .iter()
                    .find(|m| m.0 == *name)
                    .map_or(JsonValue::Null, |m| JsonValue::Float(m.1));
                (
                    name.to_string(),
                    JsonValue::Object(vec![
                        ("value".into(), value),
                        ("unit".into(), JsonValue::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::UInt(self.attempted)),
            ("failed".into(), JsonValue::UInt(self.failed)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .render()
    }
}

/// Run operations in a closed loop: the next starts when the previous one
/// (and its checks) returned, until the budget is spent (at least one
/// operation) or the fixed count is reached.
fn closed_loop<T>(
    budget_s: f64,
    fixed: Option<u64>,
    first: u64,
    mut op: impl FnMut(u64) -> T,
) -> Vec<T> {
    let watch = Stopwatch::start();
    let mut out = Vec::new();
    let mut i = first;
    loop {
        let done = match fixed {
            Some(n) => out.len() as u64 >= n,
            None => !out.is_empty() && watch.elapsed_seconds() >= budget_s,
        };
        if done {
            return out;
        }
        out.push(op(i));
        i += 1;
    }
}

/// Run one workload as `opts` says.
pub fn run(opts: &RunOptions, provenance: &Provenance) -> Report {
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..opts.setups.max(1) {
        drop(workload.take());
        let watch = Stopwatch::start();
        match opts.kind.setup(opts.scale, opts.seed) {
            Ok(w) => workload = Some(w),
            Err(e) => return Report::failure(format!("setup: {e}")),
        }
        setup_s.push(watch.elapsed_seconds());
    }
    let mut workload = workload.expect("at least one set-up ran");
    if let Err(e) = workload.reference() {
        return Report::failure(format!("reference: {e}"));
    }

    let mut report = Report::default();
    report
        .lines
        .push(provenance.working_set_line(opts.kind.name(), workload.working_set_bytes()));
    // `peak_rss_mib` covers the untraced loop alone: the inputs it keeps
    // resident plus what the operations and their checks allocate, not the
    // set-ups or the reference.
    if let Err(e) = reset_peak_rss() {
        report.lines.push(format!(
            "peak_rss_mib includes set-up: resetting VmHWM failed: {e}"
        ));
    }
    let untraced_budget = if opts.trace { 0.5 } else { 1.0 } * opts.seconds;
    let outcomes = closed_loop(untraced_budget, opts.fixed_ops.map(|f| f.0), 0, |i| {
        workload.op(i)
    });
    for (i, o) in outcomes.iter().enumerate() {
        if let Some(why) = &o.failure {
            report.lines.push(format!("FAILED op {i}: {why}"));
        }
    }
    report.attempted += outcomes.len() as u64;
    report.failed += outcomes.iter().filter(|o| o.failure.is_some()).count() as u64;
    e2e_metrics(&mut report, &outcomes, &setup_s);

    let op_ms_p50 = metric(&report.e2e, "op_ms_p50");
    let model_ms_p50 = metric(&report.e2e, "model_ms");
    if opts.trace {
        traced_phase(opts, workload.as_mut(), outcomes.len() as u64, &mut report);
    }
    let epilogue = workload.epilogue(op_ms_p50, model_ms_p50);
    report.lines.extend(epilogue);
    report
}

fn metric(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.0 == name)
        .map_or(f64::NAN, |m| m.1)
}

fn e2e_metrics(report: &mut Report, outcomes: &[OpOutcome], setup_s: &[f64]) {
    let ok: Vec<&OpOutcome> = outcomes.iter().filter(|o| o.failure.is_none()).collect();
    let ms: Vec<f64> = ok.iter().map(|o| o.ms).collect();
    let busy_s: f64 = outcomes.iter().map(|o| o.ms).sum::<f64>() * 1e-3;
    let work: u64 = ok.iter().map(|o| o.work).sum();
    let med = |values: Vec<f64>| median(&values).unwrap_or(f64::NAN);
    let e2e = &mut report.e2e;
    e2e.push(("op_ms_p50", med(ms.clone()), "ms"));
    match tail_permille(ms.len()) {
        Some(p) if p >= 900 => e2e.push((
            "op_ms_p90",
            percentile_permille(&ms, 900).unwrap_or(f64::NAN),
            "ms",
        )),
        _ => {}
    }
    e2e.push(("ops_per_s", work as f64 / busy_s, "1/s"));
    e2e.push((
        "model_ms",
        med(ok.iter().map(|o| o.model_ms).collect()),
        "ms",
    ));
    let waits: Vec<f64> = ok
        .iter()
        .filter_map(|o| o.queue_wait_p95_model_ms)
        .collect();
    if !waits.is_empty() {
        e2e.push(("queue_wait_p95_model_ms", med(waits), "ms"));
    }
    let accuracy: Vec<f64> = ok.iter().filter_map(|o| o.accuracy).collect();
    if !accuracy.is_empty() {
        e2e.push(("accuracy_ratio", med(accuracy), "ratio"));
    }
    e2e.push((
        "failed_frac",
        failed_frac(outcomes.len() as u64, (outcomes.len() - ok.len()) as u64),
        "ratio",
    ));
    e2e.push(("setup_s", med(setup_s.to_vec()), "s"));
    e2e.push(("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB"));

    let tail = match tail_permille(ms.len()) {
        Some(p) => format!(
            "p{} = {:.4} ms from {} samples",
            p as f64 / 10.0,
            percentile_permille(&ms, p).unwrap_or(f64::NAN),
            ms.len()
        ),
        None => "none (fewer than 20 samples)".to_string(),
    };
    let quantiles: Vec<String> = [100, 250, 500, 750, 900]
        .iter()
        .map(|&p| format!("{:.3}", percentile_permille(&ms, p).unwrap_or(f64::NAN)))
        .collect();
    report.lines.push(format!(
        "samples untraced_ops={} ok={} op_ms p10/p25/p50/p75/p90 = {}; highest percentile \
         with >=10 samples beyond: {tail}",
        outcomes.len(),
        ok.len(),
        quantiles.join("/")
    ));
    for (name, unit) in [
        ("model.op_ms", "ms"),
        ("model.flops", "count"),
        ("model.bytes_computed", "bytes"),
    ] {
        let values: Vec<f64> = ok
            .iter()
            .map(|o| match name {
                "model.op_ms" => o.model_ms,
                "model.flops" => o.cost.flops as f64,
                _ => o.cost.total_bytes() as f64,
            })
            .collect();
        report.layers.push((name, med(values), unit));
    }
}

/// Per-layer values of one traced operation, by metric name.
fn layer_values(p: &OpProfile, extras: &[(&'static str, f64)]) -> BTreeMap<&'static str, f64> {
    let gbps = |span: &str| rate(p.cost(span).total_bytes(), p.ms(span));
    let gflops = |span: &str| rate(p.cost(span).flops, p.ms(span));
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("core.countsketch_gen_ms", "core.countsketch_gen"),
        ("core.countsketch_apply_ms", "core.countsketch_apply"),
        ("core.gaussian_gen_ms", "core.gaussian_gen"),
        ("core.gaussian_apply_ms", "core.gaussian_apply"),
        ("core.srht_gen_ms", "core.srht_gen"),
        ("core.srht_apply_ms", "core.srht_apply"),
        ("core.vector_sketch_ms", "core.vector_sketch"),
        ("dist.pipelined_sketch_ms", "dist.pipelined_sketch"),
        ("dist.bare_apply_ms", "dist.bare_apply"),
        ("la.gram_ms", "la.gram"),
        ("la.gemv_ms", "la.gemv"),
        ("la.gemm_ms", "la.gemm"),
        ("la.geqrf_ms", "la.geqrf"),
        ("la.ormqr_ms", "la.ormqr"),
        ("la.q_thin_ms", "la.q_thin"),
        ("la.jacobi_svd_ms", "la.jacobi_svd"),
        ("la.layout_convert_ms", "la.layout_convert"),
        ("lowrank.test_matrix_ms", "lowrank.test_matrix"),
        ("lowrank.range_finder_ms", "lowrank.range_finder"),
        ("serve.run_ms", "serve.run"),
        ("serve.materialize_ms", "serve.materialize"),
    ] {
        if p.by_name.contains_key(span) {
            v.insert(metric, p.ms(span));
        }
    }
    let has = |span: &str| p.by_name.contains_key(span);
    if has("rng.gaussian_fill") {
        v.insert(
            "rng.gaussian_ns_per_sample",
            p.ms("rng.gaussian_fill") * 1e6 / RNG_PROBE_SAMPLES as f64,
        );
    }
    if has("core.countsketch_apply") {
        v.insert(
            "core.countsketch_apply_gbps",
            gbps("core.countsketch_apply"),
        );
    }
    if has("dist.bare_apply") {
        v.insert(
            "dist.overhead_ratio",
            p.ms("dist.pipelined_sketch") / p.ms("dist.bare_apply"),
        );
    }
    if has("la.gram") {
        v.insert("la.gram_gflops", gflops("la.gram"));
    }
    if has("la.gemv") {
        v.insert("la.gemv_gbps", gbps("la.gemv"));
    }
    if has("la.gemm") {
        v.insert("la.gemm_gflops", gflops("la.gemm"));
    }
    if has("la.potrf") || has("la.trsv") {
        v.insert("la.potrf_trsv_ms", p.ms("la.potrf") + p.ms("la.trsv"));
    }
    if has("lowrank.rsvd") {
        v.insert(
            "lowrank.self_ms",
            p.self_ms("lowrank.rsvd") + p.self_ms("lowrank.range_finder"),
        );
    }
    if has("lsq.solve") {
        v.insert("lsq.self_ms", p.self_ms("lsq.solve"));
    }
    if has("serve.run") {
        v.insert(
            "serve.control_plane_ms",
            p.ms("serve.run") - p.ms("serve.materialize") - p.ms("dist.pipelined_sketch"),
        );
    }
    for (name, value) in extras {
        v.insert(name, *value);
    }
    if let (true, Some(jobs)) = (has("serve.submit"), v.get("serve.jobs").copied()) {
        v.insert("serve.submit_us_per_job", p.ms("serve.submit") * 1e3 / jobs);
    }
    v.insert("trace.op_ms", p.op_ns as f64 * 1e-6);
    v.insert("trace.unattributed_ms", p.self_ms(p.root));
    v
}

/// Computed rate: a `KernelCost` count per host nanosecond is 1e9 per second,
/// reported in units of 1e9 per second (GB/s, GFLOP/s).
fn rate(count: u64, ms: f64) -> f64 {
    if ms > 0.0 {
        count as f64 / (ms * 1e6)
    } else {
        0.0
    }
}

fn traced_phase(opts: &RunOptions, workload: &mut dyn Workload, first: u64, report: &mut Report) {
    let mut tracer = Tracer::new(workload.devices());
    // Each traced operation is paired with an untraced run of the same
    // operation, alternating which goes first, so `obs.trace_overhead_frac`
    // compares neighbours rather than phases minutes apart.
    let results = closed_loop(
        0.5 * opts.seconds,
        opts.fixed_ops.map(|f| f.1),
        first,
        |i| {
            let untraced_first = i.is_multiple_of(2);
            let untraced = untraced_first.then(|| workload.op(i));
            tracer.set_op(i);
            let result = workload.traced_op(i, &mut tracer);
            tracer.span("probe.rng", |t| {
                t.span("rng.gaussian_fill", |_| {
                    std::hint::black_box(sketch_rng::fill::gaussian_vec(
                        derive_seed(opts.seed, 6, i),
                        0,
                        RNG_PROBE_SAMPLES,
                    ))
                })
            });
            let untraced = untraced.unwrap_or_else(|| workload.op(i));
            (i, result, untraced)
        },
    );
    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    let mut per_op: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut present: BTreeSet<&'static str> = BTreeSet::new();
    let mut overheads = Vec::new();
    let mut failed = 0;
    let mut root = "";
    for (i, result, untraced) in &results {
        if let Some(why) = &untraced.failure {
            failed += 1;
            report
                .lines
                .push(format!("FAILED paired untraced op {i}: {why}"));
        }
        let check = result.as_ref().map_err(Clone::clone).and_then(|extras| {
            let p = op_profile(spans, &self_ns, *i).ok_or("no spans recorded")?;
            root = p.root;
            if p.self_sum_ns != p.op_ns {
                return Err(format!(
                    "span self times sum to {} ns, the operation took {} ns",
                    p.self_sum_ns, p.op_ns
                ));
            }
            Ok(layer_values(&p, extras))
        });
        match check {
            Ok(values) => {
                if untraced.failure.is_none() {
                    let traced_ms = values["trace.op_ms"];
                    overheads.push((traced_ms - untraced.ms) / untraced.ms);
                }
                present.extend(values.keys().copied());
                per_op.push(values);
            }
            Err(why) => {
                failed += 1;
                report.lines.push(format!("FAILED traced op {i}: {why}"));
            }
        }
    }
    report.attempted += 2 * results.len() as u64;
    report.failed += failed;

    for (name, unit) in PER_LAYER {
        if report.layers.iter().any(|m| m.0 == name) {
            continue;
        }
        let value = match name {
            "lsq.accuracy_ratio" | "lowrank.accuracy_ratio" => {
                let prefix = if matches!(opts.kind, Kind::RsvdCountsketch) {
                    "lowrank"
                } else {
                    "lsq"
                };
                let accuracy = metric(&report.e2e, "accuracy_ratio");
                if name.starts_with(prefix) && accuracy.is_finite() {
                    present.insert(name);
                    accuracy
                } else {
                    0.0
                }
            }
            "serve.queue_wait_p95_model_ms" => {
                let wait = metric(&report.e2e, "queue_wait_p95_model_ms");
                if wait.is_finite() {
                    present.insert(name);
                    wait
                } else {
                    0.0
                }
            }
            "obs.trace_overhead_frac" => {
                present.insert(name);
                median(&overheads).unwrap_or(f64::NAN)
            }
            _ => {
                let values: Vec<f64> = per_op
                    .iter()
                    .map(|v| v.get(name).copied().unwrap_or(0.0))
                    .collect();
                median(&values).unwrap_or(0.0)
            }
        };
        report.layers.push((name, value, unit));
    }
    for (name, _, _) in &report.layers {
        if matches!(
            *name,
            "model.op_ms" | "model.flops" | "model.bytes_computed"
        ) {
            present.insert(name);
        }
    }
    report.lines.push(format!(
        "samples traced_ops={} ok={} (per-layer values are medians over traced ops; \
         obs.trace_overhead_frac is the median over {} traced/untraced pairs of the same op)",
        results.len(),
        per_op.len(),
        overheads.len()
    ));
    report.lines.push(format!(
        "unattributed remainder: self time of root span `{root}` = {:.4} ms (trace.unattributed_ms)",
        metric(&report.layers, "trace.unattributed_ms")
    ));
    let absent: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.0)
        .filter(|name| !present.contains(name))
        .collect();
    report.lines.push(format!(
        "absent (reported as 0: {} does not exercise these layers): {}",
        opts.kind.name(),
        absent.join(" ")
    ));
    let path = &opts.trace_path;
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| sketch_obs::write_json(path, &to_chrome_trace(spans)));
    report.lines.push(match written {
        Ok(()) => format!("chrome trace: {} ({} spans)", path.display(), spans.len()),
        Err(e) => format!("chrome trace not written: {e}"),
    });
}
