//! Measured wall-clock benchmark: the real kernels timed on this host under the
//! threaded rayon shim, swept across thread counts, emitted as
//! `BENCH_walltime.json`.
//!
//! Every other figure binary reports *modelled* H100 times.  This one measures
//! what the build actually does: six kernels (dense GEMM, the SYRK-path Gram
//! matrix, the tiled FWHT, the CountSketch ordered-gather scatter, CSR SpMM,
//! and the end-to-end `sketch_and_solve` least-squares driver) each run under
//! explicit pools of
//! 1/2/4 threads (`--smoke`: 1/2), with warm-up discarded and median/min over
//! repeated samples reported per row.  The modelled H100 time is recorded
//! alongside for scale.
//!
//! Two gates, so the CI smoke run doubles as a regression test:
//!
//! * **bitwise** (unconditional): every kernel's output at every thread count
//!   must be bit-for-bit identical to its 1-thread output — the threading
//!   model's core promise (deterministic task boundaries + ordered reduction).
//! * **speedup** (only when the host has more than one core): the best
//!   multi-thread speedup among large kernels must clear a sanity threshold
//!   (1.0 full, 0.5 smoke).  On a single-core host a measured speedup is physically
//!   impossible, so the gate is skipped and recorded as such in the JSON —
//!   the numbers stay honest either way.
//!
//! Run with: `cargo run --release -p sketch-bench --bin fig_walltime [-- --smoke] [--out PATH]`

use sketch_bench::report::{ms, Table};
use sketch_bench::walltime::{
    bits_of, host_cores, time_fn, time_fn_traced, with_thread_pool, Sample,
};
use sketch_core::fwht::{fwht_matrix_columns, DEFAULT_TILE};
use sketch_core::{CountSketch, EmbeddingDim, JsonValue, Operand, Pipeline, SketchOperator};
use sketch_dist::ExecutorOptions;
use sketch_gpu_sim::{Device, DevicePool};
use sketch_la::blas3::{gemm, syrk_gram};
use sketch_la::{Layout, Matrix};
use sketch_lsq::{sketch_and_solve, LsqProblem};
use sketch_obs::{chrome_trace_with_metrics, write_json, MetricsRegistry, RecorderHandle};
use sketch_rng::fill;
use sketch_sparse::{spmm_into, CooMatrix, CsrMatrix};

/// Kernels must reach this many elements before they count toward the
/// full-run speedup gate (small problems are launch-overhead-bound).
const GATE_MIN_ELEMS: usize = 1 << 20;

/// One (kernel, thread count) measurement.
struct Row {
    kernel: &'static str,
    threads: usize,
    /// Problem size in f64 elements (nnz for sparse operands) — the scale axis.
    elems: usize,
    sample: Sample,
    modelled_h100_ms: f64,
    /// Median-time ratio vs the 1-thread row of the same kernel.
    speedup_vs_1t: f64,
    /// Output bits identical to the 1-thread output of the same kernel.
    bitwise_equal: bool,
}

impl Row {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("kernel".into(), JsonValue::Str(self.kernel.into())),
            ("threads".into(), JsonValue::UInt(self.threads as u64)),
            ("elems".into(), JsonValue::UInt(self.elems as u64)),
            (
                "median_ms".into(),
                JsonValue::Float(self.sample.median_ms()),
            ),
            ("min_ms".into(), JsonValue::Float(self.sample.min_ms())),
            (
                "samples".into(),
                JsonValue::UInt(self.sample.samples as u64),
            ),
            (
                "modelled_h100_ms".into(),
                JsonValue::Float(self.modelled_h100_ms),
            ),
            ("speedup_vs_1t".into(), JsonValue::Float(self.speedup_vs_1t)),
            ("bitwise_equal".into(), JsonValue::Bool(self.bitwise_equal)),
        ])
    }
}

/// Fold per-thread-count measurements into rows: speedups and bitwise equality
/// are both computed against the 1-thread entry (always the first in `sweep`).
fn finish_rows(
    kernel: &'static str,
    elems: usize,
    modelled_h100_ms: f64,
    sweep: Vec<(usize, Sample, Vec<u64>)>,
) -> Vec<Row> {
    let base_median = sweep[0].1.median_ns;
    let base_bits = sweep[0].2.clone();
    sweep
        .into_iter()
        .map(|(threads, sample, bits)| Row {
            kernel,
            threads,
            elems,
            sample,
            modelled_h100_ms,
            speedup_vs_1t: base_median / sample.median_ns,
            bitwise_equal: bits == base_bits,
        })
        .collect()
}

/// Sample `routine`, emitting wall-track trace events named `name` when a
/// recorder is attached (`--trace`).
fn sample_kernel(trace: Option<&RecorderHandle>, name: &str, routine: &mut impl FnMut()) -> Sample {
    match trace {
        Some(recorder) => time_fn_traced(recorder, name, routine),
        None => time_fn(routine),
    }
}

/// Modelled H100 roofline time (ms) for one execution of `run`.
fn modelled_ms_of(device: &Device, run: impl FnOnce()) -> f64 {
    let (_, cost) = device.tracker().measure(run);
    device.model_time(&cost) * 1e3
}

/// Deterministic random CSR matrix targeting `target_density` stored fill
/// (same construction as `fig_scaling`; coincident draws merge).
fn random_csr(d: usize, n: usize, target_density: f64, seed: u64) -> CsrMatrix {
    let draws = ((d * n) as f64 * target_density).round().max(1.0) as usize;
    let rows = fill::uniform_index_vec(seed, 10, draws, d);
    let cols = fill::uniform_index_vec(seed, 11, draws, n);
    let vals = fill::gaussian_vec(seed, 12, draws);
    let mut coo = CooMatrix::with_capacity(d, n, draws);
    for i in 0..draws {
        coo.push(rows[i], cols[i], vals[i]);
    }
    CsrMatrix::from_coo(&coo)
}

/// Dense GEMM: `C = A B` with a fresh output each iteration.
fn bench_gemm(grid: &[usize], smoke: bool, trace: Option<&RecorderHandle>) -> Vec<Row> {
    let (m, k, n) = if smoke {
        (256, 256, 64)
    } else {
        (512, 512, 128)
    };
    let device = Device::h100();
    let a = Matrix::random_gaussian(m, k, Layout::RowMajor, 11, 0);
    let b = Matrix::random_gaussian(k, n, Layout::RowMajor, 12, 0);
    let modelled = modelled_ms_of(&device, || {
        gemm(&device, 1.0, &a, &b, 0.0, None).expect("gemm fits the modelled device");
    });
    let mut sweep = Vec::new();
    for &t in grid {
        let (sample, bits) = with_thread_pool(t, || {
            let mut c = None;
            let sample = sample_kernel(trace, &format!("gemm @{t}t"), &mut || {
                c = Some(gemm(&device, 1.0, &a, &b, 0.0, None).expect("gemm fits"));
            });
            (
                sample,
                bits_of(c.expect("at least one sample ran").as_slice()),
            )
        });
        sweep.push((t, sample, bits));
    }
    finish_rows("gemm", m * k, modelled, sweep)
}

/// Gram matrix `G = AᵀA` through the SYRK path (upper triangle computed, lower
/// mirrored) — the bottleneck of `sketch_and_solve`'s normal-equations phase.
fn bench_gram(grid: &[usize], smoke: bool, trace: Option<&RecorderHandle>) -> Vec<Row> {
    let (d, n) = if smoke { (2048, 128) } else { (4096, 256) };
    let device = Device::h100();
    let a = Matrix::random_gaussian(d, n, Layout::ColMajor, 61, 0);
    let modelled = modelled_ms_of(&device, || {
        let _ = syrk_gram(&device, &a);
    });
    let mut sweep = Vec::new();
    for &t in grid {
        let (sample, bits) = with_thread_pool(t, || {
            let mut g = None;
            let sample = sample_kernel(trace, &format!("gram @{t}t"), &mut || {
                g = Some(syrk_gram(&device, &a));
            });
            (
                sample,
                bits_of(g.expect("at least one sample ran").as_slice()),
            )
        });
        sweep.push((t, sample, bits));
    }
    finish_rows("gram", d * n, modelled, sweep)
}

/// Tiled FWHT over the columns of a tall matrix, restored from a pristine
/// copy each iteration (the transform is in-place).
fn bench_fwht(grid: &[usize], smoke: bool, trace: Option<&RecorderHandle>) -> Vec<Row> {
    let d = if smoke { 1 << 15 } else { 1 << 18 };
    let n = 4;
    let device = Device::h100();
    let pristine = Matrix::random_gaussian(d, n, Layout::ColMajor, 21, 0);
    let mut work = pristine.clone();
    let modelled = modelled_ms_of(&device, || {
        fwht_matrix_columns(&device, &mut work, DEFAULT_TILE);
    });
    let mut sweep = Vec::new();
    for &t in grid {
        let (sample, bits) = with_thread_pool(t, || {
            let sample = sample_kernel(trace, &format!("fwht @{t}t"), &mut || {
                work.as_mut_slice().copy_from_slice(pristine.as_slice());
                fwht_matrix_columns(&device, &mut work, DEFAULT_TILE);
            });
            (sample, bits_of(work.as_slice()))
        });
        sweep.push((t, sample, bits));
    }
    finish_rows("fwht", d * n, modelled, sweep)
}

/// The CountSketch kernel (ascending-row scatter) into a reused output buffer.
fn bench_countsketch(grid: &[usize], smoke: bool, trace: Option<&RecorderHandle>) -> Vec<Row> {
    let d = if smoke { 1 << 14 } else { 1 << 17 };
    let (n, k) = (8, 4096);
    let device = Device::h100();
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 31, 0);
    let cs = CountSketch::generate(&device, d, k, 32);
    let mut out = Matrix::zeros_with_layout(k, n, Layout::RowMajor);
    let modelled = modelled_ms_of(&device, || {
        cs.apply_into(&device, Operand::Dense(&a), &mut out.view_mut())
            .expect("countsketch fits the modelled device");
    });
    let mut sweep = Vec::new();
    for &t in grid {
        let (sample, bits) = with_thread_pool(t, || {
            let sample = sample_kernel(trace, &format!("countsketch @{t}t"), &mut || {
                cs.apply_into(&device, Operand::Dense(&a), &mut out.view_mut())
                    .expect("countsketch fits");
            });
            (sample, bits_of(out.as_slice()))
        });
        sweep.push((t, sample, bits));
    }
    finish_rows("countsketch_scatter", d * n, modelled, sweep)
}

/// Row-parallel CSR SpMM into a reused output buffer.
fn bench_spmm(grid: &[usize], smoke: bool, trace: Option<&RecorderHandle>) -> Vec<Row> {
    let (k, d) = if smoke {
        (1024, 1 << 14)
    } else {
        (4096, 1 << 17)
    };
    let n = 8;
    let device = Device::h100();
    let s = random_csr(k, d, 0.002, 41);
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);
    let mut out = Matrix::zeros_with_layout(k, n, Layout::RowMajor);
    let modelled = modelled_ms_of(&device, || {
        spmm_into(&device, &s, &a, &mut out.view_mut());
    });
    let nnz = s.nnz();
    let mut sweep = Vec::new();
    for &t in grid {
        let (sample, bits) = with_thread_pool(t, || {
            let sample = sample_kernel(trace, &format!("spmm @{t}t"), &mut || {
                spmm_into(&device, &s, &a, &mut out.view_mut());
            });
            (sample, bits_of(out.as_slice()))
        });
        sweep.push((t, sample, bits));
    }
    finish_rows("spmm_csr", nnz, modelled, sweep)
}

/// End-to-end sketch-and-solve with the Count-Gauss pipeline.
fn bench_sketch_and_solve(grid: &[usize], smoke: bool, trace: Option<&RecorderHandle>) -> Vec<Row> {
    let d = if smoke { 1 << 12 } else { 1 << 14 };
    let n = 16;
    let pool = DevicePool::h100(1);
    let device = pool.device(0);
    let problem =
        LsqProblem::performance(device, d, n, 51).expect("problem fits the modelled device");
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 52);
    let opts = ExecutorOptions::default();
    let modelled = modelled_ms_of(device, || {
        let _ = sketch_and_solve(&pool, &problem, &plan, &opts).expect("solver succeeds");
    });
    let mut sweep = Vec::new();
    for &t in grid {
        let (sample, bits) = with_thread_pool(t, || {
            let mut x = None;
            let sample = sample_kernel(trace, &format!("sketch_and_solve @{t}t"), &mut || {
                let (solution, _) =
                    sketch_and_solve(&pool, &problem, &plan, &opts).expect("solver succeeds");
                x = Some(solution.x);
            });
            (sample, bits_of(&x.expect("at least one sample ran")))
        });
        sweep.push((t, sample, bits));
    }
    finish_rows("sketch_and_solve", d * n, modelled, sweep)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_walltime.json", String::as_str)
        .to_string();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let grid: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let cores = host_cores();
    println!("host cores: {cores}; thread grid: {grid:?}; smoke: {smoke}");

    let collector = trace_path
        .as_ref()
        .map(|_| sketch_obs::TraceCollector::shared());
    let trace: Option<RecorderHandle> = collector.clone().map(|c| c as RecorderHandle);

    let mut rows: Vec<Row> = Vec::new();
    rows.extend(bench_gemm(grid, smoke, trace.as_ref()));
    rows.extend(bench_gram(grid, smoke, trace.as_ref()));
    rows.extend(bench_fwht(grid, smoke, trace.as_ref()));
    rows.extend(bench_countsketch(grid, smoke, trace.as_ref()));
    rows.extend(bench_spmm(grid, smoke, trace.as_ref()));
    rows.extend(bench_sketch_and_solve(grid, smoke, trace.as_ref()));

    // Text report.
    let mut table = Table::new(
        format!("Measured wall-clock (host cores: {cores})"),
        &[
            "kernel",
            "threads",
            "elems",
            "median ms",
            "min ms",
            "n",
            "H100 model ms",
            "speedup",
            "bitwise",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.kernel.to_string(),
            r.threads.to_string(),
            r.elems.to_string(),
            ms(r.sample.median_ms()),
            ms(r.sample.min_ms()),
            r.sample.samples.to_string(),
            ms(r.modelled_h100_ms),
            format!("{:.2}", r.speedup_vs_1t),
            if r.bitwise_equal { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    table.print();

    // Gate 1 (unconditional): bit-for-bit equality with the 1-thread run.
    let mismatches: Vec<&Row> = rows.iter().filter(|r| !r.bitwise_equal).collect();
    for r in &mismatches {
        eprintln!(
            "VIOLATION: {} at {} threads is not bitwise-identical to 1 thread",
            r.kernel, r.threads
        );
    }
    let bitwise_status = if mismatches.is_empty() {
        "passed"
    } else {
        "FAILED"
    };

    // Gate 2 (only meaningful on a multi-core host): some large kernel must
    // show a sane multi-thread speedup.  Smoke runs use reduced sizes, so the
    // smoke gate drops the size floor and only rejects pathological slowdowns.
    let threshold = if smoke { 0.5 } else { 1.0 };
    let candidates = rows
        .iter()
        .filter(|r| r.threads > 1 && (smoke || r.elems >= GATE_MIN_ELEMS));
    let best = candidates.fold(0.0f64, |acc, r| acc.max(r.speedup_vs_1t));
    let speedup_status = if cores <= 1 {
        println!("speedup gate skipped: single-core host (best observed {best:.2}x)");
        "skipped (single-core host)".to_string()
    } else if best > threshold {
        format!("passed (best {best:.2}x > {threshold})")
    } else {
        format!("FAILED (best {best:.2}x <= {threshold})")
    };

    // JSON report.  The `host` header pins the machine the numbers came from:
    // measured wall-clock times are only comparable against the same host
    // shape (core count, swept thread counts) and compiler.
    let doc = JsonValue::Object(vec![
        ("experiment".into(), JsonValue::Str("fig_walltime".into())),
        (
            "host".into(),
            JsonValue::Object(vec![
                ("cores".into(), JsonValue::UInt(cores as u64)),
                (
                    "thread_grid".into(),
                    JsonValue::Array(grid.iter().map(|&t| JsonValue::UInt(t as u64)).collect()),
                ),
                ("rustc".into(), JsonValue::Str(sketch_obs::rustc_version())),
            ]),
        ),
        ("smoke".into(), JsonValue::Bool(smoke)),
        ("bitwise_gate".into(), JsonValue::Str(bitwise_status.into())),
        (
            "speedup_gate".into(),
            JsonValue::Str(speedup_status.clone()),
        ),
        (
            "rows".into(),
            JsonValue::Array(rows.iter().map(Row::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write walltime JSON");
    println!("wrote {out_path}");

    // Perfetto-compatible trace: one wall event per timed sample, plus the
    // metrics summary (host shape and thread-pool activity).
    if let (Some(path), Some(collector)) = (&trace_path, &collector) {
        let metrics = MetricsRegistry::new();
        metrics.add("host.cores", cores as u64);
        let stats = rayon::pool_stats();
        metrics.add("rayon.batches", stats.batches);
        metrics.add("rayon.tasks", stats.tasks);
        metrics.add("rayon.inline_tasks", stats.inline_tasks);
        for r in &rows {
            metrics.observe(
                "walltime.median_ms",
                r.sample.median_ms(),
                &[0.01, 0.1, 1.0, 10.0, 100.0],
            );
        }
        let trace_doc = chrome_trace_with_metrics(&collector.snapshot(), Some(&metrics));
        write_json(std::path::Path::new(path), &trace_doc).expect("write trace JSON");
        println!("wrote {path}");
    }

    if !mismatches.is_empty() {
        eprintln!(
            "{} row(s) failed the bitwise gate — thread-count-dependent results",
            mismatches.len()
        );
        std::process::exit(1);
    }
    println!("bitwise gate passed: every kernel identical at every thread count");
    if speedup_status.starts_with("FAILED") {
        eprintln!("speedup gate {speedup_status}");
        std::process::exit(1);
    }
    println!("speedup gate {speedup_status}");
}
