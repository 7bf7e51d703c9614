//! Kernel-speed regression harness: naive-reference vs cache-blocked kernels,
//! measured on this host and emitted as `BENCH_kernels.json`.
//!
//! `fig_walltime` tracks thread scaling of the production kernels; this binary
//! tracks the *single-threaded* speedup of the cache-blocked kernels over the
//! per-element reference implementations they replaced — the number that cache
//! blocking actually bought, with no parallelism in the frame.  Two sweeps and
//! one GEMV row:
//!
//! * **GEMM**: [`sketch_la::blas3::gemm_into`] (GEBP packing + register-tiled
//!   microkernel) vs [`sketch_la::blas3::gemm_naive_into`] (one packed dot
//!   product per output element) across square, rectangular and tall-skinny
//!   sketch shapes.
//! * **FWHT**: [`sketch_core::fwht::fwht_tiled_in_place`] (cache-resident final
//!   stages) vs [`sketch_core::fwht::fwht_in_place`] (one whole-vector pass per
//!   radix-4 stage) across SRHT power-of-two lengths.
//! * **GEMV**: `Aᵀx` on a row-major 2^18 x 32 `A` (the normal-equations
//!   right-hand side of `lsq_normal_eq`), [`sketch_la::blas2::gemv`] (one pass
//!   over `A`) vs the per-element loop it replaced (`op(A)` read through
//!   [`Op::get`], one strided column per output), reported in GB/s.
//!
//! The JSON records the GEBP sweep's dispatched [`SimdTier`] as `simd_tier`.
//! Gates (exit non-zero on failure, so CI pins the speedup):
//!
//! * blocked GEMM must be **>= 4x** the naive reference at 512x512x128 on one
//!   thread (the shape `BENCH_walltime.json` has always tracked) when the sweep
//!   runs on the AVX2 tier, and **>= 2x** on the scalar tier;
//! * tiled FWHT must be **strictly faster** than the un-tiled kernel at the
//!   largest swept length (d = 2^20 full, 2^18 smoke);
//! * blocked and naive GEMM values must agree within `1e-12 * max|C|` on every
//!   swept shape (the kernels may round differently, but never drift);
//! * the one-pass GEMV must be bitwise equal to the per-element loop and
//!   **>= 2x** faster than it.
//!
//! Run with: `cargo run --release -p sketch-bench --bin fig_kernels [-- --smoke] [--out PATH]`

use sketch_bench::report::{ms, Table};
use sketch_bench::walltime::{host_cores, time_fn, with_thread_pool, Sample};
use sketch_core::fwht::{fwht_in_place, fwht_tiled_in_place, DEFAULT_TILE};
use sketch_core::JsonValue;
use sketch_gpu_sim::Device;
use sketch_la::blas2::gemv;
use sketch_la::blas3::{gemm_into, gemm_naive_into};
use sketch_la::gebp::{simd_tier, SimdTier};
use sketch_la::{Layout, Matrix, Op};
use sketch_rng::fill;

/// The GEMM gate shape (m, k, n): the row `BENCH_walltime.json` has always tracked.
const GATE_GEMM: (usize, usize, usize) = (512, 512, 128);

/// Required blocked-over-naive speedup at [`GATE_GEMM`] on one thread, by the tier
/// the GEBP sweep runs on.
fn gate_gemm_speedup(tier: SimdTier) -> f64 {
    match tier {
        SimdTier::Avx2 => 4.0,
        SimdTier::Scalar => 2.0,
    }
}

/// The GEMV row's `A` (rows, cols), row-major; the row computes `Aᵀx`.
const GEMV_SHAPE: (usize, usize) = (1 << 18, 32);

/// Required one-pass-over-element-wise GEMV speedup.
const GATE_GEMV_SPEEDUP: f64 = 2.0;

/// One naive-vs-blocked measurement.
struct KernelRow {
    kernel: &'static str,
    shape: String,
    /// Output elements (GEMM: m*n; FWHT: d) — the scale axis.
    elems: usize,
    naive: Sample,
    blocked: Sample,
    /// Blocked-over-naive ratio of minimum times (least noise-contaminated).
    speedup_min: f64,
    /// Blocked-over-naive ratio of median times.
    speedup_median: f64,
    /// `max|blocked - naive| / max(1, max|naive|)` over the output (0 when the
    /// two kernels are bitwise identical, as the FWHT and GEMV pairs are).
    max_rel_diff: f64,
    /// Bytes one call moves, for rows reported in GB/s (GEMV).
    bytes: Option<u64>,
}

impl KernelRow {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("kernel".into(), JsonValue::Str(self.kernel.into())),
            ("shape".into(), JsonValue::Str(self.shape.clone())),
            ("elems".into(), JsonValue::UInt(self.elems as u64)),
            (
                "naive_median_ms".into(),
                JsonValue::Float(self.naive.median_ms()),
            ),
            ("naive_min_ms".into(), JsonValue::Float(self.naive.min_ms())),
            (
                "blocked_median_ms".into(),
                JsonValue::Float(self.blocked.median_ms()),
            ),
            (
                "blocked_min_ms".into(),
                JsonValue::Float(self.blocked.min_ms()),
            ),
            ("speedup_min".into(), JsonValue::Float(self.speedup_min)),
            (
                "speedup_median".into(),
                JsonValue::Float(self.speedup_median),
            ),
            ("max_rel_diff".into(), JsonValue::Float(self.max_rel_diff)),
        ];
        if let Some(bytes) = self.bytes {
            let gbps = |sample: &Sample| bytes as f64 / sample.median_ns;
            fields.push(("naive_gbps".into(), JsonValue::Float(gbps(&self.naive))));
            fields.push(("blocked_gbps".into(), JsonValue::Float(gbps(&self.blocked))));
        }
        JsonValue::Object(fields)
    }
}

/// Measure one GEMM shape: naive reference vs blocked kernel, both on one thread,
/// plus the value-agreement check.
fn bench_gemm_shape(m: usize, k: usize, n: usize, seed: u64) -> KernelRow {
    let device = Device::unlimited();
    let a = Matrix::random_gaussian(m, k, Layout::RowMajor, seed, 0);
    let b = Matrix::random_gaussian(k, n, Layout::ColMajor, seed, 1);
    let mut naive_out = Matrix::zeros(m, n);
    let mut blocked_out = Matrix::zeros(m, n);

    let (naive, blocked) = with_thread_pool(1, || {
        let naive = time_fn(|| {
            gemm_naive_into(
                &device,
                1.0,
                Op::NoTrans,
                &a,
                Op::NoTrans,
                &b,
                0.0,
                None,
                &mut naive_out.view_mut(),
            )
            .expect("naive gemm dims are valid");
        });
        let blocked = time_fn(|| {
            gemm_into(
                &device,
                1.0,
                Op::NoTrans,
                &a,
                Op::NoTrans,
                &b,
                0.0,
                None,
                &mut blocked_out.view_mut(),
            )
            .expect("blocked gemm dims are valid");
        });
        (naive, blocked)
    });

    let scale = naive_out
        .as_slice()
        .iter()
        .fold(1.0f64, |acc, v| acc.max(v.abs()));
    let max_rel_diff = blocked_out.max_abs_diff(&naive_out).expect("same shape") / scale;

    KernelRow {
        kernel: "gemm",
        shape: format!("{m}x{k}x{n}"),
        elems: m * n,
        naive,
        blocked,
        speedup_min: naive.min_ns / blocked.min_ns,
        speedup_median: naive.median_ns / blocked.median_ns,
        max_rel_diff,
        bytes: None,
    }
}

/// Measure one FWHT length: un-tiled whole-vector stages vs the cache-tiled
/// schedule, both on one thread, restored from a pristine copy each iteration.
fn bench_fwht_length(d: usize, seed: u64) -> KernelRow {
    let pristine = fill::gaussian_vec(seed, 0, d);
    let mut work = pristine.clone();

    let (naive, blocked) = with_thread_pool(1, || {
        let naive = time_fn(|| {
            work.copy_from_slice(&pristine);
            fwht_in_place(&mut work);
        });
        let untiled_result = work.clone();
        let blocked = time_fn(|| {
            work.copy_from_slice(&pristine);
            fwht_tiled_in_place(&mut work, DEFAULT_TILE);
        });
        // The two schedules are bitwise identical by construction; hold that
        // line here too, not just in unit tests.
        assert!(
            work.iter()
                .zip(&untiled_result)
                .all(|(t, u)| t.to_bits() == u.to_bits()),
            "tiled FWHT diverged from the un-tiled kernel at d={d}"
        );
        (naive, blocked)
    });

    KernelRow {
        kernel: "fwht",
        shape: format!("2^{}", d.trailing_zeros()),
        elems: d,
        naive,
        blocked,
        speedup_min: naive.min_ns / blocked.min_ns,
        speedup_median: naive.median_ns / blocked.median_ns,
        max_rel_diff: 0.0,
        bytes: None,
    }
}

/// The per-element GEMV loop `gemv` replaced, kept here as the row's baseline:
/// `y = op(A) x`, each output one ascending-`j` dot product read through [`Op::get`].
fn gemv_elementwise(op_a: Op, a: &Matrix, x: &[f64]) -> Vec<f64> {
    let (m, k) = (op_a.rows(a), op_a.cols(a));
    let mut out = vec![0.0; m];
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, &xj) in x.iter().enumerate().take(k) {
            acc += op_a.get(a, i, j) * xj;
        }
        *o += acc;
    }
    out
}

/// Measure `Aᵀx` on a row-major `rows x cols` `A`: the per-element loop vs the
/// one-pass kernel, both on one thread, and check that their bits agree.
fn bench_gemv(rows: usize, cols: usize, seed: u64) -> KernelRow {
    let device = Device::unlimited();
    let a = Matrix::random_gaussian(rows, cols, Layout::RowMajor, seed, 0);
    let x = fill::gaussian_vec(seed, 1, rows);
    let mut naive_out = Vec::new();
    let mut blocked_out = Vec::new();
    let (naive, blocked) = with_thread_pool(1, || {
        let naive = time_fn(|| naive_out = gemv_elementwise(Op::Trans, &a, &x));
        let blocked = time_fn(|| {
            blocked_out =
                gemv(&device, 1.0, Op::Trans, &a, &x, 0.0, None).expect("gemv dims are valid");
        });
        (naive, blocked)
    });
    assert!(
        blocked_out
            .iter()
            .zip(&naive_out)
            .all(|(b, n)| b.to_bits() == n.to_bits()),
        "one-pass GEMV diverged from the per-element loop at {rows}x{cols}"
    );
    KernelRow {
        kernel: "gemv",
        shape: format!("{rows}x{cols} Aᵀx"),
        elems: cols,
        naive,
        blocked,
        speedup_min: naive.min_ns / blocked.min_ns,
        speedup_median: naive.median_ns / blocked.median_ns,
        max_rel_diff: 0.0,
        bytes: Some(8 * (rows * cols + rows + cols) as u64),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_kernels.json", String::as_str)
        .to_string();

    let cores = host_cores();
    let tier = simd_tier();
    println!(
        "host cores: {cores}; GEBP tier: {}; smoke: {smoke} (all measurements single-threaded)",
        tier.as_str()
    );

    // GEMM sweep: the gate shape always runs; full mode adds a square shape and
    // the tall-skinny sketch shape (S · A with a short-wide product).
    let mut gemm_shapes: Vec<(usize, usize, usize)> = vec![GATE_GEMM];
    if smoke {
        gemm_shapes.push((4096, 128, 16));
    } else {
        gemm_shapes.push((256, 256, 256));
        gemm_shapes.push((32768, 256, 16));
        gemm_shapes.push((128, 4096, 64));
    }
    // FWHT sweep: SRHT power-of-two lengths; the gate rides the largest.
    let fwht_pows: &[u32] = if smoke { &[14, 16, 18] } else { &[16, 18, 20] };

    let mut rows: Vec<KernelRow> = Vec::new();
    for (i, &(m, k, n)) in gemm_shapes.iter().enumerate() {
        rows.push(bench_gemm_shape(m, k, n, 60 + i as u64));
    }
    for &pow in fwht_pows {
        rows.push(bench_fwht_length(1usize << pow, 70 + pow as u64));
    }
    rows.push(bench_gemv(GEMV_SHAPE.0, GEMV_SHAPE.1, 80));

    // Text report.
    let mut table = Table::new(
        "Naive-reference vs cache-blocked kernels (1 thread)".to_string(),
        &[
            "kernel",
            "shape",
            "naive med ms",
            "blocked med ms",
            "naive min ms",
            "blocked min ms",
            "speedup(min)",
            "max rel diff",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.kernel.to_string(),
            r.shape.clone(),
            ms(r.naive.median_ms()),
            ms(r.blocked.median_ms()),
            ms(r.naive.min_ms()),
            ms(r.blocked.min_ms()),
            format!("{:.2}", r.speedup_min),
            format!("{:.2e}", r.max_rel_diff),
        ]);
    }
    table.print();

    // Gate 1: blocked GEMM >= 4x (AVX2 tier) or 2x (scalar tier) naive at the gate shape.
    let gemm_required = gate_gemm_speedup(tier);
    let gate_shape = format!("{}x{}x{}", GATE_GEMM.0, GATE_GEMM.1, GATE_GEMM.2);
    let gate_row = rows
        .iter()
        .find(|r| r.kernel == "gemm" && r.shape == gate_shape)
        .expect("the gate shape always runs");
    let gemm_status = status(
        gate_row.speedup_min >= gemm_required,
        format!(
            "{:.2}x, needs >= {gemm_required}x at {gate_shape}, {} tier",
            gate_row.speedup_min,
            tier.as_str()
        ),
    );

    // Gate 2: tiled FWHT strictly faster than un-tiled at the largest length.
    let fwht_row = rows
        .iter()
        .filter(|r| r.kernel == "fwht")
        .max_by_key(|r| r.elems)
        .expect("at least one FWHT length runs");
    let fwht_status = status(
        fwht_row.speedup_min > 1.0,
        format!(
            "{:.2}x, needs > 1x at d={}",
            fwht_row.speedup_min, fwht_row.shape
        ),
    );

    // Gate 3: the one-pass GEMV beats the per-element loop (its bits were
    // checked equal when it was measured).
    let gemv_row = rows
        .iter()
        .find(|r| r.kernel == "gemv")
        .expect("the GEMV row always runs");
    let gemv_status = status(
        gemv_row.speedup_min >= GATE_GEMV_SPEEDUP,
        format!(
            "{:.2}x, needs >= {GATE_GEMV_SPEEDUP}x at {}",
            gemv_row.speedup_min, gemv_row.shape
        ),
    );

    // Gate 4: blocked values never drift from the naive reference.
    let worst_diff = rows.iter().fold(0.0f64, |acc, r| acc.max(r.max_rel_diff));
    let values_status = status(
        worst_diff <= 1e-12,
        format!("worst rel diff {worst_diff:.2e}, needs <= 1e-12"),
    );

    let gates = [
        ("gemm_speedup_gate", gemm_status),
        ("fwht_speedup_gate", fwht_status),
        ("gemv_speedup_gate", gemv_status),
        ("values_gate", values_status),
    ];
    let mut fields = vec![
        ("experiment".into(), JsonValue::Str("fig_kernels".into())),
        (
            "host".into(),
            JsonValue::Object(vec![
                ("cores".into(), JsonValue::UInt(cores as u64)),
                ("rustc".into(), JsonValue::Str(sketch_obs::rustc_version())),
            ]),
        ),
        ("smoke".into(), JsonValue::Bool(smoke)),
        ("simd_tier".into(), JsonValue::Str(tier.as_str().into())),
    ];
    for (key, status) in &gates {
        fields.push((key.to_string(), JsonValue::Str(status.clone())));
    }
    fields.push((
        "rows".into(),
        JsonValue::Array(rows.iter().map(KernelRow::to_json).collect()),
    ));
    std::fs::write(&out_path, JsonValue::Object(fields).render()).expect("write kernels JSON");
    println!("wrote {out_path}");

    let mut failed = false;
    for (key, status) in &gates {
        let name = key.replace('_', " ");
        if status.starts_with("FAILED") {
            eprintln!("{name} {status}");
            failed = true;
        } else {
            println!("{name} {status}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// A gate's report line: `passed (detail)` or `FAILED (detail)`.
fn status(pass: bool, detail: String) -> String {
    format!("{} ({detail})", if pass { "passed" } else { "FAILED" })
}
