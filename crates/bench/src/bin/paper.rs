//! The paper's evaluation in one binary: Table 1, Figures 2–8, the Section 7
//! communication table and the design-choice ablations.
//!
//! Run with: `cargo run --release -p sketch-bench --bin paper -- <section> [--smoke]
//! [--trace PATH]`, where `<section>` is `table1`, `fig2` … `fig8`, `dist_comm`,
//! `ablations`, or `all` (every section in order, in this process).  `--smoke`
//! shrinks the host-executed sweeps of Figures 2 and 5 to their smallest point; the
//! modelled tables, and so every gate, are the same either way.  With `fig5` or
//! `all`, `--trace PATH` writes a Perfetto-loadable trace of one multisketch solve.
//!
//! Gates, checked only on modelled or deterministic rows so they hold on any host
//! (a violation names its row and exits 1): Figure 2's CountSketch (Alg 2)
//! gen+apply beats the Gaussian's wherever both fit; Figure 5's multisketch solve
//! beats the normal equations at every `n >= 128`; in Figure 8 at `cond(A) = 1e10`
//! the normal equations break down while Gauss, Count, Multi and QR stay at or
//! below `1e-12`; in Section 7 the multisketch communicates exactly as much as the
//! Gaussian and strictly less than the CountSketch.

use sketch_bench::analytic::{LsqMethod, SketchMethod};
use sketch_bench::config::{ExperimentScale, SweepPoint};
use sketch_bench::lsq_experiments::{
    lsq_breakdown_measured_rows, lsq_breakdown_paper_rows, residual_rows, stability_rows,
    LsqBreakdownRow, ResidualRow,
};
use sketch_bench::report::{ms, pct, sci, Table};
use sketch_bench::sketch_experiments::{measured_sketch_rows, paper_sketch_rows, SketchTimingRow};
use sketch_core::complexity::SketchKind;
use sketch_core::fwht::{fwht_in_place, fwht_radix2_in_place};
use sketch_core::{EmbeddingDim, Pipeline, SketchOperator, SketchSpec};
use sketch_gpu_sim::{Device, DevicePool};
use sketch_la::blas3::{gram_gemm, syrk_gram};
use sketch_la::{Layout, Matrix};
use sketch_lsq::{solve, LsqProblem, Method};
use sketch_obs::{
    chrome_trace_with_metrics, write_json, MetricsRegistry, Stopwatch, TraceCollector,
};

/// Every section, in the order `all` runs them.
const SECTIONS: &str = "table1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|dist_comm|ablations";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Run::from_args(&args).unwrap_or_else(|message| {
        eprintln!("{message}\nusage: paper <{SECTIONS}|all> [--smoke] [--trace PATH]");
        std::process::exit(2)
    });
    if args[0] == "all" {
        for name in SECTIONS.split('|') {
            println!("\n########## {name} ##########");
            run.section(name);
        }
    } else {
        run.section(&args[0]);
    }
    for violation in &run.violations {
        eprintln!("claim violated: {violation}");
    }
    std::process::exit(i32::from(!run.violations.is_empty()));
}

/// One invocation: its options, the paper-scale Figure 2 rows shared by Figures
/// 2–4, and the claim violations found so far.
#[derive(Default)]
struct Run {
    smoke: bool,
    trace: Option<String>,
    paper_sketch: Option<Vec<SketchTimingRow>>,
    violations: Vec<String>,
}

impl Run {
    fn from_args(args: &[String]) -> Result<Self, String> {
        let section = args.first().ok_or("missing section")?;
        if section != "all" && !SECTIONS.split('|').any(|s| s == section) {
            return Err(format!("unknown section `{section}`"));
        }
        let mut run = Run::default();
        let mut rest = args[1..].iter();
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--smoke" => run.smoke = true,
                "--trace" => run.trace = Some(rest.next().ok_or("--trace needs a path")?.clone()),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(run)
    }

    fn section(&mut self, name: &str) {
        match name {
            "table1" => table1(),
            "fig2" => self.fig2(),
            "fig3" => percent_of_peak(
                self.paper_sketch_rows(),
                "Figure 3 — percent of peak memory throughput (paper scale, H100 model)",
                "% peak bandwidth",
                |r| r.pct_peak_bandwidth,
            ),
            "fig4" => percent_of_peak(
                self.paper_sketch_rows(),
                "Figure 4 — percent of peak FP64 FLOP/s (paper scale, H100 model)",
                "% peak FLOP/s",
                |r| r.pct_peak_flops,
            ),
            "fig5" => self.fig5(),
            "fig6" => residuals(false),
            "fig7" => residuals(true),
            "fig8" => {
                let rows = stability_rows(42);
                fig8(&rows);
                self.violations.extend(fig8_claim(&rows));
            }
            "dist_comm" => {
                let rows = comm_rows();
                dist_comm(&rows);
                self.violations.extend(comm_claim(&rows));
            }
            "ablations" => ablations(),
            _ => unreachable!("sections are validated in Run::from_args"),
        }
    }

    fn paper_sketch_rows(&mut self) -> &[SketchTimingRow] {
        self.paper_sketch.get_or_insert_with(paper_sketch_rows)
    }

    /// The host-executed sweep: the whole measured sweep, or its smallest point.
    fn measured_sweep(&self) -> Vec<SweepPoint> {
        let mut sweep = ExperimentScale::Measured.sweep();
        if self.smoke {
            sweep.truncate(1);
        }
        sweep
    }

    /// Figure 2: sketch generation + apply time versus the Gram matrix.
    fn fig2(&mut self) {
        let measured = measured_sketch_rows(&self.measured_sweep(), 42);
        let paper = self.paper_sketch_rows();
        print_fig2(paper, "Figure 2 — paper scale (modelled H100 time)");
        let violations = fig2_claim(paper);
        self.violations.extend(violations);
        print_fig2(
            &measured,
            "Figure 2 — measured at reduced sizes (modelled H100 time + host wall clock)",
        );
    }

    /// Figure 5: the per-phase runtime breakdown of each least squares solver.
    fn fig5(&mut self) {
        let paper_rows = lsq_breakdown_paper_rows();
        let mut paper = Table::new(
            "Figure 5 — paper scale (modelled H100 ms per phase)",
            &["d", "n", "method", "total ms", "phases"],
        );
        for r in &paper_rows {
            let phases = r
                .phase_ms
                .iter()
                .map(|(p, t)| format!("{}={:.3}", p.label(), t))
                .collect::<Vec<_>>()
                .join(", ");
            paper.push_row(if r.out_of_memory {
                row(r.point, r.method, ["OOM".into(), "blank bar".into()])
            } else {
                row(r.point, r.method, [ms(r.total_model_ms), phases])
            });
        }
        paper.print();
        self.violations.extend(fig5_claim(&paper_rows));

        let sweep = self.measured_sweep();
        let mut measured = Table::new(
            "Figure 5 — measured at reduced sizes (modelled ms; wall clock alongside)",
            &["d", "n", "method", "total model ms", "wall ms"],
        );
        for r in lsq_breakdown_measured_rows(&sweep, 42) {
            let times = [r.total_model_ms, r.wall_ms].map(ms);
            measured.push_row(row(r.point, r.method, times));
        }
        measured.print();

        if let Some(path) = &self.trace {
            trace_one_solve(*sweep.last().expect("the sweep is never empty"), path);
        }
    }
}

/// A table row that starts with the `d`, `n` and method columns.
fn row(point: SweepPoint, method: &str, rest: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut cells = vec![
        format!("2^{}", point.d.trailing_zeros()),
        point.n.to_string(),
        method.to_string(),
    ];
    cells.extend(rest);
    cells
}

/// Table 1: embedding dimensions, arithmetic, read/writes and distortion for every
/// sketch, plus a measured-counter check at a small size.
fn table1() {
    let (d, n, eps) = (1usize << 21, 128usize, 0.5f64);
    let mut symbolic = Table::new(
        format!("Table 1 (symbolic, evaluated at d = 2^21, n = {n}, eps = {eps})"),
        &[
            "Sketch",
            "Embed dim",
            "Arithmetic",
            "Read/Writes",
            "Max distortion",
        ],
    );
    for kind in SketchKind::ALL {
        symbolic.push_row(vec![
            kind.label().to_string(),
            sci(kind.embedding_dim(n, eps)),
            sci(kind.arithmetic(d, n)),
            sci(kind.read_writes(d, n)),
            format!("{:.2}", kind.max_distortion(eps)),
        ]);
    }
    symbolic.print();

    let mut measured = Table::new(
        "Measured kernel counters (d = 2^16, n = 64, experimental embedding dims)",
        &["Method", "flops", "bytes read", "bytes written"],
    );
    let (dm, nm) = (1usize << 16, 64usize);
    for method in SketchMethod::ALL {
        let cost = method.apply_cost(dm, nm);
        measured.push_row(vec![
            method.label().to_string(),
            sci(cost.flops as f64),
            sci(cost.bytes_read as f64),
            sci(cost.bytes_written as f64),
        ]);
    }
    measured.print();
}

fn print_fig2(rows: &[SketchTimingRow], title: &str) {
    let mut table = Table::new(
        title,
        &[
            "d", "n", "method", "gen ms", "apply ms", "total ms", "wall ms", "note",
        ],
    );
    for r in rows {
        let note = if r.out_of_memory {
            "OOM (blank bar)"
        } else {
            ""
        };
        let cells = [
            ms(r.gen_model_ms),
            ms(r.apply_model_ms),
            ms(r.total_model_ms()),
            ms(r.wall_ms),
            note.into(),
        ];
        table.push_row(row(r.point, r.method.label(), cells));
    }
    table.print();
}

/// Figures 3 and 4: percent of peak memory throughput or FP64 FLOP/s per method.
fn percent_of_peak(
    rows: &[SketchTimingRow],
    title: &str,
    column: &str,
    percent: fn(&SketchTimingRow) -> f64,
) {
    let mut table = Table::new(title, &["d", "n", "method", column]);
    for r in rows {
        let cell = if r.out_of_memory {
            "OOM".into()
        } else {
            pct(percent(r))
        };
        table.push_row(row(r.point, r.method.label(), [cell]));
    }
    table.print();
}

/// Records one multisketch solve at `point` and writes it as a Chrome trace.
///
/// A single pool and a single profiler keep every trace track's modelled
/// timestamps monotone, and the modelled half of the trace is deterministic (same
/// bytes on every host and thread count).
fn trace_one_solve(point: SweepPoint, path: &str) {
    let collector = TraceCollector::shared();
    let pool = DevicePool::h100(1);
    pool.attach_recorder(collector.clone());
    let problem = LsqProblem::performance(pool.device(0), point.d, point.n, 42)
        .expect("measured sweep sizes are always valid");
    let sol = solve(&pool, &problem, Method::MultiSketch, 42)
        .expect("the multisketch solve succeeds at measured sizes");

    let metrics = MetricsRegistry::new();
    let total = pool.total_cost();
    metrics.add("lsq.kernel_launches", total.launches);
    metrics.add("lsq.bytes_read", total.bytes_read);
    metrics.add("lsq.bytes_written", total.bytes_written);
    metrics.add("lsq.flops", total.flops);
    metrics.add("lsq.phases", sol.breakdown.phases.len() as u64);

    let trace_doc = chrome_trace_with_metrics(&collector.snapshot(), Some(&metrics));
    write_json(std::path::Path::new(path), &trace_doc).expect("write trace JSON");
    println!(
        "wrote {path} ({} events, method {})",
        collector.len(),
        sol.method
    );
}

/// Figures 6 (easy, low noise) and 7 (hard, high noise): relative least squares
/// residuals.
fn residuals(hard: bool) {
    let title = if hard {
        "Figure 7 — relative residuals, hard problem (eta ~ N(3, 2))"
    } else {
        "Figure 6 — relative residuals, easy problem (eta ~ N(0, 0.01))"
    };
    let mut table = Table::new(title, &["d", "n", "method", "||b - Ax|| / ||b||"]);
    for r in residual_rows(hard, 42) {
        let residual = r.residual.map(sci).unwrap_or_else(|| "failed".into());
        table.push_row(row(r.point, r.method, [residual]));
    }
    table.print();
}

/// Figure 8: sensitivity of the least squares residual to the condition number of
/// `A` (`b = A·e`, exact solution exists).
fn fig8(rows: &[ResidualRow]) {
    let mut table = Table::new(
        "Figure 8 — residual vs cond(A), b = A*ones (normal equations fail past ~1e8)",
        &["cond(A)", "method", "||b - Ax|| / ||b||"],
    );
    for r in rows {
        table.push_row(vec![
            sci(r.kappa),
            r.method.to_string(),
            r.residual
                .map(sci)
                .unwrap_or_else(|| "failed (POTRF breakdown)".into()),
        ]);
    }
    table.print();
}

/// One row of the Section 7 table: one method's allreduce at one process count.
struct CommRow {
    p: usize,
    method: SketchMethod,
    label: &'static str,
    comm_words: u64,
    max_flops: u64,
}

/// Section 7 at `d = 2^14, n = 32`: a cost model, not an execution.  Each row
/// comes from [`SketchMethod::rank_local_cost`], whose kernel costs are pinned
/// against the recorded ones in `analytic::tests`.
fn comm_rows() -> Vec<CommRow> {
    let methods = [
        ("Gaussian", SketchMethod::Gaussian),
        ("CountSketch", SketchMethod::CountAlg2),
        ("MultiSketch", SketchMethod::MultiSketch),
    ];
    let mut rows = Vec::new();
    for p in [2usize, 4, 8, 16] {
        for (label, method) in methods {
            let (comm, max_cost) = method.rank_local_cost(1 << 14, 32, p);
            rows.push(CommRow {
                p,
                method,
                label,
                comm_words: comm.total_words(),
                max_flops: max_cost.flops,
            });
        }
    }
    rows
}

fn dist_comm(rows: &[CommRow]) {
    let mut table = Table::new(
        "Section 7 — distributed sketching (d = 2^14, n = 32)",
        &["p", "method", "comm words", "per-process flops (max)"],
    );
    for r in rows {
        table.push_row(vec![
            r.p.to_string(),
            r.label.to_string(),
            sci(r.comm_words as f64),
            sci(r.max_flops as f64),
        ]);
    }
    table.print();
    println!(
        "The multisketch communicates as little as the Gaussian (n times less than the \
         CountSketch); its per-process compute is the CountSketch's row slice plus one \
         p-independent 2n x 2n^2 GEMM (Section 7, modelled)."
    );
}

/// Design-choice ablations: atomic vs gather CountSketch kernel, row- vs
/// column-major operand, the multisketch transpose trick, radix-2 vs radix-4 FWHT,
/// and SyRK vs GeMM for the Gram matrix.
fn ablations() {
    /// Wall-clock milliseconds of `f`, excluding dropping its result.
    fn wall_ms<T>(f: impl FnOnce() -> T) -> f64 {
        let start = Stopwatch::start();
        let _out = f();
        start.elapsed_seconds() * 1e3
    }
    let model_ms = |dev: &Device| ms(dev.model_time(&dev.tracker().snapshot()) * 1e3);

    let d = 1 << 16;
    let n = 32;
    let device = Device::h100();
    let a_rm = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);
    let a_cm = a_rm.to_layout(&device, Layout::ColMajor);

    let mut table = Table::new(
        format!("Ablations at d = 2^16, n = {n} (modelled H100 ms | measured wall ms)"),
        &["experiment", "variant", "model ms", "wall ms"],
    );
    let mut push = |experiment: &str, variant: &str, model: String, wall: f64| {
        table.push_row(vec![experiment.into(), variant.into(), model, ms(wall)]);
    };

    // 1. Atomic (Algorithm 2) vs gather vs SpMM CountSketch.
    let count_spec = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7).resolve(n);
    let cs = count_spec.build_countsketch(&device).expect("valid spec");
    for (label, run) in [
        ("atomic (Alg 2)", 0usize),
        ("gather (no atomics)", 1),
        ("SpMM baseline", 2),
    ] {
        let dev = Device::h100();
        let csl = count_spec.build_countsketch(&dev).expect("valid spec");
        dev.tracker().reset();
        let wall = wall_ms(|| match run {
            0 => csl.apply_matrix(&dev, &a_rm).unwrap(),
            1 => csl.apply_matrix_gather(&dev, &a_rm).unwrap(),
            _ => csl.apply_matrix_spmm(&dev, &a_rm).unwrap(),
        });
        push("CountSketch kernel", label, model_ms(&dev), wall);
    }

    // 2. Row-major vs column-major operand for Algorithm 2.
    for (label, operand) in [("row-major A", &a_rm), ("column-major A", &a_cm)] {
        let dev = Device::h100();
        let wall = wall_ms(|| cs.apply_matrix(&dev, operand).unwrap());
        push("operand layout", label, model_ms(&dev), wall);
    }

    // 3. Multisketch transpose trick vs naive conversion.
    let multi = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 9)
        .build_multisketch(&device, n)
        .expect("fits on the device");
    for (label, naive) in [("transpose trick", false), ("naive conversion", true)] {
        let dev = Device::h100();
        let op = if naive {
            multi.clone().with_naive_layout_handling()
        } else {
            multi.clone()
        };
        let wall = wall_ms(|| op.apply_matrix(&dev, &a_rm).unwrap());
        push("multisketch layout", label, model_ms(&dev), wall);
    }

    // 4. Radix-4 vs radix-2 FWHT (wall clock only; same modelled traffic).
    let mut v4 = sketch_rng::fill::gaussian_vec(1, 0, 1 << 20);
    let mut v2 = v4.clone();
    let wall4 = wall_ms(|| fwht_in_place(&mut v4));
    let wall2 = wall_ms(|| fwht_radix2_in_place(&mut v2));
    push("FWHT radix", "radix-4 (Alg 3)", "-".into(), wall4);
    push("FWHT radix", "radix-2", "-".into(), wall2);

    // 5. SyRK vs GeMM for the Gram matrix.
    for (label, use_syrk) in [("GeMM (paper's choice)", false), ("SyRK", true)] {
        let dev = Device::h100();
        let wall = wall_ms(|| {
            if use_syrk {
                syrk_gram(&dev, &a_cm)
            } else {
                gram_gemm(&dev, &a_cm).unwrap()
            }
        });
        push("Gram matrix", label, model_ms(&dev), wall);
    }

    table.print();
}

fn point_label(point: SweepPoint) -> String {
    format!("d = 2^{}, n = {}", point.d.trailing_zeros(), point.n)
}

/// Figure 2 gate: at every paper-scale size where both fit, CountSketch (Alg 2)
/// generation + apply beats the Gaussian's.  The claim is about the total: at
/// `2^21 x 32` the modelled apply alone slightly favours the Gaussian.
fn fig2_claim(rows: &[SketchTimingRow]) -> Vec<String> {
    let total = |method: SketchMethod, point: SweepPoint| {
        let r = rows
            .iter()
            .find(|r| r.method == method && r.point == point)?;
        (!r.out_of_memory).then(|| r.total_model_ms())
    };
    let mut violations = Vec::new();
    for r in rows.iter().filter(|r| r.method == SketchMethod::CountAlg2) {
        let (Some(count), Some(gauss)) = (
            total(r.method, r.point),
            total(SketchMethod::Gaussian, r.point),
        ) else {
            continue;
        };
        if count >= gauss {
            violations.push(format!(
                "Figure 2 at {}: CountSketch (Alg 2) gen+apply {count:.3} ms is not below the \
                 Gaussian's {gauss:.3} ms",
                point_label(r.point)
            ));
        }
    }
    violations
}

/// Figure 5 gate: at every paper-scale size with `n >= 128` the multisketch solve
/// beats the normal equations (the abstract's "up to 77% faster" comparison).
fn fig5_claim(rows: &[LsqBreakdownRow]) -> Vec<String> {
    let multi = LsqMethod::SketchAndSolve(SketchMethod::MultiSketch).label();
    let normal = LsqMethod::NormalEq.label();
    let mut violations = Vec::new();
    for m in rows
        .iter()
        .filter(|r| r.method == multi && r.point.n >= 128)
    {
        let Some(ne) = rows
            .iter()
            .find(|r| r.method == normal && r.point == m.point)
        else {
            continue;
        };
        if m.out_of_memory || m.total_model_ms >= ne.total_model_ms {
            violations.push(format!(
                "Figure 5 at {}: Multi total {:.3} ms (OOM: {}) is not below Normal Eq's {:.3} ms",
                point_label(m.point),
                m.total_model_ms,
                m.out_of_memory,
                ne.total_model_ms
            ));
        }
    }
    violations
}

/// Figure 8 gate: at `cond(A) = 1e10` the normal equations break down and every
/// orthogonalising solver stays at or below `1e-12`.
fn fig8_claim(rows: &[ResidualRow]) -> Vec<String> {
    let at_kappa: Vec<&ResidualRow> = rows.iter().filter(|r| r.kappa == 1e10).collect();
    if at_kappa.is_empty() {
        return vec!["Figure 8 has no rows at cond(A) = 1e10".into()];
    }
    let mut violations = Vec::new();
    for r in at_kappa {
        let (holds, expected) = match r.method {
            "Normal Eq" => (r.residual.is_none(), "a POTRF breakdown"),
            "Gauss" | "Count" | "Multi" | "QR" => (
                r.residual.is_some_and(|res| res <= 1e-12),
                "a residual <= 1e-12",
            ),
            _ => continue,
        };
        if !holds {
            let got = r.residual.map_or("a failure".into(), sci);
            violations.push(format!(
                "Figure 8 at cond(A) = 1e10: {} gave {got}, expected {expected}",
                r.method
            ));
        }
    }
    violations
}

/// Section 7 gate: at every process count the multisketch communicates exactly as
/// much as the Gaussian and strictly less than the CountSketch.
fn comm_claim(rows: &[CommRow]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in rows
        .iter()
        .filter(|r| r.method == SketchMethod::MultiSketch)
    {
        let words = |method| rows.iter().find(|o| o.p == r.p && o.method == method);
        let (Some(gauss), Some(count)) = (
            words(SketchMethod::Gaussian),
            words(SketchMethod::CountAlg2),
        ) else {
            continue;
        };
        let (multi, gauss, count) = (r.comm_words, gauss.comm_words, count.comm_words);
        if multi != gauss || count <= multi {
            violations.push(format!(
                "Section 7 ordering at p = {}: multisketch {multi} words, Gaussian {gauss}, \
                 CountSketch {count}",
                r.p
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Run, String> {
        Run::from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_or_fail_with_a_message() {
        let run = parse(&["fig5", "--smoke", "--trace", "t.json"]).unwrap();
        assert!(run.smoke && run.trace.as_deref() == Some("t.json"));
        assert!(parse(&["all"]).is_ok() && parse(&[]).is_err() && parse(&["fig9"]).is_err());
        assert!(parse(&["fig5", "--trace"]).is_err() && parse(&["fig5", "--fast"]).is_err());
    }

    #[test]
    fn fig2_claim_holds_and_flags_a_slow_countsketch() {
        let mut rows = paper_sketch_rows();
        assert!(fig2_claim(&rows).is_empty());
        // rows[..6] are the d = 2^21, n = 32 methods, Gram and Gaussian first.
        assert_eq!(rows[1].method, SketchMethod::Gaussian);
        rows[2].apply_model_ms = rows[1].total_model_ms();
        let violations = fig2_claim(&rows);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("d = 2^21, n = 32"), "{violations:?}");
        rows[1].out_of_memory = true; // a size where the Gaussian does not fit is skipped
        assert!(fig2_claim(&rows).is_empty());
    }

    #[test]
    fn fig5_claim_holds_and_flags_a_slow_wide_multisketch() {
        let mut rows = lsq_breakdown_paper_rows();
        assert!(fig5_claim(&rows).is_empty());
        for r in rows.iter_mut().filter(|r| r.method == "Multi") {
            if r.point.n < 128 || r.point == (SweepPoint { d: 1 << 22, n: 256 }) {
                r.total_model_ms = 1e9;
            }
        }
        let violations = fig5_claim(&rows);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("d = 2^22, n = 256"),
            "{violations:?}"
        );
    }

    #[test]
    fn fig8_claim_flags_each_kind_of_violation() {
        let rows = |normal: Option<f64>, multi: Option<f64>| {
            [
                ("Normal Eq", normal),
                ("Gauss", Some(3e-15)),
                ("Multi", multi),
            ]
            .map(|(method, residual)| ResidualRow {
                point: SweepPoint { d: 1 << 13, n: 16 },
                kappa: 1e10,
                method,
                residual,
            })
        };
        assert!(fig8_claim(&rows(None, Some(2e-15))).is_empty());
        for (bad, culprit) in [
            (rows(Some(1e-3), Some(2e-15)), "Normal Eq gave"),
            (rows(None, Some(1e-9)), "Multi gave 1.000e-9"),
            (rows(None, None), "Multi gave a failure"),
        ] {
            let violations = fig8_claim(&bad);
            assert!(
                violations.len() == 1 && violations[0].contains(culprit),
                "{violations:?}"
            );
        }
        let mut elsewhere = rows(None, Some(2e-15));
        elsewhere.iter_mut().for_each(|r| r.kappa = 1e8);
        assert_eq!(fig8_claim(&elsewhere).len(), 1);
    }

    #[test]
    fn comm_claim_holds_and_flags_a_chatty_multisketch() {
        let mut rows = comm_rows();
        assert!(comm_claim(&rows).is_empty());
        // Rows come in (Gaussian, CountSketch, MultiSketch) triples per p = 2, 4, 8, 16.
        assert_eq!((rows[8].p, rows[8].method), (8, SketchMethod::MultiSketch));
        rows[8].comm_words += 1;
        let violations = comm_claim(&rows);
        assert!(
            violations.len() == 1 && violations[0].contains("p = 8"),
            "{violations:?}"
        );
    }
}
