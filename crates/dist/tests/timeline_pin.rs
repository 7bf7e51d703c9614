//! Golden pin of the pipelined executor's modelled clock.
//!
//! A grid of healthy and faulted runs is rendered to text — every timeline
//! entry, every `FaultReport` field, the four makespan clocks, the recorded
//! trace events (as a sorted multiset, so emission order may change) and a
//! digest of the result bits — with every `f64` printed as its raw IEEE bits.
//! The rendering must equal `tests/golden/executor_timeline.txt` exactly.
//!
//! Death instants are taken from the healthy runs' timelines (the midpoint of
//! a chosen entry, or of the idle gap before one), so each truncation branch
//! of the executor is exercised: a death during a row shard's compute, while
//! a device waits for the previous shard's chained fold, in the middle of a
//! ring fold, in the middle of a column-panel allgather, while a device idles
//! at a stage barrier, and cascading deaths down to one survivor.
//!
//! On a mismatch the actual rendering is written next to the test binary's
//! scratch directory and the first differing line is reported.

use sketch_core::{EmbeddingDim, Operand, Pipeline, SketchSpec};
use sketch_dist::{pipelined_sketch, ExecutorOptions, PipelinedRun};
use sketch_gpu_sim::{DevicePool, FaultPlan, FaultSpec, StreamKind, TimelineEntry};
use sketch_la::{Layout, Matrix};
use sketch_obs::{TraceCollector, TraceEvent};
use sketch_sparse::{CooMatrix, CsrMatrix};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/executor_timeline.txt");

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn dense(d: usize, n: usize) -> Matrix {
    Matrix::random_gaussian(d, n, Layout::RowMajor, 41, 0)
}

fn sparse(d: usize, n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(d, n);
    for i in 0..d {
        coo.push(i, i % n, ((i * 7) as f64 * 0.37).sin());
        if i % 3 == 0 {
            coo.push(i, (i + 2) % n, ((i * 5) as f64 * 0.11).cos());
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn row_plan(d: usize) -> Pipeline {
    Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Exact(48), 5))
}

fn count_gauss(d: usize) -> Pipeline {
    Pipeline::count_gauss(d, EmbeddingDim::Exact(48), EmbeddingDim::Ratio(2), 9)
}

fn dies(at: f64) -> FaultSpec {
    FaultSpec::Dies {
        after_sim_seconds: at,
    }
}

/// Run `plan` on a fresh traced H100 pool with `faults` applied.
fn traced_run(
    devices: usize,
    operand: Operand<'_>,
    plan: &Pipeline,
    faults: &FaultPlan,
) -> (PipelinedRun, Vec<TraceEvent>) {
    let pool = DevicePool::h100(devices);
    let collector = TraceCollector::shared();
    pool.attach_recorder(collector.clone());
    pool.apply_fault_plan(faults);
    let run = pipelined_sketch(&pool, operand, plan, &ExecutorOptions::default())
        .expect("a survivor remains");
    (run, collector.snapshot())
}

fn entry<'t>(run: &'t PipelinedRun, label: &str) -> &'t TimelineEntry {
    run.timeline
        .entries()
        .iter()
        .find(|e| e.label == label)
        .unwrap_or_else(|| panic!("no timeline entry {label:?}"))
}

fn mid(lo: f64, hi: f64) -> f64 {
    lo + 0.5 * (hi - lo)
}

fn render(out: &mut String, name: &str, run: &PipelinedRun, events: &[TraceEvent]) {
    writeln!(out, "== {name}").unwrap();
    for (i, e) in run.timeline.entries().iter().enumerate() {
        let stream = match e.stream {
            StreamKind::Compute => "compute",
            StreamKind::Comm => "comm",
        };
        writeln!(
            out,
            "entry {i} d{} {stream} {} {} {}",
            e.device,
            bits(e.start),
            bits(e.end),
            e.label
        )
        .unwrap();
    }
    let f = &run.fault;
    writeln!(
        out,
        "fault survivors={} recomputed={} lost={} overhead={}",
        f.survivors,
        f.shards_recomputed,
        bits(f.lost_seconds),
        bits(f.recovery_overhead_seconds)
    )
    .unwrap();
    for x in &f.failures {
        writeln!(
            out,
            "failure d{} s{} at={} detected={} recovered={}",
            x.device,
            x.stage,
            bits(x.at_sim_seconds),
            bits(x.detected_at_seconds),
            bits(x.recovered_at_seconds)
        )
        .unwrap();
    }
    writeln!(
        out,
        "clocks serial={} pipelined={} compute_only={} comm={}",
        bits(run.serial_seconds),
        bits(run.pipelined_seconds),
        bits(run.compute_only_seconds),
        bits(run.comm_seconds)
    )
    .unwrap();
    let mut lines: Vec<String> = events
        .iter()
        .map(|e| {
            let sim = e
                .sim
                .map_or("-".to_string(), |(s, t)| format!("{} {}", bits(s), bits(t)));
            let c = &e.cost;
            format!(
                "event {} d{} {sim} br={} bw={} fl={} la={} cb={} {}",
                e.track.name(),
                e.device,
                c.bytes_read,
                c.bytes_written,
                c.flops,
                c.launches,
                c.comm_bytes,
                e.name
            )
        })
        .collect();
    lines.sort();
    for l in lines {
        writeln!(out, "{l}").unwrap();
    }
    // FNV-1a over the result's shape and element bits.
    let r = &run.result;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [r.nrows() as u64, r.ncols() as u64]
        .into_iter()
        .chain((0..r.nrows()).flat_map(|i| (0..r.ncols()).map(move |j| r.get(i, j).to_bits())))
    {
        h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    }
    writeln!(out, "result {}x{} {h:016x}", r.nrows(), r.ncols()).unwrap();
}

fn render_all() -> String {
    let mut out = String::new();
    let d = 512;
    let a = dense(d, 6);
    let csr = sparse(d, 6);
    let healthy = FaultPlan::healthy();

    // --- Row-sharded CountSketch on 3 devices: 6 shards, chained ring folds.
    let rows = row_plan(d);
    let (h_row, ev) = traced_run(3, Operand::Dense(&a), &rows, &healthy);
    render(&mut out, "row_healthy", &h_row, &ev);

    // Death during device 1's first shard compute (no earlier op on device 1).
    let c1 = entry(&h_row, "s0 count-sketch shard 1");
    let at = mid(c1.start, c1.end);
    let (run, ev) = traced_run(
        3,
        Operand::Dense(&a),
        &rows,
        &healthy.clone().with_fault(1, dies(at)),
    );
    assert_eq!(run.fault.failures[0].detected_at_seconds, at);
    render(&mut out, "row_death_in_compute", &run, &ev);

    // Death while a device waits for the previous shard's chained fold: the
    // first shard >= 3 whose fold starts after its own compute ended.
    let (shard, compute, fold) = (3..6)
        .map(|i| {
            let c = entry(&h_row, &format!("s0 count-sketch shard {i}"));
            let f = entry(&h_row, &format!("s0 count-sketch shard {i} fold"));
            (i, c, f)
        })
        .find(|(_, c, f)| f.start > c.end)
        .expect("some fold queues behind the ring");
    let earlier_fold = entry(&h_row, &format!("s0 count-sketch shard {} fold", shard - 3));
    let at = mid(compute.end.max(earlier_fold.end), fold.start);
    let (run, ev) = traced_run(
        3,
        Operand::Dense(&a),
        &rows,
        &healthy.clone().with_fault(compute.device, dies(at)),
    );
    assert_eq!(run.fault.failures[0].detected_at_seconds, fold.start);
    render(&mut out, "row_death_waiting_for_chained_fold", &run, &ev);

    // Death in the middle of device 1's first ring fold.
    let f1 = entry(&h_row, "s0 count-sketch shard 1 fold");
    let at = mid(f1.start, f1.end);
    let (run, ev) = traced_run(
        3,
        Operand::Dense(&a),
        &rows,
        &healthy.clone().with_fault(1, dies(at)),
    );
    assert_eq!(run.fault.failures[0].detected_at_seconds, at);
    render(&mut out, "row_death_mid_fold", &run, &ev);

    // Cascade: device 1 dies in its first compute, then device 2 dies in the
    // middle of its first fold of the retry, leaving device 0 alone.
    let first = FaultPlan::healthy().with_fault(1, dies(mid(c1.start, c1.end)));
    let (once, _) = traced_run(3, Operand::Dense(&a), &rows, &first);
    let detected = once.fault.failures[0].detected_at_seconds;
    let retry_fold = once
        .timeline
        .entries()
        .iter()
        .find(|e| e.device == 2 && e.stream == StreamKind::Comm && e.start >= detected)
        .expect("the retry folds on device 2");
    let cascade = first.with_fault(2, dies(mid(retry_fold.start, retry_fold.end)));
    let (run, ev) = traced_run(3, Operand::Dense(&a), &rows, &cascade);
    assert_eq!(run.fault.failures.len(), 2);
    assert_eq!(run.fault.survivors, 1);
    render(&mut out, "row_cascade_to_one_survivor", &run, &ev);

    // --- Count-Gauss on 3 devices: a row stage, then column panels.
    let cg = count_gauss(d);
    let (h_cg, ev) = traced_run(3, Operand::Dense(&a), &cg, &healthy);
    render(&mut out, "count_gauss_healthy", &h_cg, &ev);

    // Death in the middle of device 1's first panel allgather.
    let g1 = entry(&h_cg, "s1 gaussian panel 1 fold");
    let at = mid(g1.start, g1.end);
    let (run, ev) = traced_run(
        3,
        Operand::Dense(&a),
        &cg,
        &healthy.clone().with_fault(1, dies(at)),
    );
    assert_eq!(run.fault.failures[0].detected_at_seconds, at);
    assert_eq!(run.fault.failures[0].stage, 1);
    render(&mut out, "count_gauss_death_mid_allgather", &run, &ev);

    // Death while device 0 idles at the stage barrier: after its last
    // stage-0 op, before its first stage-1 panel can start.
    let s0_of = |dev: Option<usize>| {
        h_cg.timeline
            .entries()
            .iter()
            .filter(|e| e.label.starts_with("s0 ") && dev.is_none_or(|d| e.device == d))
            .fold(0.0f64, |acc, e| acc.max(e.end))
    };
    let barrier = s0_of(None);
    let idle_from = s0_of(Some(0));
    assert!(idle_from < barrier, "device 0 finishes stage 0 early");
    let (run, ev) = traced_run(
        3,
        Operand::Dense(&a),
        &cg,
        &healthy.clone().with_fault(0, dies(mid(idle_from, barrier))),
    );
    assert_eq!(run.fault.failures[0].detected_at_seconds, barrier);
    render(&mut out, "count_gauss_death_idle_at_barrier", &run, &ev);

    // A 4x straggler and a degraded link only stretch the clock.
    let (run, ev) = traced_run(
        3,
        Operand::Dense(&a),
        &cg,
        &healthy.clone().with_fault(
            1,
            FaultSpec::Straggler {
                slowdown_factor: 4.0,
            },
        ),
    );
    render(&mut out, "count_gauss_straggler_4x", &run, &ev);
    let (run, ev) = traced_run(
        3,
        Operand::Dense(&a),
        &cg,
        &healthy
            .clone()
            .with_fault(2, FaultSpec::LinkDegraded { factor: 2.0 }),
    );
    render(&mut out, "count_gauss_link_degraded_2x", &run, &ev);

    // --- CSR operand: zero-copy row windows, then CSC-style panel cuts.
    let (h_csr, ev) = traced_run(3, Operand::Csr(&csr), &cg, &healthy);
    render(&mut out, "csr_count_gauss_healthy", &h_csr, &ev);
    let f2 = entry(&h_csr, "s0 count-sketch shard 2 fold");
    let (run, ev) = traced_run(
        3,
        Operand::Csr(&csr),
        &cg,
        &healthy.clone().with_fault(2, dies(mid(f2.start, f2.end))),
    );
    render(&mut out, "csr_count_gauss_death_mid_fold", &run, &ev);

    // --- A pool of one: bare launches, no collectives.
    let (run, ev) = traced_run(1, Operand::Dense(&a), &cg, &healthy);
    render(&mut out, "count_gauss_pool_of_one", &run, &ev);
    out
}

#[test]
fn executor_timeline_matches_the_golden_rendering() {
    let actual = render_all();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("executor_timeline.txt");
        std::fs::write(&path, &actual).expect("write the actual rendering");
        let golden: Vec<&str> = GOLDEN.lines().collect();
        let lines: Vec<&str> = actual.lines().collect();
        let i = (0..golden.len().max(lines.len()))
            .find(|&i| golden.get(i) != lines.get(i))
            .unwrap_or(0);
        let (line, want, got) = (i + 1, golden.get(i), lines.get(i));
        panic!(
            "executor timeline drifted at line {line}:\n  golden: {want:?}\n  actual: {got:?}\n\
             full rendering written to {}",
            path.display()
        );
    }
}
