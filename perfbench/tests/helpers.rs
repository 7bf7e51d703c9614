//! Tests of the benchmark's own helpers: tail percentile rule, self time,
//! failure arithmetic, input determinism, and agreement with BENCHMARK.json.

use perfbench::inputs::{
    lsq_problem, rsvd_input, rsvd_shape, serve_jobs, serve_working_set_bytes, Scale, SPAN_EVERY,
};
use perfbench::runner::{END_TO_END, PER_LAYER};
use perfbench::stats::{failed_frac, median, percentile_permille, tail_permille};
use perfbench::trace::{op_profile, self_times_ns, to_chrome_trace, Span, Tracer};
use perfbench::workload::Kind;
use sketch_gpu_sim::{Device, KernelCost};
use sketch_obs::JsonValue;
use std::sync::Arc;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_permille(19), None);
    assert_eq!(tail_permille(20), Some(500));
    assert_eq!(tail_permille(39), Some(500));
    assert_eq!(tail_permille(40), Some(750));
    assert_eq!(tail_permille(99), Some(750));
    assert_eq!(tail_permille(100), Some(900));
    assert_eq!(tail_permille(199), Some(900));
    assert_eq!(tail_permille(200), Some(950));
    assert_eq!(tail_permille(1000), Some(990));
    assert_eq!(tail_permille(10_000), Some(999));
    // The rule it encodes: at least ten samples strictly above the rank.
    for n in 1..2000usize {
        if let Some(p) = tail_permille(n) {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile_permille(&values, p).unwrap();
            assert!(
                values.iter().filter(|&&v| v > at).count() >= 10,
                "n={n} p={p}"
            );
        }
    }
}

#[test]
fn percentiles_use_nearest_rank_and_medians_average_the_middle() {
    let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile_permille(&values, 900), Some(90.0));
    assert_eq!(percentile_permille(&values, 500), Some(50.0));
    assert_eq!(percentile_permille(&[], 500), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn failed_frac_counts_failures_against_attempts() {
    assert_eq!(failed_frac(10, 0), 0.0);
    assert_eq!(failed_frac(10, 2), 0.2);
    assert_eq!(failed_frac(4, 4), 1.0);
    assert_eq!(failed_frac(0, 0), 0.0);
    assert_eq!(failed_frac(3, 5), 1.0);
}

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        op: 0,
        name: "s",
        start_ns,
        end_ns,
        cost: KernelCost::zero(),
    }
}

#[test]
fn self_time_subtracts_overlapping_children_once() {
    let spans = vec![
        span(0, None, 0, 100),
        span(1, Some(0), 10, 50),
        span(2, Some(0), 30, 70),
        span(3, Some(1), 20, 40),
        span(4, Some(0), 90, 130),
    ];
    let own = self_times_ns(&spans);
    // Children cover [10, 70) and [90, 100) of the root: 70 ns.
    assert_eq!(own[0], 30);
    // A grandchild is subtracted from its parent only.
    assert_eq!(own[1], 20);
    assert_eq!(own[2], 40);
    assert_eq!(own[3], 20);
    assert_eq!(own[4], 40);
}

#[test]
fn traced_self_times_sum_to_the_operation_time() {
    let device = Arc::new(Device::unlimited());
    let mut tracer = Tracer::new(vec![Arc::clone(&device)]);
    tracer.set_op(7);
    tracer.span("root", |t| {
        t.span("a", |t| {
            device.record(KernelCost::new(8, 8, 2, 1));
            t.span("b", |_| std::hint::black_box((0..1000u64).sum::<u64>()));
        });
        t.span("b", |_| device.record(KernelCost::new(16, 0, 0, 1)));
    });
    tracer.span("probe", |t| t.span("b", |_| ()));
    let spans = tracer.spans();
    let own = self_times_ns(spans);
    let p = op_profile(spans, &own, 7).unwrap();
    assert_eq!(p.root, "root");
    assert_eq!(p.self_sum_ns, p.op_ns);
    assert_eq!(p.cost("a"), KernelCost::new(8, 8, 2, 1));
    assert_eq!(p.cost("b"), KernelCost::new(16, 0, 0, 1));
    // Probe roots count by name but not towards the operation's time.
    assert_eq!(spans.iter().filter(|s| s.name == "b").count(), 3);
    assert!(op_profile(spans, &own, 8).is_none());

    let doc = to_chrome_trace(spans);
    let slices: Vec<&JsonValue> = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .collect();
    assert_eq!(slices.len(), spans.len());
    for (slice, s) in slices.iter().zip(spans) {
        let args = slice.get("args").unwrap();
        assert_eq!(
            args.get("span_id").and_then(JsonValue::as_u64),
            Some(s.id as u64)
        );
        assert_eq!(args.get("op_id").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            args.get("parent_id").and_then(JsonValue::as_u64),
            s.parent.map(|p| p as u64)
        );
        let ts = slice.get("ts").and_then(JsonValue::as_f64).unwrap();
        assert!((ts - s.start_ns as f64 * 1e-3).abs() < 1e-9);
    }
}

#[test]
fn the_same_seed_generates_byte_identical_inputs() {
    let (p1, p2) = (
        lsq_problem(Scale::Smoke, 11).unwrap(),
        lsq_problem(Scale::Smoke, 11).unwrap(),
    );
    assert_eq!(bits(p1.a.as_slice()), bits(p2.a.as_slice()));
    assert_eq!(bits(&p1.b), bits(&p2.b));
    let p3 = lsq_problem(Scale::Smoke, 12).unwrap();
    assert_ne!(bits(&p1.b), bits(&p3.b));

    let shape = rsvd_shape(Scale::Smoke);
    let (r1, r2) = (
        rsvd_input(shape, 11).unwrap(),
        rsvd_input(shape, 11).unwrap(),
    );
    assert_eq!(bits(r1.a.as_slice()), bits(r2.a.as_slice()));
    assert_eq!(r1.noise_fro.to_bits(), r2.noise_fro.to_bits());
    assert_ne!(
        bits(r1.a.as_slice()),
        bits(rsvd_input(shape, 12).unwrap().a.as_slice())
    );

    let render = |seed| -> Vec<String> {
        serve_jobs(Scale::Full, seed)
            .iter()
            .map(|j| j.to_json())
            .collect()
    };
    assert_eq!(render(11), render(11));
    assert_ne!(render(11), render(12));
}

#[test]
fn serve_batch_mixes_tenants_pipelines_and_device_asks() {
    let jobs = serve_jobs(Scale::Full, 3);
    assert_eq!(jobs.len(), 64);
    let tenants: std::collections::BTreeSet<&str> =
        jobs.iter().map(|j| j.tenant.as_str()).collect();
    assert_eq!(tenants.len(), 4);
    for (j, job) in jobs.iter().enumerate() {
        let expected = if j % SPAN_EVERY == SPAN_EVERY - 1 {
            2
        } else {
            1
        };
        assert_eq!(job.devices, expected, "job {j}");
        assert!([4096, 8192, 16384].contains(&job.operand.rows()));
        assert!([8, 16].contains(&job.operand.cols()));
    }
    assert!(serve_working_set_bytes(&jobs) > 0);
    // Every seed gives the same multiset of job shapes, hence the same work.
    let shapes = |seed| {
        let mut s: Vec<String> = serve_jobs(Scale::Full, seed)
            .iter()
            .map(|j| format!("{:?} {}", j.operand.modelled_nnz(), j.pipeline.stages.len()))
            .collect();
        s.sort();
        s
    };
    assert_eq!(shapes(3), shapes(4));
    assert_eq!(
        serve_working_set_bytes(&serve_jobs(Scale::Full, 4)),
        serve_working_set_bytes(&jobs)
    );
}

fn names_and_units(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, kinds);
}
