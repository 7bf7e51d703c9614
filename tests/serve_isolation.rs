//! Bit-exact tenant isolation for the `sketch-serve` co-scheduler.
//!
//! The service contract: a tenant's job produces *exactly* the same bits
//! whether it runs co-scheduled on a busy shared pool or alone on a fresh
//! single-device pool.  Two mechanisms compose to give that guarantee —
//! per-tenant Philox seed namespaces ([`tenant_salt`] XORed into every stage
//! seed) make tenants' randomness disjoint, and the pipelined executor is
//! bit-for-bit identical across pool sizes.  These tests pin both, for every
//! sketch kind (plus the Count-Gauss pipeline), dense and CSR operands,
//! across 1/2/4/7-device pools, and under arbitrary proptest-chosen
//! admission interleavings.

use gpu_countsketch::prelude::*;
use gpu_countsketch::serve::{tenant_salt, JobFile, QueuedJob, RejectReason, ServeError};
use proptest::prelude::*;

/// Every sketch kind plus the two-stage Count-Gauss pipeline.
fn plans(d: usize, seed: u64) -> Vec<Pipeline> {
    vec![
        Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), seed)),
        Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), seed)),
        Pipeline::single(SketchSpec::srht(d, EmbeddingDim::Ratio(2), seed)),
        Pipeline::single(SketchSpec::hash_countsketch(
            d,
            EmbeddingDim::Square(2),
            seed,
        )),
        Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), seed),
    ]
}

/// One job per (plan, operand layout) for `tenant`: ten jobs covering every
/// kind over dense and CSR inputs.
fn jobs_for(tenant: &str, d: usize) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (i, plan) in plans(d, 40 + i_seed(tenant)).into_iter().enumerate() {
        jobs.push(JobSpec::new(
            tenant,
            plan.clone(),
            OperandSpec::Dense {
                rows: d,
                cols: 8,
                seed: 7,
            },
        ));
        jobs.push(JobSpec::new(
            tenant,
            plan,
            OperandSpec::Csr {
                rows: d,
                cols: 8,
                nnz_target: d / 2,
                seed: 7 + i as u64,
            },
        ));
    }
    jobs
}

/// Plans get per-tenant *spec* seeds too, so the salting has to do real work:
/// identical stage seeds across tenants would mask a broken namespace.
fn i_seed(tenant: &str) -> u64 {
    tenant.len() as u64
}

/// The reference bits: the job alone on a fresh single-device pool.
fn solo_result(job: &JobSpec) -> Matrix {
    let pool = DevicePool::unlimited(1);
    let run = Scheduler::new()
        .run(
            &pool,
            &[QueuedJob {
                job: job.clone(),
                seq: 0,
            }],
        )
        .expect("solo run fits one device");
    run.jobs.into_iter().next().unwrap().run.result
}

#[test]
fn cosched_matches_solo_bitwise_across_pool_sizes() {
    let d = 1 << 10;
    // Interleave two tenants' full workloads; one job asks for three devices
    // so multi-device subpools are exercised too.
    let mut specs = Vec::new();
    for (a, b) in jobs_for("alice", d).into_iter().zip(jobs_for("bob", d)) {
        specs.push(a);
        specs.push(b);
    }
    specs[4] = specs[4].clone().with_devices(3);
    let expected: Vec<Matrix> = specs.iter().map(solo_result).collect();

    for devices in [1usize, 2, 4, 7] {
        let pool = DevicePool::unlimited(devices);
        let queued: Vec<QueuedJob> = specs
            .iter()
            .enumerate()
            .map(|(seq, job)| QueuedJob {
                job: job.clone(),
                seq: seq as u64,
            })
            .collect();
        let run = Scheduler::new()
            .run(&pool, &queued)
            .expect("co-scheduled run fits the pool");
        assert_eq!(run.jobs.len(), specs.len());
        for job in &run.jobs {
            let diff = job
                .run
                .result
                .max_abs_diff(&expected[job.seq as usize])
                .expect("same sketch shape");
            assert_eq!(
                diff, 0.0,
                "{} job seq {} differs co-scheduled on {devices} devices",
                job.tenant, job.seq
            );
        }
    }
}

#[test]
fn a_failing_job_fails_alone_and_the_batch_runs_on() {
    // The middle job's sketch resolves to zero output rows: it passes
    // admission but cannot execute.  Its neighbours must still run, with the
    // bits they produce alone, and the ledger must carry one typed rejection.
    let job = |tenant: &str, output_dim: &str, seed: u64| {
        format!(
            r#"{{"tenant": "{tenant}",
                 "pipeline": {{"stages": [{{"kind": "count-sketch", "input_dim": 1024,
                                            "output_dim": {output_dim}, "seed": {seed}}}]}},
                 "operand": {{"dense": {{"rows": 1024, "cols": 8, "seed": {seed}}}}}}}"#
        )
    };
    let text = format!(
        r#"{{"jobs": [{}, {}, {}]}}"#,
        job("alice", r#"{"square": 2}"#, 1),
        job("mallory", r#"{"exact": 0}"#, 2),
        job("bob", r#"{"ratio": 4}"#, 3),
    );
    let file = JobFile::from_json(&text).expect("the job file parses");
    let pool = DevicePool::unlimited(2);
    let mut engine = ServeEngine::new(&pool, file.admission(), file.queue_capacity);
    for spec in file.jobs.clone() {
        engine.submit(spec).expect("every job is admitted");
    }
    let report = engine.run().expect("one bad job never fails the batch");

    let run = &report.service;
    assert_eq!(run.jobs.len(), 2);
    for scheduled in &run.jobs {
        let expected = solo_result(&file.jobs[scheduled.seq as usize]);
        assert_eq!(
            scheduled.run.result.max_abs_diff(&expected),
            Ok(0.0),
            "{} drifted beside the failing job",
            scheduled.tenant
        );
    }
    assert_eq!(run.abandoned.len(), 1);
    let failed = &run.abandoned[0];
    assert_eq!((failed.tenant.as_str(), failed.seq), ("mallory", 1));
    match &failed.reason {
        RejectReason::ExecutionFailed { detail } => {
            assert!(detail.contains("output dimension 0"), "{detail}")
        }
        other => panic!("expected an execution failure, got {other:?}"),
    }
    assert_eq!(report.jobs_rejected(), 1);
    let ledger = &report.tenants["mallory"];
    assert_eq!(ledger.jobs_rejected, 1);
    assert_eq!(ledger.rejected_by_reason["execution_failed"], 1);
}

#[test]
fn an_operand_too_large_to_materialise_is_rejected_at_submit() {
    // The middle job asks for an operand `materialize` cannot build: a
    // u64::MAX x 8 dense one, whose byte size overflows, a 16 x 4e9 dense one
    // (512 GB: a valid allocation size, but larger than any H100's 80 GiB),
    // or a sparse one whose indices the uniform sampler cannot draw (zero
    // columns, or more than u32::MAX rows or columns).  Admission must refuse
    // it with a typed reason before anything is allocated, with every tenant
    // limit left at its unlimited default; its neighbours run with the bits
    // they produce alone.
    let csr = |rows: usize, cols: usize| {
        let operand = format!(
            r#"{{"csr": {{"rows": {rows}, "cols": {cols}, "nnz_target": 64, "seed": 2}}}}"#
        );
        (operand, RejectReason::SparseShapeOutOfRange { rows, cols })
    };
    let too_large = (
        r#"{"dense": {"rows": 18446744073709551615, "cols": 8, "seed": 2}}"#.to_string(),
        RejectReason::OperandTooLarge {
            rows: usize::MAX,
            cols: 8,
        },
    );
    let beyond_device = (
        r#"{"dense": {"rows": 16, "cols": 4000000000, "seed": 2}}"#.to_string(),
        RejectReason::OperandExceedsDeviceMemory {
            bytes: 16 * 4_000_000_000 * 8,
            capacity: 80 << 30,
        },
    );
    let past_u32 = u32::MAX as usize + 1;
    let cases = [
        too_large,
        beyond_device,
        csr(1024, 0),
        csr(past_u32, 8),
        csr(1024, past_u32),
    ];
    let job = |tenant: &str, operand: &str, seed: u64| {
        format!(
            r#"{{"tenant": "{tenant}",
                 "pipeline": {{"stages": [{{"kind": "count-sketch", "input_dim": 1024,
                                            "output_dim": {{"square": 2}}, "seed": {seed}}}]}},
                 "operand": {operand}}}"#
        )
    };
    let dense = |seed: u64| format!(r#"{{"dense": {{"rows": 1024, "cols": 8, "seed": {seed}}}}}"#);
    for (operand, expected) in cases {
        let text = format!(
            r#"{{"jobs": [{}, {}, {}]}}"#,
            job("alice", &dense(1), 1),
            job("mallory", &operand, 2),
            job("bob", &dense(3), 3),
        );
        let file = JobFile::from_json(&text).expect("the job file parses");
        let pool = DevicePool::h100(2);
        let mut engine = ServeEngine::new(&pool, file.admission(), file.queue_capacity);
        let outcomes: Vec<_> = file
            .jobs
            .iter()
            .map(|spec| engine.submit(spec.clone()))
            .collect();
        assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
        match &outcomes[1] {
            Err(ServeError::Rejected { tenant, reason }) => {
                assert_eq!(tenant, "mallory");
                assert_eq!(*reason, expected);
            }
            other => panic!("expected a typed rejection for {operand}, got {other:?}"),
        }
        let report = engine
            .run()
            .expect("the rejected job never reaches the batch");

        let run = &report.service;
        assert_eq!(run.jobs.len(), 2);
        assert!(run.abandoned.is_empty());
        for scheduled in &run.jobs {
            let spec = file
                .jobs
                .iter()
                .find(|j| j.tenant == scheduled.tenant)
                .expect("a submitted job");
            assert_eq!(
                scheduled.run.result.max_abs_diff(&solo_result(spec)),
                Ok(0.0),
                "{} drifted beside the rejected job",
                scheduled.tenant
            );
        }
        assert_eq!(report.jobs_rejected(), 1);
        let ledger = &report.tenants["mallory"];
        assert_eq!((ledger.jobs_run, ledger.jobs_rejected), (0, 1));
        assert_eq!(ledger.rejected_by_reason[expected.as_str()], 1);
    }
}

#[test]
fn tenant_namespaces_separate_and_repeat() {
    let d = 1 << 9;
    assert_ne!(tenant_salt("alice"), tenant_salt("bob"));
    assert_eq!(tenant_salt("alice"), tenant_salt("alice"));

    // The same spec under different tenants draws different randomness...
    let plan = Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 3));
    let operand = OperandSpec::Dense {
        rows: d,
        cols: 8,
        seed: 7,
    };
    let alice = solo_result(&JobSpec::new("alice", plan.clone(), operand.clone()));
    let bob = solo_result(&JobSpec::new("bob", plan.clone(), operand.clone()));
    assert!(
        alice.max_abs_diff(&bob).unwrap() > 0.0,
        "different tenants must land in different seed namespaces"
    );

    // ...while the same tenant gets the same bits every time.
    let again = solo_result(&JobSpec::new("alice", plan, operand));
    assert_eq!(alice.max_abs_diff(&again).unwrap(), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any admission interleaving of N tenant jobs, on any pool size, with any
    /// arrival jitter, yields bit-identical per-tenant results to solo runs on
    /// a fresh pool.
    #[test]
    fn prop_interleavings_preserve_tenant_bits(shuffle_seed in 0u64..1000, devices in 1usize..8) {
        let d = 1 << 9;
        let mut specs: Vec<JobSpec> = Vec::new();
        for tenant in ["alice", "bob", "carol"] {
            for (i, plan) in plans(d, 60 + i_seed(tenant)).into_iter().enumerate().take(3) {
                let operand = if i.is_multiple_of(2) {
                    OperandSpec::Dense { rows: d, cols: 8, seed: 5 }
                } else {
                    OperandSpec::Csr { rows: d, cols: 8, nnz_target: d / 2, seed: 5 }
                };
                specs.push(JobSpec::new(tenant, plan, operand));
            }
        }
        let expected: Vec<Matrix> = specs.iter().map(solo_result).collect();

        // Deterministic Fisher–Yates driven by the proptest seed: the
        // admission order (and hence the packing) is arbitrary.
        let mut order: Vec<usize> = (0..specs.len()).collect();
        let mut state = shuffle_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let queued: Vec<QueuedJob> = order
            .iter()
            .enumerate()
            .map(|(seq, &idx)| {
                let mut job = specs[idx].clone().with_arrival(seq as f64 * 1e-7);
                if seq % 4 == 0 {
                    job = job.with_devices(1 + seq % 3);
                }
                QueuedJob { job, seq: idx as u64 }
            })
            .collect();
        let pool = DevicePool::unlimited(devices);
        let run = Scheduler::new().run(&pool, &queued).expect("run fits the pool");
        for job in &run.jobs {
            let diff = job.run.result.max_abs_diff(&expected[job.seq as usize]).unwrap();
            prop_assert!(
                diff == 0.0,
                "{} job {} differs under interleaving {shuffle_seed} on {devices} devices",
                job.tenant, job.seq
            );
        }
    }
}
