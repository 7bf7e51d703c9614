//! The multi-device determinism suite: sharded, pipelined execution across a
//! [`DevicePool`] must be **bit-for-bit identical** to single-device execution —
//! for every sketch kind, every device count (including a prime one), and uneven
//! shard splits.
//!
//! This is the contract that makes the multi-device executor safe to adopt
//! anywhere: scaling out changes the modelled timeline, never the answer.

use gpu_countsketch::dist::{pipelined_sketch, ExecutorOptions};
use gpu_countsketch::gpu::{Device, DevicePool};
use gpu_countsketch::la::{Layout, Matrix};
use gpu_countsketch::sketch::{EmbeddingDim, Operand, Pipeline, SketchSpec};
use gpu_countsketch::sparse::{CooMatrix, CsrMatrix};

/// Bitwise equality, element by element (stricter than `max_abs_diff == 0.0`,
/// which cannot distinguish `-0.0` from `0.0`).
fn assert_bits_equal(label: &str, got: &Matrix, want: &Matrix) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
    for i in 0..want.nrows() {
        for j in 0..want.ncols() {
            assert_eq!(
                got.get(i, j).to_bits(),
                want.get(i, j).to_bits(),
                "{label}: element ({i},{j}) drifted: {} vs {}",
                got.get(i, j),
                want.get(i, j)
            );
        }
    }
}

fn single_device_reference(plan: &Pipeline, a: &Matrix) -> Matrix {
    let device = Device::unlimited();
    plan.build_for(&device, a.ncols())
        .expect("plan builds")
        .apply_matrix(&device, a)
        .expect("plan applies")
}

/// The device grid: 1 (degenerate), 2/4 (powers of two), 7 (prime, so every
/// split of the 1000-row operand and the 9-column panels is uneven), and 16
/// (more devices than the operand has columns).
const DEVICE_COUNTS: [usize; 5] = [1, 2, 4, 7, 16];

fn check_across_devices(label: &str, plan: &Pipeline, a: &Matrix) {
    let reference = single_device_reference(plan, a);
    for devices in DEVICE_COUNTS {
        let pool = DevicePool::unlimited(devices);
        let run = pipelined_sketch(&pool, a, plan, &ExecutorOptions::default())
            .unwrap_or_else(|e| panic!("{label} failed on {devices} devices: {e}"));
        assert_bits_equal(
            &format!("{label} @ {devices} devices"),
            &run.result,
            &reference,
        );
    }
}

/// A 1000 x 9 operand: 1000 is divisible by neither 4, 7, 8 nor 14 shards, and 9
/// columns split unevenly across every pool of the grid.
fn odd_operand() -> Matrix {
    Matrix::random_gaussian(1000, 9, Layout::RowMajor, 21, 0)
}

#[test]
fn countsketch_is_bit_identical_across_device_counts() {
    let a = odd_operand();
    let plan = Pipeline::single(SketchSpec::countsketch(
        a.nrows(),
        EmbeddingDim::Square(2),
        7,
    ));
    check_across_devices("CountSketch", &plan, &a);
}

#[test]
fn gaussian_is_bit_identical_across_device_counts() {
    let a = odd_operand();
    let plan = Pipeline::single(SketchSpec::gaussian(a.nrows(), EmbeddingDim::Ratio(2), 5));
    check_across_devices("Gaussian", &plan, &a);
}

#[test]
fn srht_is_bit_identical_across_device_counts() {
    let a = odd_operand();
    let plan = Pipeline::single(SketchSpec::srht(a.nrows(), EmbeddingDim::Ratio(2), 3));
    check_across_devices("SRHT", &plan, &a);
}

#[test]
fn hash_countsketch_is_bit_identical_across_device_counts() {
    let a = odd_operand();
    let plan = Pipeline::single(SketchSpec::hash_countsketch(
        a.nrows(),
        EmbeddingDim::Exact(48),
        11,
    ));
    check_across_devices("HashCountSketch", &plan, &a);
}

#[test]
fn count_gauss_pipeline_is_bit_identical_across_device_counts() {
    let a = odd_operand();
    let plan = Pipeline::count_gauss(
        a.nrows(),
        EmbeddingDim::Square(2),
        EmbeddingDim::Ratio(2),
        13,
    );
    check_across_devices("Count-Gauss", &plan, &a);
}

/// A sparse 1000 x 9 operand with an irregular pattern (~2.5 nnz per row) built
/// from the dense odd operand, so the values are generic Gaussians.
fn odd_csr_operand() -> CsrMatrix {
    let dense = odd_operand();
    let mut coo = CooMatrix::new(dense.nrows(), dense.ncols());
    for i in 0..dense.nrows() {
        coo.push(i, i % 9, dense.get(i, i % 9));
        coo.push(i, (i * 5 + 2) % 9, dense.get(i, (i * 5 + 2) % 9));
        if i % 2 == 0 {
            coo.push(i, (i * 3 + 7) % 9, dense.get(i, (i * 3 + 7) % 9));
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn check_csr_across_devices(label: &str, plan: &Pipeline, a: &CsrMatrix) {
    let device = Device::unlimited();
    let reference = plan
        .build_for(&device, a.ncols())
        .expect("plan builds")
        .apply_operand(&device, Operand::Csr(a))
        .expect("plan applies to CSR");
    for devices in DEVICE_COUNTS {
        let pool = DevicePool::unlimited(devices);
        let run = pipelined_sketch(&pool, a, plan, &ExecutorOptions::default())
            .unwrap_or_else(|e| panic!("{label} failed on {devices} devices: {e}"));
        assert_bits_equal(
            &format!("{label}/CSR @ {devices} devices"),
            &run.result,
            &reference,
        );
    }
}

#[test]
fn csr_operands_are_bit_identical_across_device_counts() {
    let a = odd_csr_operand();
    let d = a.nrows();
    for (label, plan) in [
        (
            "CountSketch",
            Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7)),
        ),
        (
            "HashCountSketch",
            Pipeline::single(SketchSpec::hash_countsketch(d, EmbeddingDim::Exact(48), 11)),
        ),
        (
            "Gaussian",
            Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 5)),
        ),
        (
            "SRHT",
            Pipeline::single(SketchSpec::srht(d, EmbeddingDim::Ratio(2), 3)),
        ),
        (
            "Count-Gauss",
            Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 13),
        ),
    ] {
        check_csr_across_devices(label, &plan, &a);
    }
}

#[test]
fn csr_and_dense_operands_shard_to_the_same_schedule() {
    // The engine must not special-case sparsity in its scheduling: the same
    // plan over a CSR operand and its dense counterpart cuts identical shards.
    let csr = odd_csr_operand();
    let plan = Pipeline::single(SketchSpec::countsketch(
        csr.nrows(),
        EmbeddingDim::Exact(32),
        3,
    ));
    let dense = {
        let rows = csr.to_dense();
        Matrix::from_fn(csr.nrows(), csr.ncols(), Layout::RowMajor, |i, j| {
            rows[i][j]
        })
    };
    let pool = DevicePool::unlimited(4);
    let run_csr = pipelined_sketch(&pool, &csr, &plan, &ExecutorOptions::default()).unwrap();
    let pool2 = DevicePool::unlimited(4);
    let run_dense = pipelined_sketch(&pool2, &dense, &plan, &ExecutorOptions::default()).unwrap();
    assert_eq!(run_csr.schedules, run_dense.schedules);
    assert_bits_equal("CSR vs dense operand", &run_csr.result, &run_dense.result);
}

#[test]
fn uneven_shard_splits_never_change_the_bits() {
    // Prime row count and a shards-per-device sweep: every schedule is ragged.
    let a = Matrix::random_gaussian(997, 5, Layout::RowMajor, 8, 0);
    let specs = [
        SketchSpec::countsketch(997, EmbeddingDim::Square(2), 2),
        SketchSpec::gaussian(997, EmbeddingDim::Ratio(2), 4),
        SketchSpec::srht(997, EmbeddingDim::Ratio(2), 6),
    ];
    for spec in specs {
        let plan = Pipeline::single(spec.clone());
        let reference = single_device_reference(&plan, &a);
        for shards_per_device in [1usize, 2, 3, 5] {
            let pool = DevicePool::unlimited(3);
            let run = pipelined_sketch(
                &pool,
                &a,
                &plan,
                &ExecutorOptions::default().with_shards_per_device(shards_per_device),
            )
            .expect("executes");
            assert_bits_equal(
                &format!("{} spd={shards_per_device}", spec.kind.as_str()),
                &run.result,
                &reference,
            );
        }
    }
}

#[test]
fn column_major_operands_are_also_bit_identical() {
    // The CountSketch fold charges the uncoalesced-read penalty on column-major
    // input but must still produce the same bits.
    let a = Matrix::random_gaussian(640, 6, Layout::ColMajor, 15, 0);
    let plan = Pipeline::single(SketchSpec::countsketch(640, EmbeddingDim::Square(2), 9));
    check_across_devices("CountSketch/col-major", &plan, &a);
}

#[test]
fn timeline_reports_are_consistent_on_every_pool() {
    let a = odd_operand();
    let plan = Pipeline::count_gauss(
        a.nrows(),
        EmbeddingDim::Square(2),
        EmbeddingDim::Ratio(2),
        1,
    );
    for devices in DEVICE_COUNTS {
        let pool = DevicePool::unlimited(devices);
        let run = pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).unwrap();
        assert!(run.compute_only_seconds <= run.pipelined_seconds + 1e-15);
        assert!(run.pipelined_seconds <= run.serial_seconds + 1e-15);
        if devices >= 2 {
            assert!(
                run.pipelined_seconds < run.serial_seconds,
                "no overlap won on {devices} devices"
            );
        }
        let utils = run.utilizations();
        assert_eq!(utils.len(), devices);
        assert!(utils.iter().all(|&u| (0.0..=1.0 + 1e-12).contains(&u)));
        assert!(utils[0] > 0.0, "device 0 must have worked");
    }
}
