//! Integration test for `sketch-dist`'s communication model: a CountSketch run
//! through the pipelined executor on `P` devices allreduces its `k x n` result,
//! and the modelled volume must scale as `2 (P-1) · k · n` words.
//!
//! Bitwise equality across device counts is pinned by
//! `multi_device_determinism.rs`; the Section 7 comparison of the three sketches
//! is a cost model, pinned in `sketch-bench`'s `analytic` tests.

use gpu_countsketch::prelude::*;

const D: usize = 1 << 12;
const N: usize = 16;
const SEED: u64 = 2025;

#[test]
fn comm_volume_scales_linearly_in_processes_minus_one() {
    let a = Matrix::random_gaussian(D, N, Layout::RowMajor, SEED, 1);
    let k = 2 * N * N;
    let plan = Pipeline::single(SketchSpec::countsketch(D, EmbeddingDim::Exact(k), SEED));

    let words_at = |p: usize| {
        let pool = DevicePool::unlimited(p);
        let run =
            pipelined_sketch(&pool, &a, &plan, &ExecutorOptions::default()).expect("pipelined");
        assert_eq!(run.comm.len(), 1, "one stage, one collective");
        run.comm[0].total_words()
    };

    // P = 1 is a no-op allreduce.
    assert_eq!(words_at(1), 0);
    // Ring allreduce of a k x n matrix: 2 (P-1) k n words in total.
    let expected = |p: u64| 2 * (p - 1) * (k as u64) * (N as u64);
    for p in [2u64, 4, 8, 16] {
        assert_eq!(words_at(p as usize), expected(p), "P = {p}");
    }
}
