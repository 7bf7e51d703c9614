//! The CountSketch operator and its three application strategies.
//!
//! Definition 4.1: the CountSketch `S ∈ R^{k x d}` has exactly one `±1` per column, at a
//! uniformly random row.  Applying it to `A ∈ R^{d x n}` therefore adds or subtracts
//! each row of `A` into one row of `Y = S A` (equation (2) of the paper), which is what
//! **Algorithm 2** parallelises with one thread per input row and atomic adds on the
//! output:
//!
//! ```text
//! parallel for j = 1..d:
//!     atomicAdd(Y[r_j, :],  s_j ? A[j, :] : -A[j, :])
//! ```
//!
//! The *cost model* charges exactly that atomic kernel.  The host *execution*,
//! however, is the serial scatter in ascending input-row order, because atomic f64
//! adds have a scheduling-dependent fold order under the real thread pool and would
//! break the workspace's bit-exactness contract.  Streaming `A` front to back also
//! keeps the host kernel bandwidth-bound rather than latency-bound: the operand is
//! usually far larger than the `k x n` output it folds into.  Results are
//! bit-identical for any `RAYON_NUM_THREADS`.
//!
//! Three ways of applying the same operator are provided:
//!
//! * [`SketchOperator::apply_into`] / [`SketchOperator::apply_matrix`] — the paper's
//!   dedicated kernel (Algorithm 2), operand-generic (dense or CSR) and, through
//!   `apply_into`, allocation-free,
//! * [`CountSketch::apply_matrix_gather`] — an atomics-free ablation that first inverts
//!   the row map and then lets every *output* row gather its inputs,
//! * [`CountSketch::apply_matrix_spmm`] — the naive baseline: materialise `S` as a CSR
//!   sparse matrix and call the generic SpMM (the cuSPARSE path of Figures 2–4).
//!
//! [`HashCountSketch`] is the streaming variant of Section 8 (future work in the paper):
//! `r_j` and `s_j` are recomputed from a hash of `j` instead of being stored, trading a
//! little arithmetic for zero generation time and zero index storage.

use crate::error::Error;
use crate::operand::Operand;
use crate::traits::SketchOperator;
use sketch_gpu_sim::{Device, KernelCost};
use sketch_la::{Layout, Matrix, MatrixViewMut};
use sketch_rng::fill;
use sketch_sparse::{spmm, CooMatrix, CsrMatrix};
use std::ops::Range;

/// Extra read factor charged when the kernel must stream a column-major `A` row-wise
/// (uncoalesced reads); the row-major layout recommended by Section 6.1 avoids it.
const COL_MAJOR_READ_PENALTY: u64 = 2;

/// The explicit CountSketch: a stored row map `r` and sign vector `s`.
#[derive(Debug, Clone)]
pub struct CountSketch {
    d: usize,
    k: usize,
    rows: Vec<usize>,
    signs: Vec<bool>,
    generation_cost: KernelCost,
}

impl CountSketch {
    /// Generate a CountSketch `S ∈ R^{k x d}` from a seed.
    ///
    /// Only `d` uniform integers and `d` random signs are generated — the cheapness of
    /// this step relative to generating `k·d` Gaussians is half the paper's argument.
    pub fn generate(device: &Device, d: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0, "CountSketch output dimension must be positive");
        let rows = fill::uniform_index_vec(seed, 0, d, k);
        let signs = fill::rademacher_bool_vec(seed, 1, d);
        // Generation traffic: write d 4-byte integers and d 1-byte flags; a handful of
        // flops for the rejection sampling.
        let generation_cost = KernelCost::new(0, (d as u64) * 5, d as u64, 1);
        device.record(generation_cost);
        Self {
            d,
            k,
            rows,
            signs,
            generation_cost,
        }
    }

    /// Construct from explicit row map and signs (used by tests and the distributed
    /// driver, which carves one big CountSketch into per-process pieces).
    pub fn from_parts(d: usize, k: usize, rows: Vec<usize>, signs: Vec<bool>) -> Self {
        assert_eq!(rows.len(), d, "need one target row per input row");
        assert_eq!(signs.len(), d, "need one sign per input row");
        assert!(rows.iter().all(|&r| r < k), "row map entry out of range");
        Self {
            d,
            k,
            rows,
            signs,
            generation_cost: KernelCost::zero(),
        }
    }

    /// The stored row map (`r_j` values).
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The stored signs (`true` = `+1`).
    pub fn signs(&self) -> &[bool] {
        &self.signs
    }

    /// Modelled cost of one Algorithm-2 style application of a CountSketch
    /// with `d_rows` input rows and `k` output rows to an operand with `ncols`
    /// columns.
    ///
    /// Row slices of one global sketch ([`CountSketch::accumulate_rows`], the
    /// executor's row shards) charge exactly this model, as the single-device
    /// kernel does, so the formula lives in one place.
    pub fn apply_cost(d_rows: usize, k: usize, ncols: usize, col_major_input: bool) -> KernelCost {
        let d = d_rows as u64;
        let n = ncols as u64;
        let k = k as u64;
        let read_a = KernelCost::f64_bytes(d * n)
            * if col_major_input {
                COL_MAJOR_READ_PENALTY
            } else {
                1
            };
        // Atomic add = read-modify-write on the output row, plus the initial zeroing of
        // Y and the index/sign reads.
        KernelCost::new(
            read_a + KernelCost::f64_bytes(d * n) + d * 5,
            KernelCost::f64_bytes(d * n) + KernelCost::f64_bytes(k * n),
            d * n,
            2,
        )
    }

    /// Modelled cost of scattering a CSR operand with `nnz` non-zeros through an
    /// Algorithm-2 style kernel into a `k x n` output.
    pub fn apply_cost_csr(d_rows: usize, k: usize, ncols: usize, nnz: usize) -> KernelCost {
        let d = d_rows as u64;
        let n = ncols as u64;
        let k = k as u64;
        let nnz = nnz as u64;
        let idx_bytes = (std::mem::size_of::<usize>() as u64) * (nnz + d + 1);
        KernelCost::new(
            KernelCost::f64_bytes(nnz) + idx_bytes + d * 5,
            KernelCost::f64_bytes(nnz) + KernelCost::f64_bytes(k * n),
            nnz,
            2,
        )
    }

    /// Add the contributions of input rows `rows` of the whole operand `a` into
    /// `out` — `out += S[:, rows] · A[rows, :]` — and return the modelled cost of
    /// that slice's Algorithm-2 scatter (unrecorded: the caller charges it).
    ///
    /// Every output cell folds its contributions in ascending input-row order, so
    /// contiguous ranges added in ascending order into one zeroed accumulator
    /// reproduce [`SketchOperator::apply_into`] bit for bit.  This is the
    /// row-shard kernel of the multi-device executor; `apply_into` itself is
    /// "zero, then add rows `0..d`".
    ///
    /// # Panics
    /// Panics if `rows` reaches past the operand or the sketch's input
    /// dimension, or if `out` is not `k x a.ncols()`.
    pub fn accumulate_rows(
        &self,
        a: Operand<'_>,
        rows: Range<usize>,
        out: &mut MatrixViewMut<'_>,
    ) -> KernelCost {
        assert!(
            out.nrows() == self.k && out.ncols() == a.ncols(),
            "accumulator must be {}x{}",
            self.k,
            a.ncols()
        );
        let (targets, signs) = (&self.rows, &self.signs);
        scatter_rows_into(rows.clone(), out, a, |j| {
            (targets[j], if signs[j] { 1.0 } else { -1.0 })
        });
        let (d, k) = (rows.len(), self.k);
        match a {
            Operand::Dense(m) => Self::apply_cost(d, k, m.ncols(), m.layout() == Layout::ColMajor),
            Operand::Csr(s) => Self::apply_cost_csr(d, k, s.ncols(), s.slice_rows(rows).nnz()),
            Operand::CsrRows(v) => Self::apply_cost_csr(d, k, v.ncols(), v.slice_rows(rows).nnz()),
        }
    }

    /// Atomics-free ablation: invert the row map once, then let each *output* row gather
    /// and sum the input rows assigned to it.
    ///
    /// This trades the atomic RMW traffic for an extra index pass and a less balanced
    /// work distribution; `paper ablations` compares it against Algorithm 2.
    pub fn apply_matrix_gather(&self, device: &Device, a: &Matrix) -> Result<Matrix, Error> {
        self.check_input_dim(a.nrows())?;
        let n = a.ncols();
        let _reservation = device.try_reserve(KernelCost::f64_bytes((self.k * n) as u64))?;

        let (counts, members) = invert_row_map(self.k, &self.rows);
        let mut y = Matrix::zeros_with_layout(self.k, n, Layout::RowMajor);
        {
            use rayon::prelude::*;
            let data = y.as_mut_slice();
            let signs = &self.signs;
            data.par_chunks_mut(n.max(1))
                .enumerate()
                .for_each(|(m, out_row)| {
                    for &j in &members[counts[m]..counts[m + 1]] {
                        let sign = if signs[j] { 1.0 } else { -1.0 };
                        for (c, slot) in out_row.iter_mut().enumerate() {
                            *slot += sign * a.get(j, c);
                        }
                    }
                });
        }

        let d = self.d as u64;
        let n64 = n as u64;
        let k = self.k as u64;
        device.record(KernelCost::new(
            // Gathered reads of A (uncoalesced) + index arrays read twice.
            KernelCost::f64_bytes(d * n64) * COL_MAJOR_READ_PENALTY + 2 * d * 13,
            KernelCost::f64_bytes(k * n64) + d * 8,
            d * n64,
            3,
        ));
        Ok(y)
    }

    /// The naive baseline: materialise `S` as CSR and multiply with the generic SpMM.
    pub fn apply_matrix_spmm(&self, device: &Device, a: &Matrix) -> Result<Matrix, Error> {
        self.check_input_dim(a.nrows())?;
        let _reservation =
            device.try_reserve(KernelCost::f64_bytes((self.k * a.ncols()) as u64))?;
        let s = self.to_sparse();
        Ok(spmm(device, &s, a))
    }

    /// Materialise the operator as a `k x d` CSR matrix with one `±1` per column.
    pub fn to_sparse(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.k, self.d, self.d);
        for (j, (&r, &s)) in self.rows.iter().zip(self.signs.iter()).enumerate() {
            coo.push(r, j, if s { 1.0 } else { -1.0 });
        }
        CsrMatrix::from_coo(&coo)
    }
}

/// Invert a CountSketch row map by counting sort: returns `(counts, members)`
/// where `members[counts[r]..counts[r + 1]]` lists, **in ascending input-row
/// order**, every `j` with `target(j) == r`.
///
/// The ascending order inside each bucket is load-bearing: the gather ablation
/// folds each output cell's contributions in exactly the order the serial
/// scatter would, so its results are bit-for-bit identical for any thread
/// count.
fn invert_row_map(k: usize, targets: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut counts = vec![0usize; k + 1];
    for &r in targets {
        counts[r + 1] += 1;
    }
    for i in 0..k {
        counts[i + 1] += counts[i];
    }
    let mut members = vec![0usize; targets.len()];
    let mut cursor = counts.clone();
    for (j, &r) in targets.iter().enumerate() {
        members[cursor[r]] = j;
        cursor[r] += 1;
    }
    (counts, members)
}

/// Shared Algorithm-2 scatter used by both the explicit and the hash-based operator:
/// add `sign(j) * A[j, :]` into row `row_of(j)` of `out` for every `j` in `rows`.
/// `out` is an accumulator — callers zero it first when they want `S A`.
///
/// On the GPU this is the atomic scatter of Algorithm 2 (and the cost model
/// charges it as such); on the host it is the serial scatter in ascending `j`,
/// which streams `A` front to back and keeps only the small `k x n` output
/// cache-resident.  Every output cell therefore folds its contributions in
/// ascending input-row order, so the result is bit-for-bit identical for any
/// thread count, and for any split of `0..d` into contiguous ranges added in
/// ascending order.
fn scatter_rows_into(
    rows: Range<usize>,
    out: &mut MatrixViewMut<'_>,
    a: Operand<'_>,
    target_of: impl Fn(usize) -> (usize, f64),
) {
    let n = a.ncols();
    match a {
        Operand::Dense(m) if m.layout() == Layout::RowMajor && out.layout() == Layout::RowMajor => {
            let (a_data, data) = (m.as_slice(), out.as_mut_slice());
            for j in rows {
                let (target, sign) = target_of(j);
                let out_row = &mut data[target * n..(target + 1) * n];
                for (slot, &v) in out_row.iter_mut().zip(&a_data[j * n..(j + 1) * n]) {
                    *slot += sign * v;
                }
            }
        }
        Operand::Dense(m) => {
            for j in rows {
                let (target, sign) = target_of(j);
                for c in 0..n {
                    out.add_to(target, c, sign * m.get(j, c));
                }
            }
        }
        Operand::Csr(s) => {
            for j in rows {
                let (target, sign) = target_of(j);
                for (c, v) in s.row(j) {
                    out.add_to(target, c, sign * v);
                }
            }
        }
        Operand::CsrRows(v) => {
            for j in rows {
                let (target, sign) = target_of(j);
                for (c, val) in v.row(j) {
                    out.add_to(target, c, sign * val);
                }
            }
        }
    }
}

impl SketchOperator for CountSketch {
    fn input_dim(&self) -> usize {
        self.d
    }

    fn output_dim(&self) -> usize {
        self.k
    }

    fn name(&self) -> &'static str {
        "CountSketch (Alg 2)"
    }

    /// Apply via **Algorithm 2**: modelled as one parallel task per input row with
    /// atomic adds, executed on the host as a deterministic ascending-row scatter
    /// into the caller-owned output (see the module docs).
    ///
    /// Dense `A` should be row-major for coalesced reads (Section 6.1); a column-major
    /// operand is accepted but charged the uncoalesced-read penalty.  CSR operands are
    /// scattered non-zero by non-zero.  No intermediate output matrix is allocated.
    fn apply_into(
        &self,
        device: &Device,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        self.check_operand(&a)?;
        self.check_output(out, a.ncols())?;
        out.fill(0.0);
        device.record(self.accumulate_rows(a, 0..self.d, out));
        Ok(())
    }

    /// Apply to a single vector (the right-hand side sketch of Algorithm 1).
    fn apply_vector(&self, device: &Device, x: &[f64]) -> Result<Vec<f64>, Error> {
        self.check_input_dim(x.len())?;
        let mut y = vec![0.0; self.k];
        for ((&v, &r), &sign) in x.iter().zip(&self.rows).zip(&self.signs) {
            y[r] += if sign { v } else { -v };
        }
        let d = self.d as u64;
        device.record(KernelCost::new(
            KernelCost::f64_bytes(2 * d) + d * 5,
            KernelCost::f64_bytes(d + self.k as u64),
            d,
            2,
        ));
        Ok(y)
    }

    fn generation_cost(&self) -> KernelCost {
        self.generation_cost
    }

    fn algorithmic_cost(&self, ncols: usize) -> KernelCost {
        let d = self.d as u64;
        let n = ncols as u64;
        // Table 1: dn arithmetic, dn reads and dn writes.
        KernelCost::new(
            KernelCost::f64_bytes(d * n),
            KernelCost::f64_bytes(d * n),
            d * n,
            1,
        )
    }
}

/// The streaming, hash-based CountSketch of Section 8: nothing is stored, `r_j` and
/// `s_j` are recomputed from a hash whenever row `j` is touched.
#[derive(Debug, Clone, Copy)]
pub struct HashCountSketch {
    d: usize,
    k: usize,
    seed: u64,
}

impl HashCountSketch {
    /// Create the operator; no generation work is needed.
    pub fn new(d: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0, "output dimension must be positive");
        Self { d, k, seed }
    }

    /// Hash of row `j`: returns `(target_row, sign)`.
    #[inline]
    pub fn hash(&self, j: usize) -> (usize, f64) {
        let mut x = (j as u64).wrapping_add(self.seed.rotate_left(17));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let row = (x % self.k as u64) as usize;
        let sign = if (x >> 63) & 1 == 1 { 1.0 } else { -1.0 };
        (row, sign)
    }

    /// Materialise the equivalent explicit [`CountSketch`] (for testing equivalence and
    /// for reusing the explicit kernels).
    pub fn to_explicit(&self) -> CountSketch {
        let mut rows = Vec::with_capacity(self.d);
        let mut signs = Vec::with_capacity(self.d);
        for j in 0..self.d {
            let (r, s) = self.hash(j);
            rows.push(r);
            signs.push(s > 0.0);
        }
        CountSketch::from_parts(self.d, self.k, rows, signs)
    }
}

impl SketchOperator for HashCountSketch {
    fn input_dim(&self) -> usize {
        self.d
    }

    fn output_dim(&self) -> usize {
        self.k
    }

    fn name(&self) -> &'static str {
        "CountSketch (hash/streaming)"
    }

    fn apply_into(
        &self,
        device: &Device,
        a: Operand<'_>,
        out: &mut MatrixViewMut<'_>,
    ) -> Result<(), Error> {
        self.check_operand(&a)?;
        self.check_output(out, a.ncols())?;
        out.fill(0.0);
        scatter_rows_into(0..self.d, out, a, |j| self.hash(j));
        let d = self.d as u64;
        let k = self.k as u64;
        match a {
            Operand::Dense(m) => {
                let n64 = m.ncols() as u64;
                device.record(KernelCost::new(
                    KernelCost::f64_bytes(2 * d * n64),
                    KernelCost::f64_bytes(d * n64) + KernelCost::f64_bytes(k * n64),
                    d * n64 + 6 * d,
                    2,
                ));
            }
            Operand::Csr(s) => {
                let nnz = s.nnz() as u64;
                let n64 = s.ncols() as u64;
                let idx_bytes = (std::mem::size_of::<usize>() as u64) * (nnz + d + 1);
                device.record(KernelCost::new(
                    KernelCost::f64_bytes(nnz) + idx_bytes,
                    KernelCost::f64_bytes(nnz) + KernelCost::f64_bytes(k * n64),
                    nnz + 6 * d,
                    2,
                ));
            }
            Operand::CsrRows(v) => {
                let nnz = v.nnz() as u64;
                let n64 = v.ncols() as u64;
                let idx_bytes = (std::mem::size_of::<usize>() as u64) * (nnz + d + 1);
                device.record(KernelCost::new(
                    KernelCost::f64_bytes(nnz) + idx_bytes,
                    KernelCost::f64_bytes(nnz) + KernelCost::f64_bytes(k * n64),
                    nnz + 6 * d,
                    2,
                ));
            }
        }
        Ok(())
    }

    fn apply_vector(&self, device: &Device, x: &[f64]) -> Result<Vec<f64>, Error> {
        self.check_input_dim(x.len())?;
        let mut y = vec![0.0; self.k];
        for (j, &v) in x.iter().enumerate() {
            let (r, sign) = self.hash(j);
            y[r] += sign * v;
        }
        let d = self.d as u64;
        device.record(KernelCost::new(
            KernelCost::f64_bytes(2 * d),
            KernelCost::f64_bytes(d + self.k as u64),
            d + 6 * d,
            2,
        ));
        Ok(y)
    }

    fn generation_cost(&self) -> KernelCost {
        KernelCost::zero()
    }

    fn algorithmic_cost(&self, ncols: usize) -> KernelCost {
        let d = self.d as u64;
        let n = ncols as u64;
        KernelCost::new(
            KernelCost::f64_bytes(d * n),
            KernelCost::f64_bytes(d * n),
            d * n,
            1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn device() -> Device {
        Device::unlimited()
    }

    /// Dense reference implementation of `S A` from the stored row map and signs.
    fn reference_apply(cs: &CountSketch, a: &Matrix) -> Matrix {
        let n = a.ncols();
        let mut y = Matrix::zeros_with_layout(cs.output_dim(), n, Layout::RowMajor);
        for j in 0..cs.input_dim() {
            let sign = if cs.signs()[j] { 1.0 } else { -1.0 };
            for c in 0..n {
                y.add_to(cs.rows()[j], c, sign * a.get(j, c));
            }
        }
        y
    }

    /// CSR copy of a dense matrix (every entry stored explicitly).
    fn csr_of(a: &Matrix) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nrows() * a.ncols());
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                let v = a.get(i, j);
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn algorithm2_matches_dense_reference() {
        let d = device();
        let a = Matrix::random_gaussian(300, 5, Layout::RowMajor, 1, 0);
        let cs = CountSketch::generate(&d, 300, 32, 9);
        let y = cs.apply_matrix(&d, &a).unwrap();
        let expect = reference_apply(&cs, &a);
        assert!(y.max_abs_diff(&expect).unwrap() < 1e-12);
    }

    #[test]
    fn row_major_and_col_major_inputs_agree() {
        let d = device();
        let a_rm = Matrix::random_gaussian(200, 4, Layout::RowMajor, 2, 0);
        let a_cm = a_rm.to_layout(&d, Layout::ColMajor);
        let cs = CountSketch::generate(&d, 200, 16, 3);
        let y1 = cs.apply_matrix(&d, &a_rm).unwrap();
        let y2 = cs.apply_matrix(&d, &a_cm).unwrap();
        assert!(y1.max_abs_diff(&y2).unwrap() < 1e-12);
    }

    #[test]
    fn apply_into_reused_buffer_is_bit_identical_to_apply_matrix() {
        let d = device();
        let a = Matrix::random_gaussian(250, 6, Layout::RowMajor, 4, 0);
        let cs = CountSketch::generate(&d, 250, 40, 5);
        let y = cs.apply_matrix(&d, &a).unwrap();
        // Dirty buffer: apply_into must overwrite every element.
        let mut out = Matrix::from_fn(40, 6, Layout::RowMajor, |_, _| f64::NAN);
        cs.apply_into(&d, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(out.as_slice(), y.as_slice());
    }

    #[test]
    fn ascending_row_ranges_accumulate_to_apply_into_bit_for_bit() {
        let d = device();
        let a = Matrix::random_gaussian(301, 5, Layout::RowMajor, 12, 0);
        let a_cm = a.to_layout(&d, Layout::ColMajor);
        let sparse = csr_of(&a);
        let cs = CountSketch::generate(&d, 301, 24, 13);
        for operand in [
            Operand::Dense(&a),
            Operand::Dense(&a_cm),
            Operand::Csr(&sparse),
            Operand::CsrRows(sparse.slice_rows(0..301)),
        ] {
            for layout in [Layout::RowMajor, Layout::ColMajor] {
                let mut whole = Matrix::zeros_with_layout(24, 5, layout);
                let (applied, recorded) = d
                    .tracker()
                    .measure(|| cs.apply_into(&d, operand, &mut whole.view_mut()));
                applied.unwrap();
                let mut acc = Matrix::zeros_with_layout(24, 5, layout);
                for range in [0..100, 100..100, 100..101, 101..301] {
                    cs.accumulate_rows(operand, range, &mut acc.view_mut());
                }
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&acc),
                    bits(&whole),
                    "{} into {layout:?}",
                    operand.describe()
                );
                // The whole range costs exactly what apply_into records.
                let mut scratch = Matrix::zeros_with_layout(24, 5, layout);
                assert_eq!(
                    cs.accumulate_rows(operand, 0..301, &mut scratch.view_mut()),
                    recorded
                );
            }
        }
    }

    #[test]
    fn csr_operand_matches_dense_operand() {
        let d = device();
        let a = Matrix::random_gaussian(120, 4, Layout::RowMajor, 6, 0);
        let sparse = csr_of(&a);
        let cs = CountSketch::generate(&d, 120, 24, 7);
        let y_dense = cs.apply_matrix(&d, &a).unwrap();
        let y_sparse = cs.apply_operand(&d, Operand::Csr(&sparse)).unwrap();
        assert!(y_dense.max_abs_diff(&y_sparse).unwrap() < 1e-12);
    }

    #[test]
    fn apply_into_performs_zero_device_allocations() {
        let d = device();
        let a = Matrix::random_gaussian(200, 4, Layout::RowMajor, 3, 0);
        let cs = CountSketch::generate(&d, 200, 16, 1);
        let mut out = Matrix::zeros_with_layout(16, 4, Layout::RowMajor);
        let before = d.memory().allocations();
        cs.apply_into(&d, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(
            d.memory().allocations(),
            before,
            "apply_into must not reserve device memory"
        );
        // The allocating wrapper reserves the output buffer.
        let _ = cs.apply_matrix(&d, &a).unwrap();
        assert!(d.memory().allocations() > before);

        // A disabled recorder must keep the hot path allocation-free too: the
        // launch site reads one relaxed flag and does nothing else.
        d.set_recorder(Some(std::sync::Arc::new(sketch_gpu_sim::obs::NoopRecorder)));
        let with_noop = d.memory().allocations();
        cs.apply_into(&d, Operand::Dense(&a), &mut out.view_mut())
            .unwrap();
        assert_eq!(
            d.memory().allocations(),
            with_noop,
            "a NoopRecorder must not change the zero-allocation certification"
        );
    }

    #[test]
    fn gather_and_spmm_variants_match_algorithm2() {
        let d = device();
        let a = Matrix::random_gaussian(250, 6, Layout::RowMajor, 4, 0);
        let cs = CountSketch::generate(&d, 250, 40, 5);
        let y_atomic = cs.apply_matrix(&d, &a).unwrap();
        let y_gather = cs.apply_matrix_gather(&d, &a).unwrap();
        let y_spmm = cs.apply_matrix_spmm(&d, &a).unwrap();
        assert!(y_atomic.max_abs_diff(&y_gather).unwrap() < 1e-12);
        assert!(y_atomic.max_abs_diff(&y_spmm).unwrap() < 1e-12);
    }

    #[test]
    fn vector_apply_matches_matrix_apply_on_single_column() {
        let d = device();
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.1).sin()).collect();
        let a = Matrix::from_fn(150, 1, Layout::RowMajor, |i, _| x[i]);
        let cs = CountSketch::generate(&d, 150, 20, 6);
        let yv = cs.apply_vector(&d, &x).unwrap();
        let ym = cs.apply_matrix(&d, &a).unwrap();
        for i in 0..20 {
            assert!((yv[i] - ym.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_materialisation_has_one_entry_per_column() {
        let d = device();
        let cs = CountSketch::generate(&d, 100, 16, 7);
        let s = cs.to_sparse();
        assert_eq!(s.nrows(), 16);
        assert_eq!(s.ncols(), 100);
        assert_eq!(s.nnz(), 100);
        let dense = s.to_dense();
        for j in 0..100 {
            let nonzeros: Vec<f64> = (0..16).map(|i| dense[i][j]).filter(|&v| v != 0.0).collect();
            assert_eq!(
                nonzeros.len(),
                1,
                "column {j} must have exactly one nonzero"
            );
            assert!(nonzeros[0] == 1.0 || nonzeros[0] == -1.0);
        }
    }

    #[test]
    fn sketch_is_linear() {
        let d = device();
        let a = Matrix::random_gaussian(120, 3, Layout::RowMajor, 8, 0);
        let b = Matrix::random_gaussian(120, 3, Layout::RowMajor, 8, 1);
        let cs = CountSketch::generate(&d, 120, 24, 9);
        // S(A + 2B) == SA + 2 SB
        let apb = Matrix::from_fn(120, 3, Layout::RowMajor, |i, j| {
            a.get(i, j) + 2.0 * b.get(i, j)
        });
        let left = cs.apply_matrix(&d, &apb).unwrap();
        let sa = cs.apply_matrix(&d, &a).unwrap();
        let sb = cs.apply_matrix(&d, &b).unwrap();
        let right = Matrix::from_fn(24, 3, Layout::RowMajor, |i, j| {
            sa.get(i, j) + 2.0 * sb.get(i, j)
        });
        assert!(left.max_abs_diff(&right).unwrap() < 1e-10);
    }

    #[test]
    fn preserves_norms_in_expectation_band() {
        // With k = 8 n^2 the distortion should comfortably be below 0.5 for one vector.
        let d = device();
        let dim = 4096;
        let x: Vec<f64> = fill::gaussian_vec(3, 3, dim);
        let cs = CountSketch::generate(&d, dim, 512, 11);
        let y = cs.apply_vector(&d, &x).unwrap();
        let nx: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let ny: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((ny / nx - 1.0).abs() < 0.5, "distortion {}", ny / nx - 1.0);
    }

    #[test]
    fn dimension_mismatch_is_rejected_with_context() {
        let d = device();
        let cs = CountSketch::generate(&d, 50, 8, 1);
        let a = Matrix::zeros_with_layout(40, 2, Layout::RowMajor);
        let err = cs.apply_matrix(&d, &a).unwrap_err();
        match &err {
            Error::DimensionMismatch {
                op,
                expected,
                found,
                operand,
            } => {
                assert_eq!(op, "CountSketch (Alg 2)");
                assert_eq!((*expected, *found), (50, 40));
                assert!(operand.contains("dense 40x2"), "operand was {operand}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The rendered message names the operator and the operand shape.
        let msg = err.to_string();
        assert!(msg.contains("CountSketch (Alg 2)") && msg.contains("dense 40x2"));
        assert!(cs.apply_vector(&d, &[0.0; 49]).is_err());
    }

    #[test]
    fn oom_is_reported_when_output_does_not_fit() {
        use sketch_gpu_sim::DeviceSpec;
        let mut spec = DeviceSpec::h100();
        spec.memory_bytes = 1024; // tiny device
        let d = Device::new(spec);
        let cs = CountSketch::generate(&d, 64, 1024, 1);
        let a = Matrix::zeros_with_layout(64, 8, Layout::RowMajor);
        assert!(matches!(
            cs.apply_matrix(&d, &a),
            Err(Error::WouldExceedMemory(_))
        ));
    }

    #[test]
    fn generation_cost_is_tiny_compared_to_gaussian() {
        let d = device();
        let cs = CountSketch::generate(&d, 10_000, 128, 1);
        let gen = cs.generation_cost();
        // 5 bytes per input row, no reads.
        assert_eq!(gen.bytes_written, 50_000);
        assert_eq!(gen.bytes_read, 0);
    }

    #[test]
    fn algorithmic_cost_matches_table1() {
        let d = device();
        let cs = CountSketch::generate(&d, 1000, 32, 1);
        let c = cs.algorithmic_cost(16);
        assert_eq!(c.flops, 16_000);
        assert_eq!(c.bytes_read, 8 * 16_000);
        assert_eq!(c.bytes_written, 8 * 16_000);
    }

    #[test]
    fn from_parts_validates_inputs() {
        let cs = CountSketch::from_parts(3, 4, vec![0, 3, 1], vec![true, false, true]);
        assert_eq!(cs.input_dim(), 3);
        assert_eq!(cs.output_dim(), 4);
    }

    #[test]
    #[should_panic(expected = "row map entry out of range")]
    fn from_parts_rejects_out_of_range_rows() {
        CountSketch::from_parts(2, 2, vec![0, 5], vec![true, true]);
    }

    #[test]
    fn hash_variant_matches_its_explicit_materialisation() {
        let d = device();
        let h = HashCountSketch::new(200, 32, 77);
        let explicit = h.to_explicit();
        let a = Matrix::random_gaussian(200, 4, Layout::RowMajor, 13, 0);
        let y_hash = h.apply_matrix(&d, &a).unwrap();
        let y_explicit = explicit.apply_matrix(&d, &a).unwrap();
        assert!(y_hash.max_abs_diff(&y_explicit).unwrap() < 1e-12);

        let sparse = csr_of(&a);
        let y_hash_csr = h.apply_operand(&d, Operand::Csr(&sparse)).unwrap();
        assert!(y_hash_csr.max_abs_diff(&y_explicit).unwrap() < 1e-12);

        let x: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let v_hash = h.apply_vector(&d, &x).unwrap();
        let v_explicit = explicit.apply_vector(&d, &x).unwrap();
        for (a, b) in v_hash.iter().zip(&v_explicit) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn hash_variant_has_zero_generation_cost_and_signs_both_occur() {
        let h = HashCountSketch::new(1000, 64, 5);
        assert_eq!(h.generation_cost(), KernelCost::zero());
        assert_eq!(h.name(), "CountSketch (hash/streaming)");
        let mut plus = 0;
        let mut minus = 0;
        for j in 0..1000 {
            let (r, s) = h.hash(j);
            assert!(r < 64);
            if s > 0.0 {
                plus += 1;
            } else {
                minus += 1;
            }
        }
        assert!(
            plus > 300 && minus > 300,
            "signs unbalanced: {plus}/{minus}"
        );
    }

    #[test]
    fn hash_variant_rejects_bad_dimensions() {
        let d = device();
        let h = HashCountSketch::new(10, 4, 1);
        assert!(h.apply_vector(&d, &[0.0; 9]).is_err());
        let a = Matrix::zeros_with_layout(11, 2, Layout::RowMajor);
        assert!(h.apply_matrix(&d, &a).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_all_variants_agree(d_dim in 10usize..200, n in 1usize..6, k in 2usize..32, seed in 0u64..500) {
            let dev = device();
            let a = Matrix::random_gaussian(d_dim, n, Layout::RowMajor, seed, 0);
            let cs = CountSketch::generate(&dev, d_dim, k, seed + 1);
            let y1 = cs.apply_matrix(&dev, &a).unwrap();
            let y2 = cs.apply_matrix_gather(&dev, &a).unwrap();
            let y3 = cs.apply_matrix_spmm(&dev, &a).unwrap();
            prop_assert!(y1.max_abs_diff(&y2).unwrap() < 1e-10);
            prop_assert!(y1.max_abs_diff(&y3).unwrap() < 1e-10);
        }

        #[test]
        fn prop_column_sums_are_preserved_up_to_sign(d_dim in 10usize..100, seed in 0u64..500) {
            // Summing all rows of Y equals the signed sum of all rows of A.
            let dev = device();
            let a = Matrix::random_gaussian(d_dim, 3, Layout::RowMajor, seed, 0);
            let cs = CountSketch::generate(&dev, d_dim, 16, seed);
            let y = cs.apply_matrix(&dev, &a).unwrap();
            for c in 0..3 {
                let sum_y: f64 = (0..16).map(|i| y.get(i, c)).sum();
                let signed_sum_a: f64 = (0..d_dim)
                    .map(|j| if cs.signs()[j] { a.get(j, c) } else { -a.get(j, c) })
                    .sum();
                prop_assert!((sum_y - signed_sum_a).abs() < 1e-9);
            }
        }
    }
}
