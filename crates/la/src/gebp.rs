//! GEBP-style cache-blocked matrix-multiply infrastructure (GotoBLAS/BLIS shape).
//!
//! The dense level-3 kernels in [`crate::blas3`] are all driven by the same three
//! ingredients defined here:
//!
//! * **Packing** — `op(A)` is repacked into row panels of [`MR`] rows (`pack_a_panels`)
//!   and `op(B)` into column panels of [`NR`] columns (`pack_b_panels`), both laid out
//!   k-major so the microkernel streams them with unit stride.  Panels are zero-padded to
//!   full [`MR`]/[`NR`] multiples, which removes every edge case from the hot loop
//!   (padded lanes compute garbage that is simply never read back).
//! * **Microkernel** — [`microkernel`] keeps an `MR x NR` tile of accumulators in
//!   registers and performs one rank-1 update per `k` step.  Each accumulator is an
//!   independent dependence chain, so instruction-level parallelism comes from the tile
//!   width, not from splitting any single sum.
//! * **Blocking** — [`blocked_sums`] drives the microkernel over `KC x NC` cache blocks
//!   ([`BlockSizes`]): a `KC x NC` panel of packed B stays resident in L2 while row
//!   panels of packed A stream through it, which is what turns the naive kernel's
//!   `O(n/NC)`-fold re-reading of A into a handful of passes.
//!
//! # The accumulation-order contract
//!
//! Every output element is accumulated **in strictly ascending `k` order through a
//! single accumulator chain**.  Between `KC` blocks the partial sum is parked in the
//! f64 accumulation buffer and reloaded — an exact store/load, not a re-association —
//! so the floating-point result is a pure function of the problem shape `(m, k, n)`:
//!
//! * independent of `KC`/`NC` block-size tuning (partials are never regrouped),
//! * independent of `MR`/`NR` (each element owns its accumulator; tiles only decide
//!   which elements are *adjacent*, never how any one sum is ordered),
//! * independent of thread count (parallel tasks own disjoint row panels, and the rayon
//!   shim derives task boundaries from shape alone).
//!
//! This is what keeps every bitwise determinism gate in the workspace (1-vs-N threads,
//! 1/2/4/7-device sharding, fault recovery, tenant isolation) green on top of a tuned
//! kernel: tuning moves data, never arithmetic.
//!
//! # SIMD tier
//!
//! The row-panel sweep ([`blocked_sums`]' inner loop over one `MR`-row panel) is
//! compiled twice: once for the portable baseline and once under
//! `#[target_feature(enable = "avx2")]`.  [`simd_tier`] picks one per call from
//! `is_x86_feature_detected!("avx2")`; nothing else (no env var, no cargo feature)
//! selects it.  Both copies inline the same [`microkernel`], and the AVX2 copy only
//! lets the compiler hold the `MR x NR` accumulator tile in 256-bit registers and
//! update four accumulators per instruction.  Each lane is still one element's own
//! accumulator, and rustc never contracts `a * b + c` into a fused multiply-add (FMA is
//! a separate target feature, not enabled here), so every accumulator sees the same
//! ascending-`k` chain of IEEE multiplies and adds on both tiers: the AVX2 tier is
//! bit-identical to the scalar one, and results stay reproducible across hosts with
//! and without AVX2.

use crate::matrix::{Layout, Matrix, Op};
use rayon::prelude::*;

/// Microkernel tile height (rows of C per register tile).
pub const MR: usize = 8;

/// Microkernel tile width (columns of C per register tile).
pub const NR: usize = 4;

/// The instruction set the GEBP row-panel sweep runs on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// Portable baseline code generation.
    Scalar,
    /// The sweep compiled with AVX2 enabled (x86-64 hosts that report AVX2).
    Avx2,
}

impl SimdTier {
    /// Stable lower-case name, used in benchmark reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// The tier [`blocked_sums`] dispatches to on this host: AVX2 when the CPU reports it,
/// the scalar build otherwise.
pub fn simd_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdTier::Avx2;
    }
    SimdTier::Scalar
}

/// Cache block sizes for the packed panels.
///
/// Changing these moves cache boundaries only; by the accumulation-order contract the
/// computed bits are identical for every setting (pinned by proptest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Depth (`k` extent) of one packed block; `MR x KC` A panels and the `KC x NC`
    /// B block bound the inner loop's working set.
    pub kc: usize,
    /// Width (`n` extent) of one packed B block; sized so `KC x NC` doubles sit in L2.
    pub nc: usize,
}

impl Default for BlockSizes {
    fn default() -> Self {
        // 8 x 256 x 8 B = 16 KiB per A panel (L1), 256 x 512 x 8 B = 1 MiB of packed B
        // (half of a typical 2 MiB L2).
        BlockSizes { kc: 256, nc: 512 }
    }
}

impl BlockSizes {
    /// Clamp to sane values: `kc >= 1`, `nc` a positive multiple of [`NR`].
    fn normalized(self) -> Self {
        BlockSizes {
            kc: self.kc.max(1),
            nc: self.nc.next_multiple_of(NR).max(NR),
        }
    }
}

/// Round `len` up to a multiple of `align`.
#[inline]
pub fn padded(len: usize, align: usize) -> usize {
    len.div_ceil(align) * align
}

/// Index of logical element `(i, j)` inside the panel-major accumulation buffer of a
/// product with `pn` padded columns: panel `i / MR`, then column-major within the panel.
#[inline(always)]
pub fn acc_index(pn: usize, i: usize, j: usize) -> usize {
    (i / MR) * (MR * pn) + j * MR + (i % MR)
}

/// `(row_stride, col_stride)` of `op(A)` over `a.as_slice()`.
#[inline]
fn strides_of(a: &Matrix, op: Op) -> (usize, usize) {
    let (rs, cs) = match a.layout() {
        Layout::RowMajor => (a.ncols(), 1),
        Layout::ColMajor => (1, a.nrows()),
    };
    match op {
        Op::NoTrans => (rs, cs),
        Op::Trans => (cs, rs),
    }
}

/// Pack `op(A)[0..m, pc..pc+kc]` into `MR`-row panels, k-major within each panel
/// (`apack[p * MR * kc + kk * MR + r]`), zero-padding rows `>= m`.
fn pack_a_panels(a: &Matrix, op_a: Op, m: usize, pc: usize, kc: usize, apack: &mut [f64]) {
    let (rs, cs) = strides_of(a, op_a);
    let data = a.as_slice();
    apack
        .par_chunks_mut(MR * kc)
        .enumerate()
        .for_each(|(p, panel)| {
            let i0 = p * MR;
            for kk in 0..kc {
                let col_base = (pc + kk) * cs;
                let dst = &mut panel[kk * MR..kk * MR + MR];
                for (r, slot) in dst.iter_mut().enumerate() {
                    let i = i0 + r;
                    *slot = if i < m { data[i * rs + col_base] } else { 0.0 };
                }
            }
        });
}

/// Pack `op(B)[pc..pc+kc, jc..jc+ncb]` into `NR`-column panels, k-major within each
/// panel (`bpack[q * NR * kc + kk * NR + c]`), zero-padding columns `>= n`.
fn pack_b_panels(
    b: &Matrix,
    op_b: Op,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    bpack: &mut [f64],
) {
    let (rs, cs) = strides_of(b, op_b);
    let data = b.as_slice();
    bpack
        .par_chunks_mut(NR * kc)
        .enumerate()
        .for_each(|(q, panel)| {
            let j0 = jc + q * NR;
            for kk in 0..kc {
                let row_base = (pc + kk) * rs;
                let dst = &mut panel[kk * NR..kk * NR + NR];
                for (c, slot) in dst.iter_mut().enumerate() {
                    let j = j0 + c;
                    *slot = if j < n { data[row_base + j * cs] } else { 0.0 };
                }
            }
        });
}

/// Register-tiled inner kernel: `tile (MR x NR) <- tile ± ap · bp` over `kc` steps.
///
/// `tile` is a contiguous `MR * NR` slice (column-major within the tile).  The current
/// tile values are loaded into a register accumulator array, updated once per `k` step
/// in ascending order, and stored back — the exact-partial park/reload that makes the
/// result independent of how `k` is split into blocks.
#[inline(always)]
pub fn microkernel<const SUB: bool>(kc: usize, ap: &[f64], bp: &[f64], tile: &mut [f64]) {
    debug_assert_eq!(tile.len(), MR * NR);
    debug_assert!(ap.len() >= kc * MR);
    debug_assert!(bp.len() >= kc * NR);
    let mut acc = [[0.0f64; MR]; NR];
    for (c, col) in acc.iter_mut().enumerate() {
        col.copy_from_slice(&tile[c * MR..(c + 1) * MR]);
    }
    // SAFETY: slice lengths are checked by the debug_asserts above and guaranteed by
    // the packers (panels are always full MR/NR multiples).
    unsafe {
        for kk in 0..kc {
            let a = ap.get_unchecked(kk * MR..kk * MR + MR);
            let b = bp.get_unchecked(kk * NR..kk * NR + NR);
            for (c, col) in acc.iter_mut().enumerate() {
                let bc = *b.get_unchecked(c);
                for (r, slot) in col.iter_mut().enumerate() {
                    let prod = *a.get_unchecked(r) * bc;
                    if SUB {
                        *slot -= prod;
                    } else {
                        *slot += prod;
                    }
                }
            }
        }
    }
    for (c, col) in acc.iter().enumerate() {
        tile[c * MR..(c + 1) * MR].copy_from_slice(col);
    }
}

/// One packed `(jc, pc)` block that every row panel of a sweep multiplies against.
struct PackedBlock<'a> {
    /// All packed A row panels of the block (`MR * kc` values each).
    apack: &'a [f64],
    /// The packed B column panels of the block (`NR * kc` values each).
    bpack: &'a [f64],
    /// Depth of the block.
    kc: usize,
    /// First (padded) output column of the block.
    jc: usize,
    /// Padded width of the block, a multiple of [`NR`].
    ncb: usize,
    /// Skip tiles strictly below the diagonal (SYRK).
    upper_only: bool,
}

/// Update row panel `p` (its `MR * pn` slice `chunk` of the accumulation buffer) with
/// one packed block: the body both SIMD tiers compile (the scalar tier inlines it
/// into the sweep directly, the AVX2 tier through `sweep_row_panel_avx2`).
#[inline(always)]
fn sweep_row_panel(block: &PackedBlock<'_>, p: usize, chunk: &mut [f64]) {
    let kc = block.kc;
    let ap = &block.apack[p * MR * kc..(p + 1) * MR * kc];
    for q in 0..block.ncb / NR {
        let jcol = block.jc + q * NR;
        // SYRK: skip tiles whose every element is strictly below the diagonal (the
        // epilogue mirrors the upper triangle instead).
        if block.upper_only && p * MR > jcol + NR - 1 {
            continue;
        }
        let bp = &block.bpack[q * NR * kc..(q + 1) * NR * kc];
        let tile = &mut chunk[jcol * MR..jcol * MR + MR * NR];
        microkernel::<false>(kc, ap, bp, tile);
    }
}

/// [`sweep_row_panel`] built with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_row_panel_avx2(block: &PackedBlock<'_>, p: usize, chunk: &mut [f64]) {
    sweep_row_panel(block, p, chunk);
}

/// Compute the raw products `op(A) · op(B)` into a panel-major accumulation buffer.
///
/// Returns a `padded(m, MR) * padded(n, NR)` buffer indexed by [`acc_index`]; callers
/// apply `alpha`/`beta` (and read only the valid `m x n` region) in their epilogue.
/// With `upper_only`, register tiles lying strictly below the diagonal are skipped —
/// the SYRK path, which halves the executed flops for a Gram matrix.  The row-panel
/// sweep runs on [`simd_tier`]; the bits do not depend on it.
pub fn blocked_sums(
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    blocks: BlockSizes,
    upper_only: bool,
) -> Vec<f64> {
    blocked_sums_on(simd_tier(), op_a, a, op_b, b, blocks, upper_only)
}

/// [`blocked_sums`] with the row-panel sweep pinned to `tier`.
///
/// # Panics
/// Panics if `tier` is [`SimdTier::Avx2`] on a host without AVX2.
pub(crate) fn blocked_sums_on(
    tier: SimdTier,
    op_a: Op,
    a: &Matrix,
    op_b: Op,
    b: &Matrix,
    blocks: BlockSizes,
    upper_only: bool,
) -> Vec<f64> {
    assert!(
        tier == SimdTier::Scalar || tier == simd_tier(),
        "the {} tier is not available on this host",
        tier.as_str()
    );
    let blocks = blocks.normalized();
    let m = op_a.rows(a);
    let k = op_a.cols(a);
    let n = op_b.cols(b);
    debug_assert_eq!(k, op_b.rows(b), "caller validates inner dimensions");
    let pm = padded(m.max(1), MR);
    let pn = padded(n.max(1), NR);
    let mut acc = vec![0.0f64; pm * pn];
    if m == 0 || n == 0 || k == 0 {
        return acc;
    }

    let mut apack = vec![0.0f64; pm * blocks.kc.min(k)];
    let mut bpack = vec![0.0f64; blocks.nc.min(pn) * blocks.kc.min(k)];

    let mut jc = 0;
    while jc < pn {
        let ncb = blocks.nc.min(pn - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = blocks.kc.min(k - pc);
            pack_a_panels(a, op_a, m, pc, kcb, &mut apack[..pm * kcb]);
            pack_b_panels(b, op_b, n, pc, kcb, jc, &mut bpack[..ncb * kcb]);
            let block = PackedBlock {
                apack: &apack[..pm * kcb],
                bpack: &bpack[..ncb * kcb],
                kc: kcb,
                jc,
                ncb,
                upper_only,
            };
            // One parallel sweep per (jc, pc) block: tasks own disjoint row panels, and
            // the serial pc loop keeps every element's partial applied in ascending k.
            acc.par_chunks_mut(MR * pn)
                .enumerate()
                .for_each(|(p, chunk)| match tier {
                    // SAFETY: `blocked_sums_on` asserted that this host reports AVX2.
                    #[cfg(target_arch = "x86_64")]
                    SimdTier::Avx2 => unsafe { sweep_row_panel_avx2(&block, p, chunk) },
                    _ => sweep_row_panel(&block, p, chunk),
                });
            pc += kcb;
        }
        jc += ncb;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_rounds_up() {
        assert_eq!(padded(0, 8), 0);
        assert_eq!(padded(1, 8), 8);
        assert_eq!(padded(8, 8), 8);
        assert_eq!(padded(9, 4), 12);
    }

    #[test]
    fn acc_index_covers_panel_layout() {
        // 2 panels of 8 rows, 4 padded columns.
        let pn = 4;
        assert_eq!(acc_index(pn, 0, 0), 0);
        assert_eq!(acc_index(pn, 7, 0), 7);
        assert_eq!(acc_index(pn, 0, 1), 8);
        assert_eq!(acc_index(pn, 8, 0), MR * pn);
    }

    #[test]
    fn microkernel_sub_is_negated_add() {
        let kc = 5;
        let ap: Vec<f64> = (0..kc * MR).map(|i| (i as f64 * 0.37).sin()).collect();
        let bp: Vec<f64> = (0..kc * NR).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut add_tile = vec![0.0; MR * NR];
        let mut sub_tile = vec![0.0; MR * NR];
        microkernel::<false>(kc, &ap, &bp, &mut add_tile);
        microkernel::<true>(kc, &ap, &bp, &mut sub_tile);
        for (x, y) in add_tile.iter().zip(&sub_tile) {
            assert_eq!(x.to_bits(), (-y).to_bits());
        }
    }

    #[test]
    fn blocked_sums_matches_ascending_k_reference() {
        let a = Matrix::random_gaussian(13, 9, Layout::RowMajor, 3, 0);
        let b = Matrix::random_gaussian(9, 7, Layout::ColMajor, 3, 1);
        let acc = blocked_sums(
            Op::NoTrans,
            &a,
            Op::NoTrans,
            &b,
            BlockSizes::default(),
            false,
        );
        let pn = padded(7, NR);
        for i in 0..13 {
            for j in 0..7 {
                let mut want = 0.0f64;
                for kk in 0..9 {
                    want += a.get(i, kk) * b.get(kk, j);
                }
                let got = acc[acc_index(pn, i, j)];
                assert_eq!(got.to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn blocked_sums_bits_do_not_depend_on_block_sizes() {
        let a = Matrix::random_gaussian(30, 50, Layout::ColMajor, 9, 0);
        let b = Matrix::random_gaussian(50, 11, Layout::RowMajor, 9, 1);
        let base = blocked_sums(
            Op::NoTrans,
            &a,
            Op::NoTrans,
            &b,
            BlockSizes::default(),
            false,
        );
        for blocks in [
            BlockSizes { kc: 1, nc: 4 },
            BlockSizes { kc: 7, nc: 8 },
            BlockSizes { kc: 64, nc: 4096 },
        ] {
            let other = blocked_sums(Op::NoTrans, &a, Op::NoTrans, &b, blocks, false);
            assert!(
                base.iter()
                    .zip(&other)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "bits changed under {blocks:?}"
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn op_of(flag: u8) -> Op {
            if flag == 1 {
                Op::Trans
            } else {
                Op::NoTrans
            }
        }

        fn layout_of(flag: u8) -> Layout {
            if flag == 1 {
                Layout::RowMajor
            } else {
                Layout::ColMajor
            }
        }

        fn bits(values: &[f64]) -> Vec<u64> {
            values.iter().map(|v| v.to_bits()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The AVX2 sweep produces the scalar sweep's bits for every shape (empty,
            /// single and ragged against MR/NR), operand layout and op, the SYRK
            /// triangle, and block size.  On a host without AVX2 both runs take the
            /// scalar tier and the property holds trivially.
            #[test]
            fn prop_avx2_sweep_is_bitwise_scalar(
                m in 0usize..41,
                k in 0usize..300,
                n in 0usize..41,
                ta in 0u8..2,
                tb in 0u8..2,
                la in 0u8..2,
                lb in 0u8..2,
                upper in 0u8..2,
                kc in 1usize..300,
                nc in 1usize..64,
                seed in 0u64..1000,
            ) {
                let (op_a, op_b) = (op_of(ta), op_of(tb));
                let (ar, ac) = if op_a == Op::Trans { (k, m) } else { (m, k) };
                let (br, bc) = if op_b == Op::Trans { (n, k) } else { (k, n) };
                let a = Matrix::random_gaussian(ar, ac, layout_of(la), seed, 0);
                let b = Matrix::random_gaussian(br, bc, layout_of(lb), seed, 1);
                let upper_only = upper == 1;
                let tier = simd_tier();
                for blocks in [BlockSizes::default(), BlockSizes { kc, nc }] {
                    let scalar =
                        blocked_sums_on(SimdTier::Scalar, op_a, &a, op_b, &b, blocks, upper_only);
                    let dispatched = blocked_sums_on(tier, op_a, &a, op_b, &b, blocks, upper_only);
                    prop_assert_eq!(
                        bits(&scalar),
                        bits(&dispatched),
                        "{} sweep drifted from scalar at {}x{}x{} under {:?}",
                        tier.as_str(), m, k, n, blocks
                    );
                }
            }
        }
    }
}
