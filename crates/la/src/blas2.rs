//! Level-2 BLAS: matrix-vector operations (GEMV, TRSV) with device cost accounting.

use crate::error::{dim_err, LaError};
use crate::matrix::{Layout, Matrix, Op};
use sketch_gpu_sim::{Device, KernelCost};

/// Which triangle of a matrix a triangular routine reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// The upper triangle (including the diagonal).
    Upper,
    /// The lower triangle (including the diagonal).
    Lower,
}

/// General matrix-vector product `y <- alpha * op(A) * x + beta * y`.
///
/// Returns the new `y` vector.  Every output starts as `beta * y[i]` (or `0` when
/// `beta == 0` or `y` is absent), its dot product `acc_i = sum_j op(A)[i, j] * x[j]` is
/// accumulated from `0` in ascending `j` through one accumulator, and then
/// `y[i] += alpha * acc_i`.  The loops read `A` in storage order:
///
/// * when `j` is the slow storage index (`Trans` on row-major, `NoTrans` on
///   column-major), `A` is streamed once, one contiguous line per `j`, feeding all
///   `m` accumulators at a time;
/// * otherwise each output is one contiguous dot product over its line of `A`.
///
/// Both orders give every output the same operation sequence, so the result does not
/// depend on the layout of `A`.
pub fn gemv(
    device: &Device,
    alpha: f64,
    op_a: Op,
    a: &Matrix,
    x: &[f64],
    beta: f64,
    y: Option<&[f64]>,
) -> Result<Vec<f64>, LaError> {
    let m = op_a.rows(a);
    let k = op_a.cols(a);
    if x.len() != k {
        return Err(dim_err(
            "gemv",
            format!("op(A) is {m}x{k} but x has length {}", x.len()),
        ));
    }
    if let Some(y0) = y {
        if y0.len() != m {
            return Err(dim_err(
                "gemv",
                format!("op(A) is {m}x{k} but y has length {}", y0.len()),
            ));
        }
    }

    let mut out = vec![0.0; m];
    if beta != 0.0 {
        if let Some(y0) = y {
            for (o, &v) in out.iter_mut().zip(y0.iter()) {
                *o = beta * v;
            }
        }
    }
    let data = a.as_slice();
    let j_is_slow = matches!(
        (op_a, a.layout()),
        (Op::Trans, Layout::RowMajor) | (Op::NoTrans, Layout::ColMajor)
    );
    if j_is_slow {
        let mut acc = vec![0.0; m];
        if m > 0 {
            for (line, &xj) in data.chunks_exact(m).zip(x) {
                for (s, &v) in acc.iter_mut().zip(line) {
                    *s += v * xj;
                }
            }
        }
        for (o, s) in out.iter_mut().zip(&acc) {
            *o += alpha * s;
        }
    } else {
        for (i, o) in out.iter_mut().enumerate() {
            let line = &data[i * k..(i + 1) * k];
            let acc = line.iter().zip(x).fold(0.0, |s, (&v, &xj)| s + v * xj);
            *o += alpha * acc;
        }
    }

    let cost = KernelCost::new(
        KernelCost::f64_bytes((m * k + k + if beta != 0.0 { m } else { 0 }) as u64),
        KernelCost::f64_bytes(m as u64),
        (2 * m * k) as u64,
        1,
    );
    device.record(cost);
    Ok(out)
}

/// Triangular solve `op(T) x = b` with a vector right-hand side (TRSV).
///
/// `t` must be square; only the requested triangle is read.
pub fn trsv(
    device: &Device,
    triangle: Triangle,
    op_t: Op,
    t: &Matrix,
    b: &[f64],
) -> Result<Vec<f64>, LaError> {
    let n = t.nrows();
    if t.ncols() != n {
        return Err(dim_err("trsv", format!("T is {}x{}", t.nrows(), t.ncols())));
    }
    if b.len() != n {
        return Err(dim_err(
            "trsv",
            format!("T is {n}x{n} but b has length {}", b.len()),
        ));
    }

    // Solving with op(T)=Trans flips the effective triangle.
    let effective = match (triangle, op_t) {
        (Triangle::Upper, Op::NoTrans) | (Triangle::Lower, Op::Trans) => Triangle::Upper,
        (Triangle::Lower, Op::NoTrans) | (Triangle::Upper, Op::Trans) => Triangle::Lower,
    };
    let elem = |i: usize, j: usize| op_t.get(t, i, j);

    let mut x = b.to_vec();
    match effective {
        Triangle::Upper => {
            for i in (0..n).rev() {
                let diag = elem(i, i);
                if diag == 0.0 {
                    return Err(LaError::SingularTriangular { index: i });
                }
                let mut acc = x[i];
                for j in i + 1..n {
                    acc -= elem(i, j) * x[j];
                }
                x[i] = acc / diag;
            }
        }
        Triangle::Lower => {
            for i in 0..n {
                let diag = elem(i, i);
                if diag == 0.0 {
                    return Err(LaError::SingularTriangular { index: i });
                }
                let mut acc = x[i];
                for j in 0..i {
                    acc -= elem(i, j) * x[j];
                }
                x[i] = acc / diag;
            }
        }
    }

    let nn = n as u64;
    device.record(KernelCost::new(
        KernelCost::f64_bytes(nn * (nn + 1) / 2 + nn),
        KernelCost::f64_bytes(nn),
        nn * nn,
        1,
    ));
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::unlimited()
    }

    #[test]
    fn gemv_matches_manual_product() {
        let d = device();
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = gemv(&d, 1.0, Op::NoTrans, &a, &[1.0, 1.0], 0.0, None).unwrap();
        assert_eq!(y, vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn gemv_transposed_operand() {
        let d = device();
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        // op(A) = Aᵀ is 2x3.
        let y = gemv(&d, 1.0, Op::Trans, &a, &[1.0, 0.0, -1.0], 0.0, None).unwrap();
        assert_eq!(y, vec![-4.0, -4.0]);
    }

    #[test]
    fn gemv_alpha_beta_combination() {
        let d = device();
        let a = Matrix::identity(2);
        let y0 = vec![10.0, 20.0];
        let y = gemv(&d, 2.0, Op::NoTrans, &a, &[1.0, 2.0], 0.5, Some(&y0)).unwrap();
        assert_eq!(y, vec![7.0, 14.0]);
    }

    #[test]
    fn gemv_rejects_bad_dimensions() {
        let d = device();
        let a = Matrix::identity(3);
        assert!(gemv(&d, 1.0, Op::NoTrans, &a, &[1.0], 0.0, None).is_err());
        assert!(gemv(&d, 1.0, Op::NoTrans, &a, &[1.0; 3], 1.0, Some(&[1.0])).is_err());
    }

    #[test]
    fn gemv_records_flops() {
        let d = device();
        let a = Matrix::zeros(4, 5);
        let _ = gemv(&d, 1.0, Op::NoTrans, &a, &[0.0; 5], 0.0, None).unwrap();
        assert_eq!(d.tracker().snapshot().flops, 40);
    }

    /// The per-element loop `gemv` used to run: `op(A)` read through `Op::get`.
    fn gemv_elementwise(
        alpha: f64,
        op_a: Op,
        a: &Matrix,
        x: &[f64],
        beta: f64,
        y: Option<&[f64]>,
    ) -> Vec<f64> {
        let (m, k) = (op_a.rows(a), op_a.cols(a));
        let mut out = vec![0.0; m];
        if beta != 0.0 {
            if let Some(y0) = y {
                for (o, &v) in out.iter_mut().zip(y0) {
                    *o = beta * v;
                }
            }
        }
        for i in 0..m {
            let mut acc = 0.0;
            for j in 0..k {
                acc += op_a.get(a, i, j) * x[j];
            }
            out[i] += alpha * acc;
        }
        out
    }

    /// Values from a pool holding ±0, NaN and ±inf beside ordinary numbers.
    fn special_values(len: usize, seed: u64) -> Vec<f64> {
        const POOL: [f64; 9] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.25,
            1e-310,
            3.0e300,
        ];
        let gaussian = sketch_rng::fill::gaussian_vec(seed, 7, len);
        gaussian
            .iter()
            .enumerate()
            .map(|(i, &g)| match (i as u64 * 31 + seed) % 7 {
                0 => POOL[(i + seed as usize) % POOL.len()],
                _ => g,
            })
            .collect()
    }

    /// Bitwise equality, except that any two NaNs match: Rust leaves the sign and
    /// payload of a NaN produced by arithmetic unspecified.
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:e}, the element-wise loop gives {w:e}"
            );
        }
    }

    #[test]
    fn gemv_matches_the_elementwise_loop_bitwise() {
        let d = device();
        let scalars = [
            (1.0, 0.0),
            (-0.5, 2.0),
            (0.0, 1.0),
            (f64::INFINITY, -1.0),
            (1.0, f64::NAN),
        ];
        let mut cases = 0;
        for (rows, cols) in [(0, 3), (3, 0), (1, 1), (7, 5), (5, 13), (33, 4)] {
            for layout in [Layout::RowMajor, Layout::ColMajor] {
                let seed = (rows * 100 + cols) as u64;
                let a = Matrix::from_vec(rows, cols, layout, special_values(rows * cols, seed));
                for op in [Op::NoTrans, Op::Trans] {
                    let (m, k) = (op.rows(&a), op.cols(&a));
                    let x = special_values(k, seed + 1);
                    let y0 = special_values(m, seed + 2);
                    // `beta * -0.0` keeps the sign of a zero sum visible in the output.
                    let negative_zeros = vec![-0.0; m];
                    for &(alpha, beta) in &scalars {
                        for y in [None, Some(y0.as_slice()), Some(&negative_zeros)] {
                            let got = gemv(&d, alpha, op, &a, &x, beta, y).unwrap();
                            let want = gemv_elementwise(alpha, op, &a, &x, beta, y);
                            let what = format!(
                                "{op:?} {layout:?} {rows}x{cols} alpha={alpha} beta={beta} \
                                 y={}",
                                y.is_some()
                            );
                            assert_same_bits(&got, &want, &what);
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 6 * 2 * 2 * 5 * 3);
    }

    #[test]
    fn trsv_upper_and_lower_round_trip() {
        let d = device();
        // Upper triangular system.
        let u = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[0.0, 3.0, -1.0], &[0.0, 0.0, 4.0]]);
        let x_true = vec![1.0, -2.0, 0.5];
        // b = U * x_true
        let b = gemv(&d, 1.0, Op::NoTrans, &u, &x_true, 0.0, None).unwrap();
        let x = trsv(&d, Triangle::Upper, Op::NoTrans, &u, &b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12);
        }

        // Lower triangular via the transpose of U.
        let bt = gemv(&d, 1.0, Op::Trans, &u, &x_true, 0.0, None).unwrap();
        let xt = trsv(&d, Triangle::Upper, Op::Trans, &u, &bt).unwrap();
        for (a, b) in xt.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn trsv_lower_triangle() {
        let d = device();
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let b = vec![4.0, 11.0];
        let x = trsv(&d, Triangle::Lower, Op::NoTrans, &l, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn trsv_detects_singularity_and_bad_shapes() {
        let d = device();
        let mut u = Matrix::identity(3);
        u.set(1, 1, 0.0);
        let err = trsv(&d, Triangle::Upper, Op::NoTrans, &u, &[1.0; 3]).unwrap_err();
        assert_eq!(err, LaError::SingularTriangular { index: 1 });

        let rect = Matrix::zeros_with_layout(2, 3, Layout::ColMajor);
        assert!(trsv(&d, Triangle::Upper, Op::NoTrans, &rect, &[1.0; 2]).is_err());
        let sq = Matrix::identity(2);
        assert!(trsv(&d, Triangle::Upper, Op::NoTrans, &sq, &[1.0; 3]).is_err());
    }
}
