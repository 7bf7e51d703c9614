//! Symbolic complexity summary — the contents of the paper's Table 1.
//!
//! | Sketch | Embed dim | Arithmetic | Read/Writes | Max distortion |
//! |---|---|---|---|---|
//! | Gaussian | ε⁻²n | dn² | dn | 1 + ε |
//! | SRHT | ε⁻²n·log n | dn·log n | dn·log n | 1 + ε |
//! | CountSketch | ε⁻²n² | dn | dn | 1 + ε |
//! | MultiSketch(ε₁, ε₂) | ε₂⁻²n | dn + n⁴ | dn + n⁴ | (1 + ε₁)(1 + ε₂) |
//!
//! `paper table1` (in `sketch-bench`) prints these formulas evaluated at the paper's
//! problem sizes alongside the counters measured from the actual kernels, so a reader can
//! check that the implementation's measured traffic matches the asymptotic claims.

/// The sketching methods compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SketchKind {
    /// Dense Gaussian sketch applied with GEMM.
    Gaussian,
    /// Subsampled randomized Hadamard transform.
    Srht,
    /// CountSketch (either the Algorithm 2 kernel or the SpMM baseline).
    CountSketch,
    /// CountSketch followed by a Gaussian sketch.
    MultiSketch,
}

impl SketchKind {
    /// All kinds, in the order Table 1 lists them.
    pub const ALL: [SketchKind; 4] = [
        SketchKind::Gaussian,
        SketchKind::Srht,
        SketchKind::CountSketch,
        SketchKind::MultiSketch,
    ];

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            SketchKind::Gaussian => "Gaussian",
            SketchKind::Srht => "SRHT",
            SketchKind::CountSketch => "CountSketch",
            SketchKind::MultiSketch => "MultiSketch",
        }
    }

    /// Asymptotically optimal embedding dimension for an `n`-dimensional subspace at
    /// distortion `eps` (the "Embed Dim." column).
    ///
    /// For the multisketch the two distortions are taken equal to `eps`, matching the
    /// `MultiSketch(ε₁, ε₂)` row with `ε₁ = ε₂ = ε`.
    pub fn embedding_dim(&self, n: usize, eps: f64) -> f64 {
        let n = n as f64;
        let inv_eps2 = eps.powi(-2);
        match self {
            SketchKind::Gaussian => inv_eps2 * n,
            SketchKind::Srht => inv_eps2 * n * n.max(2.0).log2(),
            SketchKind::CountSketch => inv_eps2 * n * n,
            SketchKind::MultiSketch => inv_eps2 * n,
        }
    }

    /// Arithmetic operations required to apply the sketch to a dense `d x n` matrix
    /// (the "Arithmetic" column).
    pub fn arithmetic(&self, d: usize, n: usize) -> f64 {
        let d = d as f64;
        let n = n as f64;
        match self {
            SketchKind::Gaussian => d * n * n,
            SketchKind::Srht => d * n * n.max(2.0).log2(),
            SketchKind::CountSketch => d * n,
            SketchKind::MultiSketch => d * n + n.powi(4),
        }
    }

    /// Memory reads/writes required to apply the sketch to a dense `d x n` matrix
    /// (the "Read/Writes" column), in units of matrix elements.
    pub fn read_writes(&self, d: usize, n: usize) -> f64 {
        let d = d as f64;
        let n = n as f64;
        match self {
            SketchKind::Gaussian => d * n,
            SketchKind::Srht => d * n * n.max(2.0).log2(),
            SketchKind::CountSketch => d * n,
            SketchKind::MultiSketch => d * n + n.powi(4),
        }
    }

    /// Worst-case distortion factor (the "Max Distortion" column).
    pub fn max_distortion(&self, eps: f64) -> f64 {
        match self {
            SketchKind::MultiSketch => (1.0 + eps) * (1.0 + eps),
            _ => 1.0 + eps,
        }
    }

    /// The embedding dimension the paper's experiments actually use for a width-`n`
    /// problem (`k = 2n` for Gaussian/SRHT/multisketch output, `k = 2n²` for the
    /// CountSketch and the multisketch's intermediate stage).
    pub fn experimental_embedding_dim(&self, n: usize) -> usize {
        match self {
            SketchKind::Gaussian | SketchKind::Srht | SketchKind::MultiSketch => 2 * n,
            SketchKind::CountSketch => 2 * n * n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_order_match_table1() {
        let labels: Vec<&str> = SketchKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec!["Gaussian", "SRHT", "CountSketch", "MultiSketch"]
        );
    }

    #[test]
    fn countsketch_needs_quadratic_embedding_dimension() {
        let n = 64;
        let eps = 0.5;
        let cs = SketchKind::CountSketch.embedding_dim(n, eps);
        let gauss = SketchKind::Gaussian.embedding_dim(n, eps);
        assert!((cs / gauss - n as f64).abs() < 1e-9);
    }

    #[test]
    fn multisketch_matches_gaussian_embedding_dim_but_countsketch_arithmetic() {
        let (d, n, eps) = (1 << 21, 128, 0.5);
        assert_eq!(
            SketchKind::MultiSketch.embedding_dim(n, eps),
            SketchKind::Gaussian.embedding_dim(n, eps)
        );
        // dn + n⁴ is far below dn² for these sizes.
        assert!(SketchKind::MultiSketch.arithmetic(d, n) < SketchKind::Gaussian.arithmetic(d, n));
        assert!(
            SketchKind::MultiSketch.arithmetic(d, n) >= SketchKind::CountSketch.arithmetic(d, n)
        );
    }

    #[test]
    fn srht_costs_carry_the_log_factor() {
        let (d, n) = (1 << 20, 64);
        let ratio = SketchKind::Srht.read_writes(d, n) / SketchKind::CountSketch.read_writes(d, n);
        assert!((ratio - 6.0).abs() < 1e-9); // log2(64) = 6
    }

    #[test]
    fn distortion_compounds_for_multisketch() {
        assert!((SketchKind::Gaussian.max_distortion(0.1) - 1.1).abs() < 1e-12);
        assert!((SketchKind::MultiSketch.max_distortion(0.1) - 1.21).abs() < 1e-12);
    }

    #[test]
    fn experimental_dimensions_match_section6() {
        let n = 128;
        assert_eq!(SketchKind::Gaussian.experimental_embedding_dim(n), 256);
        assert_eq!(SketchKind::Srht.experimental_embedding_dim(n), 256);
        assert_eq!(SketchKind::MultiSketch.experimental_embedding_dim(n), 256);
        assert_eq!(
            SketchKind::CountSketch.experimental_embedding_dim(n),
            2 * 128 * 128
        );
    }
}
