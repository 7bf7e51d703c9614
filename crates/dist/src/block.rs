//! Block-row partitioning of a tall matrix across simulated ranks.

use sketch_la::Matrix;
use std::ops::Range;

/// A `d x n` matrix partitioned into `P` contiguous row blocks, block `r`
/// living on simulated rank `r`.
///
/// The split is as balanced as possible: the first `d mod P` ranks hold
/// `ceil(d / P)` rows, the rest `floor(d / P)`.  Every block keeps the source
/// matrix's storage layout, so a row-major operand stays row-major on every
/// rank (the layout the CountSketch kernel wants, Section 6.1).
#[derive(Debug, Clone)]
pub struct BlockRowMatrix {
    blocks: Vec<Matrix>,
    offsets: Vec<usize>,
    ncols: usize,
}

impl BlockRowMatrix {
    /// Partition `a` into `processes` block rows.
    ///
    /// # Panics
    /// Panics if `processes` is zero or exceeds the number of rows of `a`
    /// (ranks with no rows would make the communication model meaningless).
    pub fn split(a: &Matrix, processes: usize) -> Self {
        assert!(processes > 0, "need at least one process");
        assert!(
            processes <= a.nrows(),
            "cannot split {} rows across {} processes",
            a.nrows(),
            processes
        );
        let d = a.nrows();
        let base = d / processes;
        let extra = d % processes;
        let mut offsets = Vec::with_capacity(processes + 1);
        let mut blocks = Vec::with_capacity(processes);
        let mut start = 0usize;
        for r in 0..processes {
            let len = base + usize::from(r < extra);
            offsets.push(start);
            blocks.push(Matrix::from_fn(len, a.ncols(), a.layout(), |i, j| {
                a.get(start + i, j)
            }));
            start += len;
        }
        offsets.push(d);
        Self {
            blocks,
            offsets,
            ncols: a.ncols(),
        }
    }

    /// Number of simulated ranks.
    pub fn num_processes(&self) -> usize {
        self.blocks.len()
    }

    /// Global number of rows.
    pub fn nrows(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Number of columns (identical on every rank).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Rank `r`'s local block.
    pub fn block(&self, r: usize) -> &Matrix {
        &self.blocks[r]
    }

    /// The global row range held by rank `r`.
    pub fn block_range(&self, r: usize) -> Range<usize> {
        self.offsets[r]..self.offsets[r + 1]
    }

    /// Iterate over `(global_row_range, local_block)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (Range<usize>, &Matrix)> {
        (0..self.num_processes()).map(move |r| (self.block_range(r), self.block(r)))
    }

    /// Reassemble the global matrix (a gather; used by tests).
    pub fn gather(&self) -> Matrix {
        let layout = self.blocks[0].layout();
        Matrix::from_fn(self.nrows(), self.ncols, layout, |i, j| {
            let r = match self.offsets.binary_search(&i) {
                Ok(exact) => exact,
                Err(insert) => insert - 1,
            };
            self.blocks[r].get(i - self.offsets[r], j)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_la::Layout;

    #[test]
    fn split_is_balanced_and_ordered() {
        let a = Matrix::from_fn(10, 2, Layout::RowMajor, |i, j| (i * 2 + j) as f64);
        let dist = BlockRowMatrix::split(&a, 3);
        assert_eq!(dist.num_processes(), 3);
        // 10 = 4 + 3 + 3.
        assert_eq!(dist.block(0).nrows(), 4);
        assert_eq!(dist.block(1).nrows(), 3);
        assert_eq!(dist.block(2).nrows(), 3);
        assert_eq!(dist.block_range(0), 0..4);
        assert_eq!(dist.block_range(1), 4..7);
        assert_eq!(dist.block_range(2), 7..10);
        assert_eq!(dist.nrows(), 10);
        assert_eq!(dist.ncols(), 2);
    }

    #[test]
    fn blocks_preserve_layout_and_values() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let a = Matrix::from_fn(7, 3, layout, |i, j| (i * 10 + j) as f64);
            let dist = BlockRowMatrix::split(&a, 2);
            for (range, block) in dist.iter() {
                assert_eq!(block.layout(), layout);
                for (local, global) in range.clone().enumerate() {
                    for j in 0..3 {
                        assert_eq!(block.get(local, j), a.get(global, j));
                    }
                }
            }
        }
    }

    #[test]
    fn gather_round_trips() {
        let a = Matrix::from_fn(13, 4, Layout::RowMajor, |i, j| (i as f64) - 0.5 * j as f64);
        for p in [1, 2, 5, 13] {
            let dist = BlockRowMatrix::split(&a, p);
            assert_eq!(dist.gather().max_abs_diff(&a).unwrap(), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_is_rejected() {
        let a = Matrix::zeros(4, 1);
        BlockRowMatrix::split(&a, 0);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_processes_than_rows_is_rejected() {
        let a = Matrix::zeros(4, 1);
        BlockRowMatrix::split(&a, 5);
    }
}
