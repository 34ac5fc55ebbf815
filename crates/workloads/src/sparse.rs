//! Deterministic synthetic sparse-matrix patterns (CSR) for the sparse RMS
//! kernels.

use stacksim_rng::StdRng;

/// A CSR sparsity pattern: row extents plus column indices. Values are not
//  stored — the kernels only need the address structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePattern {
    /// Number of rows.
    pub rows: u64,
    /// Number of columns (width of the `x` vector in `y = A·x`).
    pub cols: u64,
    /// CSR row pointer (length `rows + 1`).
    pub row_ptr: Vec<u64>,
    /// Column index per non-zero, row-major.
    pub col_idx: Vec<u64>,
}

impl SparsePattern {
    /// Generates a pattern with `rows`×`cols` shape and roughly `avg_nnz`
    /// non-zeros per row. `band_fraction` of the entries cluster within a
    /// narrow band around the diagonal (good locality); the rest scatter
    /// uniformly (poor locality). Fully deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, `avg_nnz` is zero, or
    /// `band_fraction` is outside `[0, 1]`.
    pub fn synth(rows: u64, cols: u64, avg_nnz: u64, band_fraction: f64, seed: u64) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert!(avg_nnz > 0, "need at least one non-zero per row");
        assert!(
            (0.0..=1.0).contains(&band_fraction),
            "band fraction must be in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let band_width = (cols / 64).max(8);
        let mut row_ptr = Vec::with_capacity(rows as usize + 1);
        let mut col_idx = Vec::with_capacity((rows * avg_nnz) as usize);
        row_ptr.push(0);
        for r in 0..rows {
            // vary row length a little around the average
            let nnz = (avg_nnz as i64 + rng.gen_range(-1i64..=1)).max(1) as u64;
            let diag = r * cols / rows;
            for _ in 0..nnz {
                let c = if rng.gen_bool(band_fraction) {
                    let lo = diag.saturating_sub(band_width / 2);
                    let hi = (lo + band_width).min(cols - 1);
                    rng.gen_range(lo..=hi)
                } else {
                    rng.gen_range(0..cols)
                };
                col_idx.push(c);
            }
            row_ptr.push(col_idx.len() as u64);
        }
        SparsePattern {
            rows,
            cols,
            row_ptr,
            col_idx,
        }
    }

    /// Total non-zeros.
    pub fn nnz(&self) -> u64 {
        self.col_idx.len() as u64
    }

    /// Column indices of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: u64) -> &[u64] {
        let lo = self.row_ptr[row as usize] as usize;
        let hi = self.row_ptr[row as usize + 1] as usize;
        &self.col_idx[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_is_consistent() {
        let p = SparsePattern::synth(100, 200, 5, 0.8, 42);
        assert_eq!(p.rows, 100);
        assert_eq!(p.row_ptr.len(), 101);
        assert_eq!(*p.row_ptr.last().unwrap(), p.nnz());
        for r in 0..100 {
            for &c in p.row(r) {
                assert!(c < p.cols);
            }
            assert!(!p.row(r).is_empty());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = SparsePattern::synth(50, 50, 4, 0.5, 7);
        let b = SparsePattern::synth(50, 50, 4, 0.5, 7);
        let c = SparsePattern::synth(50, 50, 4, 0.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn banded_pattern_stays_near_diagonal() {
        let p = SparsePattern::synth(1000, 1000, 6, 1.0, 3);
        let band = 1000u64 / 64 + 1;
        for r in 0..1000 {
            for &c in p.row(r) {
                let diag = r;
                assert!(
                    c + band >= diag && c <= diag + band,
                    "row {r} col {c} outside band"
                );
            }
        }
    }

    #[test]
    fn avg_nnz_is_respected() {
        let p = SparsePattern::synth(10_000, 10_000, 7, 0.5, 1);
        let avg = p.nnz() as f64 / 10_000.0;
        assert!((avg - 7.0).abs() < 0.5, "avg nnz {avg}");
    }

    #[test]
    #[should_panic(expected = "band fraction")]
    fn invalid_band_fraction_panics() {
        let _ = SparsePattern::synth(10, 10, 2, 1.5, 0);
    }
}
