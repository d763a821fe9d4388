//! Dense, row-major matrix and the small amount of numerical linear algebra
//! the dense simplex oracle needs: matrix–vector products and a
//! Gauss–Jordan inverse for periodic basis refactorization.
//!
//! The matrices appearing in the MEC assignment LPs are small (a few hundred
//! rows), so a straightforward dense representation keeps the oracle easy
//! to audit; the production backend works on [`crate::sparse`] instead.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use linprog::matrix::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.nrows(), 2);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        for r in 0..self.nrows.min(12) {
            write!(f, "  [")?;
            for c in 0..self.ncols.min(12) {
                write!(f, "{:>10.4}", self[(r, c)])?;
                if c + 1 < self.ncols.min(12) {
                    write!(f, ", ")?;
                }
            }
            if self.ncols > 12 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.nrows > 12 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a zero matrix with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        assert!(nrows > 0 && ncols > 0, "matrix dimensions must be nonzero");
        Matrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let ncols = rows[0].len();
        assert!(ncols > 0, "rows must be nonempty");
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Matrix {
            nrows: rows.len(),
            ncols,
            data,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Borrow of one row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.ncols;
        &self.data[start..start + self.ncols]
    }

    /// Mutable borrow of one row as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.ncols;
        &mut self.data[start..start + self.ncols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.nrows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "dimension mismatch in mul_vec");
        let mut out = vec![0.0; self.nrows];
        for r in 0..self.nrows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            out[r] = acc;
        }
        out
    }

    /// Transposed matrix–vector product `Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.nrows()`.
    pub fn mul_vec_transposed(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(
            y.len(),
            self.nrows,
            "dimension mismatch in mul_vec_transposed"
        );
        let mut out = vec![0.0; self.ncols];
        for r in 0..self.nrows {
            let row = self.row(r);
            let yr = y[r];
            if yr == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(row.iter()) {
                *o += a * yr;
            }
        }
        out
    }

    /// Inverts the matrix with Gauss–Jordan elimination and partial
    /// pivoting. Used for periodic basis refactorization in the simplex.
    ///
    /// # Errors
    ///
    /// Returns `None` when the matrix is (numerically) singular.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.nrows, self.ncols, "inverse requires a square matrix");
        let n = self.nrows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[(col, col)].abs();
            for r in (col + 1)..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    a.data.swap(pivot * n + c, col * n + c);
                    inv.data.swap(pivot * n + c, col * n + c);
                }
            }
            let p = a[(col, col)];
            for c in 0..n {
                a[(col, c)] /= p;
                inv[(col, c)] /= p;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[(r, col)];
                if factor == 0.0 {
                    continue;
                }
                for c in 0..n {
                    let ac = a[(col, c)];
                    let ic = inv[(col, c)];
                    a[(r, c)] -= factor * ac;
                    inv[(r, c)] -= factor * ic;
                }
            }
        }
        Some(inv)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        &self.data[r * self.ncols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        &mut self.data[r * self.ncols + c]
    }
}

/// Dot product of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Infinity norm of a slice; empty slices report `0.0`.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_vector_is_vector() {
        let i = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.mul_vec(&x), x);
    }

    #[test]
    fn from_rows_indexes_row_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn mul_vec_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, -1.0, 4.0]]);
        let at = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, -1.0], &[0.0, 4.0]]);
        let y = vec![2.0, 3.0];
        assert_eq!(a.mul_vec_transposed(&y), at.mul_vec(&y));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[0.0, 7.0, 1.0], &[2.0, 6.0, 0.0], &[1.0, 0.0, 3.0]]);
        // The zero leading entry forces a pivot row swap.
        let inv = a.inverse().expect("invertible");
        for j in 0..3 {
            let prod = a.mul_vec(&inv.col(j));
            for (i, v) in prod.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-12, "A·inv[{i},{j}] = {v}");
            }
        }
    }

    #[test]
    fn inverse_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn norms_behave() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }
}
