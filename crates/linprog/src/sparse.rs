//! Compressed sparse column (CSC) matrices and the standard form both
//! simplex backends build from.
//!
//! The HTA relaxation matrix is extremely sparse — every variable appears
//! in one assignment row and at most one capacity row — so a dense
//! `m × n` matrix wastes both memory and time (dense column gathers
//! during pricing). [`CscMatrix`] stores only the nonzeros,
//! column-major. [`SparseStandardForm`] is the one standard form: the
//! revised simplex ([`crate::revised`]) prices against it directly, and
//! the dense oracle ([`crate::simplex`]) scatters its columns into a
//! dense tableau.

use crate::problem::{ConstraintSense, LpProblem};

/// A sparse matrix in compressed-sparse-column form.
///
/// Row indices within each column are strictly increasing; values may be
/// zero only if explicitly stored (builders here never store zeros).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j + 1]` indexes column `j`'s entries.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CscMatrix {
    /// Builds from per-column `(row, value)` lists. Entries with a zero
    /// value are dropped; rows within a column must be strictly
    /// increasing.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or non-increasing row index.
    #[must_use]
    pub fn from_columns(nrows: usize, columns: &[Vec<(usize, f64)>]) -> CscMatrix {
        let ncols = columns.len();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_idx = Vec::new();
        let mut vals = Vec::new();
        col_ptr.push(0);
        for col in columns {
            let mut prev: Option<usize> = None;
            for &(r, v) in col {
                assert!(r < nrows, "row {r} out of range ({nrows} rows)");
                assert!(
                    prev.is_none_or(|p| r > p),
                    "rows within a column must be strictly increasing"
                );
                prev = Some(r);
                if v != 0.0 {
                    row_idx.push(r);
                    vals.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            vals,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Column `j` as parallel `(rows, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.vals[s..e])
    }

    /// Sparse dot product of column `j` with a dense vector.
    #[must_use]
    #[inline]
    pub fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| y[r] * v).sum()
    }

    /// Scatters column `j` into a dense vector (overwriting only the
    /// column's nonzero rows; the caller zeroes the buffer).
    #[inline]
    pub fn scatter_col(&self, j: usize, out: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            out[r] = v;
        }
    }

    /// `Aᵀ y`: one sparse dot per column (full pricing). Serial on
    /// purpose: the LPs are small and already solved concurrently, one
    /// per cluster, so threads spawned here would only contend.
    #[must_use]
    pub fn transpose_mul_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.nrows);
        (0..self.ncols).map(|j| self.col_dot(j, y)).collect()
    }
}

/// The standard form `min cᵀx, Ax = b, 0 ≤ x ≤ u` built sparsely from an
/// [`LpProblem`]: variables are shifted by their lower bounds, `≤` rows
/// gain a `+1` slack, `≥` rows a `−1` slack, equalities none.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseStandardForm {
    /// Constraint matrix over structural + slack columns.
    pub a: CscMatrix,
    /// Right-hand side, adjusted for the lower-bound shift.
    pub b: Vec<f64>,
    /// Objective over all columns (zero for slacks).
    pub c: Vec<f64>,
    /// Upper bounds in shifted space (`+∞` preserved; slacks unbounded).
    pub upper: Vec<f64>,
    /// Number of structural (original) variables.
    pub num_structural: usize,
    /// The shift applied per structural variable (its lower bound).
    pub shift: Vec<f64>,
    /// `c · shift`: added back by [`Self::original_objective`].
    pub objective_offset: f64,
}

impl SparseStandardForm {
    /// Converts a problem to sparse standard form.
    ///
    /// # Panics
    ///
    /// Panics if the problem has no constraints; the solvers answer such
    /// problems from the bounds alone and never build a form for them.
    #[must_use]
    pub fn from_problem(lp: &LpProblem) -> SparseStandardForm {
        let m = lp.num_constraints();
        assert!(m > 0, "standard form needs at least one constraint row");
        let n = lp.num_vars();
        let shift: Vec<f64> = lp.bounds().iter().map(|bd| bd.lower).collect();
        let num_slacks = lp
            .constraints()
            .iter()
            .filter(|c| c.sense != ConstraintSense::Eq)
            .count();
        let total = n + num_slacks;

        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); total];
        let mut b = Vec::with_capacity(m);
        let mut slack = n;
        for (i, row) in lp.constraints().iter().enumerate() {
            let mut rhs = row.rhs;
            // Terms may arrive in any column order; per-column row lists
            // stay sorted because `i` only ever increases.
            for &(j, aij) in &row.terms {
                columns[j].push((i, aij));
                rhs -= aij * shift[j];
            }
            b.push(rhs);
            match row.sense {
                ConstraintSense::Le => {
                    columns[slack].push((i, 1.0));
                    slack += 1;
                }
                ConstraintSense::Ge => {
                    columns[slack].push((i, -1.0));
                    slack += 1;
                }
                ConstraintSense::Eq => {}
            }
        }

        let mut c = vec![0.0; total];
        c[..n].copy_from_slice(lp.objective());
        let mut upper = vec![f64::INFINITY; total];
        for (j, bd) in lp.bounds().iter().enumerate() {
            upper[j] = if bd.upper.is_finite() {
                bd.upper - bd.lower
            } else {
                f64::INFINITY
            };
        }
        let objective_offset = crate::matrix::dot(lp.objective(), &shift);

        SparseStandardForm {
            a: CscMatrix::from_columns(m, &columns),
            b,
            c,
            upper,
            num_structural: n,
            shift,
            objective_offset,
        }
    }

    /// Number of constraint rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.a.nrows()
    }

    /// Number of columns (structural + slacks).
    #[must_use]
    pub fn num_cols(&self) -> usize {
        self.a.ncols()
    }

    /// Maps a standard-form point back to the original variable space.
    ///
    /// # Panics
    ///
    /// Panics if `x_std` has fewer than `num_structural` entries.
    #[must_use]
    pub fn recover(&self, x_std: &[f64]) -> Vec<f64> {
        (0..self.num_structural)
            .map(|j| x_std[j] + self.shift[j])
            .collect()
    }

    /// The original objective value at a standard-form point.
    #[must_use]
    pub fn original_objective(&self, x_std: &[f64]) -> f64 {
        let direct: f64 = (0..self.num_structural).map(|j| self.c[j] * x_std[j]).sum();
        direct + self.objective_offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lp() -> LpProblem {
        // min x − 2y + z, x + y ≤ 4, y − z ≥ −1, x + z = 2,
        // 1 ≤ x ≤ 3, 0 ≤ y ≤ 2, z free above 0.5.
        let mut lp = LpProblem::new(3);
        lp.set_objective(vec![1.0, -2.0, 1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        lp.add_constraint(vec![(1, 1.0), (2, -1.0)], ConstraintSense::Ge, -1.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintSense::Eq, 2.0)
            .unwrap();
        lp.set_bounds(0, 1.0, 3.0).unwrap();
        lp.set_bounds(1, 0.0, 2.0).unwrap();
        lp.set_bounds(2, 0.5, f64::INFINITY).unwrap();
        lp
    }

    #[test]
    fn csc_round_trips_columns() {
        let cols = vec![
            vec![(0, 1.0), (2, -3.0)],
            vec![],
            vec![(1, 2.0), (2, 0.0)], // explicit zero dropped
        ];
        let a = CscMatrix::from_columns(3, &cols);
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (3, 3, 3));
        assert_eq!(a.col(0), (&[0usize, 2][..], &[1.0, -3.0][..]));
        assert_eq!(a.col(1), (&[][..], &[][..]));
        assert_eq!(a.col(2), (&[1usize][..], &[2.0][..]));
        assert_eq!(a.col_dot(0, &[1.0, 1.0, 2.0]), 1.0 - 6.0);
        let mut dense = vec![0.0; 3];
        a.scatter_col(0, &mut dense);
        assert_eq!(dense, vec![1.0, 0.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn csc_rejects_unsorted_rows() {
        let _ = CscMatrix::from_columns(3, &[vec![(2, 1.0), (0, 1.0)]]);
    }

    #[test]
    fn transpose_mul_matches_per_column_dots() {
        let cols: Vec<Vec<(usize, f64)>> = (0..200)
            .map(|j| {
                let start = j % 31;
                (start..(start + 5).min(37))
                    .map(|r| (r, ((j * r + 1) as f64).sin() + 1.5))
                    .collect()
            })
            .collect();
        let a = CscMatrix::from_columns(37, &cols);
        let y: Vec<f64> = (0..37).map(|i| (i as f64).cos()).collect();
        let dots: Vec<f64> = (0..a.ncols()).map(|j| a.col_dot(j, &y)).collect();
        assert_eq!(a.transpose_mul_vec(&y), dots);
        // Against a dense scatter-and-sum: same values up to rounding.
        for (j, d) in dots.iter().enumerate() {
            let mut col = vec![0.0; a.nrows()];
            a.scatter_col(j, &mut col);
            let dense: f64 = col.iter().zip(&y).map(|(c, v)| c * v).sum();
            assert!((dense - d).abs() < 1e-12, "column {j}: {dense} vs {d}");
        }
    }

    /// Column `j` of `sf.a` as a dense vector.
    fn dense_col(sf: &SparseStandardForm, j: usize) -> Vec<f64> {
        let mut col = vec![0.0; sf.num_rows()];
        sf.a.scatter_col(j, &mut col);
        col
    }

    #[test]
    fn shapes_and_slacks() {
        let sf = SparseStandardForm::from_problem(&sample_lp());
        assert_eq!(sf.num_rows(), 3);
        // 3 structural + 2 slacks (the equality row gets none).
        assert_eq!(sf.num_cols(), 5);
        assert_eq!(sf.num_structural, 3);
        assert_eq!(dense_col(&sf, 0), vec![1.0, 0.0, 1.0]);
        assert_eq!(dense_col(&sf, 2), vec![0.0, -1.0, 1.0]);
        // The Le row's slack is +1, the Ge row's −1.
        assert_eq!(dense_col(&sf, 3), vec![1.0, 0.0, 0.0]);
        assert_eq!(dense_col(&sf, 4), vec![0.0, -1.0, 0.0]);
        assert_eq!(sf.c, vec![1.0, -2.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn lower_bound_shift_adjusts_rhs_and_offset() {
        let sf = SparseStandardForm::from_problem(&sample_lp());
        // x ≥ 1 and z ≥ 0.5 shift the rows: 4 − 1, −1 + 0.5, 2 − 1 − 0.5.
        assert_eq!(sf.b, vec![3.0, -0.5, 0.5]);
        assert_eq!(sf.shift, vec![1.0, 0.0, 0.5]);
        assert_eq!(sf.objective_offset, 1.5);
        // x in [1, 3] becomes x' in [0, 2]; z and the slacks stay unbounded.
        assert_eq!(
            sf.upper,
            vec![2.0, 2.0, f64::INFINITY, f64::INFINITY, f64::INFINITY]
        );
    }

    #[test]
    fn recover_round_trips() {
        let sf = SparseStandardForm::from_problem(&sample_lp());
        let x_std = vec![0.5, 1.0, 0.0, 2.0, 0.0];
        assert_eq!(sf.recover(&x_std), vec![1.5, 1.0, 0.5]);
        // 1.5 − 2·1 + 0.5 in the original variables.
        assert!((sf.original_objective(&x_std) - 0.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one constraint")]
    fn sparse_standard_form_rejects_empty() {
        let lp = LpProblem::new(1);
        let _ = SparseStandardForm::from_problem(&lp);
    }
}
