//! Conversion of an [`LpProblem`] into the *standard
//! computational form* shared by both solver backends:
//!
//! ```text
//! minimize    cᵀ x
//! subject to  A x = b
//!             0 ≤ xⱼ ≤ uⱼ        (uⱼ may be +∞)
//! ```
//!
//! Lower bounds are shifted away, `≤`/`≥` rows receive slack/surplus
//! columns, and the objective offset caused by the shift is remembered so
//! solutions can be mapped back to the user's variables.

use crate::matrix::Matrix;
use crate::problem::{ConstraintSense, LpProblem};

/// A linear program in standard computational form, plus the bookkeeping
/// needed to translate solutions back to the original problem.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Dense constraint matrix, `m × n_total`.
    pub a: Matrix,
    /// Right-hand side, length `m`.
    pub b: Vec<f64>,
    /// Objective over all columns (structural + slack), length `n_total`.
    pub c: Vec<f64>,
    /// Upper bounds per column (lower bounds are all zero).
    pub upper: Vec<f64>,
    /// Number of structural (user) variables; they occupy the first
    /// `num_structural` columns.
    pub num_structural: usize,
    /// Shift applied to each structural variable (its original lower bound).
    pub shift: Vec<f64>,
    /// Constant added to the standard-form objective to recover the
    /// original objective value.
    pub objective_offset: f64,
}

impl StandardForm {
    /// Builds the standard form of `lp`.
    ///
    /// # Panics
    ///
    /// Panics if the problem has no constraints; the solvers answer such
    /// problems from the bounds alone and never build a form for them.
    pub fn from_problem(lp: &LpProblem) -> StandardForm {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        assert!(m > 0, "standard form requires at least one constraint row");

        let num_slacks = lp
            .constraints()
            .iter()
            .filter(|c| c.sense != ConstraintSense::Eq)
            .count();
        let n_total = n + num_slacks;

        let mut a = Matrix::zeros(m, n_total);
        let mut b = vec![0.0; m];
        let mut c = vec![0.0; n_total];
        let mut upper = vec![f64::INFINITY; n_total];
        let mut shift = vec![0.0; n];

        for (j, bound) in lp.bounds().iter().enumerate() {
            shift[j] = bound.lower;
            upper[j] = if bound.upper.is_finite() {
                bound.upper - bound.lower
            } else {
                f64::INFINITY
            };
        }

        c[..n].copy_from_slice(lp.objective());
        let objective_offset = crate::matrix::dot(lp.objective(), &shift);

        let mut slack_col = n;
        for (i, row) in lp.constraints().iter().enumerate() {
            let mut rhs = row.rhs;
            for &(j, coeff) in &row.terms {
                a[(i, j)] = coeff;
                rhs -= coeff * shift[j];
            }
            match row.sense {
                ConstraintSense::Le => {
                    a[(i, slack_col)] = 1.0;
                    slack_col += 1;
                }
                ConstraintSense::Ge => {
                    a[(i, slack_col)] = -1.0;
                    slack_col += 1;
                }
                ConstraintSense::Eq => {}
            }
            b[i] = rhs;
        }

        StandardForm {
            a,
            b,
            c,
            upper,
            num_structural: n,
            shift,
            objective_offset,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.a.nrows()
    }

    /// Total number of columns (structural + slack).
    pub fn num_cols(&self) -> usize {
        self.a.ncols()
    }

    /// Maps a standard-form point back to the original variable space.
    pub fn recover(&self, x_std: &[f64]) -> Vec<f64> {
        (0..self.num_structural)
            .map(|j| x_std[j] + self.shift[j])
            .collect()
    }

    /// Objective value in the *original* problem for a standard-form point.
    pub fn original_objective(&self, x_std: &[f64]) -> f64 {
        crate::matrix::dot(&self.c, x_std) + self.objective_offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintSense, LpProblem};

    fn toy() -> LpProblem {
        // minimize x + y  s.t.  x + 2y >= 4,  x - y = 1,  1 <= x <= 5, y >= 0
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![1.0, 1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintSense::Ge, 4.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintSense::Eq, 1.0)
            .unwrap();
        lp.set_bounds(0, 1.0, 5.0).unwrap();
        lp
    }

    #[test]
    fn shapes_and_slacks() {
        let sf = StandardForm::from_problem(&toy());
        assert_eq!(sf.num_rows(), 2);
        // 2 structural + 1 surplus (only the Ge row needs one).
        assert_eq!(sf.num_cols(), 3);
        assert_eq!(sf.num_structural, 2);
        // Surplus column has coefficient -1 in row 0, 0 in row 1.
        assert_eq!(sf.a[(0, 2)], -1.0);
        assert_eq!(sf.a[(1, 2)], 0.0);
    }

    #[test]
    fn lower_bound_shift_adjusts_rhs_and_offset() {
        let sf = StandardForm::from_problem(&toy());
        // x >= 1 shifts rhs: row0 4 - 1 = 3, row1 1 - 1 = 0.
        assert_eq!(sf.b, vec![3.0, 0.0]);
        assert_eq!(sf.shift, vec![1.0, 0.0]);
        assert_eq!(sf.objective_offset, 1.0);
        // x in [1,5] becomes x' in [0,4].
        assert_eq!(sf.upper[0], 4.0);
        assert_eq!(sf.upper[1], f64::INFINITY);
    }

    #[test]
    fn recover_round_trips() {
        let sf = StandardForm::from_problem(&toy());
        let x_std = vec![1.5, 0.0, 0.0];
        let x = sf.recover(&x_std);
        assert_eq!(x, vec![2.5, 0.0]);
        assert!((sf.original_objective(&x_std) - 2.5).abs() < 1e-12);
    }
}
