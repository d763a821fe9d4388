//! # linprog — a linear-programming substrate
//!
//! Self-contained LP solvers backing the LP-HTA task-assignment algorithm
//! of the Data-Shared MEC reproduction. One production backend solves
//! every [`LpProblem`]:
//!
//! * [`solve`] / [`solve_from`] run [`revised::solve_revised_from`] — a
//!   sparse revised simplex over a CSC matrix ([`sparse::CscMatrix`])
//!   with an LU-factored basis extended by a product-form eta file
//!   ([`basis::BasisFactor`]), warm-startable from a previous [`Basis`];
//! * [`simplex::solve_simplex`] — the two-phase dense simplex with
//!   bounded variables — is their numerical fallback and the reference
//!   oracle the tests compare against.
//!
//! The paper's Step 1 cites Karmarkar's interior-point method only to
//! show the relaxation is solvable in polynomial time; any exact LP
//! solver yields the same optimum, and the simplex is the one that pays
//! on the block-angular, extremely sparse HTA relaxation.
//!
//! Every kernel is serial: parallelism lives one level up, across
//! independent LPs (one per cluster), so a solve is bit-deterministic.
//!
//! Problems are stated as minimization with row constraints of any sense
//! and per-variable bounds:
//!
//! ```
//! use linprog::{LpProblem, ConstraintSense, solve, simplex};
//!
//! // minimize -x - 2y  subject to  x + y <= 4,  0 <= x,y <= 3
//! let mut lp = LpProblem::new(2);
//! lp.set_objective(vec![-1.0, -2.0])?;
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)?;
//! lp.set_bounds(0, 0.0, 3.0)?;
//! lp.set_bounds(1, 0.0, 3.0)?;
//!
//! let sol = solve(&lp)?;
//! assert!(sol.is_optimal());
//! assert!((sol.objective - (-7.0)).abs() < 1e-6);
//! // The dense oracle agrees.
//! assert!((simplex::solve_simplex(&lp)?.objective - sol.objective).abs() < 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Numerical kernels index several parallel arrays by row/column; the
// "use an iterator" suggestion obscures them. `!(x > 0)`-style guards are
// deliberate NaN catches.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod basis;
pub mod error;
pub mod matrix;
pub mod problem;
pub mod revised;
pub mod simplex;
pub mod sparse;

pub use error::LpError;
pub use problem::{Bounds, Constraint, ConstraintSense, LpProblem, LpSolution, LpStatus};
pub use revised::{Basis, BasisVarStatus, SolveOutcome};

/// Solves `lp` cold: [`solve_from`] without a warm basis, keeping only
/// the solution.
///
/// # Errors
///
/// Returns [`LpError::NumericalFailure`] only when both the revised and
/// the dense backend fail.
pub fn solve(lp: &LpProblem) -> Result<LpSolution, LpError> {
    solve_from(lp, &[]).map(|outcome| outcome.solution)
}

/// Solves `lp` with the sparse revised simplex, warm-starting from the
/// first of the `warm` candidates it accepts (tried in order; `&[]`
/// solves cold), and returns the final basis alongside the solution so
/// sweeps can chain adjacent points.
///
/// Falls back to the dense simplex on numerical failure; the fallback
/// reports `adopted: None` and no basis (dense solves don't export one),
/// so a chain simply goes cold at that point.
///
/// # Errors
///
/// Returns [`LpError::NumericalFailure`] only when both the revised and
/// the dense backend fail.
pub fn solve_from(lp: &LpProblem, warm: &[&Basis]) -> Result<SolveOutcome, LpError> {
    match revised::solve_revised_from(lp, warm) {
        Ok(outcome) => Ok(outcome),
        // A singular basis the eta file cannot recover from; the dense
        // simplex keeps its own inverse and gets the verdict.
        Err(_) => simplex::solve_simplex(lp).map(|solution| SolveOutcome {
            solution,
            basis: None,
            adopted: None,
            warm_rejection: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_reaches_all_backends() {
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 2.0)
            .unwrap();
        let backends = [
            solve(&lp).unwrap(),
            solve_from(&lp, &[]).unwrap().solution,
            simplex::solve_simplex(&lp).unwrap(),
        ];
        for sol in backends {
            assert!(sol.is_optimal());
            assert!((sol.objective - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn solve_from_chains_bases_across_calls() {
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![-1.0, -2.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        lp.set_bounds(0, 0.0, 3.0).unwrap();
        lp.set_bounds(1, 0.0, 3.0).unwrap();
        let cold = solve_from(&lp, &[]).unwrap();
        assert!(cold.solution.is_optimal());
        assert!(cold.adopted.is_none());
        let basis = cold.basis.expect("optimal solve exports a basis");
        let warm = solve_from(&lp, &[&basis]).unwrap();
        assert!(warm.adopted.is_some());
        assert!((warm.solution.objective - cold.solution.objective).abs() < 1e-9);
    }

    #[test]
    fn infeasible_is_certified_via_fallback() {
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 3.0)
            .unwrap();
        assert_eq!(solve(&lp).unwrap().status, LpStatus::Infeasible);
        assert_eq!(
            solve_from(&lp, &[]).unwrap().solution.status,
            LpStatus::Infeasible
        );
    }
}
