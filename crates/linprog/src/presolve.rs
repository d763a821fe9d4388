//! Presolve: cheap, provably safe problem reductions applied before a
//! solver runs. The reductions implemented here are the classic ones that
//! matter for LP-HTA-shaped problems:
//!
//! * **fixed variables** (`lower == upper`) are substituted out;
//! * **empty rows** are checked for consistency and dropped;
//! * **row singletons** (`a·x ≤ b` with one term) are folded into the
//!   variable's bounds;
//! * **forcing rows** whose bound activity already implies satisfaction
//!   are dropped.
//!
//! [`Presolved::restore`] maps a reduced solution back to the original
//! variable space.

use crate::error::LpError;
use crate::problem::{ConstraintSense, LpProblem, LpSolution, LpStatus};

/// Outcome of presolving: either a reduced problem plus restore data, or
/// an immediate verdict.
#[derive(Debug)]
pub enum PresolveOutcome {
    /// A (possibly) smaller problem remains to be solved.
    Reduced(Presolved),
    /// Presolve proved infeasibility outright.
    Infeasible,
    /// Presolve fixed every variable; the full solution is known.
    Solved(LpSolution),
}

/// A reduced problem together with the bookkeeping to undo the reduction.
#[derive(Debug)]
pub struct Presolved {
    /// The reduced problem.
    pub problem: LpProblem,
    /// For each original variable: either its fixed value or its column
    /// in the reduced problem.
    mapping: Vec<VarFate>,
    /// Objective contribution of the fixed variables.
    fixed_objective: f64,
    original_vars: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarFate {
    Fixed(f64),
    Kept(usize),
}

const FIX_TOL: f64 = 1e-12;

/// Applies the reductions to `lp`.
///
/// # Errors
///
/// Propagates construction errors from rebuilding the reduced problem
/// (none are expected for a valid input).
pub fn presolve(lp: &LpProblem) -> Result<PresolveOutcome, LpError> {
    let n = lp.num_vars();

    // Working copies of the bounds, tightened by singleton rows.
    let mut lower: Vec<f64> = lp.bounds().iter().map(|b| b.lower).collect();
    let mut upper: Vec<f64> = lp.bounds().iter().map(|b| b.upper).collect();
    let mut keep_row = vec![true; lp.num_constraints()];

    for (r, c) in lp.constraints().iter().enumerate() {
        let live: Vec<&(usize, f64)> = c.terms.iter().filter(|(_, a)| a.abs() > 0.0).collect();
        match live.len() {
            0 => {
                // Empty row: either trivially true or infeasible.
                let violated = match c.sense {
                    ConstraintSense::Le => 0.0 > c.rhs + FIX_TOL,
                    ConstraintSense::Ge => 0.0 < c.rhs - FIX_TOL,
                    ConstraintSense::Eq => c.rhs.abs() > FIX_TOL,
                };
                if violated {
                    return Ok(PresolveOutcome::Infeasible);
                }
                keep_row[r] = false;
            }
            1 => {
                // Singleton row folds into bounds.
                let &(j, a) = live[0];
                let b = c.rhs / a;
                match (c.sense, a > 0.0) {
                    (ConstraintSense::Le, true) | (ConstraintSense::Ge, false) => {
                        upper[j] = upper[j].min(b);
                    }
                    (ConstraintSense::Le, false) | (ConstraintSense::Ge, true) => {
                        lower[j] = lower[j].max(b);
                    }
                    (ConstraintSense::Eq, _) => {
                        lower[j] = lower[j].max(b);
                        upper[j] = upper[j].min(b);
                    }
                }
                keep_row[r] = false;
            }
            _ => {}
        }
    }

    for j in 0..n {
        if lower[j] > upper[j] + FIX_TOL {
            return Ok(PresolveOutcome::Infeasible);
        }
    }

    // Decide each variable's fate.
    let mut mapping = Vec::with_capacity(n);
    let mut kept = 0usize;
    let mut fixed_objective = 0.0;
    for j in 0..n {
        if (upper[j] - lower[j]).abs() <= FIX_TOL {
            mapping.push(VarFate::Fixed(lower[j]));
            fixed_objective += lp.objective()[j] * lower[j];
        } else {
            mapping.push(VarFate::Kept(kept));
            kept += 1;
        }
    }

    if kept == 0 {
        // Everything fixed: verify the remaining rows directly.
        let x: Vec<f64> = mapping
            .iter()
            .map(|f| match f {
                VarFate::Fixed(v) => *v,
                VarFate::Kept(_) => unreachable!("kept == 0"),
            })
            .collect();
        if lp.max_violation(&x) > 1e-7 {
            return Ok(PresolveOutcome::Infeasible);
        }
        let objective = lp.objective_value(&x);
        return Ok(PresolveOutcome::Solved(LpSolution {
            status: LpStatus::Optimal,
            x,
            objective,
            iterations: 0,
            duals: None,
        }));
    }

    // Rebuild the reduced problem.
    let mut reduced = LpProblem::new(kept);
    let mut c_red = vec![0.0; kept];
    for j in 0..n {
        if let VarFate::Kept(col) = mapping[j] {
            c_red[col] = lp.objective()[j];
            reduced.set_bounds(col, lower[j], upper[j])?;
        }
    }
    reduced.set_objective(c_red)?;

    for (r, row) in lp.constraints().iter().enumerate() {
        if !keep_row[r] {
            continue;
        }
        let mut rhs = row.rhs;
        let mut terms = Vec::new();
        for &(j, a) in &row.terms {
            match mapping[j] {
                VarFate::Fixed(v) => rhs -= a * v,
                VarFate::Kept(col) => terms.push((col, a)),
            }
        }
        if terms.is_empty() {
            let violated = match row.sense {
                ConstraintSense::Le => 0.0 > rhs + 1e-7,
                ConstraintSense::Ge => 0.0 < rhs - 1e-7,
                ConstraintSense::Eq => rhs.abs() > 1e-7,
            };
            if violated {
                return Ok(PresolveOutcome::Infeasible);
            }
            continue;
        }
        reduced.add_constraint(terms, row.sense, rhs)?;
    }

    // A reduced problem with zero rows still needs one row for the
    // solvers' standard form; add a vacuous one.
    if reduced.num_constraints() == 0 {
        reduced.add_constraint(vec![(0, 0.0)], ConstraintSense::Le, 1.0)?;
    }

    Ok(PresolveOutcome::Reduced(Presolved {
        problem: reduced,
        mapping,
        fixed_objective,
        original_vars: n,
    }))
}

impl Presolved {
    /// Maps a reduced-space solution back to the original variables.
    pub fn restore(&self, reduced: &LpSolution) -> LpSolution {
        let mut x = vec![0.0; self.original_vars];
        for (j, fate) in self.mapping.iter().enumerate() {
            x[j] = match fate {
                VarFate::Fixed(v) => *v,
                VarFate::Kept(col) => reduced.x[*col],
            };
        }
        LpSolution {
            status: reduced.status,
            objective: reduced.objective + self.fixed_objective,
            x,
            iterations: reduced.iterations,
            // Row identities changed during presolve; do not pretend the
            // reduced duals map onto the original rows.
            duals: None,
        }
    }
}

/// The block-angular structure [`detect_blocks`] found: groups of columns
/// that interact only through a small set of coupling rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStructure {
    /// Column groups, each sorted ascending, ordered by smallest member.
    /// Columns inside a block share at least one *local* row (support ≤
    /// the threshold) with another member; columns in different blocks
    /// only ever meet in coupling rows.
    pub blocks: Vec<Vec<usize>>,
    /// Rows whose support exceeds the threshold — the rows that couple
    /// the blocks together (e.g. the per-station capacity row C3 in the
    /// HTA relaxation, which touches every task of the cluster).
    pub coupling_rows: Vec<usize>,
}

/// Detects block-angular structure: treats every row with at most
/// `max_support` nonzeros as *local* and unions its columns; wider rows
/// are reported as coupling rows. For the HTA cluster relaxation (each
/// task contributes a 3-variable assignment row, devices add narrow
/// capacity rows, and the station capacity row spans the whole cluster)
/// this recovers the per-task/per-device blocks hanging off the single
/// station coupling row.
#[must_use]
pub fn detect_blocks(lp: &LpProblem, max_support: usize) -> BlockStructure {
    let n = lp.num_vars();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut j: usize) -> usize {
        while parent[j] != j {
            parent[j] = parent[parent[j]]; // path halving
            j = parent[j];
        }
        j
    }

    let mut coupling_rows = Vec::new();
    for (r, row) in lp.constraints().iter().enumerate() {
        let live: Vec<usize> = row
            .terms
            .iter()
            .filter(|(_, a)| a.abs() > 0.0)
            .map(|&(j, _)| j)
            .collect();
        if live.len() > max_support {
            coupling_rows.push(r);
            continue;
        }
        for w in live.windows(2) {
            let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if a != b {
                // Union by smaller root keeps block ordering deterministic.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi] = lo;
            }
        }
    }

    let mut by_root: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        let root = find(&mut parent, j);
        by_root[root].push(j);
    }
    let blocks: Vec<Vec<usize>> = by_root.into_iter().filter(|b| !b.is_empty()).collect();
    BlockStructure {
        blocks,
        coupling_rows,
    }
}

/// One block of a block-angular problem extracted as a standalone
/// [`LpProblem`] by [`extract_block`], with the column mapping back to
/// the original problem.
#[derive(Debug, Clone)]
pub struct BlockProblem {
    /// The standalone subproblem over the block's columns (renumbered to
    /// `0..columns.len()`), containing every row fully supported by the
    /// block. Rows that touch other blocks — the coupling rows — are
    /// omitted; reconciling them is the caller's serial pass.
    pub problem: LpProblem,
    /// Original column index of each subproblem column, ascending.
    pub columns: Vec<usize>,
}

/// Extracts block `block` of `structure` as a standalone problem whose
/// solution (and exported basis) can be chained across adjacent instances
/// independently of the other blocks — the per-block warm-solve unit the
/// online serve loop shards over. Only rows whose live support lies
/// entirely inside the block are carried; with all coupling rows slack at
/// the blockwise optimum, the blockwise objectives sum to the full
/// problem's optimum.
///
/// # Errors
///
/// Returns [`LpError::VariableOutOfRange`] when `block` does not index a
/// block of `structure`, and propagates construction errors when
/// `structure` does not describe `lp` (stale column indices).
pub fn extract_block(
    lp: &LpProblem,
    structure: &BlockStructure,
    block: usize,
) -> Result<BlockProblem, LpError> {
    let Some(columns) = structure.blocks.get(block) else {
        return Err(LpError::VariableOutOfRange {
            var: block,
            num_vars: structure.blocks.len(),
        });
    };
    let mut local = vec![usize::MAX; lp.num_vars()];
    for (sub, &j) in columns.iter().enumerate() {
        if j >= lp.num_vars() {
            return Err(LpError::VariableOutOfRange {
                var: j,
                num_vars: lp.num_vars(),
            });
        }
        local[j] = sub;
    }
    let mut problem = LpProblem::new(columns.len());
    let mut objective = Vec::with_capacity(columns.len());
    for (sub, &j) in columns.iter().enumerate() {
        objective.push(lp.objective()[j]);
        let b = &lp.bounds()[j];
        problem.set_bounds(sub, b.lower, b.upper)?;
    }
    problem.set_objective(objective)?;
    for row in lp.constraints() {
        let live: Vec<(usize, f64)> = row
            .terms
            .iter()
            .filter(|(_, a)| a.abs() > 0.0)
            .copied()
            .collect();
        if live.is_empty() || !live.iter().all(|&(j, _)| local[j] != usize::MAX) {
            continue;
        }
        let terms: Vec<(usize, f64)> = live.into_iter().map(|(j, a)| (local[j], a)).collect();
        problem.add_constraint(terms, row.sense, row.rhs)?;
    }
    // The solvers' standard form wants at least one row; a block held
    // together only by bounds gets a vacuous one.
    if problem.num_constraints() == 0 {
        problem.add_constraint(vec![(0, 0.0)], ConstraintSense::Le, 1.0)?;
    }
    Ok(BlockProblem {
        problem,
        columns: columns.clone(),
    })
}

/// Convenience wrapper: presolve, solve the reduction with [`crate::solve`],
/// and restore.
///
/// # Errors
///
/// Propagates solver errors.
pub fn presolve_and_solve(lp: &LpProblem) -> Result<LpSolution, LpError> {
    match presolve(lp)? {
        PresolveOutcome::Infeasible => Ok(LpSolution {
            status: LpStatus::Infeasible,
            x: vec![0.0; lp.num_vars()],
            objective: 0.0,
            iterations: 0,
            duals: None,
        }),
        PresolveOutcome::Solved(sol) => Ok(sol),
        PresolveOutcome::Reduced(p) => {
            let inner = crate::solve(&p.problem)?;
            Ok(p.restore(&inner))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve_simplex;
    use crate::{ConstraintSense, LpProblem};

    #[test]
    fn fixed_variables_are_substituted() {
        // min x + 2y, x fixed at 1.5, y in [0, 3], x + y <= 4.
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![1.0, 2.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        lp.set_bounds(0, 1.5, 1.5).unwrap();
        lp.set_bounds(1, 0.0, 3.0).unwrap();
        let out = presolve_and_solve(&lp).unwrap();
        assert!(out.is_optimal());
        assert!((out.objective - 1.5).abs() < 1e-9);
        assert_eq!(out.x[0], 1.5);
    }

    #[test]
    fn singleton_rows_become_bounds() {
        // min -x s.t. 2x <= 6, x <= 10 bound → x = 3.
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![-1.0]).unwrap();
        lp.add_constraint(vec![(0, 2.0)], ConstraintSense::Le, 6.0)
            .unwrap();
        lp.set_bounds(0, 0.0, 10.0).unwrap();
        let out = presolve_and_solve(&lp).unwrap();
        assert!((out.objective - (-3.0)).abs() < 1e-9);
    }

    #[test]
    fn contradictory_singletons_are_infeasible() {
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 5.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 2.0)
            .unwrap();
        match presolve(&lp).unwrap() {
            PresolveOutcome::Infeasible => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn fully_fixed_problem_is_solved_in_presolve() {
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![3.0, 4.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 10.0)
            .unwrap();
        lp.set_bounds(0, 2.0, 2.0).unwrap();
        lp.set_bounds(1, 1.0, 1.0).unwrap();
        match presolve(&lp).unwrap() {
            PresolveOutcome::Solved(sol) => {
                assert!((sol.objective - 10.0).abs() < 1e-12);
                assert_eq!(sol.x, vec![2.0, 1.0]);
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn fully_fixed_infeasible_is_detected() {
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 5.0)
            .unwrap();
        lp.set_bounds(0, 1.0, 1.0).unwrap();
        match presolve(&lp).unwrap() {
            PresolveOutcome::Infeasible => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn presolved_solution_matches_direct_solve() {
        // A mixed problem with one fixed variable, one singleton row.
        let mut lp = LpProblem::new(3);
        lp.set_objective(vec![1.0, -2.0, 0.5]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintSense::Le, 5.0)
            .unwrap();
        lp.add_constraint(vec![(1, 2.0)], ConstraintSense::Le, 3.0)
            .unwrap();
        lp.set_bounds(0, 0.5, 0.5).unwrap();
        lp.set_bounds(1, 0.0, 4.0).unwrap();
        lp.set_bounds(2, 0.0, 4.0).unwrap();
        let direct = solve_simplex(&lp).unwrap();
        let pres = presolve_and_solve(&lp).unwrap();
        assert!((direct.objective - pres.objective).abs() < 1e-9);
        assert!(lp.max_violation(&pres.x) < 1e-9);
    }

    #[test]
    fn detect_blocks_separates_block_angular_structure() {
        // Two 2-variable blocks plus one coupling row over everything —
        // the miniature of an HTA cluster: narrow assignment rows, one
        // wide station-capacity row.
        let mut lp = LpProblem::new(4);
        lp.set_objective(vec![1.0; 4]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 1.0)
            .unwrap();
        lp.add_constraint(vec![(2, 1.0), (3, 1.0)], ConstraintSense::Eq, 1.0)
            .unwrap();
        lp.add_constraint(
            vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            ConstraintSense::Le,
            3.0,
        )
        .unwrap();
        let structure = super::detect_blocks(&lp, 3);
        assert_eq!(structure.blocks, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(structure.coupling_rows, vec![2]);
    }

    #[test]
    fn detect_blocks_merges_through_shared_local_rows() {
        // A chain of narrow rows links all columns into one block; no row
        // exceeds the support threshold, so nothing couples.
        let mut lp = LpProblem::new(3);
        lp.set_objective(vec![1.0; 3]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        lp.add_constraint(vec![(1, 1.0), (2, -1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        let structure = super::detect_blocks(&lp, 3);
        assert_eq!(structure.blocks, vec![vec![0, 1, 2]]);
        assert!(structure.coupling_rows.is_empty());

        // Explicit zeros do not join columns.
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![1.0; 2]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 0.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        let structure = super::detect_blocks(&lp, 3);
        assert_eq!(structure.blocks.len(), 2);
    }

    #[test]
    fn extracted_blocks_solve_independently_and_chain_warm() {
        // The block-angular miniature again: two assignment blocks under
        // one slack coupling row. Blockwise optima must sum to the full
        // optimum, and each block's exported basis must warm-start its
        // own next solve.
        let mut lp = LpProblem::new(4);
        lp.set_objective(vec![1.0, 2.0, 3.0, 1.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 1.0)
            .unwrap();
        lp.add_constraint(vec![(2, 1.0), (3, 1.0)], ConstraintSense::Eq, 1.0)
            .unwrap();
        lp.add_constraint(
            vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            ConstraintSense::Le,
            3.0,
        )
        .unwrap();
        for j in 0..4 {
            lp.set_bounds(j, 0.0, 1.0).unwrap();
        }
        let structure = super::detect_blocks(&lp, 3);
        assert_eq!(structure.blocks.len(), 2);
        let full = solve_simplex(&lp).unwrap();
        let mut blockwise = 0.0;
        for k in 0..structure.blocks.len() {
            let sub = super::extract_block(&lp, &structure, k).unwrap();
            assert_eq!(sub.problem.num_vars(), 2);
            let cold = crate::solve_from(&sub.problem, &[]).unwrap();
            assert!(cold.solution.is_optimal());
            blockwise += cold.solution.objective;
            let basis = cold.basis.expect("optimal revised solve exports a basis");
            let warm = crate::solve_from(&sub.problem, &[&basis]).unwrap();
            assert!(warm.adopted.is_some(), "block {k} must chain its own basis");
            assert!((warm.solution.objective - cold.solution.objective).abs() < 1e-9);
        }
        assert!((blockwise - full.objective).abs() < 1e-9);
        // Out-of-range blocks are a typed error, not a panic.
        assert!(super::extract_block(&lp, &structure, 9).is_err());
    }

    #[test]
    fn empty_rows_are_dropped_or_rejected() {
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![1.0]).unwrap();
        lp.add_constraint(vec![], ConstraintSense::Le, 1.0).unwrap(); // 0 <= 1 ok
        lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 0.5)
            .unwrap();
        let out = presolve_and_solve(&lp).unwrap();
        assert!((out.objective - 0.5).abs() < 1e-9);

        let mut bad = LpProblem::new(1);
        bad.set_objective(vec![1.0]).unwrap();
        bad.add_constraint(vec![], ConstraintSense::Ge, 1.0)
            .unwrap(); // 0 >= 1
        match presolve(&bad).unwrap() {
            PresolveOutcome::Infeasible => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }
}
