//! Differential coverage for the sparse revised simplex: on a reference
//! fixture, degenerate cases (fixed variables, conflicting rows, no rows
//! at all), and randomized instances, the revised backend must agree with
//! the dense simplex oracle on status, objective, and feasibility — and
//! warm starts must never change the answer.

use detrand::prop::run_cases;
use detrand::{prop_assert, prop_assert_eq, ChaCha8Rng};
use linprog::revised::{solve_revised, solve_revised_from};
use linprog::simplex::solve_simplex;
use linprog::{solve, solve_from, ConstraintSense, LpProblem, LpStatus};

/// A reference problem that uses every row sense, with finite bounds on
/// both variables.
fn reference_problem() -> LpProblem {
    let mut lp = LpProblem::new(2);
    lp.set_objective(vec![1.0, 2.0]).unwrap();
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Ge, 1.0)
        .unwrap();
    lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintSense::Le, 2.0)
        .unwrap();
    lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintSense::Eq, 2.0)
        .unwrap();
    lp.set_bounds(0, 0.0, 3.0).unwrap();
    lp.set_bounds(1, 0.0, 5.0).unwrap();
    lp
}

fn assert_backends_agree(lp: &LpProblem, label: &str) {
    let dense = solve_simplex(lp).unwrap();
    let revised = solve(lp).unwrap();
    assert_eq!(
        revised.status, dense.status,
        "{label}: status mismatch (dense {:?}, revised {:?})",
        dense.status, revised.status
    );
    if dense.status != LpStatus::Optimal {
        return;
    }
    let scale = 1.0 + dense.objective.abs();
    assert!(
        (revised.objective - dense.objective).abs() < 1e-6 * scale,
        "{label}: objective dense {} vs revised {}",
        dense.objective,
        revised.objective
    );
    assert!(
        lp.max_violation(&revised.x) < 1e-6,
        "{label}: revised point violates constraints by {}",
        lp.max_violation(&revised.x)
    );
}

#[test]
fn revised_matches_oracles_on_mps_fixtures() {
    let lp = reference_problem();
    assert_backends_agree(&lp, "reference problem");
}

#[test]
fn revised_handles_degenerate_presolve_cases() {
    // All variables fixed by bounds: nothing for the simplex to do but
    // confirm feasibility of the only point.
    let mut fixed = LpProblem::new(2);
    fixed.set_objective(vec![3.0, 4.0]).unwrap();
    fixed
        .add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 10.0)
        .unwrap();
    fixed.set_bounds(0, 1.0, 1.0).unwrap();
    fixed.set_bounds(1, 2.0, 2.0).unwrap();
    assert_backends_agree(&fixed, "fully fixed variables");
    let direct = solve(&fixed).unwrap();
    assert_eq!(direct.status, LpStatus::Optimal);
    assert!((direct.objective - 11.0).abs() < 1e-9);

    // Conflicting singleton rows: infeasible, and every backend says so.
    let mut squeezed = LpProblem::new(1);
    squeezed.set_objective(vec![1.0]).unwrap();
    squeezed
        .add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
        .unwrap();
    squeezed
        .add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 2.0)
        .unwrap();
    let revised = solve(&squeezed).unwrap();
    assert_eq!(revised.status, LpStatus::Infeasible);

    // Redundant duplicated rows make the basis degenerate; termination
    // and agreement must survive the ties.
    let mut degenerate = LpProblem::new(2);
    degenerate.set_objective(vec![-1.0, -1.0]).unwrap();
    for _ in 0..3 {
        degenerate
            .add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 2.0)
            .unwrap();
    }
    degenerate
        .add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 2.0)
        .unwrap();
    assert_backends_agree(&degenerate, "duplicated degenerate rows");

    // A row that constrains nothing.
    let mut vacuous = LpProblem::new(1);
    vacuous.set_objective(vec![1.0]).unwrap();
    vacuous
        .add_constraint(vec![(0, 0.0)], ConstraintSense::Le, 1.0)
        .unwrap();
    vacuous.set_bounds(0, 0.5, 2.0).unwrap();
    assert_backends_agree(&vacuous, "vacuous row");

    // No rows at all: each variable sits at the bound its cost prefers,
    // and every entry point agrees without panicking.
    let mut row_free = LpProblem::new(3);
    row_free.set_objective(vec![2.0, -1.0, 0.0]).unwrap();
    row_free.set_bounds(0, 1.0, 4.0).unwrap();
    row_free.set_bounds(1, -2.0, 3.0).unwrap();
    row_free.set_bounds(2, 0.5, f64::INFINITY).unwrap();
    let answers = [
        solve(&row_free).unwrap(),
        solve_from(&row_free, &[]).unwrap().solution,
        solve_revised(&row_free).unwrap(),
        solve_revised_from(&row_free, &[]).unwrap().solution,
        solve_simplex(&row_free).unwrap(),
    ];
    for sol in &answers {
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.x, vec![1.0, 3.0, 0.5]);
        assert_eq!(sol.objective, -1.0);
        assert_eq!(sol.duals.as_deref(), Some(&[][..]));
    }

    // A negative cost on an infinite upper bound: unbounded on both.
    let mut ray = LpProblem::new(2);
    ray.set_objective(vec![1.0, -1.0]).unwrap();
    let dense = solve_simplex(&ray).unwrap();
    let revised = solve(&ray).unwrap();
    assert_eq!(dense.status, LpStatus::Unbounded);
    assert_eq!(revised.status, LpStatus::Unbounded);
    assert!(revised.duals.is_none());
}

/// The random family from the property suite: feasible at the origin,
/// bounded in `[0,1]^n`.
fn random_lp(rng: &mut ChaCha8Rng) -> LpProblem {
    let n = rng.gen_range(2usize..8);
    let m = rng.gen_range(1usize..5);
    let mut lp = LpProblem::new(n);
    lp.set_objective((0..n).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .unwrap();
    for _ in 0..m {
        let terms: Vec<(usize, f64)> = (0..n).map(|j| (j, rng.gen_range(-2.0..2.0))).collect();
        lp.add_constraint(terms, ConstraintSense::Le, rng.gen_range(0.5..6.0))
            .unwrap();
    }
    for v in 0..n {
        lp.set_bounds(v, 0.0, 1.0).unwrap();
    }
    lp
}

#[test]
fn revised_agrees_with_both_oracles_on_random_instances() {
    run_cases("revised_vs_oracles", 64, |rng| {
        let lp = random_lp(rng);
        let dense = solve_simplex(&lp).map_err(|e| e.to_string())?;
        let revised = solve(&lp).map_err(|e| e.to_string())?;
        prop_assert_eq!(dense.status, LpStatus::Optimal);
        prop_assert_eq!(revised.status, LpStatus::Optimal);
        let scale = 1.0 + dense.objective.abs();
        prop_assert!(
            (revised.objective - dense.objective).abs() < 1e-6 * scale,
            "dense {} vs revised {}",
            dense.objective,
            revised.objective
        );
        prop_assert!(lp.max_violation(&revised.x) < 1e-6);
        Ok(())
    });
}

#[test]
fn warm_started_solves_match_cold_solves_on_random_instances() {
    run_cases("revised_warm_vs_cold", 48, |rng| {
        // A base instance and a same-shape neighbor (what adjacent sweep
        // points look like): chain the base's basis into the neighbor and
        // demand the cold answer.
        let base = random_lp(rng);
        let mut neighbor = base.clone();
        let nudge = rng.gen_range(-0.2..0.2);
        let n = neighbor.num_vars();
        let mut objective = neighbor.objective().to_vec();
        objective[rng.gen_range(0..n)] += nudge;
        neighbor
            .set_objective(objective)
            .map_err(|e| e.to_string())?;

        let seed = solve_from(&base, &[]).map_err(|e| e.to_string())?;
        prop_assert_eq!(seed.solution.status, LpStatus::Optimal);
        let Some(basis) = seed.basis else {
            return Ok(()); // no exportable basis (artificial stuck); nothing to chain
        };
        let warm = solve_revised_from(&neighbor, &[&basis]).map_err(|e| e.to_string())?;
        let cold = solve_revised_from(&neighbor, &[]).map_err(|e| e.to_string())?;
        prop_assert_eq!(warm.solution.status, cold.solution.status);
        if cold.solution.status == LpStatus::Optimal {
            let scale = 1.0 + cold.solution.objective.abs();
            prop_assert!(
                (warm.solution.objective - cold.solution.objective).abs() < 1e-7 * scale,
                "warm {} vs cold {} (adopted: {:?})",
                warm.solution.objective,
                cold.solution.objective,
                warm.adopted
            );
            prop_assert!(neighbor.max_violation(&warm.solution.x) < 1e-6);
        }
        Ok(())
    });
}
