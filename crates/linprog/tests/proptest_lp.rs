//! Property-based tests: on randomly generated feasible bounded LPs the
//! production backend ([`linprog::solve`]) and the dense simplex oracle
//! must agree, produce feasible points, and respect basic
//! invariances of linear programming.
//!
//! Runs on the in-repo seeded harness ([`detrand::prop`]); failures print
//! the seed to replay via the `DSMEC_PROP_SEED` environment variable.

use detrand::prop::run_cases;
use detrand::{prop_assert, prop_assert_eq, ChaCha8Rng};
use linprog::simplex::solve_simplex;
use linprog::{solve, ConstraintSense, LpProblem, LpStatus};

/// A random LP that is feasible (the origin satisfies every row) and
/// bounded (every variable lives in `[0, 1]`).
#[derive(Debug, Clone)]
struct RandomLp {
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
}

impl RandomLp {
    fn build(&self) -> LpProblem {
        let n = self.objective.len();
        let mut lp = LpProblem::new(n);
        lp.set_objective(self.objective.clone()).unwrap();
        for (coeffs, rhs) in &self.rows {
            let terms: Vec<(usize, f64)> =
                coeffs.iter().enumerate().map(|(j, &a)| (j, a)).collect();
            lp.add_constraint(terms, ConstraintSense::Le, *rhs).unwrap();
        }
        for v in 0..n {
            lp.set_bounds(v, 0.0, 1.0).unwrap();
        }
        lp
    }
}

fn random_lp(rng: &mut ChaCha8Rng) -> RandomLp {
    let n = rng.gen_range(2usize..8);
    let m = rng.gen_range(1usize..5);
    let objective = (0..n).map(|_| rng.gen_range(-2.0..2.0f64)).collect();
    let rows = (0..m)
        .map(|_| {
            let coeffs = (0..n).map(|_| rng.gen_range(-2.0..2.0f64)).collect();
            (coeffs, rng.gen_range(0.5..6.0f64))
        })
        .collect();
    RandomLp { objective, rows }
}

/// Like [`random_lp`], but with strictly positive costs (then negated) so
/// the `≤` rows actually bind at the optimum and duals are informative.
fn random_lp_for_duals(rng: &mut ChaCha8Rng) -> RandomLp {
    let n = rng.gen_range(2usize..6);
    let m = rng.gen_range(1usize..4);
    let objective = (0..n).map(|_| -rng.gen_range(0.1..2.0f64)).collect();
    let rows = (0..m)
        .map(|_| {
            let coeffs = (0..n).map(|_| rng.gen_range(0.1..2.0f64)).collect();
            (coeffs, rng.gen_range(0.5..4.0f64))
        })
        .collect();
    RandomLp { objective, rows }
}

#[test]
fn backends_agree_and_are_feasible() {
    run_cases("backends_agree_and_are_feasible", 64, |rng| {
        let rlp = random_lp(rng);
        let lp = rlp.build();
        let spx = solve_simplex(&lp).unwrap();
        let rev = solve(&lp).unwrap();
        prop_assert_eq!(spx.status, LpStatus::Optimal);
        prop_assert_eq!(rev.status, LpStatus::Optimal);
        let scale = 1.0 + spx.objective.abs();
        prop_assert!(
            (spx.objective - rev.objective).abs() < 1e-6 * scale,
            "dense {} vs revised {}",
            spx.objective,
            rev.objective
        );
        prop_assert!(lp.max_violation(&spx.x) < 1e-6);
        prop_assert!(lp.max_violation(&rev.x) < 1e-6);
        Ok(())
    });
}

#[test]
fn objective_scaling_scales_optimum() {
    run_cases("objective_scaling_scales_optimum", 64, |rng| {
        let rlp = random_lp(rng);
        let k = rng.gen_range(0.1..10.0f64);
        let lp = rlp.build();
        let base = solve_simplex(&lp).unwrap();

        let mut scaled = rlp.clone();
        for c in &mut scaled.objective {
            *c *= k;
        }
        let scaled_sol = solve_simplex(&scaled.build()).unwrap();
        let tol = 1e-6 * (1.0 + base.objective.abs()) * k.max(1.0);
        prop_assert!(
            (scaled_sol.objective - k * base.objective).abs() < tol,
            "scaling by {k}: {} vs {}",
            scaled_sol.objective,
            k * base.objective
        );
        Ok(())
    });
}

#[test]
fn redundant_constraint_changes_nothing() {
    run_cases("redundant_constraint_changes_nothing", 64, |rng| {
        let rlp = random_lp(rng);
        let lp = rlp.build();
        let base = solve_simplex(&lp).unwrap();

        // x_j <= 1 already holds through the bounds; summing gives a row
        // that can never bind more tightly than the box.
        let mut lp2 = rlp.build();
        let n = rlp.objective.len();
        lp2.add_constraint(
            (0..n).map(|j| (j, 1.0)).collect(),
            ConstraintSense::Le,
            n as f64 + 1.0,
        )
        .unwrap();
        let with_redundant = solve_simplex(&lp2).unwrap();
        prop_assert!(
            (base.objective - with_redundant.objective).abs() < 1e-7 * (1.0 + base.objective.abs())
        );
        Ok(())
    });
}

#[test]
fn optimum_never_exceeds_any_feasible_point() {
    run_cases("optimum_never_exceeds_any_feasible_point", 64, |rng| {
        let rlp = random_lp(rng);
        let lp = rlp.build();
        let sol = solve_simplex(&lp).unwrap();
        // The origin is always feasible here, so optimum <= c·0 = 0.
        prop_assert!(sol.objective <= 1e-9);
        Ok(())
    });
}

/// Dual values really are rhs sensitivities: perturbing a binding
/// row's rhs by ε moves the optimum by ≈ yᵢ·ε.
#[test]
fn duals_are_rhs_sensitivities() {
    run_cases("duals_are_rhs_sensitivities", 32, |rng| {
        let rlp = random_lp_for_duals(rng);
        let lp = rlp.build();
        let base = solve_simplex(&lp).unwrap();
        prop_assert_eq!(base.status, LpStatus::Optimal);
        let duals = base.duals.clone().expect("simplex must report duals");
        let eps = 1e-4;
        for (i, (coeffs, rhs)) in rlp.rows.iter().enumerate() {
            let mut perturbed = rlp.clone();
            perturbed.rows[i] = (coeffs.clone(), rhs + eps);
            let sol = solve_simplex(&perturbed.build()).unwrap();
            if sol.status != LpStatus::Optimal {
                continue;
            }
            let predicted = base.objective + duals[i] * eps;
            // Degenerate bases can break the first-order prediction, so
            // allow a loose band; the sign and magnitude must agree for
            // well-behaved rows.
            prop_assert!(
                (sol.objective - predicted).abs() < 1e-2 * (1.0 + base.objective.abs()),
                "row {i}: predicted {predicted}, got {}",
                sol.objective
            );
            // A <= row in a minimization can only have a nonpositive
            // shadow price: relaxing it cannot hurt.
            prop_assert!(duals[i] <= 1e-7, "dual {} positive", duals[i]);
        }
        Ok(())
    });
}
