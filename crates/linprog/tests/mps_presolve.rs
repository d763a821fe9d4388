//! Coverage for the MPS reader/writer and the presolve layer: malformed
//! inputs fail with errors (never panics or silent misparses), empty and
//! degenerate problems resolve outright, and presolve-then-solve agrees
//! with solving the original problem on both the production backend and
//! the dense simplex oracle.

use detrand::prop::run_cases;
use detrand::{prop_assert, ChaCha8Rng};
use linprog::mps::{parse_mps, write_mps};
use linprog::presolve::{presolve, presolve_and_solve, PresolveOutcome};
use linprog::simplex::solve_simplex;
use linprog::{solve, ConstraintSense, LpError, LpProblem, LpSolution, LpStatus};

type Backend = fn(&LpProblem) -> Result<LpSolution, LpError>;

/// The production backend and the dense oracle, by name.
const BACKENDS: [(&str, Backend); 2] = [("revised", solve), ("dense", solve_simplex)];

/// A 2-variable LP exercising every row sense and bound type the MPS
/// dialect supports: min x0 + 2 x1 s.t. x0 + x1 ≥ 1, x0 − x1 ≤ 2,
/// x0 + 2 x1 = 2, 0 ≤ x0 ≤ 3, x1 free below 5.
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

#[test]
fn mps_round_trips_and_solves_identically() {
    let lp = reference_problem();
    let text = write_mps(&lp, "REF");
    let back = parse_mps(&text).unwrap();
    assert_eq!(back.num_vars(), lp.num_vars());
    assert_eq!(back.num_constraints(), lp.num_constraints());
    for (solver, backend) in BACKENDS {
        let a = backend(&lp).unwrap();
        let b = backend(&back).unwrap();
        assert_eq!(a.status, LpStatus::Optimal, "{solver}");
        assert_eq!(b.status, LpStatus::Optimal, "{solver}");
        assert!(
            (a.objective - b.objective).abs() < 1e-8 * (1.0 + a.objective.abs()),
            "{solver}: {} vs {} after the MPS round trip",
            a.objective,
            b.objective
        );
    }
}

#[test]
fn malformed_mps_inputs_error_instead_of_misparsing() {
    let cases: &[(&str, &str)] = &[
        ("empty input", ""),
        ("no sections", "NAME  X\nENDATA\n"),
        (
            "unknown row in COLUMNS",
            "NAME X\nROWS\n N  COST\n L  R0\nCOLUMNS\n    X0  NOPE  1.0\nRHS\nENDATA\n",
        ),
        (
            "bad number",
            "NAME X\nROWS\n N  COST\n L  R0\nCOLUMNS\n    X0  R0  one\nRHS\nENDATA\n",
        ),
        (
            "RANGES unsupported",
            "NAME X\nROWS\n N  COST\n L  R0\nRANGES\nENDATA\n",
        ),
        (
            "unknown bound tag",
            "NAME X\nROWS\n N  COST\n L  R0\nCOLUMNS\n    X0  R0  1\nRHS\nBOUNDS\n XX BND  X0  1\nENDATA\n",
        ),
        (
            "duplicate objective row",
            "NAME X\nROWS\n N  COST\n N  COST2\nCOLUMNS\nRHS\nENDATA\n",
        ),
        (
            "rhs for unknown row",
            "NAME X\nROWS\n N  COST\n L  R0\nCOLUMNS\n    X0  R0  1\nRHS\n    RHS  R9  1\nENDATA\n",
        ),
    ];
    for (label, text) in cases {
        assert!(
            parse_mps(text).is_err(),
            "{label}: parsed without error:\n{text}"
        );
    }
}

#[test]
fn mps_writer_output_is_stable_and_parseable() {
    // A problem with zero objective coefficients and zero RHS rows —
    // the writer skips those entries and the parser must still accept
    // the result.
    let mut lp = LpProblem::new(2);
    lp.set_objective(vec![0.0, 1.0]).unwrap();
    lp.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 0.0)
        .unwrap();
    let text = write_mps(&lp, "SPARSE");
    let back = parse_mps(&text).unwrap();
    assert_eq!(back.num_vars(), 2);
    assert_eq!(back.num_constraints(), 1);
    let sol = solve_simplex(&back).unwrap();
    assert_eq!(sol.status, LpStatus::Optimal);
}

#[test]
fn presolve_resolves_degenerate_problems_outright() {
    // All variables fixed: presolve must fully solve the problem.
    let mut fixed = LpProblem::new(2);
    fixed.set_objective(vec![3.0, 4.0]).unwrap();
    fixed.set_bounds(0, 1.0, 1.0).unwrap();
    fixed.set_bounds(1, 2.0, 2.0).unwrap();
    match presolve(&fixed).unwrap() {
        PresolveOutcome::Solved(sol) => {
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_eq!(sol.x, vec![1.0, 2.0]);
            assert!((sol.objective - 11.0).abs() < 1e-12);
        }
        other => panic!("expected Solved, got {other:?}"),
    }

    // An empty row with an impossible RHS: infeasible before any solve.
    let mut infeasible = LpProblem::new(1);
    infeasible
        .add_constraint(Vec::new(), ConstraintSense::Ge, 1.0)
        .unwrap();
    assert!(matches!(
        presolve(&infeasible).unwrap(),
        PresolveOutcome::Infeasible
    ));

    // Conflicting singleton rows: x ≤ 1 and x ≥ 2 squeeze the bounds
    // into an empty interval.
    let mut squeezed = LpProblem::new(1);
    squeezed.set_objective(vec![1.0]).unwrap();
    squeezed
        .add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
        .unwrap();
    squeezed
        .add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 2.0)
        .unwrap();
    assert!(matches!(
        presolve(&squeezed).unwrap(),
        PresolveOutcome::Infeasible
    ));

    // A problem with no constraints at all still solves (at its lower
    // bounds, costs being positive).
    let mut unconstrained = LpProblem::new(2);
    unconstrained.set_objective(vec![1.0, 1.0]).unwrap();
    unconstrained.set_bounds(0, 0.5, 4.0).unwrap();
    unconstrained.set_bounds(1, 0.25, 4.0).unwrap();
    let sol = presolve_and_solve(&unconstrained).unwrap();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - 0.75).abs() < 1e-9, "{}", sol.objective);
    assert_eq!(sol.x.len(), 2, "restore maps back to original variables");
}

/// A random LP in [0,1]^n with Le rows satisfiable at the origin — the
/// same family the backend-agreement property suite uses, plus a few
/// fixed variables and singleton rows so presolve has real work to do.
fn random_presolvable(rng: &mut ChaCha8Rng) -> LpProblem {
    let n = rng.gen_range(2..7usize);
    let m = rng.gen_range(1..5usize);
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
    // A fixed variable (substituted out) and a singleton row (folded
    // into bounds) exercise the restore path.
    lp.set_bounds(0, 0.5, 0.5).unwrap();
    if n > 1 {
        lp.add_constraint(vec![(1, 1.0)], ConstraintSense::Le, rng.gen_range(0.3..1.0))
            .unwrap();
    }
    lp
}

/// The steps of [`presolve_and_solve`] with the reduction solved by
/// `backend`: presolve, solve what remains, restore.
fn presolve_then(lp: &LpProblem, backend: Backend) -> Result<LpSolution, LpError> {
    Ok(match presolve(lp)? {
        PresolveOutcome::Reduced(p) => p.restore(&backend(&p.problem)?),
        PresolveOutcome::Solved(sol) => sol,
        PresolveOutcome::Infeasible => LpSolution {
            status: LpStatus::Infeasible,
            x: vec![0.0; lp.num_vars()],
            objective: 0.0,
            iterations: 0,
            duals: None,
        },
    })
}

#[test]
fn presolve_then_solve_matches_direct_solve_on_both_backends() {
    run_cases("presolve_equivalence", 48, |rng| {
        let lp = random_presolvable(rng);
        let wrapped = presolve_and_solve(&lp).map_err(|e| e.to_string())?;
        let revised = presolve_then(&lp, solve).map_err(|e| e.to_string())?;
        prop_assert!(
            wrapped.status == revised.status
                && wrapped.objective.to_bits() == revised.objective.to_bits(),
            "presolve_and_solve is presolve + linprog::solve + restore"
        );
        for (solver, backend) in BACKENDS {
            let direct = backend(&lp).map_err(|e| e.to_string())?;
            let via = presolve_then(&lp, backend).map_err(|e| e.to_string())?;
            prop_assert!(
                direct.status == via.status,
                "{solver}: status {:?} vs {:?}",
                direct.status,
                via.status
            );
            if direct.status == LpStatus::Optimal {
                prop_assert!(
                    (direct.objective - via.objective).abs()
                        < 1e-6 * (1.0 + direct.objective.abs()),
                    "{solver}: objective {} vs {}",
                    direct.objective,
                    via.objective
                );
                prop_assert!(
                    via.x.len() == lp.num_vars(),
                    "{solver}: restored point has wrong arity"
                );
                prop_assert!(
                    lp.max_violation(&via.x) < 1e-6,
                    "{solver}: restored point violates the original problem by {}",
                    lp.max_violation(&via.x)
                );
            }
        }
        Ok(())
    });
}
