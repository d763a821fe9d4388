//! Sweep machinery: algorithm dispatch, seed-averaged metric extraction
//! and the flat (point × seed) fan-out that spreads a whole figure over
//! worker threads (see [`crate::par`]) while keeping the output
//! bit-identical to a serial run.

use crate::cache;
use crate::par::par_map_result;
use dsmec_core::costs::CostTable;
use dsmec_core::error::AssignError;
use dsmec_core::hta::{
    AllOffload, AllToC, Hgos, HtaAlgorithm, LocalFirst, LpHta, NashOffload, RandomAssign,
};
use dsmec_core::metrics::{evaluate_assignment, Metrics};
use mec_sim::workload::{Scenario, ScenarioConfig};

/// The holistic algorithms a figure can sweep, as a value type so sweeps
/// are `Send + Sync` without trait-object plumbing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// The paper's LP-HTA.
    LpHta(LpHta),
    /// The reconstructed HGOS comparator.
    Hgos(Hgos),
    /// Everything to the cloud.
    AllToC,
    /// Everything off the device.
    AllOffload,
    /// Keep work local while capacity lasts.
    LocalFirst,
    /// Seeded random placement.
    Random(RandomAssign),
    /// Best-response offloading game to Nash equilibrium (refs \[8\]/\[13\]).
    Nash(NashOffload),
}

impl Algo {
    /// The wrapped algorithm; its [`HtaAlgorithm::name`] is the legend.
    pub fn algorithm(&self) -> &dyn HtaAlgorithm {
        match self {
            Algo::LpHta(a) => a,
            Algo::Hgos(a) => a,
            Algo::AllToC => &AllToC,
            Algo::AllOffload => &AllOffload,
            Algo::LocalFirst => &LocalFirst,
            Algo::Random(a) => a,
            Algo::Nash(a) => a,
        }
    }

    /// Runs the algorithm over an already-generated scenario.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped algorithm's errors.
    pub fn run(&self, scenario: &Scenario, costs: &CostTable) -> Result<Metrics, AssignError> {
        let assignment = self
            .algorithm()
            .assign(&scenario.system, &scenario.tasks, costs)?;
        evaluate_assignment(&scenario.tasks, costs, &assignment)
    }
}

/// The legend of each algorithm in `algos`, in order.
pub(crate) fn legends(algos: &[Algo]) -> Vec<&'static str> {
    algos.iter().map(|a| a.algorithm().name()).collect()
}

/// The paper's Fig. 2–4 comparator set.
pub fn paper_comparators() -> Vec<Algo> {
    vec![
        Algo::LpHta(LpHta::paper()),
        Algo::Hgos(Hgos::default()),
        Algo::AllToC,
        Algo::AllOffload,
    ]
}

/// Runs every algorithm on `base` with its seed set to `seed` (scenario
/// and cost table come from the shared cache) and extracts one value per
/// algorithm.
///
/// # Errors
///
/// Propagates generation and algorithm errors.
pub fn eval_algos(
    base: &ScenarioConfig,
    seed: u64,
    algos: &[Algo],
    extract: impl Fn(&Metrics) -> f64,
) -> Result<Vec<f64>, AssignError> {
    let mut cfg = base.clone();
    cfg.seed = seed;
    let cached = cache::scenario_with_costs(&cfg)?;
    algos
        .iter()
        .map(|algo| {
            algo.run(&cached.scenario, &cached.costs)
                .map(|m| extract(&m))
        })
        .collect()
}

/// The sweep engine behind every figure: evaluates `eval(point, seed)` for
/// the full (point × seed) cross product as one flat parallel fan-out,
/// then averages each point over its seeds.
///
/// Determinism contract: `eval` is called with exactly the arguments a
/// serial double loop would use, each `(point, seed)` evaluation is
/// independent, and the reduction sums a point's rows in seed order before
/// dividing once — so the output is bit-identical to the serial nesting,
/// for any thread count.
///
/// # Errors
///
/// Returns [`AssignError::InvalidInput`] for an empty seed list or for
/// rows of inconsistent width; propagates (or converts, for panics) worker
/// failures via [`par_map_result`].
pub fn sweep_seed_averaged<P: Sync>(
    points: &[P],
    seeds: &[u64],
    eval: impl Fn(&P, u64) -> Result<Vec<f64>, AssignError> + Sync,
) -> Result<Vec<Vec<f64>>, AssignError> {
    if seeds.is_empty() {
        return Err(AssignError::InvalidInput(
            "sweep_seed_averaged requires at least one seed".into(),
        ));
    }
    if points.is_empty() {
        return Ok(Vec::new());
    }
    let pairs: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|pi| seeds.iter().map(move |&s| (pi, s)))
        .collect();
    // Flight-recorder linkage: a worker thread has no span context of its
    // own, so each point span links explicitly to whatever span is open
    // here on the coordinating thread (e.g. `experiment/fig2a`), giving
    // traces the full sweep → experiment → point → algorithm chain.
    let sweep_parent = mec_obs::current_span_id();
    let rows = par_map_result(&pairs, |&(pi, seed)| {
        // Per-(point, seed) wall time; workers stage locally and flush
        // into the global registry at the par_map_result join point.
        let _timer = mec_obs::span_with_parent("sweep/point", sweep_parent);
        eval(&points[pi], seed)
    })?;

    let per_point = seeds.len();
    let mut out = Vec::with_capacity(points.len());
    for chunk in rows.chunks_exact(per_point) {
        let width = chunk[0].len();
        if chunk.iter().any(|r| r.len() != width) {
            return Err(AssignError::InvalidInput(
                "sweep_seed_averaged rows have inconsistent widths".into(),
            ));
        }
        let mut acc = vec![0.0; width];
        for row in chunk {
            for (a, v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= per_point as f64;
        }
        out.push(acc);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names() {
        assert_eq!(
            legends(&paper_comparators()),
            ["LP-HTA", "HGOS", "AllToC", "AllOffload"]
        );
        assert_eq!(
            Algo::Nash(NashOffload::default()).algorithm().name(),
            "NashOffload"
        );
        assert_eq!(
            Algo::Random(RandomAssign { seed: 1 }).algorithm().name(),
            "Random"
        );
    }

    #[test]
    fn seed_averaging_runs_all_algorithms() {
        let mut cfg = ScenarioConfig::paper_defaults(0);
        cfg.tasks_total = 20;
        let algos = paper_comparators();
        let rows = sweep_seed_averaged(&[()], &[1, 2], |_, seed| {
            eval_algos(&cfg, seed, &algos, |m| m.total_energy.value())
        })
        .unwrap();
        let means = &rows[0];
        assert_eq!(means.len(), algos.len());
        assert!(means.iter().all(|&v| v > 0.0));
        // The paper's trend: LP-HTA and HGOS track each other closely
        // (pointwise either may edge out the other — and on an instance
        // this small the rounding loss is relatively large) and both sit
        // far below the offloading baselines.
        let [lp, hgos, all_to_c, all_offload] = means[..] else {
            panic!("expected four comparators");
        };
        let ratio = lp / hgos;
        assert!((0.8..=1.2).contains(&ratio), "LP vs HGOS ratio {ratio}");
        assert!(lp < all_to_c * 0.8);
        assert!(lp < all_offload * 0.8);
    }

    #[test]
    fn seed_averaged_rejects_empty_seeds() {
        let err = sweep_seed_averaged(&[1usize], &[], |_, _| Ok(vec![0.0])).unwrap_err();
        assert!(matches!(err, AssignError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn sweep_rejects_ragged_rows_and_handles_empty_points() {
        // Width depends on the seed: ragged output must be rejected, not
        // silently zipped short.
        let err = sweep_seed_averaged(&[1usize], &[7, 8], |_, s| Ok(vec![0.0; s as usize - 6]))
            .unwrap_err();
        assert!(matches!(err, AssignError::InvalidInput(_)), "{err}");
        let empty = sweep_seed_averaged(&[] as &[usize], &[7], |_, _| Ok(vec![0.0])).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn sweep_matches_serial_double_loop() {
        let points = [3usize, 5, 8];
        let seeds = [11u64, 12, 13];
        let eval = |&p: &usize, s: u64| -> Result<Vec<f64>, AssignError> {
            Ok(vec![
                (p as f64) * 0.1 + s as f64,
                (p * 2) as f64 / (s as f64),
            ])
        };
        let swept = sweep_seed_averaged(&points, &seeds, eval).unwrap();
        // Serial reference: same nesting, same reduction order.
        let mut reference = Vec::new();
        for p in &points {
            let mut acc = vec![0.0; 2];
            for &s in &seeds {
                let row = eval(p, s).unwrap();
                for (a, v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
            }
            for a in &mut acc {
                *a /= seeds.len() as f64;
            }
            reference.push(acc);
        }
        assert_eq!(swept, reference);
    }
}
