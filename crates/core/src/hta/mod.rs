//! Holistic Task Assignment (HTA): the NP-complete problem of Section II.C
//! and the algorithms of Section III plus the Section V comparators.
//!
//! * [`LpHta`] — the paper's LP-relaxation + rounding + repair algorithm;
//! * [`baselines`] — `AllToC`, `AllOffload`, `LocalFirst`, `RandomAssign`;
//! * [`Hgos`] — the Heuristic Greedy Offloading Scheme of reference \[12\]
//!   (reconstructed; see DESIGN.md for the substitution rationale);
//! * [`NashOffload`] — a decentralized offloading *game* played to Nash
//!   equilibrium (after references \[8\]/\[13\]);
//! * [`ExactBnB`] — branch-and-bound exact optimum for small instances,
//!   used to verify the approximation ratio empirically.

pub mod baselines;
pub mod exact;
pub mod game;
pub mod hgos;
pub mod lp_hta;
pub mod online;
pub mod partial;
pub mod relaxation;

pub use baselines::{AllOffload, AllToC, LocalFirst, RandomAssign};
pub use exact::ExactBnB;
pub use game::{GameOutcome, NashOffload};
pub use hgos::Hgos;
pub use lp_hta::{
    ClusterFractions, ClusterSolve, FractionalSolution, LpHta, LpHtaReport, RoundingRule, WarmBases,
};
pub use online::{OnlineHta, OnlinePolicy};
pub use partial::{optimal_split, partial_offload_plan, PartialPlan, PartialSplit};
pub use relaxation::station_capacity_prices;

use crate::assignment::Assignment;
use crate::costs::CostTable;
use crate::error::AssignError;
use mec_sim::cost::TaskCosts;
use mec_sim::task::HolisticTask;
use mec_sim::topology::{MecSystem, StationId};

/// A holistic-task-assignment algorithm.
pub trait HtaAlgorithm {
    /// Short name used in reports and figures.
    fn name(&self) -> &'static str;

    /// Produces an assignment for `tasks` on `system`, using the
    /// precomputed `costs` (one entry per task, same order).
    ///
    /// # Errors
    ///
    /// Implementations report substrate, LP and sizing errors through
    /// [`AssignError`]; infeasible *tasks* are expressed by cancellation
    /// inside the returned [`Assignment`], not as errors.
    fn assign(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
    ) -> Result<Assignment, AssignError>;
}

/// The normalized overhead `w·t/t_max + (1−w)·E/E_max` that HGOS and the
/// NashOffload players minimize. Each task is normalized by its own worst
/// site (floored at `f64::MIN_POSITIVE`), so both terms lie in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Overhead {
    w: f64,
    t_max: f64,
    e_max: f64,
}

impl Overhead {
    /// The overhead of a task with per-site costs `costs` and latency
    /// weight `w`.
    pub(crate) fn of(costs: &TaskCosts, w: f64) -> Overhead {
        let worst = |value: fn(mec_sim::cost::SiteCost) -> f64| {
            costs
                .iter()
                .map(|(_, c)| value(c))
                .fold(f64::MIN_POSITIVE, f64::max)
        };
        Overhead {
            w,
            t_max: worst(|c| c.time.value()),
            e_max: worst(|c| c.energy.value()),
        }
    }

    /// The overhead of running for `time` seconds at `energy` joules.
    pub(crate) fn at(&self, time: f64, energy: f64) -> f64 {
        self.w * time / self.t_max + (1.0 - self.w) * energy / self.e_max
    }
}

/// Groups task indices by the cluster (base station) of their owner, in
/// station order — the decomposition Section III.A applies before solving
/// each cluster separately.
///
/// # Errors
///
/// Propagates unknown-device errors.
pub fn cluster_task_indices(
    system: &MecSystem,
    tasks: &[HolisticTask],
) -> Result<Vec<(StationId, Vec<usize>)>, AssignError> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); system.num_stations()];
    for (idx, task) in tasks.iter().enumerate() {
        let st = system.station_of(task.owner)?;
        groups[st.0].push(idx);
    }
    Ok(groups
        .into_iter()
        .enumerate()
        .map(|(r, idxs)| (StationId(r), idxs))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::workload::ScenarioConfig;

    #[test]
    fn clustering_partitions_all_tasks() {
        let s = ScenarioConfig::paper_defaults(6).generate().unwrap();
        let clusters = cluster_task_indices(&s.system, &s.tasks).unwrap();
        assert_eq!(clusters.len(), s.system.num_stations());
        let mut seen = vec![false; s.tasks.len()];
        for (st, idxs) in &clusters {
            for &i in idxs {
                assert!(!seen[i], "task {i} appears twice");
                seen[i] = true;
                assert_eq!(s.system.station_of(s.tasks[i].owner).unwrap(), *st);
            }
        }
        assert!(seen.iter().all(|&s| s), "every task is clustered");
    }
}
