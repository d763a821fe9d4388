//! Exact HTA optimum via branch-and-bound, for small instances.
//!
//! The HTA problem is NP-complete (Theorem 1), so this is exponential in
//! the worst case; with best-first site ordering and an admissible
//! lower bound it handles the instance sizes used to verify LP-HTA's
//! empirical approximation ratio (tens of tasks per cluster).
//!
//! Semantics follow the problem definition of Section II.C exactly: every
//! task must be assigned (C4), deadlines (C1) and capacities (C2/C3) are
//! hard, and the objective is total energy. Instances where some task has
//! no deadline-feasible site are *infeasible* (the definition has no
//! cancellation), reported as `None`.

use crate::assignment::{Assignment, Decision};
use crate::capacity::{Claim, Headroom};
use crate::costs::CostTable;
use crate::error::AssignError;
use crate::hta::cluster_task_indices;
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::MecSystem;

/// Branch-and-bound exact solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactBnB {
    /// Refuses clusters with more tasks than this (protects against
    /// accidental exponential blowups in benchmarks).
    pub max_cluster_tasks: usize,
}

impl Default for ExactBnB {
    fn default() -> Self {
        ExactBnB {
            max_cluster_tasks: 24,
        }
    }
}

impl ExactBnB {
    /// Finds the minimum-energy feasible assignment, or `None` when the
    /// instance is infeasible (some task has no feasible placement).
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::Unsupported`] when a cluster exceeds
    /// [`ExactBnB::max_cluster_tasks`], and propagates substrate errors.
    pub fn solve(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
    ) -> Result<Option<(Assignment, f64)>, AssignError> {
        if tasks.len() != costs.len() {
            return Err(AssignError::LengthMismatch {
                tasks: tasks.len(),
                other: costs.len(),
            });
        }
        let mut assignment = Assignment::new(vec![Decision::Cancelled; tasks.len()]);
        let mut total = 0.0;
        for (station, idxs) in cluster_task_indices(system, tasks)? {
            if idxs.is_empty() {
                continue;
            }
            if idxs.len() > self.max_cluster_tasks {
                return Err(AssignError::Unsupported {
                    algorithm: "ExactBnB",
                    reason: format!(
                        "cluster {station} has {} tasks (limit {})",
                        idxs.len(),
                        self.max_cluster_tasks
                    ),
                });
            }
            match solve_cluster(system, tasks, costs, &idxs)? {
                Some((sites, energy)) => {
                    for (k, &idx) in idxs.iter().enumerate() {
                        assignment.set(idx, Decision::Assigned(sites[k]));
                    }
                    total += energy;
                }
                None => return Ok(None),
            }
        }
        Ok(Some((assignment, total)))
    }
}

struct Search<'a> {
    tasks: &'a [HolisticTask],
    costs: &'a CostTable,
    /// Cluster-local order of global task indices (largest resource
    /// first, so capacity conflicts surface early).
    order: Vec<usize>,
    /// The capacity each task of `order` draws on, parallel to it.
    claims: Vec<Claim>,
    /// Per remaining suffix: sum of each task's cheapest feasible energy
    /// (capacity-relaxed) — an admissible lower bound.
    suffix_lb: Vec<f64>,
    room: Headroom<'a>,
    best_energy: f64,
    best_sites: Option<Vec<ExecutionSite>>,
    current: Vec<ExecutionSite>,
}

fn solve_cluster(
    system: &MecSystem,
    tasks: &[HolisticTask],
    costs: &CostTable,
    idxs: &[usize],
) -> Result<Option<(Vec<ExecutionSite>, f64)>, AssignError> {
    // Order: largest resource first.
    let mut order = idxs.to_vec();
    order.sort_by(|&a, &b| {
        tasks[b]
            .resource
            .value()
            .total_cmp(&tasks[a].resource.value())
    });

    // Cheapest deadline-feasible energy per task; infeasible → whole
    // cluster (and instance) infeasible.
    let mut cheapest = Vec::with_capacity(order.len());
    for &idx in &order {
        let Some(site) = costs.task(idx).cheapest_feasible(tasks[idx].deadline) else {
            return Ok(None);
        };
        cheapest.push(costs.at(idx, site).energy.value());
    }
    let mut suffix_lb = vec![0.0; order.len() + 1];
    for k in (0..order.len()).rev() {
        suffix_lb[k] = suffix_lb[k + 1] + cheapest[k];
    }

    let room = Headroom::new(system);
    let claims = order
        .iter()
        .map(|&idx| room.claim(&tasks[idx]))
        .collect::<Result<_, _>>()?;
    let mut search = Search {
        tasks,
        costs,
        order,
        claims,
        suffix_lb,
        room,
        best_energy: f64::INFINITY,
        best_sites: None,
        current: Vec::new(),
    };
    search.recurse(0, 0.0);

    let Some(sites_in_order) = search.best_sites else {
        return Ok(None);
    };
    // Map back from search order to the idxs order.
    let mut by_idx = std::collections::HashMap::new();
    for (k, &idx) in search.order.iter().enumerate() {
        by_idx.insert(idx, sites_in_order[k]);
    }
    let sites: Vec<ExecutionSite> = idxs.iter().map(|i| by_idx[i]).collect();
    Ok(Some((sites, search.best_energy)))
}

impl Search<'_> {
    fn recurse(&mut self, depth: usize, energy: f64) {
        if energy + self.suffix_lb[depth] >= self.best_energy {
            return; // admissible bound: no improvement possible
        }
        if depth == self.order.len() {
            self.best_energy = energy;
            self.best_sites = Some(self.current.clone());
            return;
        }
        let idx = self.order[depth];
        let task = &self.tasks[idx];
        let claim = self.claims[depth];

        // Try sites cheapest-first for fast incumbents.
        let mut sites: Vec<ExecutionSite> = ExecutionSite::ALL
            .iter()
            .filter(|&&s| self.costs.feasible(idx, s, task.deadline))
            .copied()
            .collect();
        sites.sort_by(|&a, &b| {
            self.costs
                .at(idx, a)
                .energy
                .value()
                .total_cmp(&self.costs.at(idx, b).energy.value())
        });

        for site in sites {
            if !self.room.fits(site, &claim) {
                continue;
            }
            self.room.take(site, &claim);
            self.current.push(site);
            self.recurse(depth + 1, energy + self.costs.at(idx, site).energy.value());
            self.current.pop();
            self.room.give_back(site, &claim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hta::{HtaAlgorithm, LpHta};
    use crate::metrics::{capacity_usage, evaluate_assignment};
    use mec_sim::units::Bytes;
    use mec_sim::workload::ScenarioConfig;

    fn small_scenario(seed: u64) -> (mec_sim::workload::Scenario, CostTable) {
        let mut cfg = ScenarioConfig::paper_defaults(seed);
        cfg.num_stations = 2;
        cfg.devices_per_station = 3;
        cfg.tasks_total = 12;
        let s = cfg.generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        (s, costs)
    }

    #[test]
    fn exact_solution_is_feasible() {
        let (s, costs) = small_scenario(41);
        let (a, energy) = ExactBnB::default()
            .solve(&s.system, &s.tasks, &costs)
            .unwrap()
            .expect("feasible instance");
        assert!(a.cancelled().is_empty());
        let usage = capacity_usage(&s.system, &s.tasks, &a).unwrap();
        assert!(usage.within_limits(&s.system, Bytes::new(1e-6)));
        for (idx, task) in s.tasks.iter().enumerate() {
            let site = a.decision(idx).site().unwrap();
            assert!(costs.feasible(idx, site, task.deadline));
        }
        let m = evaluate_assignment(&s.tasks, &costs, &a).unwrap();
        assert!((m.total_energy.value() - energy).abs() < 1e-9);
    }

    #[test]
    fn exact_lower_bounds_lp_hta() {
        for seed in [42, 43, 44, 45] {
            let (s, costs) = small_scenario(seed);
            let Some((_, opt)) = ExactBnB::default()
                .solve(&s.system, &s.tasks, &costs)
                .unwrap()
            else {
                continue;
            };
            let (a, report) = LpHta::paper()
                .assign_with_report(&s.system, &s.tasks, &costs)
                .unwrap();
            let m = evaluate_assignment(&s.tasks, &costs, &a).unwrap();
            // Only compare when LP-HTA kept every task (energy of a
            // cancelled task is not charged, which would fake a win).
            if a.cancelled().is_empty() {
                assert!(
                    m.total_energy.value() >= opt - 1e-6,
                    "seed {seed}: LP-HTA beat the optimum?!"
                );
                let ratio = m.total_energy.value() / opt;
                assert!(
                    ratio <= report.ratio_bound + 1e-9,
                    "seed {seed}: empirical ratio {ratio} exceeds certificate {}",
                    report.ratio_bound
                );
            }
            // The LP relaxation lower-bounds the optimum.
            assert!(report.lp_objective <= opt + 1e-6);
        }
    }

    #[test]
    fn infeasible_deadlines_reported_as_none() {
        let (mut s, _) = small_scenario(46);
        s.tasks[0].deadline = mec_sim::units::Seconds::new(1e-12);
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let res = ExactBnB::default()
            .solve(&s.system, &s.tasks, &costs)
            .unwrap();
        assert!(res.is_none());
    }

    #[test]
    fn cluster_size_limit_is_enforced() {
        let (s, costs) = small_scenario(47);
        let tiny = ExactBnB {
            max_cluster_tasks: 2,
        };
        assert!(matches!(
            tiny.solve(&s.system, &s.tasks, &costs),
            Err(AssignError::Unsupported { .. })
        ));
    }

    #[test]
    fn exact_beats_or_matches_every_heuristic() {
        let (s, costs) = small_scenario(48);
        let Some((_, opt)) = ExactBnB::default()
            .solve(&s.system, &s.tasks, &costs)
            .unwrap()
        else {
            panic!("expected feasible");
        };
        {
            let algo = &LpHta::paper() as &dyn HtaAlgorithm;
            let a = algo.assign(&s.system, &s.tasks, &costs).unwrap();
            if a.cancelled().is_empty() {
                let m = evaluate_assignment(&s.tasks, &costs, &a).unwrap();
                assert!(m.total_energy.value() >= opt - 1e-6, "{}", algo.name());
            }
        }
    }
}
