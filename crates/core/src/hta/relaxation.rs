//! Construction of the relaxed linear program `P2` of Section III.A for
//! one cluster.
//!
//! The paper states P2 with four constraint blocks. Block `A₁` — the
//! diagonal deadline rows `t_ijl·x_ijl ≤ T_ij` — is equivalent to the
//! variable bounds `x_ijl ≤ min(1, T_ij/t_ijl)`, so it is presolved into
//! bounds here (fewer rows, identical feasible set). Blocks `A₂` (per-
//! device capacity C2), `A₃` (station capacity C3) and `A₄` (one-site
//! equality C4) become explicit rows.

use crate::costs::CostTable;
use crate::error::AssignError;
use linprog::{Basis, BasisVarStatus, ConstraintSense, LpProblem};
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::{DeviceId, MecSystem, StationId};

/// The relaxed LP of one cluster plus the index bookkeeping needed to map
/// its solution back onto tasks.
#[derive(Debug)]
pub struct ClusterRelaxation {
    /// The LP (minimization of `Σ E_ijl x_ijl`).
    pub lp: LpProblem,
    /// Global task indices of this cluster, in LP variable order: task
    /// `k` of the cluster owns variables `3k`, `3k+1`, `3k+2`.
    pub task_indices: Vec<usize>,
    /// LP row index of each device's C2 capacity constraint.
    pub device_rows: Vec<(DeviceId, usize)>,
    /// LP row index of the station's C3 capacity constraint.
    pub station_row: usize,
}

impl ClusterRelaxation {
    /// Variable index of `(cluster task k, site)`.
    pub fn var(&self, k: usize, site: ExecutionSite) -> usize {
        3 * k + site.index()
    }

    /// Reshapes a flat LP solution into the fractional matrix
    /// `X[k][l]` of Step 2.
    pub fn fractional_matrix(&self, x: &[f64]) -> Vec<[f64; 3]> {
        (0..self.task_indices.len())
            .map(|k| [x[3 * k], x[3 * k + 1], x[3 * k + 2]])
            .collect()
    }

    /// The *shadow price* of station capacity: the marginal change of the
    /// cluster's optimal energy per extra byte of `max_S`, read from the
    /// C3 row's dual value. Nonpositive at optimality (more capacity
    /// never costs energy); zero when the station is not full. `None`
    /// when the solver produced no duals.
    pub fn station_capacity_price(&self, duals: Option<&[f64]>) -> Option<f64> {
        duals.map(|d| d[self.station_row])
    }

    /// A warm-start candidate built from this cluster alone: each task,
    /// in cluster order, at its cheapest site that is fully open (LP
    /// upper bound 1) and still has room on its C2 or C3 row for the
    /// task's `resource` (the cloud has no capacity row), with every
    /// capacity slack basic.
    ///
    /// The standard-form columns are `x` at `3k + site`, then one slack
    /// per `≤` row in row order — the C2 device rows ascending, then C3;
    /// the C4 equalities have none. When every task finds a site, the
    /// basis matrix is triangular (each chosen `x` is the only basic
    /// column in its C4 row, each slack the only basic unit column in its
    /// capacity row), so it is nonsingular, and the point it defines is
    /// the greedy assignment itself: every `x` is 0 or 1 within its
    /// bounds and every slack is the room left on its row, never
    /// negative. A task with no passing site leaves its C4 row without a
    /// basic column; the solver declines that basis (wrong basic count)
    /// and solves cold.
    #[must_use]
    pub fn greedy_basis(&self) -> Basis {
        let rows = self.lp.constraints();
        let energy = self.lp.objective();
        let bounds = self.lp.bounds();
        let tasks = self.task_indices.len();
        // The capacity row and coefficient of every capacitated column.
        let mut capacity: Vec<Option<(usize, f64)>> = vec![None; 3 * tasks];
        let capacity_rows = self.device_rows.iter().map(|&(_, row)| row);
        for row in capacity_rows.chain([self.station_row]) {
            for &(j, resource) in &rows[row].terms {
                capacity[j] = Some((row, resource));
            }
        }
        let mut room: Vec<f64> = rows.iter().map(|row| row.rhs).collect();
        let slacks = self.device_rows.len() + 1;
        let mut statuses = vec![BasisVarStatus::AtLower; 3 * tasks + slacks];
        for k in 0..tasks {
            let mut sites = ExecutionSite::ALL.map(|site| 3 * k + site.index());
            // Stable: equal energies keep the site order.
            sites.sort_by(|&a, &b| energy[a].total_cmp(&energy[b]));
            let fits = |j: usize| {
                bounds[j].upper >= 1.0 && capacity[j].is_none_or(|(row, need)| room[row] >= need)
            };
            if let Some(j) = sites.into_iter().find(|&j| fits(j)) {
                if let Some((row, need)) = capacity[j] {
                    room[row] -= need;
                }
                statuses[j] = BasisVarStatus::Basic;
            }
        }
        statuses[3 * tasks..].fill(BasisVarStatus::Basic);
        Basis::from_statuses(rows.len(), statuses)
    }
}

/// Shadow prices of every station's C3 capacity across the system: how
/// many joules an extra byte of `max_S` would save. The actionable
/// output for the capacity-planning use case.
///
/// # Errors
///
/// Propagates relaxation and solver errors.
pub fn station_capacity_prices(
    system: &MecSystem,
    tasks: &[HolisticTask],
    costs: &CostTable,
) -> Result<Vec<(StationId, f64)>, AssignError> {
    let mut out = Vec::new();
    for (station, idxs) in crate::hta::cluster_task_indices(system, tasks)? {
        let Some(rel) = build_cluster_relaxation(system, tasks, costs, station, &idxs)? else {
            out.push((station, 0.0));
            continue;
        };
        let sol = linprog::solve(&rel.lp)?;
        let price = rel
            .station_capacity_price(sol.duals.as_deref())
            .unwrap_or(0.0);
        out.push((station, price));
    }
    Ok(out)
}

/// Builds the relaxation for the cluster of `station` whose tasks are
/// `task_indices` (global indices into `tasks`).
///
/// Returns `None` when the cluster has no tasks.
///
/// # Errors
///
/// Propagates LP-construction and substrate errors.
pub fn build_cluster_relaxation(
    system: &MecSystem,
    tasks: &[HolisticTask],
    costs: &CostTable,
    station: StationId,
    task_indices: &[usize],
) -> Result<Option<ClusterRelaxation>, AssignError> {
    if task_indices.is_empty() {
        return Ok(None);
    }
    let ct = task_indices.len();
    let mut lp = LpProblem::new(3 * ct);

    // Objective: Σ E_ijl x_ijl.
    let mut objective = vec![0.0; 3 * ct];
    for (k, &idx) in task_indices.iter().enumerate() {
        for site in ExecutionSite::ALL {
            objective[3 * k + site.index()] = costs.at(idx, site).energy.value();
        }
    }
    lp.set_objective(objective)?;

    // Bounds: the presolved deadline block A₁. If no site is deadline-
    // feasible even fractionally, keep the fastest site open so C4 stays
    // satisfiable; Step 4 will cancel the task after rounding.
    for (k, &idx) in task_indices.iter().enumerate() {
        let deadline = tasks[idx].deadline;
        let mut ubs = [0.0f64; 3];
        for site in ExecutionSite::ALL {
            let t = costs.at(idx, site).time;
            ubs[site.index()] = if t.value() <= 0.0 {
                1.0
            } else {
                (deadline.value() / t.value()).min(1.0)
            };
        }
        if ubs.iter().sum::<f64>() < 1.0 {
            let fastest = ExecutionSite::ALL
                .iter()
                .min_by(|a, b| {
                    costs
                        .at(idx, **a)
                        .time
                        .partial_cmp(&costs.at(idx, **b).time)
                        .expect("finite times")
                })
                .copied()
                .expect("three sites");
            ubs[fastest.index()] = 1.0;
        }
        for site in ExecutionSite::ALL {
            lp.set_bounds(3 * k + site.index(), 0.0, ubs[site.index()])?;
        }
    }

    // C2: per-device capacity rows (block A₂). Owners are grouped by a
    // stable sort on the device id instead of a `BTreeMap`, which keeps
    // the former map's row order exactly — devices ascending, and each
    // device's `k` terms ascending because `enumerate` order survives
    // the stable sort.
    let mut owner_of_k: Vec<(DeviceId, usize)> = task_indices
        .iter()
        .enumerate()
        .map(|(k, &idx)| (tasks[idx].owner, k))
        .collect();
    owner_of_k.sort_by_key(|&(owner, _)| owner.0);
    let mut device_rows = Vec::new();
    let mut g = 0;
    while g < owner_of_k.len() {
        let device = owner_of_k[g].0;
        let mut terms: Vec<(usize, f64)> = Vec::new();
        while g < owner_of_k.len() && owner_of_k[g].0 == device {
            let k = owner_of_k[g].1;
            terms.push((3 * k, tasks[task_indices[k]].resource.value()));
            g += 1;
        }
        let cap = system.device(device)?.max_resource.value();
        let row = lp.add_constraint(terms, ConstraintSense::Le, cap)?;
        device_rows.push((device, row));
    }

    // C3: the station capacity row (block A₃).
    let station_cap = system.station(station)?.max_resource.value();
    let station_terms: Vec<(usize, f64)> = (0..ct)
        .map(|k| (3 * k + 1, tasks[task_indices[k]].resource.value()))
        .collect();
    let station_row = lp.add_constraint(station_terms, ConstraintSense::Le, station_cap)?;

    // C4: Σ_l x_ijl = 1 per task (block A₄).
    for k in 0..ct {
        lp.add_constraint(
            vec![(3 * k, 1.0), (3 * k + 1, 1.0), (3 * k + 2, 1.0)],
            ConstraintSense::Eq,
            1.0,
        )?;
    }

    Ok(Some(ClusterRelaxation {
        lp,
        task_indices: task_indices.to_vec(),
        device_rows,
        station_row,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hta::cluster_task_indices;
    use linprog::simplex::solve_simplex;
    use linprog::LpStatus;
    use mec_sim::workload::ScenarioConfig;

    fn setup() -> (mec_sim::workload::Scenario, CostTable) {
        let s = ScenarioConfig::paper_defaults(10).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        (s, costs)
    }

    #[test]
    fn relaxation_has_expected_shape() {
        let (s, costs) = setup();
        let clusters = cluster_task_indices(&s.system, &s.tasks).unwrap();
        let (st, idxs) = &clusters[0];
        let rel = build_cluster_relaxation(&s.system, &s.tasks, &costs, *st, idxs)
            .unwrap()
            .unwrap();
        let ct = idxs.len();
        assert_eq!(rel.lp.num_vars(), 3 * ct);
        let devices_with_tasks = s
            .system
            .cluster(*st)
            .unwrap()
            .iter()
            .filter(|d| s.tasks.iter().any(|t| t.owner == **d))
            .count();
        // rows: device C2 rows + 1 station row + ct equality rows.
        assert_eq!(rel.lp.num_constraints(), devices_with_tasks + 1 + ct);
        assert_eq!(rel.var(2, ExecutionSite::Cloud), 8);
    }

    #[test]
    fn relaxation_is_feasible_and_bounded() {
        let (s, costs) = setup();
        for (st, idxs) in cluster_task_indices(&s.system, &s.tasks).unwrap() {
            let Some(rel) =
                build_cluster_relaxation(&s.system, &s.tasks, &costs, st, &idxs).unwrap()
            else {
                continue;
            };
            let sol = solve_simplex(&rel.lp).unwrap();
            assert_eq!(sol.status, LpStatus::Optimal, "cluster {st}");
            // Fractions form a distribution per task.
            let x = rel.fractional_matrix(&sol.x);
            for row in &x {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-6, "C4 violated: {row:?}");
                assert!(row.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
            }
        }
    }

    #[test]
    fn lp_optimum_lower_bounds_any_integral_assignment() {
        let (s, costs) = setup();
        let clusters = cluster_task_indices(&s.system, &s.tasks).unwrap();
        let (st, idxs) = &clusters[0];
        let rel = build_cluster_relaxation(&s.system, &s.tasks, &costs, *st, idxs)
            .unwrap()
            .unwrap();
        let sol = solve_simplex(&rel.lp).unwrap();
        // The all-cloud integral point is feasible for the relaxation
        // (cloud is uncapacitated and every generated deadline admits at
        // least its fastest site... cloud may be infeasible for tight
        // deadlines, so compare with the all-cloud *objective* only:
        // lower bound property needs feasibility, so instead use the
        // trivially feasible fractional point? All-cloud respects C2/C3;
        // its deadline bounds may cap x_ij3 < 1, so only assert against
        // the relaxation's own optimum: any feasible integral point
        // costs >= optimum. Construct a greedy feasible integral point
        // from the LP fractional matrix by rounding to each task's
        // largest component and check its energy dominates the LP value.
        let x = rel.fractional_matrix(&sol.x);
        let mut rounded = 0.0;
        let mut sites = Vec::with_capacity(x.len());
        for (k, row) in x.iter().enumerate() {
            let best = (0..3).max_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap();
            sites.push(ExecutionSite::ALL[best]);
            rounded += costs
                .at(rel.task_indices[k], ExecutionSite::ALL[best])
                .energy
                .value();
        }
        // Unconditional lower bound: the LP cannot go below the sum of
        // per-task unconstrained minima (every C4 row forces one unit of
        // mass at cost >= min_l E_ijl).
        let per_task_minima: f64 = rel
            .task_indices
            .iter()
            .map(|&i| {
                ExecutionSite::ALL
                    .iter()
                    .map(|&site| costs.at(i, site).energy.value())
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        assert!(sol.objective >= per_task_minima - 1e-6);
        // The LP optimum lower-bounds every *feasible* integral point.
        // The arg-max rounding may violate C2/C3 or the fractional
        // deadline caps of block A₁ (a unit indicator at a site whose
        // bound is deadline/t < 1), in which case its energy can
        // legitimately dip below the constrained optimum, so only assert
        // the bound when the rounded point is feasible.
        let feasible = {
            let mut station_load = 0.0;
            let mut device_load: std::collections::BTreeMap<_, f64> =
                std::collections::BTreeMap::new();
            for (k, &site) in sites.iter().enumerate() {
                let task = &s.tasks[rel.task_indices[k]];
                match site {
                    ExecutionSite::Device => {
                        *device_load.entry(task.owner).or_default() += task.resource.value();
                    }
                    ExecutionSite::Station => station_load += task.resource.value(),
                    ExecutionSite::Cloud => {}
                }
            }
            let within_deadlines = sites.iter().enumerate().all(|(k, &site)| {
                let idx = rel.task_indices[k];
                costs.feasible(idx, site, s.tasks[idx].deadline)
            });
            within_deadlines
                && station_load <= s.system.station(*st).unwrap().max_resource.value() + 1e-9
                && device_load.iter().all(|(&d, &load)| {
                    load <= s.system.device(d).unwrap().max_resource.value() + 1e-9
                })
        };
        if feasible {
            assert!(rounded >= sol.objective - 1e-6);
        }
        // Lemma 1: rounding loses at most a factor 3 vs the LP optimum.
        assert!(rounded <= 3.0 * sol.objective + 1e-6, "Lemma 1 violated");
    }

    #[test]
    fn shadow_prices_reflect_capacity_pressure() {
        // Slack stations: zero price. Starved stations: negative price.
        let mut cfg = ScenarioConfig::paper_defaults(13);
        cfg.tasks_total = 150;
        cfg.device_resource_mb = 2.0; // push work to the stations
        cfg.station_resource_mb = 30.0; // and make the stations scarce
        let s = cfg.generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let prices = station_capacity_prices(&s.system, &s.tasks, &costs).unwrap();
        assert_eq!(prices.len(), s.system.num_stations());
        assert!(prices.iter().all(|(_, p)| *p <= 1e-9), "prices nonpositive");
        assert!(
            prices.iter().any(|(_, p)| *p < -1e-12),
            "starved stations must carry a negative shadow price: {prices:?}"
        );

        // With abundant station capacity the C3 rows go slack.
        let mut cfg2 = ScenarioConfig::paper_defaults(13);
        cfg2.tasks_total = 60;
        cfg2.station_resource_mb = 100_000.0;
        let s2 = cfg2.generate().unwrap();
        let costs2 = CostTable::build(&s2.system, &s2.tasks).unwrap();
        let slack = station_capacity_prices(&s2.system, &s2.tasks, &costs2).unwrap();
        assert!(slack.iter().all(|(_, p)| p.abs() < 1e-9), "{slack:?}");
    }

    /// The greedy basis is adopted exactly when every task found a site,
    /// and a warm solve from it reaches the dense oracle's optimum; when
    /// some task found none, the declined basis leaves a cold solve that
    /// still reaches it. Clusters are drawn with tight capacities and
    /// with deadlines cut below every site's latency.
    #[test]
    fn greedy_basis_is_adopted_whenever_every_task_fits() {
        let (mut adopted, mut declined, mut infeasible) = (0, 0, 0);
        detrand::prop::run_cases(
            "greedy_basis_is_adopted_whenever_every_task_fits",
            300,
            |rng| {
                let mut cfg = ScenarioConfig::paper_defaults(rng.gen_range(0..u64::MAX));
                cfg.num_stations = rng.gen_range(1..=3);
                cfg.devices_per_station = rng.gen_range(1..=6);
                cfg.tasks_total = rng.gen_range(1..=24);
                cfg.device_resource_mb = rng.gen_range(0.5..8.0);
                cfg.station_resource_mb = rng.gen_range(1.0..60.0);
                let mut s = cfg.generate().map_err(|e| e.to_string())?;
                let cut = rng.gen_range(0.0..0.4);
                for t in &mut s.tasks {
                    if rng.gen_bool(cut) {
                        t.deadline = t.deadline * rng.gen_range(0.05..1.0);
                    }
                }
                let costs = CostTable::build(&s.system, &s.tasks).map_err(|e| e.to_string())?;
                for (st, idxs) in
                    cluster_task_indices(&s.system, &s.tasks).map_err(|e| e.to_string())?
                {
                    let Some(rel) =
                        build_cluster_relaxation(&s.system, &s.tasks, &costs, st, &idxs)
                            .map_err(|e| e.to_string())?
                    else {
                        continue;
                    };
                    // The greedy walk, replayed over the tasks themselves.
                    let mut device_room: std::collections::BTreeMap<DeviceId, f64> =
                        std::collections::BTreeMap::new();
                    let mut station_room = s.system.station(st).unwrap().max_resource.value();
                    let mut every_task_fits = true;
                    for (k, &i) in idxs.iter().enumerate() {
                        let task = &s.tasks[i];
                        let need = task.resource.value();
                        let mut sites = ExecutionSite::ALL;
                        sites.sort_by(|a, b| {
                            costs
                                .at(i, *a)
                                .energy
                                .value()
                                .total_cmp(&costs.at(i, *b).energy.value())
                        });
                        let room = device_room.entry(task.owner).or_insert_with(|| {
                            s.system.device(task.owner).unwrap().max_resource.value()
                        });
                        let pick = sites.into_iter().find(|&site| {
                            rel.lp.bounds()[rel.var(k, site)].upper >= 1.0
                                && match site {
                                    ExecutionSite::Device => *room >= need,
                                    ExecutionSite::Station => station_room >= need,
                                    ExecutionSite::Cloud => true,
                                }
                        });
                        match pick {
                            Some(ExecutionSite::Device) => *room -= need,
                            Some(ExecutionSite::Station) => station_room -= need,
                            Some(ExecutionSite::Cloud) => {}
                            None => every_task_fits = false,
                        }
                    }

                    let greedy = rel.greedy_basis();
                    let out = linprog::revised::solve_revised_from(&rel.lp, &[&greedy])
                        .map_err(|e| e.to_string())?;
                    let oracle = solve_simplex(&rel.lp).map_err(|e| e.to_string())?;
                    detrand::prop_assert_eq!(out.solution.status, oracle.status);
                    if oracle.status != LpStatus::Optimal {
                        // Cut deadlines can leave fractional bounds that no
                        // capacity admits; a fitting greedy point is feasible.
                        detrand::prop_assert!(!every_task_fits);
                        detrand::prop_assert_eq!(out.adopted, None);
                        infeasible += 1;
                        continue;
                    }
                    let gap = (out.solution.objective - oracle.objective).abs();
                    detrand::prop_assert!(
                        gap <= 1e-9 * (1.0 + oracle.objective.abs()),
                        "station {st}: greedy-started {} vs oracle {} (adopted {:?})",
                        out.solution.objective,
                        oracle.objective,
                        out.adopted
                    );
                    if every_task_fits {
                        detrand::prop_assert_eq!(out.adopted, Some(0));
                        adopted += 1;
                    } else {
                        detrand::prop_assert_eq!(out.adopted, None);
                        declined += 1;
                    }
                }
                Ok(())
            },
        );
        assert!(
            adopted >= 100,
            "only {adopted} clusters adopted the greedy basis"
        );
        assert!(declined >= 10, "only {declined} clusters declined it");
        assert!(infeasible >= 1, "no infeasible cluster was drawn");
    }

    #[test]
    fn empty_cluster_yields_none() {
        let (s, costs) = setup();
        let rel = build_cluster_relaxation(&s.system, &s.tasks, &costs, StationId(0), &[]).unwrap();
        assert!(rel.is_none());
    }
}
