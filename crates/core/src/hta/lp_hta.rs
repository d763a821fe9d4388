//! **LP-HTA** — the paper's Section III.A algorithm, all six steps:
//!
//! 1. solve the relaxed LP `P2` of every cluster with the sparse revised
//!    simplex (`linprog::solve_from`) — the HTA matrix is extremely
//!    sparse; the paper cites Karmarkar's interior-point method only for
//!    polynomial solvability, and any exact LP solver reaches the same
//!    optimum;
//! 2. reshape the solution into the fractional matrix `X`;
//! 3. round every task to its largest fractional component;
//! 4. repair deadline violations by moving to the feasible site with the
//!    largest fraction, cancelling when none exists;
//! 5. repair per-device capacity (C2) by greedily migrating the largest
//!    occupations to the base station;
//! 6. repair station capacity (C3) by greedily migrating to the cloud.
//!
//! [`LpHtaReport`] exposes `E_LP^(OPT)`, the rounding energy, the repair
//! growth `Δ`, and both ratio-bound certificates (Theorem 2 and
//! Corollary 1), so every run carries its own approximation guarantee.

use crate::assignment::{Assignment, Decision};
use crate::costs::CostTable;
use crate::error::AssignError;
use crate::hta::relaxation::build_cluster_relaxation;
use crate::hta::{cluster_task_indices, HtaAlgorithm};
use detrand::ChaCha8Rng;
use linprog::{Basis, LpStatus};
use mec_sim::task::{ExecutionSite, HolisticTask, TaskId};
use mec_sim::topology::{DeviceId, MecSystem, StationId};
use mec_sim::units::Bytes;
use std::collections::HashMap;

/// How Step 3 turns fractions into a site choice.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RoundingRule {
    /// The paper's rule: pick `argmax_l X[i,j,l]` (ties toward the lower
    /// level, i.e. the device).
    #[default]
    ArgMax,
    /// Randomized rounding proportional to the fractions (ablation A2);
    /// deterministic in the seed.
    Randomized {
        /// RNG seed.
        seed: u64,
    },
}

/// Diagnostics of one LP-HTA run (summed over clusters).
#[derive(Debug, Clone, PartialEq)]
pub struct LpHtaReport {
    /// `E_LP^(OPT)`: the optimum of the relaxation (a lower bound on the
    /// optimal integral energy).
    pub lp_objective: f64,
    /// Energy of the Step-3 rounding `x̂` before repair.
    pub rounded_energy: f64,
    /// Energy of the final assignment (assigned tasks only).
    pub final_energy: f64,
    /// `Δ`: energy growth caused by the Step 4–6 migrations.
    pub delta: f64,
    /// Theorem 2 certificate: `3 + Δ / E_LP^(OPT)`.
    pub theorem2_bound: f64,
    /// Corollary 1 certificate: `max E_ij3 / min E_ij1`.
    pub corollary1_bound: f64,
    /// The tighter of the two certificates.
    pub ratio_bound: f64,
    /// Tasks cancelled by the repair steps.
    pub cancelled: Vec<TaskId>,
    /// Total LP iterations across clusters.
    pub lp_iterations: usize,
}

/// One cluster's fractional Step-1/2 output: the tasks it covers and the
/// relaxed site fractions `X[i, ·]` for each of them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFractions {
    /// The cluster's base station.
    pub station: StationId,
    /// Global task indices covered by this cluster, in cluster order.
    pub task_indices: Vec<usize>,
    /// Fractional site weights per task (device, station, cloud), parallel
    /// to `task_indices`.
    pub x: Vec<[f64; 3]>,
}

/// The Step-1/2 output of LP-HTA for a whole instance: every cluster's
/// fractional matrix plus the aggregate LP diagnostics. Computed by
/// [`LpHta::solve_relaxation`] and consumed by [`LpHta::round_with`]; the
/// split lets callers solve the (expensive) relaxation once and reuse it
/// across rounding rules, as the benchmark ablations do.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalSolution {
    /// Per-cluster fractional matrices, in station order.
    pub clusters: Vec<ClusterFractions>,
    /// `E_LP^(OPT)` summed over clusters.
    pub lp_objective: f64,
    /// Total LP iterations across clusters.
    pub lp_iterations: usize,
}

/// Per-station warm-start bases carried across adjacent LP-HTA solves.
///
/// Cluster relaxations of nearby instances (adjacent sweep points, next
/// mobility epoch) differ only in their data, so the previous point's
/// optimal basis is usually still feasible and the solver can skip
/// phase 1 entirely. Feed one `WarmBases` through a chain of
/// [`LpHta::assign_with_report_warm`] calls; it records hit statistics
/// as it goes.
#[derive(Debug, Clone, Default)]
pub struct WarmBases {
    bases: HashMap<StationId, Basis>,
    /// Solves for which a stored basis existed and was offered.
    pub attempts: u64,
    /// Offered bases the solver accepted (phase 1 skipped).
    pub hits: u64,
}

impl WarmBases {
    /// Fresh, empty chain state.
    #[must_use]
    pub fn new() -> WarmBases {
        WarmBases::default()
    }

    /// Stations currently holding a reusable basis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// True when no basis is stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// The stored basis for `station`, if any. The serve loop reads this
    /// to hand each sharded cluster solve its own chained basis.
    #[must_use]
    pub fn basis(&self, station: StationId) -> Option<&Basis> {
        self.bases.get(&station)
    }

    /// Stores (or replaces) `station`'s chained basis.
    pub fn store(&mut self, station: StationId, basis: Basis) {
        self.bases.insert(station, basis);
    }

    /// Drops `station`'s stored basis — e.g. after churn changed the
    /// cluster's problem shape and the solver rejected the stale basis.
    pub fn clear(&mut self, station: StationId) {
        self.bases.remove(&station);
    }

    /// Fraction of offered bases the solver accepted (0 when none were
    /// offered yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.hits as f64 / self.attempts as f64
        }
    }
}

/// One cluster's Step-1/2 solve as produced by [`LpHta::solve_cluster`]:
/// the fractional matrix plus the chaining state the caller needs to keep
/// the warm chain going. This is the unit the online serve loop shards
/// over — clusters are independent by construction, so each can solve on
/// its own worker carrying its own basis, and the outputs assemble into a
/// [`FractionalSolution`] in station order.
#[derive(Debug, Clone)]
pub struct ClusterSolve {
    /// The cluster's fractional Step-2 output.
    pub fractions: ClusterFractions,
    /// The final basis for chaining (absent on greedy-seeded clusters,
    /// non-revised backends, or solves that ended without a real-column
    /// basis).
    pub basis: Option<Basis>,
    /// True when the supplied warm basis was accepted (phase 1 skipped).
    pub warm_used: bool,
    /// True when the supplied warm basis was structurally rejected
    /// (problem shape changed under the chain — a churn event).
    pub warm_rejected: bool,
    /// This cluster's contribution to `E_LP^(OPT)`.
    pub objective: f64,
    /// LP iterations spent on this cluster.
    pub iterations: usize,
}

/// The LP-HTA algorithm with a configurable rounding rule. Step 1 always
/// runs the sparse revised simplex (`linprog::solve_from`), which falls
/// back to the dense simplex on numerical failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpHta {
    /// Rounding rule for Step 3.
    pub rounding: RoundingRule,
    /// Enables the provably exact greedy fast path: when every task's
    /// globally cheapest site is deadline-feasible and picking it for all
    /// tasks satisfies C2/C3, that assignment attains the per-task lower
    /// bound `Σ min_l E_ijl` and is therefore optimal — no LP needed.
    /// Instances under capacity or deadline pressure still take the full
    /// six-step LP path. Disable to force Step 1 on every instance.
    pub fast_path: bool,
    /// Scalability guard: clusters with more tasks than this skip the
    /// dense LP (whose normal equations grow cubically) and seed Steps
    /// 3–6 with the greedy cheapest-feasible indicator instead. The
    /// repair steps still enforce every constraint; only the fractional
    /// seed differs. The paper's own experiments (≤ 450 tasks over 5
    /// clusters) never reach this limit.
    pub lp_cluster_limit: usize,
}

impl Default for LpHta {
    fn default() -> Self {
        LpHta::paper()
    }
}

impl LpHta {
    /// LP-HTA as the paper states it: sparse revised-simplex Step 1 (the
    /// relaxation matrix is block-angular and extremely sparse), arg-max
    /// Step 3, exact fast path enabled.
    pub fn paper() -> LpHta {
        LpHta {
            rounding: RoundingRule::ArgMax,
            fast_path: true,
            lp_cluster_limit: 600,
        }
    }

    /// The full six-step pipeline with no fast path (ablation).
    pub fn without_fast_path(self) -> LpHta {
        LpHta {
            fast_path: false,
            ..self
        }
    }

    /// Greedy exact fast path. Returns `None` when its optimality
    /// precondition fails and the LP pipeline must run.
    fn try_fast_path(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
    ) -> Result<Option<(Assignment, LpHtaReport)>, AssignError> {
        let mut device_free: Vec<f64> = system
            .devices()
            .iter()
            .map(|d| d.max_resource.value())
            .collect();
        let mut station_free: Vec<f64> = system
            .stations()
            .iter()
            .map(|s| s.max_resource.value())
            .collect();
        let mut decisions = Vec::with_capacity(tasks.len());
        let mut energy = 0.0;
        for (idx, task) in tasks.iter().enumerate() {
            let cheapest = ExecutionSite::ALL
                .iter()
                .min_by(|&&a, &&b| {
                    costs
                        .at(idx, a)
                        .energy
                        .value()
                        .total_cmp(&costs.at(idx, b).energy.value())
                })
                .copied()
                .ok_or_else(|| {
                    AssignError::InvalidInput("no execution sites to choose from".into())
                })?;
            if !costs.feasible(idx, cheapest, task.deadline) {
                return Ok(None); // the lower bound is not attainable
            }
            let need = task.resource.value();
            match cheapest {
                ExecutionSite::Device => {
                    let d = task.owner.0;
                    if device_free[d] < need {
                        return Ok(None);
                    }
                    device_free[d] -= need;
                }
                ExecutionSite::Station => {
                    let st = system.station_of(task.owner)?.0;
                    if station_free[st] < need {
                        return Ok(None);
                    }
                    station_free[st] -= need;
                }
                ExecutionSite::Cloud => {}
            }
            energy += costs.at(idx, cheapest).energy.value();
            decisions.push(Decision::Assigned(cheapest));
        }
        // Every task sits at its unconstrained per-task minimum and all
        // constraints hold: this is the exact optimum, and it also equals
        // the LP optimum (the LP cannot go below Σ min_l E_ijl).
        let report = LpHtaReport {
            lp_objective: energy,
            rounded_energy: energy,
            final_energy: energy,
            delta: 0.0,
            theorem2_bound: 3.0,
            corollary1_bound: f64::INFINITY,
            ratio_bound: 3.0,
            cancelled: Vec::new(),
            lp_iterations: 0,
        };
        Ok(Some((Assignment::new(decisions), report)))
    }

    /// Runs the algorithm and returns both the assignment and the
    /// ratio-bound diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] for substrate failures or irrecoverable LP
    /// numerical failures. Per-task infeasibility is reported through
    /// cancellations, not errors.
    pub fn assign_with_report(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
    ) -> Result<(Assignment, LpHtaReport), AssignError> {
        if tasks.len() != costs.len() {
            return Err(AssignError::LengthMismatch {
                tasks: tasks.len(),
                other: costs.len(),
            });
        }
        // Umbrella span: relaxation and rounding nest under it, so the
        // flight recorder shows per-call LP-HTA totals even when the caller
        // (dsmec assign, a unit test) opens no sweep/point span of its own.
        let _timer = mec_obs::span("lp_hta/assign");
        if self.fast_path {
            if let Some(result) = self.try_fast_path(system, tasks, costs)? {
                mec_obs::counter_add("lp_hta/fast_path/hits", 1);
                return Ok(result);
            }
        }
        let fractional = self.solve_relaxation(system, tasks, costs)?;
        self.round_with(system, tasks, costs, &fractional)
    }

    /// Like [`Self::assign_with_report`], but threads a [`WarmBases`]
    /// chain through Step 1 so adjacent solves reuse each other's optimal
    /// bases. With an empty chain this is behaviorally identical to the
    /// cold entry point; warm hits may land on a different optimal vertex
    /// of a degenerate relaxation, which changes nothing about the optimum
    /// or the certificates.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::assign_with_report`].
    pub fn assign_with_report_warm(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
        warm: &mut WarmBases,
    ) -> Result<(Assignment, LpHtaReport), AssignError> {
        if tasks.len() != costs.len() {
            return Err(AssignError::LengthMismatch {
                tasks: tasks.len(),
                other: costs.len(),
            });
        }
        let _timer = mec_obs::span("lp_hta/assign");
        if self.fast_path {
            if let Some(result) = self.try_fast_path(system, tasks, costs)? {
                mec_obs::counter_add("lp_hta/fast_path/hits", 1);
                return Ok(result);
            }
        }
        let fractional = self.solve_relaxation_inner(system, tasks, costs, Some(warm))?;
        self.round_with(system, tasks, costs, &fractional)
    }

    /// Steps 1–2: solves every cluster's relaxed LP (or seeds oversized
    /// clusters greedily) and returns the fractional matrices. The result
    /// depends on `lp_cluster_limit` and the instance — not on
    /// the rounding rule — so it can be cached and fed to [`Self::round_with`]
    /// under several rounding rules.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] for substrate failures or irrecoverable LP
    /// numerical failures.
    pub fn solve_relaxation(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
    ) -> Result<FractionalSolution, AssignError> {
        self.solve_relaxation_inner(system, tasks, costs, None)
    }

    /// [`Self::solve_relaxation`] with a [`WarmBases`] chain: each
    /// cluster's LP is warm-started from the basis its station produced
    /// on the previous call, and the final bases are stored back.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve_relaxation`].
    pub fn solve_relaxation_warm(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
        warm: &mut WarmBases,
    ) -> Result<FractionalSolution, AssignError> {
        self.solve_relaxation_inner(system, tasks, costs, Some(warm))
    }

    fn solve_relaxation_inner(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
        mut warm: Option<&mut WarmBases>,
    ) -> Result<FractionalSolution, AssignError> {
        if tasks.len() != costs.len() {
            return Err(AssignError::LengthMismatch {
                tasks: tasks.len(),
                other: costs.len(),
            });
        }
        let _timer = mec_obs::span("lp_hta/relaxation");
        let mut fractional = FractionalSolution {
            clusters: Vec::new(),
            lp_objective: 0.0,
            lp_iterations: 0,
        };
        for (station, idxs) in cluster_task_indices(system, tasks)? {
            // Offer the chain's basis; the immutable borrow must end
            // before the store is updated below.
            let (solved, attempted) = {
                let prev = warm.as_ref().and_then(|store| store.bases.get(&station));
                let attempted = prev.is_some();
                (
                    self.solve_cluster(system, tasks, costs, station, &idxs, prev)?,
                    attempted,
                )
            };
            let Some(cs) = solved else { continue };
            if let Some(store) = &mut warm {
                if attempted {
                    store.attempts += 1;
                    mec_obs::counter_add("lp_hta/relaxation/warm_attempts", 1);
                }
                if cs.warm_used {
                    store.hits += 1;
                    mec_obs::counter_add("lp_hta/relaxation/warm_hits", 1);
                }
                match cs.basis {
                    Some(basis) => {
                        store.bases.insert(station, basis);
                    }
                    None => {
                        store.bases.remove(&station);
                    }
                }
            }
            if mec_obs::enabled() {
                let fractional_vars = cs
                    .fractions
                    .x
                    .iter()
                    .flatten()
                    .filter(|&&v| v > 1e-9 && v < 1.0 - 1e-9)
                    .count();
                mec_obs::counter_add("lp_hta/relaxation/fractional_vars", fractional_vars as u64);
            }
            fractional.lp_objective += cs.objective;
            fractional.lp_iterations += cs.iterations;
            fractional.clusters.push(cs.fractions);
        }
        Ok(fractional)
    }

    /// Steps 1–2 for a single cluster: builds and solves `station`'s
    /// relaxation — warm-started from `prev` — or seeds it greedily past
    /// `lp_cluster_limit`. Returns `None` for clusters with no tasks or no
    /// solvable relaxation.
    ///
    /// Pure with respect to chain state: the caller owns basis storage
    /// (see [`WarmBases`]), which is what lets the serve loop run one
    /// `solve_cluster` per shard under the deterministic `par_map`
    /// contract and commit the returned bases serially.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] for substrate failures or irrecoverable LP
    /// numerical failures.
    pub fn solve_cluster(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
        station: StationId,
        idxs: &[usize],
        prev: Option<&Basis>,
    ) -> Result<Option<ClusterSolve>, AssignError> {
        if idxs.is_empty() {
            return Ok(None);
        }
        if idxs.len() > self.lp_cluster_limit {
            mec_obs::counter_add("lp_hta/relaxation/greedy_seeded", 1);
            // Scalability guard: greedy cheapest-feasible indicator
            // seed; the true LP optimum is lower-bounded by the sum
            // of per-task minima, which keeps the certificate valid.
            let mut objective = 0.0;
            let mut seed = Vec::with_capacity(idxs.len());
            for &i in idxs {
                let mut row = [0.0; 3];
                let best = ExecutionSite::ALL
                    .iter()
                    .filter(|&&s| costs.feasible(i, s, tasks[i].deadline))
                    .min_by(|&&a, &&b| {
                        costs
                            .at(i, a)
                            .energy
                            .value()
                            .total_cmp(&costs.at(i, b).energy.value())
                    })
                    .copied()
                    .unwrap_or(ExecutionSite::Cloud);
                row[best.index()] = 1.0;
                seed.push(row);
                objective += ExecutionSite::ALL
                    .iter()
                    .map(|&s| costs.at(i, s).energy.value())
                    .fold(f64::INFINITY, f64::min);
            }
            return Ok(Some(ClusterSolve {
                fractions: ClusterFractions {
                    station,
                    task_indices: idxs.to_vec(),
                    x: seed,
                },
                basis: None,
                warm_used: false,
                warm_rejected: false,
                objective,
                iterations: 0,
            }));
        }
        let Some(rel) = build_cluster_relaxation(system, tasks, costs, station, idxs)? else {
            return Ok(None);
        };
        // Step 1: solve the relaxation (revised simplex, dense fallback);
        // a cold solve is `solve_from(_, None)`.
        let outcome = linprog::solve_from(&rel.lp, prev)?;
        let warm_rejected = outcome.warm_rejection.is_some();
        let (sol, basis, warm_used) = (outcome.solution, outcome.basis, outcome.warm_used);
        let iterations = sol.iterations;
        // Step 2: the fractional matrix X. If the LP could not be
        // solved to optimality (pathological custom instances), fall
        // back to the always-feasible all-cloud fractional point.
        let (x, objective) = if sol.status == LpStatus::Optimal {
            (rel.fractional_matrix(&sol.x), sol.objective)
        } else {
            mec_obs::counter_add("lp_hta/relaxation/non_optimal", 1);
            let cloud: f64 = idxs
                .iter()
                .map(|&i| costs.at(i, ExecutionSite::Cloud).energy.value())
                .sum();
            (idxs.iter().map(|_| [0.0, 0.0, 1.0]).collect(), cloud)
        };
        Ok(Some(ClusterSolve {
            fractions: ClusterFractions {
                station,
                task_indices: idxs.to_vec(),
                x,
            },
            basis,
            warm_used,
            warm_rejected,
            objective,
            iterations,
        }))
    }

    /// Steps 3–6 plus certificates: rounds a precomputed [`FractionalSolution`]
    /// (from [`Self::solve_relaxation`], possibly cached) and repairs it into
    /// a feasible assignment under this instance's rounding rule.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] for substrate failures, and
    /// [`AssignError::InvalidInput`] when the fractional solution is
    /// malformed (a cluster whose matrix and task list disagree in length,
    /// or a task index outside `tasks`) — possible because
    /// [`FractionalSolution`] is a public type callers may build or cache
    /// themselves.
    pub fn round_with(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
        fractional: &FractionalSolution,
    ) -> Result<(Assignment, LpHtaReport), AssignError> {
        for (c, cluster) in fractional.clusters.iter().enumerate() {
            if cluster.x.len() != cluster.task_indices.len() {
                return Err(AssignError::InvalidInput(format!(
                    "fractional cluster {c} (station {:?}) has {} matrix rows for {} tasks",
                    cluster.station,
                    cluster.x.len(),
                    cluster.task_indices.len()
                )));
            }
            if let Some(&bad) = cluster.task_indices.iter().find(|&&i| i >= tasks.len()) {
                return Err(AssignError::InvalidInput(format!(
                    "fractional cluster {c} (station {:?}) references task index {bad}, \
                     but only {} tasks were supplied",
                    cluster.station,
                    tasks.len()
                )));
            }
        }
        let _timer = mec_obs::span("lp_hta/rounding");
        let mut assignment = Assignment::new(vec![Decision::Cancelled; tasks.len()]);
        let mut report = LpHtaReport {
            lp_objective: fractional.lp_objective,
            rounded_energy: 0.0,
            final_energy: 0.0,
            delta: 0.0,
            theorem2_bound: f64::INFINITY,
            corollary1_bound: f64::INFINITY,
            ratio_bound: f64::INFINITY,
            cancelled: Vec::new(),
            lp_iterations: fractional.lp_iterations,
        };
        let mut rng = match self.rounding {
            RoundingRule::Randomized { seed } => Some(ChaCha8Rng::seed_from_u64(seed)),
            RoundingRule::ArgMax => None,
        };
        // Repair scratch shared by every cluster: Step 5's owner buckets
        // and Step 6's member list (a prefix of `0..longest`).
        let mut by_owner = Buckets::new([]);
        let longest = fractional
            .clusters
            .iter()
            .map(|c| c.task_indices.len())
            .max()
            .unwrap_or(0);
        let everyone: Vec<usize> = (0..longest).collect();

        for cluster in &fractional.clusters {
            let station = cluster.station;
            let idxs = &cluster.task_indices;
            let x = &cluster.x;

            // Step 3: rounding.
            let mut sites: Vec<Option<ExecutionSite>> = Vec::with_capacity(idxs.len());
            for row in x {
                let site = match &mut rng {
                    None => argmax_site(row),
                    Some(rng) => sample_site(row, rng),
                };
                sites.push(Some(site));
            }
            for (k, &idx) in idxs.iter().enumerate() {
                if let Some(site) = sites[k] {
                    report.rounded_energy += costs.at(idx, site).energy.value();
                }
            }

            mec_obs::counter_add("lp_hta/rounding/clusters", 1);

            // Steps 4–6 are the repair phase; its wall time and move
            // counters separate "how long we round" from "how long we
            // fix what rounding broke".
            let _repair_timer = mec_obs::span("lp_hta/repair");

            // Step 4: deadline repair.
            for (k, &idx) in idxs.iter().enumerate() {
                let deadline = tasks[idx].deadline;
                let Some(site) = sites[k] else { continue };
                if costs.feasible(idx, site, deadline) {
                    continue;
                }
                let fallback = ExecutionSite::ALL
                    .iter()
                    .filter(|&&s| costs.feasible(idx, s, deadline))
                    .max_by(|&&a, &&b| x[k][a.index()].total_cmp(&x[k][b.index()]))
                    .copied();
                mec_obs::counter_add("lp_hta/repair/deadline_moves", 1);
                sites[k] = fallback; // None ⇒ cancelled
            }

            // Step 5: per-device capacity repair (C2).
            repair_device_capacity(
                system,
                tasks,
                costs,
                station,
                idxs,
                &mut sites,
                &mut by_owner,
            )?;

            // Step 6: station capacity repair (C3), over every position.
            let max_s = system.station(station)?.max_resource;
            repair_capacity(
                tasks,
                costs,
                idxs,
                &mut sites,
                ExecutionSite::Station,
                ExecutionSite::Cloud,
                max_s,
                &everyone[..idxs.len()],
            );

            // Materialize decisions.
            for (k, &idx) in idxs.iter().enumerate() {
                match sites[k] {
                    Some(site) => {
                        assignment.set(idx, Decision::Assigned(site));
                        report.final_energy += costs.at(idx, site).energy.value();
                    }
                    None => {
                        assignment.set(idx, Decision::Cancelled);
                        report.cancelled.push(tasks[idx].id);
                    }
                }
            }
        }

        // Ratio-bound certificates.
        report.delta = (report.final_energy - report.rounded_energy).max(0.0);
        if report.lp_objective > 0.0 {
            report.theorem2_bound = 3.0 + report.delta / report.lp_objective;
        }
        let max_e3 = (0..tasks.len())
            .map(|i| costs.at(i, ExecutionSite::Cloud).energy.value())
            .fold(0.0f64, f64::max);
        let min_e1 = (0..tasks.len())
            .map(|i| costs.at(i, ExecutionSite::Device).energy.value())
            .fold(f64::INFINITY, f64::min);
        if min_e1 > 0.0 && min_e1.is_finite() {
            report.corollary1_bound = max_e3 / min_e1;
        }
        report.ratio_bound = report.theorem2_bound.min(report.corollary1_bound);

        Ok((assignment, report))
    }
}

impl HtaAlgorithm for LpHta {
    fn name(&self) -> &'static str {
        "LP-HTA"
    }

    fn assign(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
    ) -> Result<Assignment, AssignError> {
        Ok(self.assign_with_report(system, tasks, costs)?.0)
    }
}

/// Step-3 arg-max rule; ties break toward the lower level, matching the
/// paper's preference for keeping work at the edge.
fn argmax_site(row: &[f64; 3]) -> ExecutionSite {
    let mut best = ExecutionSite::Device;
    for site in [ExecutionSite::Station, ExecutionSite::Cloud] {
        if row[site.index()] > row[best.index()] {
            best = site;
        }
    }
    best
}

/// Randomized rounding: sample a site proportional to the fractions.
fn sample_site(row: &[f64; 3], rng: &mut ChaCha8Rng) -> ExecutionSite {
    let total: f64 = row.iter().sum();
    if total <= 0.0 {
        return ExecutionSite::Cloud;
    }
    let mut draw = rng.gen_range(0.0..total);
    for site in ExecutionSite::ALL {
        let w = row[site.index()];
        if draw < w {
            return site;
        }
        draw -= w;
    }
    ExecutionSite::Cloud
}

/// Step 5 on one cluster: for each of `station`'s devices, while its own
/// tasks at the device exceed `max_i`, migrate them to the station.
///
/// The cluster's positions are bucketed by owner once (into `by_owner`,
/// scratch reused across clusters), so each device's pass sees only its
/// own tasks and the whole step costs one sort plus work proportional to
/// each device's task count. A bucket holds exactly the positions the
/// filter `owner == device` selects, in the same ascending order, so the
/// usage sums and tie-breaks — and therefore the decisions — are those of
/// a full scan per device.
fn repair_device_capacity(
    system: &MecSystem,
    tasks: &[HolisticTask],
    costs: &CostTable,
    station: StationId,
    idxs: &[usize],
    sites: &mut [Option<ExecutionSite>],
    by_owner: &mut Buckets<DeviceId>,
) -> Result<(), AssignError> {
    by_owner.refill(
        idxs.iter()
            .enumerate()
            .map(|(k, &idx)| (tasks[idx].owner, k)),
    );
    for &device in system.cluster(station)? {
        let max_i = system.device(device)?.max_resource;
        repair_capacity(
            tasks,
            costs,
            idxs,
            sites,
            ExecutionSite::Device,
            ExecutionSite::Station,
            max_i,
            by_owner.get(device),
        );
    }
    Ok(())
}

/// Positions grouped by a key: each key's positions, ascending, as one
/// contiguous slice. Built with one sort, looked up by binary search.
#[derive(Debug)]
pub(crate) struct Buckets<K> {
    /// `(key, position)`, sorted.
    pairs: Vec<(K, usize)>,
    /// The positions of `pairs`, in the same order.
    positions: Vec<usize>,
}

impl<K: Ord + Copy> Buckets<K> {
    /// Groups `(key, position)` pairs.
    pub(crate) fn new(pairs: impl IntoIterator<Item = (K, usize)>) -> Buckets<K> {
        let mut buckets = Buckets {
            pairs: Vec::new(),
            positions: Vec::new(),
        };
        buckets.refill(pairs);
        buckets
    }

    /// Regroups from scratch, reusing the buffers.
    pub(crate) fn refill(&mut self, pairs: impl IntoIterator<Item = (K, usize)>) {
        self.pairs.clear();
        self.pairs.extend(pairs);
        self.pairs.sort_unstable();
        self.positions.clear();
        self.positions.extend(self.pairs.iter().map(|&(_, k)| k));
    }

    /// The positions filed under `key`, ascending (empty when none).
    pub(crate) fn get(&self, key: K) -> &[usize] {
        let lo = self.pairs.partition_point(|&(k, _)| k < key);
        let hi = lo + self.pairs[lo..].partition_point(|&(k, _)| k == key);
        &self.positions[lo..hi]
    }
}

/// Shared logic of Steps 5 and 6: while the tasks at `from` among
/// `members` (positions into `idxs`/`sites`, ascending) exceed `capacity`,
/// migrate the largest occupation whose deadline admits `to`; if none is
/// movable, cancel the largest. Ties go to the last largest in `members`
/// order.
///
/// Also reused by the chaos [`crate::repair`] layer, which feeds it the
/// *residual* capacity left by unaffected tasks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn repair_capacity(
    tasks: &[HolisticTask],
    costs: &CostTable,
    idxs: &[usize],
    sites: &mut [Option<ExecutionSite>],
    from: ExecutionSite,
    to: ExecutionSite,
    capacity: Bytes,
    members: &[usize],
) {
    let largest = |a: &usize, b: &usize| {
        tasks[idxs[*a]]
            .resource
            .value()
            .total_cmp(&tasks[idxs[*b]].resource.value())
    };
    // Recomputed after every move (never updated incrementally), so the
    // f64 sum always runs over the same terms in the same order.
    let usage = |sites: &[Option<ExecutionSite>]| -> Bytes {
        members
            .iter()
            .filter(|&&k| sites[k] == Some(from))
            .map(|&k| tasks[idxs[k]].resource)
            .sum()
    };

    while usage(sites) > capacity {
        // Movable set: at `from` and deadline-feasible at `to`.
        let movable = members
            .iter()
            .copied()
            .filter(|&k| {
                let idx = idxs[k];
                sites[k] == Some(from) && costs.feasible(idx, to, tasks[idx].deadline)
            })
            .max_by(largest);
        if let Some(k) = movable {
            sites[k] = Some(to);
            mec_obs::counter_add("lp_hta/repair/migrations", 1);
            continue;
        }
        // Nothing movable: cancel the largest remaining occupant.
        let victim = members
            .iter()
            .copied()
            .filter(|&k| sites[k] == Some(from))
            .max_by(largest);
        match victim {
            Some(k) => {
                sites[k] = None;
                mec_obs::counter_add("lp_hta/repair/cancellations", 1);
            }
            None => break, // no occupants left; capacity must now hold
        }
    }
}

// JSON codecs (wire-compatible with the former serde derives).
djson::impl_json_enum!(RoundingRule { ArgMax, Randomized { seed: u64 } });
djson::impl_json_struct!(LpHtaReport {
    lp_objective,
    rounded_energy,
    final_energy,
    delta,
    theorem2_bound,
    corollary1_bound,
    ratio_bound,
    cancelled,
    lp_iterations,
});
djson::impl_json_struct!(ClusterFractions {
    station,
    task_indices,
    x
});
djson::impl_json_struct!(FractionalSolution {
    clusters,
    lp_objective,
    lp_iterations
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{capacity_usage, evaluate_assignment};
    use mec_sim::units::Seconds;
    use mec_sim::workload::ScenarioConfig;

    fn run(
        seed: u64,
    ) -> (
        mec_sim::workload::Scenario,
        CostTable,
        Assignment,
        LpHtaReport,
    ) {
        // Exercise the full six-step LP pipeline, not the fast path.
        let s = ScenarioConfig::paper_defaults(seed).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let (a, r) = LpHta::paper()
            .without_fast_path()
            .assign_with_report(&s.system, &s.tasks, &costs)
            .unwrap();
        (s, costs, a, r)
    }

    #[test]
    fn fast_path_matches_full_pipeline_when_unconstrained() {
        let s = ScenarioConfig::paper_defaults(17).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let (fast, fr) = LpHta::paper()
            .assign_with_report(&s.system, &s.tasks, &costs)
            .unwrap();
        let (full, lr) = LpHta::paper()
            .without_fast_path()
            .assign_with_report(&s.system, &s.tasks, &costs)
            .unwrap();
        if fr.lp_iterations == 0 {
            // Fast path fired: it is exact, so the full pipeline cannot
            // beat it (and must be within its own certificate of it).
            assert!(lr.final_energy >= fr.final_energy - 1e-6);
            assert!(fr.final_energy <= lr.lp_objective * lr.ratio_bound + 1e-6);
            let _ = (fast, full);
        }
    }

    #[test]
    fn produces_feasible_assignments() {
        let (s, costs, a, _) = run(1);
        // C2/C3 hold.
        let usage = capacity_usage(&s.system, &s.tasks, &a).unwrap();
        assert!(usage.within_limits(&s.system, Bytes::new(1e-6)));
        // C1 holds for every assigned task.
        for (idx, task) in s.tasks.iter().enumerate() {
            if let Some(site) = a.decision(idx).site() {
                assert!(
                    costs.feasible(idx, site, task.deadline),
                    "{} misses its deadline at {site}",
                    task.id
                );
            }
        }
    }

    #[test]
    fn report_certificates_are_consistent() {
        let (_, _, a, r) = run(2);
        assert!(r.lp_objective > 0.0);
        // Note: the rounded point may *violate* capacity constraints, so
        // its energy can legitimately fall below the constrained LP
        // optimum; only the Lemma-1 upper bound is guaranteed.
        assert!(
            r.rounded_energy <= 3.0 * r.lp_objective + 1e-6,
            "Lemma 1: rounding within 3x of the LP optimum"
        );
        assert!((r.theorem2_bound - (3.0 + r.delta / r.lp_objective)).abs() < 1e-12);
        assert_eq!(r.ratio_bound, r.theorem2_bound.min(r.corollary1_bound));
        assert!(r.final_energy > 0.0);
        assert_eq!(a.cancelled().len(), r.cancelled.len());
    }

    #[test]
    fn beats_all_cloud_on_energy() {
        let (s, costs, a, _) = run(3);
        let lp = evaluate_assignment(&s.tasks, &costs, &a).unwrap();
        let cloud = Assignment::uniform(s.tasks.len(), ExecutionSite::Cloud);
        let cloud_m = evaluate_assignment(&s.tasks, &costs, &cloud).unwrap();
        assert!(
            lp.total_energy.value() < cloud_m.total_energy.value() * 0.6,
            "LP-HTA {} should be well below AllToC {}",
            lp.total_energy,
            cloud_m.total_energy
        );
    }

    #[test]
    fn unsatisfied_rate_is_low_with_achievable_deadlines() {
        let (s, costs, a, _) = run(4);
        let m = evaluate_assignment(&s.tasks, &costs, &a).unwrap();
        assert!(
            m.unsatisfied_rate < 0.15,
            "unsatisfied rate {} too high",
            m.unsatisfied_rate
        );
    }

    #[test]
    fn revised_cluster_objectives_match_the_dense_oracle() {
        let s = ScenarioConfig::paper_defaults(5).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let algo = LpHta::paper().without_fast_path();
        let frac = algo.solve_relaxation(&s.system, &s.tasks, &costs).unwrap();
        let mut oracle_total = 0.0;
        for (station, idxs) in cluster_task_indices(&s.system, &s.tasks).unwrap() {
            let cs = algo
                .solve_cluster(&s.system, &s.tasks, &costs, station, &idxs, None)
                .unwrap()
                .expect("every paper cluster has tasks");
            let rel = build_cluster_relaxation(&s.system, &s.tasks, &costs, station, &idxs)
                .unwrap()
                .unwrap();
            let dense = linprog::simplex::solve_simplex(&rel.lp).unwrap();
            assert_eq!(dense.status, LpStatus::Optimal, "cluster {station}");
            let scale = 1.0 + dense.objective.abs();
            assert!(
                (cs.objective - dense.objective).abs() < 1e-6 * scale,
                "cluster {station}: revised {} vs dense {}",
                cs.objective,
                dense.objective
            );
            oracle_total += dense.objective;
        }
        assert!((frac.lp_objective - oracle_total).abs() < 1e-6 * (1.0 + oracle_total.abs()));
    }

    #[test]
    fn randomized_rounding_is_deterministic_in_seed() {
        let s = ScenarioConfig::paper_defaults(6).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let algo = LpHta {
            rounding: RoundingRule::Randomized { seed: 99 },
            ..LpHta::paper().without_fast_path()
        };
        let a1 = algo.assign(&s.system, &s.tasks, &costs).unwrap();
        let a2 = algo.assign(&s.system, &s.tasks, &costs).unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn tight_capacity_forces_migration_not_violation() {
        let mut cfg = ScenarioConfig::paper_defaults(7);
        cfg.device_resource_mb = 2.0; // tasks are ~1-4.5 MB: heavy pressure
        cfg.station_resource_mb = 20.0;
        let s = cfg.generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let (a, _) = LpHta::paper()
            .assign_with_report(&s.system, &s.tasks, &costs)
            .unwrap();
        let usage = capacity_usage(&s.system, &s.tasks, &a).unwrap();
        assert!(usage.within_limits(&s.system, Bytes::new(1e-6)));
        // Pressure must push a material share of work off the devices.
        let [dev, _, _] = a.site_counts();
        assert!(dev < s.tasks.len());
    }

    #[test]
    fn impossible_deadlines_cancel_rather_than_violate() {
        let mut s = ScenarioConfig::paper_defaults(8).generate().unwrap();
        for t in s.tasks.iter_mut().take(5) {
            t.deadline = Seconds::new(1e-9);
        }
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let (a, r) = LpHta::paper()
            .assign_with_report(&s.system, &s.tasks, &costs)
            .unwrap();
        assert!(r.cancelled.len() >= 5);
        for idx in 0..5 {
            assert_eq!(a.decision(idx), Decision::Cancelled);
        }
    }

    #[test]
    fn split_relaxation_plus_rounding_matches_assign_with_report() {
        let s = ScenarioConfig::paper_defaults(9).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        for rounding in [RoundingRule::ArgMax, RoundingRule::Randomized { seed: 7 }] {
            let algo = LpHta {
                rounding,
                ..LpHta::paper().without_fast_path()
            };
            let frac = algo.solve_relaxation(&s.system, &s.tasks, &costs).unwrap();
            let (a1, r1) = algo.round_with(&s.system, &s.tasks, &costs, &frac).unwrap();
            let (a2, r2) = algo
                .assign_with_report(&s.system, &s.tasks, &costs)
                .unwrap();
            assert_eq!(a1, a2);
            assert_eq!(r1, r2);
        }
    }

    #[test]
    fn relaxation_is_independent_of_rounding_rule() {
        let s = ScenarioConfig::paper_defaults(10).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let a = LpHta::paper().without_fast_path();
        let b = LpHta {
            rounding: RoundingRule::Randomized { seed: 3 },
            ..a
        };
        let fa = a.solve_relaxation(&s.system, &s.tasks, &costs).unwrap();
        let fb = b.solve_relaxation(&s.system, &s.tasks, &costs).unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn round_with_rejects_row_count_mismatch() {
        let s = ScenarioConfig::paper_defaults(11).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let algo = LpHta::paper().without_fast_path();
        let mut frac = algo.solve_relaxation(&s.system, &s.tasks, &costs).unwrap();
        frac.clusters[0].x.pop();
        let err = algo
            .round_with(&s.system, &s.tasks, &costs, &frac)
            .unwrap_err();
        match err {
            AssignError::InvalidInput(msg) => assert!(msg.contains("matrix rows"), "{msg}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn round_with_rejects_out_of_range_task_index() {
        let s = ScenarioConfig::paper_defaults(12).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let algo = LpHta::paper().without_fast_path();
        let mut frac = algo.solve_relaxation(&s.system, &s.tasks, &costs).unwrap();
        frac.clusters[0].task_indices[0] = s.tasks.len();
        let err = algo
            .round_with(&s.system, &s.tasks, &costs, &frac)
            .unwrap_err();
        match err {
            AssignError::InvalidInput(msg) => assert!(msg.contains("task index"), "{msg}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn warm_chain_matches_cold_solves_across_adjacent_instances() {
        // A miniature sweep: the same scenario under progressively tighter
        // deadlines (shape-preserving, data-perturbing — exactly what
        // adjacent sweep points look like). The warm chain must reproduce
        // every cold optimum and actually hit once the chain is primed.
        let s = ScenarioConfig::paper_defaults(13).generate().unwrap();
        let algo = LpHta::paper().without_fast_path();
        let mut warm = WarmBases::new();
        for scale in [1.0, 1.0, 0.97, 0.94] {
            let mut tasks = s.tasks.clone();
            for t in &mut tasks {
                t.deadline = Seconds::new(t.deadline.value() * scale);
            }
            let costs = CostTable::build(&s.system, &tasks).unwrap();
            let cold = algo.solve_relaxation(&s.system, &tasks, &costs).unwrap();
            let chained = algo
                .solve_relaxation_warm(&s.system, &tasks, &costs, &mut warm)
                .unwrap();
            let scale_tol = 1e-6 * (1.0 + cold.lp_objective.abs());
            assert!(
                (chained.lp_objective - cold.lp_objective).abs() < scale_tol,
                "warm objective {} vs cold {} at deadline scale {scale}",
                chained.lp_objective,
                cold.lp_objective
            );
        }
        assert!(!warm.is_empty(), "chain should retain bases");
        assert!(warm.attempts >= 3, "attempts: {}", warm.attempts);
        assert!(
            warm.hits >= 1,
            "re-solving an identical instance must accept the stored basis ({} attempts)",
            warm.attempts
        );
    }

    #[test]
    fn warm_chain_survives_mid_chain_growth_and_shrink() {
        // Churn regression: a serve session grows and shrinks its task
        // population mid-chain, so the stored bases go structurally stale
        // whenever the per-cluster LP changes shape. The chain must never
        // corrupt a solve — every epoch still matches the cold optimum —
        // and must keep hitting once the shape stabilises again.
        let algo = LpHta::paper().without_fast_path();
        let mut warm = WarmBases::new();
        for tasks_total in [100usize, 100, 120, 120, 80, 80] {
            let mut cfg = ScenarioConfig::paper_defaults(16);
            cfg.tasks_total = tasks_total;
            let s = cfg.generate().unwrap();
            let costs = CostTable::build(&s.system, &s.tasks).unwrap();
            let cold = algo.solve_relaxation(&s.system, &s.tasks, &costs).unwrap();
            let chained = algo
                .solve_relaxation_warm(&s.system, &s.tasks, &costs, &mut warm)
                .unwrap();
            let scale_tol = 1e-6 * (1.0 + cold.lp_objective.abs());
            assert!(
                (chained.lp_objective - cold.lp_objective).abs() < scale_tol,
                "warm objective {} vs cold {} at {tasks_total} tasks",
                chained.lp_objective,
                cold.lp_objective
            );
        }
        // Shape-matched re-solves (epochs 2, 4, 6) must accept the stored
        // basis; the two resizes must decline rather than hit blindly.
        assert!(warm.hits >= 1, "stable epochs should warm-hit");
        assert!(
            warm.hits < warm.attempts,
            "resized epochs must reject stale bases ({} hits / {} attempts)",
            warm.hits,
            warm.attempts
        );
        assert!(warm.hit_rate() > 0.0 && warm.hit_rate() < 1.0);
    }

    #[test]
    fn warm_assignment_is_feasible_and_certified() {
        let s = ScenarioConfig::paper_defaults(14).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let algo = LpHta::paper().without_fast_path();
        let mut warm = WarmBases::new();
        let (_, first) = algo
            .assign_with_report_warm(&s.system, &s.tasks, &costs, &mut warm)
            .unwrap();
        let (a, second) = algo
            .assign_with_report_warm(&s.system, &s.tasks, &costs, &mut warm)
            .unwrap();
        let tol = 1e-6 * (1.0 + first.lp_objective.abs());
        assert!((first.lp_objective - second.lp_objective).abs() < tol);
        let usage = capacity_usage(&s.system, &s.tasks, &a).unwrap();
        assert!(usage.within_limits(&s.system, Bytes::new(1e-6)));
        assert!(second.final_energy <= second.lp_objective * second.ratio_bound + 1e-6);
    }

    #[test]
    fn warm_entry_point_with_empty_chain_matches_cold_exactly() {
        let s = ScenarioConfig::paper_defaults(15).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let algo = LpHta::paper().without_fast_path();
        let (a_cold, r_cold) = algo
            .assign_with_report(&s.system, &s.tasks, &costs)
            .unwrap();
        let mut warm = WarmBases::new();
        let (a_warm, r_warm) = algo
            .assign_with_report_warm(&s.system, &s.tasks, &costs, &mut warm)
            .unwrap();
        // First use of a chain offers no basis, so the solve path is the
        // cold one bit for bit.
        assert_eq!(a_cold, a_warm);
        assert_eq!(r_cold, r_warm);
        assert_eq!(warm.hits, 0);
    }

    #[test]
    fn argmax_prefers_lower_level_on_ties() {
        assert_eq!(argmax_site(&[0.4, 0.4, 0.2]), ExecutionSite::Device);
        assert_eq!(argmax_site(&[0.2, 0.4, 0.4]), ExecutionSite::Station);
        assert_eq!(argmax_site(&[0.1, 0.2, 0.7]), ExecutionSite::Cloud);
    }

    /// The closure-based Steps 5–6 helper as it stood before the owner
    /// bucketing, kept verbatim as the oracle the bucketed repair must
    /// match decision for decision.
    #[allow(clippy::too_many_arguments)]
    fn repair_capacity_oracle(
        tasks: &[HolisticTask],
        costs: &CostTable,
        idxs: &[usize],
        sites: &mut [Option<ExecutionSite>],
        from: ExecutionSite,
        to: ExecutionSite,
        capacity: Bytes,
        belongs: impl Fn(usize) -> bool,
    ) {
        let usage = |sites: &[Option<ExecutionSite>]| -> Bytes {
            idxs.iter()
                .enumerate()
                .filter(|(k, &idx)| sites[*k] == Some(from) && belongs(idx))
                .map(|(_, &idx)| tasks[idx].resource)
                .sum()
        };

        while usage(sites) > capacity {
            // Movable set: at `from`, belongs, and deadline-feasible at `to`.
            let movable = idxs
                .iter()
                .enumerate()
                .filter(|(k, &idx)| {
                    sites[*k] == Some(from)
                        && belongs(idx)
                        && costs.feasible(idx, to, tasks[idx].deadline)
                })
                .max_by(|(_, &a), (_, &b)| {
                    tasks[a]
                        .resource
                        .value()
                        .total_cmp(&tasks[b].resource.value())
                })
                .map(|(k, _)| k);
            if let Some(k) = movable {
                sites[k] = Some(to);
                mec_obs::counter_add("lp_hta/repair/migrations", 1);
                continue;
            }
            // Nothing movable: cancel the largest remaining occupant.
            let victim = idxs
                .iter()
                .enumerate()
                .filter(|(k, &idx)| sites[*k] == Some(from) && belongs(idx))
                .max_by(|(_, &a), (_, &b)| {
                    tasks[a]
                        .resource
                        .value()
                        .total_cmp(&tasks[b].resource.value())
                })
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    sites[k] = None;
                    mec_obs::counter_add("lp_hta/repair/cancellations", 1);
                }
                None => break, // no occupants left; capacity must now hold
            }
        }
    }

    /// One random cluster for the repair oracle: station 0 with 1–6
    /// devices (capacities 0–8 MB, so some overflow and some cannot hold
    /// a single task), plus station 1 whose device may own a task filed
    /// under station 0's cluster. Owners skew toward the first devices,
    /// leaving others with zero tasks; occupations come from three values,
    /// so the largest is often tied; deadlines make some tasks infeasible
    /// at the station, the cloud, or everywhere.
    #[allow(clippy::type_complexity)]
    fn random_cluster(
        rng: &mut ChaCha8Rng,
    ) -> (
        MecSystem,
        Vec<HolisticTask>,
        CostTable,
        Vec<usize>,
        Vec<Option<ExecutionSite>>,
    ) {
        use detrand::SliceRandom;
        use mec_sim::radio::NetworkProfile;
        use mec_sim::topology::Cloud;
        use mec_sim::units::Hertz;

        let mut b = MecSystem::builder(Cloud {
            cpu: Hertz::from_ghz(2.4),
        });
        let station_mb = [0.0, 2.0, 4.0, 8.0, 100.0][rng.gen_range(0..5usize)];
        let home = b.add_station(Hertz::from_ghz(4.0), Bytes::from_mb(station_mb));
        let away = b.add_station(Hertz::from_ghz(4.0), Bytes::from_mb(100.0));
        let n_home = rng.gen_range(1..=6usize);
        for d in 0..=n_home {
            let device_mb = [0.0, 1.0, 2.0, 3.0, 5.0, 8.0][rng.gen_range(0..6usize)];
            let profile = if rng.gen_bool(0.5) {
                NetworkProfile::WiFi
            } else {
                NetworkProfile::FourG
            };
            let station = if d < n_home { home } else { away };
            b.add_device(
                station,
                Hertz::from_ghz(rng.gen_range(1.0..2.0)),
                profile.link(),
                Bytes::from_mb(device_mb),
            )
            .unwrap();
        }
        let system = b.build().unwrap();

        let n_tasks = rng.gen_range(0..=14usize);
        let mut tasks: Vec<HolisticTask> = (0..n_tasks)
            .map(|index| {
                let owner = if rng.gen_bool(0.1) {
                    n_home // the station-1 device
                } else {
                    // Skewed toward low ids: min of two draws.
                    rng.gen_range(0..n_home).min(rng.gen_range(0..n_home))
                };
                HolisticTask {
                    id: TaskId { user: owner, index },
                    owner: DeviceId(owner),
                    local_size: Bytes::from_kb(rng.gen_range(200.0..3000.0)),
                    external_size: Bytes::ZERO,
                    external_source: None,
                    complexity: 1.0,
                    resource: Bytes::from_mb([1.0, 2.0, 3.0][rng.gen_range(0..3usize)]),
                    deadline: Seconds::new(1e6),
                }
            })
            .collect();
        let costs = CostTable::build(&system, &tasks).unwrap();
        for (i, t) in tasks.iter_mut().enumerate() {
            let at = |site| costs.at(i, site).time.value();
            t.deadline = Seconds::new(match rng.gen_range(0..4usize) {
                0 => 1e6,
                1 => at(ExecutionSite::Station) * 0.999,
                2 => at(ExecutionSite::Cloud) * 0.999,
                _ => 1e-9,
            });
        }
        let costs = CostTable::build(&system, &tasks).unwrap();

        let mut idxs: Vec<usize> = (0..n_tasks).collect();
        idxs.shuffle(rng);
        let sites = idxs
            .iter()
            .map(|_| match rng.gen_range(0..20usize) {
                0..=9 => Some(ExecutionSite::Device),
                10..=14 => Some(ExecutionSite::Station),
                15..=17 => Some(ExecutionSite::Cloud),
                _ => None,
            })
            .collect();
        (system, tasks, costs, idxs, sites)
    }

    #[test]
    fn bucketed_capacity_repair_matches_the_closure_oracle() {
        // Moves seen across all cases, by (step, migrated?): the property
        // only means something if both steps both migrate and cancel.
        let mut seen = [[0usize; 2]; 2];
        let mut tally = |step: usize, before: &[Option<ExecutionSite>], after: &[Option<_>]| {
            for (b, a) in before.iter().zip(after) {
                if b != a {
                    seen[step][usize::from(a.is_some())] += 1;
                }
            }
        };
        detrand::prop::run_cases("bucketed_capacity_repair", 512, |rng| {
            let (system, tasks, costs, idxs, initial) = random_cluster(rng);
            let station = StationId(0);

            // Step 5.
            let mut oracle = initial.clone();
            for &device in system.cluster(station).unwrap() {
                let max_i = system.device(device).unwrap().max_resource;
                repair_capacity_oracle(
                    &tasks,
                    &costs,
                    &idxs,
                    &mut oracle,
                    ExecutionSite::Device,
                    ExecutionSite::Station,
                    max_i,
                    |idx| tasks[idx].owner == device,
                );
            }
            let mut bucketed = initial.clone();
            repair_device_capacity(
                &system,
                &tasks,
                &costs,
                station,
                &idxs,
                &mut bucketed,
                &mut Buckets::new([]),
            )
            .map_err(|e| e.to_string())?;
            detrand::prop_assert_eq!(&bucketed, &oracle);
            tally(0, &initial, &oracle);

            // Step 6, from the common Step-5 result.
            let after_step5 = oracle.clone();
            let max_s = system.station(station).unwrap().max_resource;
            repair_capacity_oracle(
                &tasks,
                &costs,
                &idxs,
                &mut oracle,
                ExecutionSite::Station,
                ExecutionSite::Cloud,
                max_s,
                |_| true,
            );
            let everyone: Vec<usize> = (0..idxs.len()).collect();
            repair_capacity(
                &tasks,
                &costs,
                &idxs,
                &mut bucketed,
                ExecutionSite::Station,
                ExecutionSite::Cloud,
                max_s,
                &everyone,
            );
            detrand::prop_assert_eq!(&bucketed, &oracle);
            tally(1, &after_step5, &oracle);
            Ok(())
        });
        for (step, [cancelled, migrated]) in [5, 6].into_iter().zip(seen) {
            assert!(
                cancelled > 0 && migrated > 0,
                "step {step}: {migrated} migrations, {cancelled} cancellations"
            );
        }
    }

    #[test]
    fn buckets_group_positions_by_key_in_ascending_order() {
        let buckets = Buckets::new([(3, 4), (1, 0), (3, 1), (2, 5), (3, 2)]);
        assert_eq!(buckets.get(3), &[1, 2, 4]);
        assert_eq!(buckets.get(1), &[0]);
        assert_eq!(buckets.get(2), &[5]);
        assert!(buckets.get(0).is_empty());
        assert!(buckets.get(9).is_empty());
        assert!(Buckets::<u8>::new([]).get(0).is_empty());
        let mut reused = buckets;
        reused.refill([(7, 3), (7, 0)]);
        assert_eq!(reused.get(7), &[0, 3]);
        assert!(reused.get(3).is_empty());
    }
}
