//! Replanning for tasks stranded by injected faults.
//!
//! The fault plane (`mec_sim::sim::fault`) kills tasks inside the
//! discrete-event executor; this module is the control loop above it that
//! detects the strandings and replans, in *waves*:
//!
//! 1. the wave's tasks run under [`simulate_chaos_with_arrivals`];
//! 2. every failure is classified — **transient** (link outage) tasks
//!    retry at the same site after an exponential backoff; **permanent**
//!    (device dropout) tasks are abandoned when the dead device is the
//!    task's *owner* (the user who must receive the result is gone),
//!    re-sourced to the lowest-id live device when it was the shared-data
//!    *source*, and moved to a cheaper feasible site — ultimately the
//!    cloud, whose resources the paper treats as unconstrained — when
//!    their current site no longer fits the remaining deadline;
//! 3. reassignments that would overflow a station's residual capacity go
//!    through the same `lp_hta::repair_capacity` machinery LP-HTA uses
//!    for its Steps 5–6, with cloud as the relief valve;
//! 4. the next wave re-releases the replanned tasks at their backoff
//!    times.
//!
//! Simplification, documented as part of the determinism contract
//! (DESIGN.md §8): each wave replays only the stranded tasks, so retried
//! work does not re-contend with work that already completed in an
//! earlier wave — repairs happen in the tail of the schedule, where the
//! paper's quasi-static assumption (Section II) holds.
//!
//! Every decision lands in an ordered [`RepairEvent`] list whose
//! [`ChaosRunReport::fingerprint`] is a pure function of
//! `(system, tasks, assignment, plan, policy)` — the property the
//! cross-thread determinism test in `tests/chaos.rs` pins down. No task
//! is ever silently dropped: every input task reports exactly one
//! [`TaskFate`].

use crate::assignment::{Assignment, Decision};
use crate::costs::CostTable;
use crate::dta::Coverage;
use crate::error::AssignError;
use crate::hta::lp_hta::{repair_capacity, Buckets};
use mec_sim::data::{DataUniverse, ItemSet, OwnersIndex};
use mec_sim::sim::{
    simulate_chaos_with_arrivals, ChaosOutcome, Contention, FaultHit, FaultHitKind, FaultPlan,
};
use mec_sim::task::{ExecutionSite, HolisticTask, TaskId};
use mec_sim::topology::{DeviceId, MecSystem};
use mec_sim::units::{Joules, Seconds};

/// Retry/backoff knobs of the repair loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairPolicy {
    /// Maximum retries after transient (link-outage) failures.
    pub max_retries: u32,
    /// First backoff delay; doubles every retry.
    pub backoff: Seconds,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            max_retries: 3,
            backoff: Seconds::new(0.05),
        }
    }
}

/// Why a task was given up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbandonReason {
    /// The assignment algorithm itself cancelled the task (paper Steps
    /// 4–6); reported explicitly so chaos runs account for every task.
    CancelledAtAssignment,
    /// Transient failures persisted past [`RepairPolicy::max_retries`].
    RetriesExhausted,
    /// The task's owner device died; nobody is left to receive results.
    OwnerLost,
    /// The shared-data source died and no live device can replace it.
    DataLost,
    /// Capacity repair had to cancel the task (no feasible site).
    NoFeasibleSite,
}

/// One replanning decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairAction {
    /// Retry at the same site after backoff.
    Retry {
        /// Retry number (1-based).
        attempt: u32,
        /// Release time of the retry.
        at: Seconds,
    },
    /// The shared-data source was replaced.
    Resourced {
        /// The replacement source device.
        new_source: DeviceId,
        /// Site the task will (re)run at.
        site: ExecutionSite,
    },
    /// The task was moved to another site.
    Reassigned {
        /// Site it failed at.
        from: ExecutionSite,
        /// Site it will run at.
        to: ExecutionSite,
    },
    /// The task was given up on.
    Abandoned(AbandonReason),
}

/// One entry of the ordered repair log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairEvent {
    /// The task the decision concerns.
    pub task: TaskId,
    /// Simulated time of the triggering failure (zero for
    /// assignment-time cancellations).
    pub time: Seconds,
    /// The fault that triggered the decision, if any.
    pub hit: Option<FaultHit>,
    /// What the repair loop decided.
    pub action: RepairAction,
}

/// Final fate of one task under faults and repair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskFate {
    /// The task finished.
    Completed {
        /// Wall-clock completion time (on the wave timeline).
        completion: Seconds,
        /// `completion − original arrival` — includes all failed
        /// attempts and backoff waits.
        sojourn: Seconds,
        /// Whether the sojourn met the task's original deadline.
        met_deadline: bool,
        /// Whether any repair action was needed along the way.
        recovered: bool,
    },
    /// The task was explicitly given up on.
    Failed {
        /// Why.
        reason: AbandonReason,
        /// The last fault that struck it, if any.
        last_hit: Option<FaultHit>,
    },
}

/// Outcome of one task across all waves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRepairResult {
    /// Task identifier.
    pub id: TaskId,
    /// Final site (None when never runnable).
    pub site: Option<ExecutionSite>,
    /// Energy across every attempt, failed ones included.
    pub energy: Joules,
    /// Transient retries consumed.
    pub attempts: u32,
    /// How it ended.
    pub fate: TaskFate,
}

/// Aggregate outcome of a chaos run with repair.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRunReport {
    /// Per-task outcomes, parallel to the input task list.
    pub results: Vec<TaskRepairResult>,
    /// Ordered repair log (wave by wave, input order inside a wave).
    pub events: Vec<RepairEvent>,
    /// Number of simulation waves run.
    pub waves: u32,
}

impl ChaosRunReport {
    /// Tasks that finished.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.fate, TaskFate::Completed { .. }))
            .count()
    }

    /// Tasks explicitly failed.
    pub fn failed(&self) -> usize {
        self.results.len() - self.completed()
    }

    /// Total energy across all attempts of all tasks.
    pub fn total_energy(&self) -> Joules {
        self.results.iter().map(|r| r.energy).sum()
    }

    /// A compact, order-sensitive rendering of the repair log — equal
    /// fingerprints mean the same fault/repair event sequence. Used by
    /// the `--threads 1` vs `--threads N` determinism oracle.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let hit = match e.hit {
                Some(h) => format!("{:?}@{}", h.kind, h.time),
                None => "-".to_string(),
            };
            out.push_str(&format!("{}:{}:{:?};", e.task, hit, e.action));
        }
        out
    }
}

/// One stranded task awaiting the next wave.
#[derive(Debug, Clone, Copy)]
struct Pending {
    idx: usize,
    site: ExecutionSite,
    release: Seconds,
}

/// Runs `assignment` under `plan`, replanning stranded tasks per
/// `policy` until every task either completes or is explicitly
/// abandoned. See the module docs for the wave semantics.
///
/// # Errors
///
/// Propagates substrate errors (plan building, cost evaluation); per-task
/// infeasibility is expressed in the report, never as an error.
pub fn execute_with_repair(
    system: &MecSystem,
    tasks: &[HolisticTask],
    assignment: &Assignment,
    contention: Contention,
    plan: &FaultPlan,
    policy: &RepairPolicy,
) -> Result<ChaosRunReport, AssignError> {
    let _span = mec_obs::span("chaos/repair");
    if tasks.len() != assignment.len() {
        return Err(AssignError::LengthMismatch {
            tasks: tasks.len(),
            other: assignment.len(),
        });
    }
    let dead = plan.dying_devices();
    // Working copies: sources may be rewritten by repair.
    let mut current: Vec<HolisticTask> = tasks.to_vec();
    let mut results: Vec<Option<TaskRepairResult>> = vec![None; tasks.len()];
    let mut events: Vec<RepairEvent> = Vec::new();
    let mut attempts: Vec<u32> = vec![0; tasks.len()];
    let mut energy: Vec<f64> = vec![0.0; tasks.len()];
    let mut recovered: Vec<bool> = vec![false; tasks.len()];

    let mut pending: Vec<Pending> = Vec::new();
    for (idx, d) in assignment.decisions().iter().enumerate() {
        match d {
            Decision::Assigned(site) => pending.push(Pending {
                idx,
                site: *site,
                release: Seconds::ZERO,
            }),
            Decision::Cancelled => {
                // Explicit, never silent: assignment-time cancellations
                // appear in the report like any other failure.
                events.push(RepairEvent {
                    task: tasks[idx].id,
                    time: Seconds::ZERO,
                    hit: None,
                    action: RepairAction::Abandoned(AbandonReason::CancelledAtAssignment),
                });
                results[idx] = Some(TaskRepairResult {
                    id: tasks[idx].id,
                    site: None,
                    energy: Joules::ZERO,
                    attempts: 0,
                    fate: TaskFate::Failed {
                        reason: AbandonReason::CancelledAtAssignment,
                        last_hit: None,
                    },
                });
            }
        }
    }

    let abandon = |idx: usize,
                   site: ExecutionSite,
                   hit: Option<FaultHit>,
                   reason: AbandonReason,
                   results: &mut Vec<Option<TaskRepairResult>>,
                   events: &mut Vec<RepairEvent>,
                   energy: &[f64],
                   attempts: &[u32],
                   tasks: &[HolisticTask]| {
        mec_obs::counter_add("chaos/repair/abandoned", 1);
        events.push(RepairEvent {
            task: tasks[idx].id,
            time: hit.map_or(Seconds::ZERO, |h| h.time),
            hit,
            action: RepairAction::Abandoned(reason),
        });
        results[idx] = Some(TaskRepairResult {
            id: tasks[idx].id,
            site: Some(site),
            energy: Joules::new(energy[idx]),
            attempts: attempts[idx],
            fate: TaskFate::Failed {
                reason,
                last_hit: hit,
            },
        });
    };

    // Every wave either completes a task, abandons it, or consumes one of
    // its bounded repair tokens (≤ max_retries retries + one re-source +
    // one reassignment), so this cap is never the deciding factor — it is
    // a backstop against future edits breaking that argument. Saturating:
    // an adversarial max_retries near u32::MAX must not wrap the cap to a
    // tiny value and abandon everything on wave one.
    let max_waves = policy.max_retries.saturating_add(4);
    let mut waves = 0u32;
    while !pending.is_empty() {
        if waves >= max_waves {
            for p in pending.drain(..) {
                abandon(
                    p.idx,
                    p.site,
                    None,
                    AbandonReason::RetriesExhausted,
                    &mut results,
                    &mut events,
                    &energy,
                    &attempts,
                    tasks,
                );
            }
            break;
        }
        waves += 1;
        let arrivals: Vec<(HolisticTask, ExecutionSite, Seconds)> = pending
            .iter()
            .map(|p| (current[p.idx], p.site, p.release))
            .collect();
        let report = simulate_chaos_with_arrivals(system, &arrivals, contention, plan)
            .map_err(AssignError::Mec)?;

        let wave: Vec<Pending> = std::mem::take(&mut pending);
        // Residual station capacity for this wave's reassignments: what
        // unaffected (non-wave, non-failed) tasks have not claimed.
        // Dense membership mask over task indices (was a `BTreeSet`).
        let mut in_wave = vec![false; tasks.len()];
        for p in &wave {
            in_wave[p.idx] = true;
        }
        let costs = CostTable::build(system, &current)?;

        // Classify every wave task; collect reassignment candidates for
        // the capacity pass.
        let mut moved: Vec<(usize, ExecutionSite)> = Vec::new();
        for (p, r) in wave.iter().zip(report.results.iter()) {
            let idx = p.idx;
            energy[idx] += r.energy.value();
            match r.outcome {
                ChaosOutcome::Completed { completion, .. } => {
                    // Sojourn and deadline are re-derived against the
                    // ORIGINAL arrival (zero), not the retry release.
                    let sojourn = completion; // original arrival is 0
                    results[idx] = Some(TaskRepairResult {
                        id: tasks[idx].id,
                        site: Some(p.site),
                        energy: Joules::new(energy[idx]),
                        attempts: attempts[idx],
                        fate: TaskFate::Completed {
                            completion,
                            sojourn,
                            met_deadline: sojourn <= tasks[idx].deadline,
                            recovered: recovered[idx],
                        },
                    });
                }
                ChaosOutcome::Failed(hit) => {
                    recovered[idx] = true;
                    match hit.kind {
                        FaultHitKind::LinkOutage(_) => {
                            if attempts[idx] < policy.max_retries {
                                attempts[idx] += 1;
                                // Exponential backoff with a saturated
                                // exponent: `1u32 << (attempts - 1)`
                                // overflows once attempts exceeds 32,
                                // which an adversarial max_retries makes
                                // reachable (debug panic, masked shift in
                                // release). 2^60 seconds already exceeds
                                // any horizon, so capping keeps the
                                // schedule finite and monotone.
                                let exponent = (attempts[idx] - 1).min(60);
                                let backoff = policy.backoff * 2f64.powi(exponent as i32);
                                let at = hit.time + backoff;
                                mec_obs::counter_add("chaos/repair/retries", 1);
                                events.push(RepairEvent {
                                    task: tasks[idx].id,
                                    time: hit.time,
                                    hit: Some(hit),
                                    action: RepairAction::Retry {
                                        attempt: attempts[idx],
                                        at,
                                    },
                                });
                                pending.push(Pending {
                                    idx,
                                    site: p.site,
                                    release: at,
                                });
                            } else {
                                abandon(
                                    idx,
                                    p.site,
                                    Some(hit),
                                    AbandonReason::RetriesExhausted,
                                    &mut results,
                                    &mut events,
                                    &energy,
                                    &attempts,
                                    tasks,
                                );
                            }
                        }
                        FaultHitKind::DeviceLost(lost) => {
                            if lost == tasks[idx].owner {
                                abandon(
                                    idx,
                                    p.site,
                                    Some(hit),
                                    AbandonReason::OwnerLost,
                                    &mut results,
                                    &mut events,
                                    &energy,
                                    &attempts,
                                    tasks,
                                );
                                continue;
                            }
                            // The dead device must be the shared-data
                            // source: find the lowest-id live replacement.
                            let replacement = system
                                .devices()
                                .iter()
                                .map(|d| d.id)
                                .find(|d| *d != tasks[idx].owner && !dead.contains(d));
                            let Some(new_source) = replacement else {
                                abandon(
                                    idx,
                                    p.site,
                                    Some(hit),
                                    AbandonReason::DataLost,
                                    &mut results,
                                    &mut events,
                                    &energy,
                                    &attempts,
                                    tasks,
                                );
                                continue;
                            };
                            current[idx].external_source = Some(new_source);
                            // Site choice against the REMAINING deadline:
                            // keep the current site if it still fits,
                            // else the cheapest fitting site, else cloud
                            // (runs and reports its miss — explicit, not
                            // dropped).
                            let task_costs = mec_sim::cost::evaluate(system, &current[idx])?;
                            let remaining = tasks[idx].deadline - hit.time;
                            let fits = |site: ExecutionSite| task_costs.at(site).time <= remaining;
                            let site = if fits(p.site) {
                                p.site
                            } else {
                                ExecutionSite::ALL
                                    .into_iter()
                                    .filter(|s| fits(*s))
                                    .min_by(|a, b| {
                                        task_costs
                                            .at(*a)
                                            .energy
                                            .value()
                                            .total_cmp(&task_costs.at(*b).energy.value())
                                    })
                                    .unwrap_or(ExecutionSite::Cloud)
                            };
                            mec_obs::counter_add("chaos/repair/resourced", 1);
                            events.push(RepairEvent {
                                task: tasks[idx].id,
                                time: hit.time,
                                hit: Some(hit),
                                action: RepairAction::Resourced { new_source, site },
                            });
                            if site != p.site {
                                mec_obs::counter_add("chaos/repair/reassignments", 1);
                                events.push(RepairEvent {
                                    task: tasks[idx].id,
                                    time: hit.time,
                                    hit: Some(hit),
                                    action: RepairAction::Reassigned {
                                        from: p.site,
                                        to: site,
                                    },
                                });
                            }
                            if site == ExecutionSite::Station {
                                moved.push((idx, site));
                            }
                            pending.push(Pending {
                                idx,
                                site,
                                release: hit.time,
                            });
                        }
                    }
                }
            }
        }

        // Capacity pass: tasks replanned onto their station must fit the
        // capacity that unaffected tasks left behind, per cluster.
        // LP-HTA's Step-6 machinery migrates the overflow to the cloud
        // (never cancels there: cloud capacity is unconstrained).
        if !moved.is_empty() {
            // Bucket the committed station tasks and the moved tasks by
            // station once, each in ascending order, so each station's
            // residual sum and repair see its own tasks in task order.
            let station_of = |owner: DeviceId| system.device(owner).map(|d| d.station).ok();
            let committed_at = Buckets::new(
                (0..tasks.len())
                    .filter(|&i| {
                        !in_wave[i]
                            && assignment.decision(i) == Decision::Assigned(ExecutionSite::Station)
                    })
                    .filter_map(|i| station_of(tasks[i].owner).map(|s| (s, i))),
            );
            let idxs: Vec<usize> = moved.iter().map(|&(i, _)| i).collect();
            let moved_to = Buckets::new(
                idxs.iter()
                    .enumerate()
                    .filter_map(|(k, &idx)| station_of(current[idx].owner).map(|s| (s, k))),
            );
            let mut sites: Vec<Option<ExecutionSite>> =
                moved.iter().map(|&(_, s)| Some(s)).collect();
            // Every moved task was pushed to `pending` exactly once this
            // wave; cancelled ones leave it after the pass.
            let mut slot_of = vec![usize::MAX; tasks.len()];
            for (slot, p) in pending.iter().enumerate() {
                slot_of[p.idx] = slot;
            }
            let mut cancelled = vec![false; tasks.len()];
            for station in system.stations() {
                let members = moved_to.get(station.id);
                if members.is_empty() {
                    continue;
                }
                let committed: f64 = committed_at
                    .get(station.id)
                    .iter()
                    .map(|&i| tasks[i].resource.value())
                    .sum();
                let residual =
                    mec_sim::units::Bytes::new((station.max_resource.value() - committed).max(0.0));
                repair_capacity(
                    &current,
                    &costs,
                    &idxs,
                    &mut sites,
                    ExecutionSite::Station,
                    ExecutionSite::Cloud,
                    residual,
                    members,
                );
                for &k in members {
                    let idx = idxs[k];
                    let p = &mut pending[slot_of[idx]];
                    match sites[k] {
                        Some(site) if site != p.site => {
                            mec_obs::counter_add("chaos/repair/reassignments", 1);
                            events.push(RepairEvent {
                                task: tasks[idx].id,
                                time: p.release,
                                hit: None,
                                action: RepairAction::Reassigned {
                                    from: p.site,
                                    to: site,
                                },
                            });
                            p.site = site;
                        }
                        Some(_) => {}
                        None => {
                            let site = p.site;
                            cancelled[idx] = true;
                            abandon(
                                idx,
                                site,
                                None,
                                AbandonReason::NoFeasibleSite,
                                &mut results,
                                &mut events,
                                &energy,
                                &attempts,
                                tasks,
                            );
                        }
                    }
                }
            }
            pending.retain(|p| !cancelled[p.idx]);
        }
    }

    let results: Vec<TaskRepairResult> = results
        .into_iter()
        .enumerate()
        .map(|(idx, r)| {
            // Structurally guaranteed: every pending task either completes
            // or is abandoned above. Belt-and-braces for future edits.
            r.unwrap_or(TaskRepairResult {
                id: tasks[idx].id,
                site: None,
                energy: Joules::new(energy[idx]),
                attempts: attempts[idx],
                fate: TaskFate::Failed {
                    reason: AbandonReason::RetriesExhausted,
                    last_hit: None,
                },
            })
        })
        .collect();
    Ok(ChaosRunReport {
        results,
        events,
        waves,
    })
}

/// Re-derives a DTA coverage after `dead` devices dropped: their shares
/// are redistributed to live owners of the same items (smallest current
/// share first, lowest device id on ties), keeping the Section IV
/// conditions intact.
///
/// # Errors
///
/// * [`AssignError::CoverageMismatch`] when the coverage's share count
///   disagrees with the universe;
/// * [`AssignError::Unsupported`] when some required item was held ONLY
///   by dead devices — the data is gone and the division must be
///   reported failed, not silently shrunk;
/// * [`AssignError::InvalidInput`] when the repaired coverage fails
///   validation (a malformed input coverage).
pub fn repair_coverage(
    universe: &DataUniverse,
    required: &ItemSet,
    coverage: &Coverage,
    dead: &[DeviceId],
) -> Result<Coverage, AssignError> {
    let _span = mec_obs::span("chaos/repair_coverage");
    if coverage.shares().len() != universe.num_devices() {
        return Err(AssignError::CoverageMismatch {
            devices: universe.num_devices(),
            shares: coverage.shares().len(),
        });
    }
    // Dense dead mask (was a `BTreeSet`). Out-of-range dead ids cannot
    // hold a share or inherit items, so clamping them out of the mask
    // preserves the set-based behavior.
    let mut is_dead = vec![false; universe.num_devices()];
    for d in dead {
        if d.0 < is_dead.len() {
            is_dead[d.0] = true;
        }
    }
    let mut shares: Vec<ItemSet> = coverage.shares().to_vec();
    let mut orphaned = ItemSet::new(universe.num_items());
    for (i, &dead_now) in is_dead.iter().enumerate() {
        if dead_now {
            orphaned.union_with(&shares[i]);
            shares[i] = ItemSet::new(universe.num_items());
        }
    }
    let owners = OwnersIndex::build(universe)?;
    for item in orphaned.iter() {
        let heir = owners
            .owners(item)
            .iter()
            .map(|&d| DeviceId(d as usize))
            .filter(|d| !is_dead[d.0])
            .min_by_key(|d| (shares[d.0].len(), d.0));
        match heir {
            Some(d) => {
                shares[d.0].insert(item);
                mec_obs::counter_add("chaos/repair/reassigned_items", 1);
            }
            None => {
                return Err(AssignError::Unsupported {
                    algorithm: "coverage repair",
                    reason: format!("required item {item} was held only by dead devices"),
                });
            }
        }
    }
    let repaired = Coverage::new(shares);
    repaired
        .validate(universe, required)
        .map_err(|v| AssignError::InvalidInput(format!("repaired coverage invalid: {v}")))?;
    Ok(repaired)
}

// JSON codecs so chaos reports land in CHAOS_report.json verbatim.
djson::impl_json_struct!(RepairPolicy {
    max_retries,
    backoff
});
djson::impl_json_enum!(AbandonReason {
    CancelledAtAssignment,
    RetriesExhausted,
    OwnerLost,
    DataLost,
    NoFeasibleSite,
});
djson::impl_json_enum!(RepairAction {
    Retry { attempt: u32, at: Seconds },
    Resourced {
        new_source: DeviceId,
        site: ExecutionSite
    },
    Reassigned {
        from: ExecutionSite,
        to: ExecutionSite
    },
    Abandoned(AbandonReason),
});
djson::impl_json_struct!(RepairEvent {
    task,
    time,
    hit,
    action
});
djson::impl_json_enum!(TaskFate {
    Completed {
        completion: Seconds,
        sojourn: Seconds,
        met_deadline: bool,
        recovered: bool
    },
    Failed {
        reason: AbandonReason,
        last_hit: Option<FaultHit>
    },
});
djson::impl_json_struct!(TaskRepairResult {
    id,
    site,
    energy,
    attempts,
    fate
});
djson::impl_json_struct!(ChaosRunReport {
    results,
    events,
    waves
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hta::{HtaAlgorithm, LpHta};
    use mec_sim::data::DataItemId;
    use mec_sim::radio::NetworkProfile;
    use mec_sim::sim::{Fault, Window};
    use mec_sim::topology::Cloud;
    use mec_sim::units::{Bytes, Hertz};
    use mec_sim::workload::ScenarioConfig;

    fn small_system(n: usize) -> MecSystem {
        let mut b = MecSystem::builder(Cloud {
            cpu: Hertz::from_ghz(2.4),
        });
        let st = b.add_station(Hertz::from_ghz(4.0), Bytes::from_mb(200.0));
        for _ in 0..n {
            b.add_device(
                st,
                Hertz::from_ghz(1.0),
                NetworkProfile::WiFi.link(),
                Bytes::from_mb(8.0),
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    fn task(index: usize, owner: usize, source: Option<usize>) -> HolisticTask {
        HolisticTask {
            id: TaskId { user: owner, index },
            owner: DeviceId(owner),
            local_size: Bytes::from_kb(1000.0),
            external_size: if source.is_some() {
                Bytes::from_kb(500.0)
            } else {
                Bytes::ZERO
            },
            external_source: source.map(DeviceId),
            complexity: 1.0,
            resource: Bytes::from_kb(1000.0),
            deadline: Seconds::new(30.0),
        }
    }

    fn window(from: f64, until: f64) -> Window {
        Window {
            from: Seconds::new(from),
            until: Seconds::new(until),
        }
    }

    /// A decisions vector shorter than the task list must surface as a
    /// typed error from the length gate, never as a slice-index panic in
    /// the wave loop.
    #[test]
    fn truncated_decisions_vector_is_a_typed_error() {
        let s = ScenarioConfig::paper_defaults(11).generate().unwrap();
        let truncated = Assignment::uniform(s.tasks.len() - 3, ExecutionSite::Device);
        let err = execute_with_repair(
            &s.system,
            &s.tasks,
            &truncated,
            Contention::Exclusive,
            &FaultPlan::default(),
            &RepairPolicy::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, AssignError::LengthMismatch { tasks, other }
                if tasks == s.tasks.len() && other == s.tasks.len() - 3),
            "{err}"
        );
    }

    #[test]
    fn fault_free_run_completes_everything_without_repair() {
        let s = ScenarioConfig::paper_defaults(11).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let assignment = LpHta::paper().assign(&s.system, &s.tasks, &costs).unwrap();
        let report = execute_with_repair(
            &s.system,
            &s.tasks,
            &assignment,
            Contention::Exclusive,
            &FaultPlan::none(),
            &RepairPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.waves, 1);
        assert_eq!(report.results.len(), s.tasks.len());
        for (r, d) in report.results.iter().zip(assignment.decisions()) {
            match d {
                Decision::Assigned(_) => assert!(
                    matches!(
                        r.fate,
                        TaskFate::Completed {
                            recovered: false,
                            ..
                        }
                    ),
                    "{}: {:?}",
                    r.id,
                    r.fate
                ),
                Decision::Cancelled => assert!(matches!(
                    r.fate,
                    TaskFate::Failed {
                        reason: AbandonReason::CancelledAtAssignment,
                        ..
                    }
                )),
            }
        }
        // Only assignment-time cancellations may appear in the log.
        assert!(report
            .events
            .iter()
            .all(|e| e.action == RepairAction::Abandoned(AbandonReason::CancelledAtAssignment)));
    }

    #[test]
    fn transient_outage_is_retried_with_backoff_until_the_window_passes() {
        let system = small_system(1);
        let tasks = vec![task(0, 0, None)];
        let assignment = Assignment::uniform(1, ExecutionSite::Station);
        // Outage covers t=0; first retry at 0.05 still inside; the
        // doubled second retry at 0.05+0.1 lands outside and succeeds.
        let faults = FaultPlan::new(
            &system,
            vec![Fault::LinkOutage {
                device: DeviceId(0),
                window: window(0.0, 0.1),
            }],
        )
        .unwrap();
        let report = execute_with_repair(
            &system,
            &tasks,
            &assignment,
            Contention::Exclusive,
            &faults,
            &RepairPolicy::default(),
        )
        .unwrap();
        let r = &report.results[0];
        assert_eq!(r.attempts, 2, "{:?}", report.events);
        assert!(matches!(
            r.fate,
            TaskFate::Completed {
                recovered: true,
                ..
            }
        ));
        // Both failed attempts cost nothing (the upload never started),
        // so total energy equals one clean run's.
        let retries = report
            .events
            .iter()
            .filter(|e| matches!(e.action, RepairAction::Retry { .. }))
            .count();
        assert_eq!(retries, 2);
        assert_eq!(report.waves, 3);
    }

    #[test]
    fn persistent_outage_exhausts_retries_explicitly() {
        let system = small_system(1);
        let tasks = vec![task(0, 0, None)];
        let assignment = Assignment::uniform(1, ExecutionSite::Station);
        let faults = FaultPlan::new(
            &system,
            vec![Fault::LinkOutage {
                device: DeviceId(0),
                window: window(0.0, 1e6),
            }],
        )
        .unwrap();
        let report = execute_with_repair(
            &system,
            &tasks,
            &assignment,
            Contention::Exclusive,
            &faults,
            &RepairPolicy::default(),
        )
        .unwrap();
        assert!(matches!(
            report.results[0].fate,
            TaskFate::Failed {
                reason: AbandonReason::RetriesExhausted,
                last_hit: Some(_),
            }
        ));
        assert_eq!(report.results[0].attempts, 3);
    }

    #[test]
    fn adversarial_max_retries_saturates_backoff_and_wave_cap() {
        let system = small_system(1);
        let tasks = vec![task(0, 0, None)];
        let assignment = Assignment::uniform(1, ExecutionSite::Station);
        // An outage long enough that the doubled backoff must clear 2^32
        // multiples before a retry lands outside it: the old multiplier
        // `1u32 << (attempts - 1)` overflowed at attempt 33 (debug panic,
        // masked shift in release), and the old wave cap
        // `max_retries + 4` wrapped for max_retries near u32::MAX.
        let faults = FaultPlan::new(
            &system,
            vec![Fault::LinkOutage {
                device: DeviceId(0),
                window: window(0.0, 1e9),
            }],
        )
        .unwrap();
        let policy = RepairPolicy {
            max_retries: u32::MAX,
            backoff: Seconds::new(0.05),
        };
        let report = execute_with_repair(
            &system,
            &tasks,
            &assignment,
            Contention::Exclusive,
            &faults,
            &policy,
        )
        .unwrap();
        let r = &report.results[0];
        assert!(
            matches!(
                r.fate,
                TaskFate::Completed {
                    recovered: true,
                    ..
                }
            ),
            "{:?}",
            r.fate
        );
        assert!(
            r.attempts > 32,
            "must push past the old shift-overflow point, got {} attempts",
            r.attempts
        );
        // Every scheduled retry stayed finite and monotone.
        let mut last = f64::NEG_INFINITY;
        for e in &report.events {
            if let RepairAction::Retry { at, .. } = e.action {
                assert!(at.value().is_finite(), "{:?}", e);
                assert!(at.value() >= last, "retry times must be monotone");
                last = at.value();
            }
        }
    }

    #[test]
    fn owner_dropout_abandons_but_source_dropout_resources() {
        let system = small_system(3);
        // Task 0: owner 0, source 2 (source will die → re-sourced to 1).
        // Task 1: owner 2 (owner dies → abandoned).
        let tasks = vec![task(0, 0, Some(2)), task(1, 2, None)];
        let assignment = Assignment::uniform(2, ExecutionSite::Station);
        let faults = FaultPlan::new(
            &system,
            vec![Fault::Dropout {
                device: DeviceId(2),
                at: Seconds::ZERO,
            }],
        )
        .unwrap();
        let report = execute_with_repair(
            &system,
            &tasks,
            &assignment,
            Contention::Exclusive,
            &faults,
            &RepairPolicy::default(),
        )
        .unwrap();
        assert!(matches!(
            report.results[0].fate,
            TaskFate::Completed {
                recovered: true,
                ..
            }
        ));
        assert!(report.events.iter().any(|e| matches!(
            e.action,
            RepairAction::Resourced {
                new_source: DeviceId(1),
                ..
            }
        )));
        assert!(matches!(
            report.results[1].fate,
            TaskFate::Failed {
                reason: AbandonReason::OwnerLost,
                last_hit: Some(FaultHit {
                    kind: FaultHitKind::DeviceLost(DeviceId(2)),
                    ..
                }),
            }
        ));
    }

    #[test]
    fn source_dropout_with_no_live_replacement_is_data_lost() {
        let system = small_system(2);
        let tasks = vec![task(0, 0, Some(1))];
        let assignment = Assignment::uniform(1, ExecutionSite::Station);
        let faults = FaultPlan::new(
            &system,
            vec![Fault::Dropout {
                device: DeviceId(1),
                at: Seconds::ZERO,
            }],
        )
        .unwrap();
        let report = execute_with_repair(
            &system,
            &tasks,
            &assignment,
            Contention::Exclusive,
            &faults,
            &RepairPolicy::default(),
        )
        .unwrap();
        assert!(matches!(
            report.results[0].fate,
            TaskFate::Failed {
                reason: AbandonReason::DataLost,
                ..
            }
        ));
    }

    #[test]
    fn repair_is_deterministic_and_reports_round_trip() {
        let s = ScenarioConfig::paper_defaults(21).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let assignment = LpHta::paper().assign(&s.system, &s.tasks, &costs).unwrap();
        let faults = mec_sim::sim::ChaosConfig::from_seed(0xC0FFEE)
            .generate(&s.system, Seconds::new(10.0))
            .unwrap();
        let run = || {
            execute_with_repair(
                &s.system,
                &s.tasks,
                &assignment,
                Contention::Exclusive,
                &faults,
                &RepairPolicy::default(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.completed() + a.failed(), s.tasks.len());
        let json = djson::to_string(&a);
        let back: ChaosRunReport = djson::from_str(&json).unwrap();
        assert_eq!(back, a);
    }

    /// The capacity pass must keep every station's migrations: a task
    /// moved to the cloud by its own station's pass stays there when a
    /// later station's pass runs. Two tasks re-sourced onto station 0,
    /// whose 1.5 MB cannot hold both 1 MB occupations; station 1 comes
    /// after it in station order and owns neither task.
    #[test]
    fn capacity_migration_survives_later_stations_passes() {
        let mut b = MecSystem::builder(Cloud {
            cpu: Hertz::from_ghz(2.4),
        });
        let s0 = b.add_station(Hertz::from_ghz(4.0), Bytes::from_mb(1.5));
        let s1 = b.add_station(Hertz::from_ghz(4.0), Bytes::from_mb(200.0));
        for st in [s0, s0, s0, s1] {
            b.add_device(
                st,
                Hertz::from_ghz(1.0),
                NetworkProfile::WiFi.link(),
                Bytes::from_mb(8.0),
            )
            .unwrap();
        }
        let system = b.build().unwrap();
        // Both tasks read shared data from device 1, which dies at t = 0.
        let tasks = vec![task(0, 0, Some(1)), task(1, 2, Some(1))];
        let assignment = Assignment::uniform(2, ExecutionSite::Station);
        let faults = FaultPlan::new(
            &system,
            vec![Fault::Dropout {
                device: DeviceId(1),
                at: Seconds::ZERO,
            }],
        )
        .unwrap();
        let report = execute_with_repair(
            &system,
            &tasks,
            &assignment,
            Contention::Exclusive,
            &faults,
            &RepairPolicy::default(),
        )
        .unwrap();
        let moves: Vec<(TaskId, ExecutionSite, ExecutionSite)> = report
            .events
            .iter()
            .filter_map(|e| match e.action {
                RepairAction::Reassigned { from, to } => Some((e.task, from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            moves,
            vec![(tasks[1].id, ExecutionSite::Station, ExecutionSite::Cloud)],
            "{:?}",
            report.events
        );
        let sites: Vec<Option<ExecutionSite>> = report.results.iter().map(|r| r.site).collect();
        assert_eq!(
            sites,
            vec![Some(ExecutionSite::Station), Some(ExecutionSite::Cloud)]
        );
    }

    #[test]
    fn coverage_repair_redistributes_dead_shares_to_live_owners() {
        // Items 0..4; device 0 owns {0,1,2}, device 1 owns {2,3}, device
        // 2 owns {1,3}.
        let sizes = vec![Bytes::from_kb(10.0); 4];
        let ids = |v: &[usize]| {
            let v = v.to_vec();
            ItemSet::from_ids(4, v.into_iter().map(DataItemId))
        };
        let holdings = vec![ids(&[0, 1, 2]), ids(&[2, 3]), ids(&[1, 3])];
        let universe = DataUniverse::new(sizes, holdings).unwrap();
        let required = ItemSet::full(4);
        let coverage = Coverage::new(vec![ids(&[0, 2]), ids(&[3]), ids(&[1])]);
        coverage.validate(&universe, &required).unwrap();

        // Device 1 dies: its item 3 must move to device 2 (the only live
        // owner of 3).
        let repaired = repair_coverage(&universe, &required, &coverage, &[DeviceId(1)]).unwrap();
        repaired.validate(&universe, &required).unwrap();
        assert!(repaired.share(DeviceId(1)).is_empty());
        assert!(repaired.share(DeviceId(2)).contains(DataItemId(3)));

        // Devices 0 AND 2 die: item 0 has no live owner left.
        let err = repair_coverage(&universe, &required, &coverage, &[DeviceId(0), DeviceId(2)])
            .unwrap_err();
        assert!(matches!(err, AssignError::Unsupported { .. }), "{err}");

        // Malformed: share count disagrees with the universe.
        let bad = Coverage::new(vec![ids(&[0])]);
        assert!(matches!(
            repair_coverage(&universe, &required, &bad, &[]),
            Err(AssignError::CoverageMismatch { .. })
        ));
    }
}
