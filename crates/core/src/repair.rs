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
//!    re-sourced through [`replacement_source`] when it was the
//!    shared-data *source*, and moved to a cheaper feasible site — ultimately the
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
use crate::error::AssignError;
use crate::hta::lp_hta::{repair_capacity, Buckets};
use mec_sim::sim::{
    simulate_chaos_with_arrivals, ChaosOutcome, Contention, FaultHit, FaultHitKind, FaultPlan,
};
use mec_sim::task::{ExecutionSite, HolisticTask, TaskId};
use mec_sim::topology::{DeviceId, MecSystem};
use mec_sim::units::{Bytes, Joules, Seconds};

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

/// The one rule for replacing a dead shared-data source: the lowest-id
/// device that is neither dead nor the task's `owner`. `dead` is the
/// dense mask of [`FaultPlan::dead_at`], indexed by device id and sized
/// to the device count. `None` when no such device is left; each caller
/// decides what that means (serve drops the dependency, the repair loop
/// abandons the task with [`AbandonReason::DataLost`]).
#[must_use]
pub fn replacement_source(owner: DeviceId, dead: &[bool]) -> Option<DeviceId> {
    (0..dead.len())
        .map(DeviceId)
        .find(|&d| !dead[d.0] && d != owner)
}

/// One stranded task awaiting the next wave.
#[derive(Debug, Clone, Copy)]
struct Pending {
    idx: usize,
    site: ExecutionSite,
    release: Seconds,
}

/// One task's record across waves: what its attempts spent, how many
/// retries it used, whether a repair touched it, and — once settled —
/// where and how it ended.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    energy: f64,
    attempts: u32,
    recovered: bool,
    site: Option<ExecutionSite>,
    fate: Option<TaskFate>,
}

/// The repair loop's state: one [`Entry`] per input task plus the
/// ordered event log. Every decision goes through it, so a task's
/// result and its log entry are written together.
struct Ledger<'a> {
    tasks: &'a [HolisticTask],
    entries: Vec<Entry>,
    events: Vec<RepairEvent>,
}

impl Ledger<'_> {
    fn log(&mut self, idx: usize, time: Seconds, hit: Option<FaultHit>, action: RepairAction) {
        self.events.push(RepairEvent {
            task: self.tasks[idx].id,
            time,
            hit,
            action,
        });
    }

    /// Gives up on task `idx`. Assignment-time cancellations are logged
    /// like any other failure but are not repair abandonments, so they
    /// leave `chaos/repair/abandoned` alone.
    fn abandon(
        &mut self,
        idx: usize,
        site: Option<ExecutionSite>,
        hit: Option<FaultHit>,
        reason: AbandonReason,
    ) {
        if reason != AbandonReason::CancelledAtAssignment {
            mec_obs::counter_add("chaos/repair/abandoned", 1);
        }
        self.log(
            idx,
            hit.map_or(Seconds::ZERO, |h| h.time),
            hit,
            RepairAction::Abandoned(reason),
        );
        let entry = &mut self.entries[idx];
        entry.site = site;
        entry.fate = Some(TaskFate::Failed {
            reason,
            last_hit: hit,
        });
    }

    /// Task `idx` finished at `site`. Sojourn and deadline are measured
    /// from the ORIGINAL arrival (zero), not the retry release.
    fn complete(&mut self, idx: usize, site: ExecutionSite, completion: Seconds) {
        let deadline = self.tasks[idx].deadline;
        let entry = &mut self.entries[idx];
        entry.site = Some(site);
        entry.fate = Some(TaskFate::Completed {
            completion,
            sojourn: completion,
            met_deadline: completion <= deadline,
            recovered: entry.recovered,
        });
    }

    fn into_report(self, waves: u32) -> ChaosRunReport {
        let results = self
            .tasks
            .iter()
            .zip(self.entries)
            .map(|(task, e)| TaskRepairResult {
                id: task.id,
                site: e.site,
                energy: Joules::new(e.energy),
                attempts: e.attempts,
                // Structurally guaranteed: every task completes or is
                // abandoned. Belt-and-braces for future edits.
                fate: e.fate.unwrap_or(TaskFate::Failed {
                    reason: AbandonReason::RetriesExhausted,
                    last_hit: None,
                }),
            })
            .collect();
        ChaosRunReport {
            results,
            events: self.events,
            waves,
        }
    }
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
    // Every device that ever drops is unusable as a replacement source.
    let dead = plan.dead_at(Seconds::new(f64::INFINITY), system.num_devices());
    // Working copies: sources may be rewritten by repair.
    let mut current: Vec<HolisticTask> = tasks.to_vec();
    let mut ledger = Ledger {
        tasks,
        entries: vec![Entry::default(); tasks.len()],
        events: Vec::new(),
    };

    let mut pending: Vec<Pending> = Vec::new();
    for (idx, d) in assignment.decisions().iter().enumerate() {
        match d {
            Decision::Assigned(site) => pending.push(Pending {
                idx,
                site: *site,
                release: Seconds::ZERO,
            }),
            // Explicit, never silent: assignment-time cancellations
            // appear in the report like any other failure.
            Decision::Cancelled => {
                ledger.abandon(idx, None, None, AbandonReason::CancelledAtAssignment);
            }
        }
    }

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
                ledger.abandon(p.idx, Some(p.site), None, AbandonReason::RetriesExhausted);
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
        // Classify every wave task; collect the tasks replanned onto
        // their station for the capacity pass.
        let mut moved: Vec<usize> = Vec::new();
        for (p, r) in wave.iter().zip(report.results.iter()) {
            let idx = p.idx;
            ledger.entries[idx].energy += r.energy.value();
            let hit = match r.outcome {
                ChaosOutcome::Completed { completion, .. } => {
                    ledger.complete(idx, p.site, completion);
                    continue;
                }
                ChaosOutcome::Failed(hit) => hit,
            };
            ledger.entries[idx].recovered = true;
            match hit.kind {
                FaultHitKind::LinkOutage(_) => {
                    let attempts = ledger.entries[idx].attempts;
                    if attempts >= policy.max_retries {
                        ledger.abandon(
                            idx,
                            Some(p.site),
                            Some(hit),
                            AbandonReason::RetriesExhausted,
                        );
                        continue;
                    }
                    ledger.entries[idx].attempts = attempts + 1;
                    // Exponential backoff with a saturated exponent:
                    // `1u32 << attempts` overflows once attempts reaches
                    // 32, which an adversarial max_retries makes
                    // reachable (debug panic, masked shift in release).
                    // 2^60 seconds already exceeds any horizon, so
                    // capping keeps the schedule finite and monotone.
                    let exponent = attempts.min(60);
                    let at = hit.time + policy.backoff * 2f64.powi(exponent as i32);
                    mec_obs::counter_add("chaos/repair/retries", 1);
                    ledger.log(
                        idx,
                        hit.time,
                        Some(hit),
                        RepairAction::Retry {
                            attempt: attempts + 1,
                            at,
                        },
                    );
                    pending.push(Pending {
                        idx,
                        site: p.site,
                        release: at,
                    });
                }
                FaultHitKind::DeviceLost(lost) if lost == tasks[idx].owner => {
                    ledger.abandon(idx, Some(p.site), Some(hit), AbandonReason::OwnerLost);
                }
                // The dead device must be the shared-data source.
                FaultHitKind::DeviceLost(_) => {
                    let Some(new_source) = replacement_source(tasks[idx].owner, &dead) else {
                        ledger.abandon(idx, Some(p.site), Some(hit), AbandonReason::DataLost);
                        continue;
                    };
                    current[idx].external_source = Some(new_source);
                    // Site choice against the REMAINING deadline: keep
                    // the current site if it still fits, else the
                    // cheapest fitting site, else cloud (runs and
                    // reports its miss — explicit, not dropped).
                    let task_costs = mec_sim::cost::evaluate(system, &current[idx])?;
                    let remaining = tasks[idx].deadline - hit.time;
                    let site = if task_costs.at(p.site).time <= remaining {
                        p.site
                    } else {
                        task_costs
                            .cheapest_feasible(remaining)
                            .unwrap_or(ExecutionSite::Cloud)
                    };
                    mec_obs::counter_add("chaos/repair/resourced", 1);
                    ledger.log(
                        idx,
                        hit.time,
                        Some(hit),
                        RepairAction::Resourced { new_source, site },
                    );
                    if site != p.site {
                        mec_obs::counter_add("chaos/repair/reassignments", 1);
                        ledger.log(
                            idx,
                            hit.time,
                            Some(hit),
                            RepairAction::Reassigned {
                                from: p.site,
                                to: site,
                            },
                        );
                    }
                    if site == ExecutionSite::Station {
                        moved.push(idx);
                    }
                    pending.push(Pending {
                        idx,
                        site,
                        release: hit.time,
                    });
                }
            }
        }

        // Capacity pass: tasks replanned onto their station must fit the
        // capacity that unaffected (non-wave) tasks left behind, per
        // cluster. LP-HTA's Step-6 machinery migrates the overflow to the
        // cloud, and cancels a task (`NoFeasibleSite`) whose cloud run
        // would miss its deadline.
        if moved.is_empty() {
            continue;
        }
        // Priced after the classification loop, so every moved task's
        // row reflects its replacement source.
        let costs = CostTable::build(system, &current)?;
        let mut in_wave = vec![false; tasks.len()];
        for p in &wave {
            in_wave[p.idx] = true;
        }
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
        let moved_to = Buckets::new(
            moved
                .iter()
                .enumerate()
                .filter_map(|(k, &idx)| station_of(current[idx].owner).map(|s| (s, k))),
        );
        let mut sites = vec![Some(ExecutionSite::Station); moved.len()];
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
            let residual = Bytes::new((station.max_resource.value() - committed).max(0.0));
            repair_capacity(
                &current,
                &costs,
                &moved,
                &mut sites,
                ExecutionSite::Station,
                ExecutionSite::Cloud,
                residual,
                members,
            );
            for &k in members {
                let idx = moved[k];
                let p = &mut pending[slot_of[idx]];
                match sites[k] {
                    Some(site) if site != p.site => {
                        mec_obs::counter_add("chaos/repair/reassignments", 1);
                        ledger.log(
                            idx,
                            p.release,
                            None,
                            RepairAction::Reassigned {
                                from: p.site,
                                to: site,
                            },
                        );
                        p.site = site;
                    }
                    Some(_) => {}
                    None => {
                        cancelled[idx] = true;
                        ledger.abandon(idx, Some(p.site), None, AbandonReason::NoFeasibleSite);
                    }
                }
            }
        }
        pending.retain(|p| !cancelled[p.idx]);
    }

    Ok(ledger.into_report(waves))
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
    use mec_sim::radio::NetworkProfile;
    use mec_sim::sim::{Fault, Window};
    use mec_sim::topology::Cloud;
    use mec_sim::units::Hertz;
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

    /// The capacity pass prices a re-sourced task with its NEW source.
    /// Task 0 reads shared data from device 1 (Wi-Fi), which dies at
    /// t = 0; the replacement, device 2, uploads over 4G. The deadline
    /// sits between the task's cloud times with the two sources, and the
    /// station cannot hold the task: priced with the dead Wi-Fi source the
    /// cloud would still fit and the task would migrate there, but with
    /// the 4G source its cloud run misses the deadline, so the pass must
    /// cancel it.
    #[test]
    fn capacity_pass_prices_moved_tasks_with_their_new_source() {
        let mut b = MecSystem::builder(Cloud {
            cpu: Hertz::from_ghz(2.4),
        });
        let st = b.add_station(Hertz::from_ghz(4.0), Bytes::from_kb(500.0));
        for profile in [
            NetworkProfile::WiFi,
            NetworkProfile::WiFi,
            NetworkProfile::FourG,
        ] {
            b.add_device(
                st,
                Hertz::from_ghz(1.0),
                profile.link(),
                Bytes::from_mb(8.0),
            )
            .unwrap();
        }
        let system = b.build().unwrap();
        let mut t = task(0, 0, Some(1));
        t.external_size = Bytes::from_mb(5.0);
        let priced = |source: usize, site: ExecutionSite| {
            let mut t = t;
            t.external_source = Some(DeviceId(source));
            mec_sim::cost::evaluate(&system, &t).unwrap().at(site).time
        };
        let wifi_cloud = priced(1, ExecutionSite::Cloud);
        let fourg_cloud = priced(2, ExecutionSite::Cloud);
        let fourg_station = priced(2, ExecutionSite::Station);
        t.deadline = (wifi_cloud.max(fourg_station) + fourg_cloud) * 0.5;
        assert!(wifi_cloud <= t.deadline && t.deadline < fourg_cloud);
        assert!(t.resource > system.stations()[0].max_resource);

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
            &[t],
            &Assignment::uniform(1, ExecutionSite::Station),
            Contention::Exclusive,
            &faults,
            &RepairPolicy::default(),
        )
        .unwrap();
        let actions: Vec<RepairAction> = report.events.iter().map(|e| e.action).collect();
        assert_eq!(
            actions,
            vec![
                RepairAction::Resourced {
                    new_source: DeviceId(2),
                    site: ExecutionSite::Station,
                },
                RepairAction::Abandoned(AbandonReason::NoFeasibleSite),
            ]
        );
        assert!(matches!(
            report.results[0].fate,
            TaskFate::Failed {
                reason: AbandonReason::NoFeasibleSite,
                last_hit: None,
            }
        ));
    }
}
