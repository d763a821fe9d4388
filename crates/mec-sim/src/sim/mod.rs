//! Discrete-event execution of an assignment.
//!
//! The analytic model of Section II prices every task in isolation. The
//! executor here actually *runs* an assignment through the system as a
//! discrete-event simulation: every radio, device CPU, station CPU and
//! backhaul pipe is a resource, and stages queue FIFO when
//! [`Contention::Exclusive`] is selected. With [`Contention::None`] each
//! resource has unlimited capacity and the simulation reproduces the
//! analytic times exactly — a strong end-to-end check that the cost model
//! and the executor agree.

pub mod fault;
pub mod plan;

use crate::error::MecError;
use crate::task::{ExecutionSite, HolisticTask, TaskId};
use crate::topology::MecSystem;
use crate::units::{Joules, Seconds};
pub use fault::{ChaosConfig, Fault, FaultHitKind, FaultPlan, Window};
use plan::{build_plan, Plan, PlanStep, Resource, Stage};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Resource-contention regime of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Contention {
    /// Unlimited capacity everywhere; matches the paper's analytic model.
    #[default]
    None,
    /// Every exclusive resource serves one stage at a time, FIFO.
    Exclusive,
}

/// Outcome of one task in a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSimResult {
    /// Task identifier.
    pub id: TaskId,
    /// Where it ran.
    pub site: ExecutionSite,
    /// When the task arrived (zero for [`simulate`]).
    pub arrival: Seconds,
    /// Wall-clock completion time.
    pub completion: Seconds,
    /// Sojourn time `completion − arrival` — what the user experiences,
    /// and what the deadline is checked against.
    pub sojourn: Seconds,
    /// System energy spent on the task.
    pub energy: Joules,
    /// Whether the sojourn met the task's deadline.
    pub met_deadline: bool,
}

/// Aggregate outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-task outcomes in input order.
    pub results: Vec<TaskSimResult>,
}

impl SimReport {
    /// Time the last task finishes.
    pub fn makespan(&self) -> Seconds {
        self.results
            .iter()
            .map(|r| r.completion)
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Total system energy.
    pub fn total_energy(&self) -> Joules {
        self.results.iter().map(|r| r.energy).sum()
    }

    /// Mean sojourn time; zero for an empty run.
    pub fn mean_latency(&self) -> Seconds {
        if self.results.is_empty() {
            return Seconds::ZERO;
        }
        self.results.iter().map(|r| r.sojourn).sum::<Seconds>() / self.results.len() as f64
    }

    /// Fraction of tasks missing their deadline; zero for an empty run.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        let missed = self.results.iter().filter(|r| !r.met_deadline).count();
        missed as f64 / self.results.len() as f64
    }
}

/// One fault striking one task: the time and resource where a stage was
/// about to start, and why it could not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultHit {
    /// When the stage would have started.
    pub time: Seconds,
    /// The faulted resource the stage needed.
    pub resource: Resource,
    /// Permanent (device lost) or transient (link outage).
    pub kind: FaultHitKind,
}

/// How one task ended under a fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosOutcome {
    /// The task ran to completion (possibly stretched by degradation or
    /// straggler windows).
    Completed {
        /// Wall-clock completion time.
        completion: Seconds,
        /// `completion − arrival`, checked against the deadline.
        sojourn: Seconds,
        /// Whether the sojourn met the task's deadline.
        met_deadline: bool,
    },
    /// A fault killed the task; energy spent before the hit is still
    /// accounted. Never silently dropped — every input task reports.
    Failed(FaultHit),
}

/// Outcome of one task in a chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosTaskResult {
    /// Task identifier.
    pub id: TaskId,
    /// Where it was assigned to run.
    pub site: ExecutionSite,
    /// When the task arrived.
    pub arrival: Seconds,
    /// System energy spent on the task (up to the fault, if it failed).
    pub energy: Joules,
    /// Completion or failure.
    pub outcome: ChaosOutcome,
}

/// One fault strike, in chronological order — the replayable event
/// sequence a chaos seed is documented by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// The task that was struck.
    pub task: TaskId,
    /// The strike itself.
    pub hit: FaultHit,
}

/// Aggregate outcome of a chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSimReport {
    /// Per-task outcomes in input order (every input task appears).
    pub results: Vec<ChaosTaskResult>,
    /// Fault strikes in the order the executor processed them.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSimReport {
    /// Tasks that failed, in input order.
    pub fn failed(&self) -> impl Iterator<Item = &ChaosTaskResult> {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, ChaosOutcome::Failed(_)))
    }

    /// Total system energy across completed and failed tasks.
    pub fn total_energy(&self) -> Joules {
        self.results.iter().map(|r| r.energy).sum()
    }

    /// Time the last completed task finishes (zero if none completed).
    pub fn makespan(&self) -> Seconds {
        self.results
            .iter()
            .filter_map(|r| match r.outcome {
                ChaosOutcome::Completed { completion, .. } => Some(completion),
                ChaosOutcome::Failed(_) => None,
            })
            .fold(Seconds::ZERO, Seconds::max)
    }
}

/// Runs `assignments` through the system under a fault plan. All tasks
/// arrive at time zero.
///
/// # Errors
///
/// Propagates plan-building errors (unknown devices, invalid tasks).
pub fn simulate_chaos(
    system: &MecSystem,
    assignments: &[(HolisticTask, ExecutionSite)],
    contention: Contention,
    faults: &FaultPlan,
) -> Result<ChaosSimReport, MecError> {
    let timed: Vec<(HolisticTask, ExecutionSite, Seconds)> = assignments
        .iter()
        .map(|(t, s)| (*t, *s, Seconds::ZERO))
        .collect();
    simulate_chaos_with_arrivals(system, &timed, contention, faults)
}

/// Runs timed `arrivals` through the system under a fault plan.
///
/// Faults apply at stage service start (module docs of [`fault`]); a
/// struck task reports [`ChaosOutcome::Failed`] with the hit, charging
/// the energy already spent. With an empty plan the completion times,
/// sojourns and energies are bit-identical to
/// [`simulate_with_arrivals`] (asserted by `tests/chaos.rs`).
///
/// # Errors
///
/// Propagates plan-building errors and rejects negative or non-finite
/// arrival times.
pub fn simulate_chaos_with_arrivals(
    system: &MecSystem,
    arrivals: &[(HolisticTask, ExecutionSite, Seconds)],
    contention: Contention,
    faults: &FaultPlan,
) -> Result<ChaosSimReport, MecError> {
    let _span = mec_obs::span("sim/chaos");
    execute(system, arrivals, contention, faults)
}

/// The one executor behind every entry point: validates the arrival
/// times, builds each task's plan and runs the event engine under
/// `faults` ([`FaultPlan::none`] for the fault-free runs).
fn execute(
    system: &MecSystem,
    arrivals: &[(HolisticTask, ExecutionSite, Seconds)],
    contention: Contention,
    faults: &FaultPlan,
) -> Result<ChaosSimReport, MecError> {
    for (task, _, at) in arrivals {
        if !(at.value() >= 0.0 && at.is_finite()) {
            return Err(MecError::InvalidParameter {
                name: "arrival",
                reason: format!("{} arrives at invalid time {at}", task.id),
            });
        }
    }
    let plans: Vec<Plan> = arrivals
        .iter()
        .map(|(t, s, _)| build_plan(system, t, *s))
        .collect::<Result<_, _>>()?;
    let times: Vec<f64> = arrivals.iter().map(|(_, _, at)| at.value()).collect();
    let mut engine = Engine::new(contention, &plans, faults);
    let finish = engine.run_with_arrivals(&times);
    let results = arrivals
        .iter()
        .zip(plans.iter())
        .enumerate()
        .map(|(i, ((task, site, arrival), plan))| {
            let (energy, outcome) = match engine.failed[i] {
                Some(hit) => (Joules::new(engine.energy[i]), ChaosOutcome::Failed(hit)),
                None => {
                    let completion = finish[i];
                    let sojourn = completion - *arrival;
                    // Untouched tasks report the plan's own energy sum so
                    // an empty fault plan is bit-identical to `simulate`.
                    let energy = if engine.touched[i] {
                        Joules::new(engine.energy[i])
                    } else {
                        plan.total_energy()
                    };
                    (
                        energy,
                        ChaosOutcome::Completed {
                            completion,
                            sojourn,
                            met_deadline: sojourn <= task.deadline,
                        },
                    )
                }
            };
            ChaosTaskResult {
                id: task.id,
                site: *site,
                arrival: *arrival,
                energy,
                outcome,
            }
        })
        .collect();
    let events = engine
        .hits
        .iter()
        .map(|&(i, hit)| ChaosEvent {
            task: arrivals[i].0.id,
            hit,
        })
        .collect();
    Ok(ChaosSimReport { results, events })
}

/// Runs `assignments` through the system.
///
/// # Errors
///
/// Propagates plan-building errors (unknown devices, invalid tasks).
///
/// # Examples
///
/// ```
/// use mec_sim::sim::{simulate, Contention};
/// use mec_sim::task::ExecutionSite;
/// use mec_sim::workload::ScenarioConfig;
///
/// let s = ScenarioConfig::paper_defaults(1).generate()?;
/// let assignment: Vec<_> = s.tasks.iter()
///     .map(|t| (*t, ExecutionSite::Device))
///     .collect();
/// let report = simulate(&s.system, &assignment, Contention::None)?;
/// assert_eq!(report.results.len(), s.tasks.len());
/// # Ok::<(), mec_sim::MecError>(())
/// ```
pub fn simulate(
    system: &MecSystem,
    assignments: &[(HolisticTask, ExecutionSite)],
    contention: Contention,
) -> Result<SimReport, MecError> {
    let timed: Vec<(HolisticTask, ExecutionSite, Seconds)> = assignments
        .iter()
        .map(|(t, s)| (*t, *s, Seconds::ZERO))
        .collect();
    simulate_with_arrivals(system, &timed, contention)
}

/// Runs `arrivals` — tasks released at individual times — through the
/// system. A task's plan starts when it arrives; with
/// [`Contention::Exclusive`] it then competes for resources with
/// everything already in flight. Deadlines are checked against the
/// *sojourn* (completion − arrival).
///
/// # Errors
///
/// Propagates plan-building errors and rejects negative or non-finite
/// arrival times.
pub fn simulate_with_arrivals(
    system: &MecSystem,
    arrivals: &[(HolisticTask, ExecutionSite, Seconds)],
    contention: Contention,
) -> Result<SimReport, MecError> {
    let report = execute(system, arrivals, contention, &FaultPlan::none())?;
    let results = report
        .results
        .into_iter()
        .map(|r| match r.outcome {
            ChaosOutcome::Completed {
                completion,
                sojourn,
                met_deadline,
            } => TaskSimResult {
                id: r.id,
                site: r.site,
                arrival: r.arrival,
                completion,
                sojourn,
                energy: r.energy,
                met_deadline,
            },
            ChaosOutcome::Failed(_) => unreachable!("an empty fault plan strikes no task"),
        })
        .collect();
    Ok(SimReport { results })
}

// --- Engine ---------------------------------------------------------------

/// Sentinel `step` value marking a deferred task release.
const START_MARKER: usize = usize::MAX;

/// Where a finished stage belongs inside its task's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StageRef {
    task: usize,
    step: usize,
    /// Branch index for parallel steps; `usize::MAX` for single stages.
    branch: usize,
    /// Position inside the branch.
    pos: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    stage: StageRef,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Times come from finite durations (build_plan validates every
        // stage), and total_cmp agrees with the usual order on finite
        // values; ties broken by sequence number so completion order is
        // deterministic.
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Default)]
struct ResourceState {
    busy: bool,
    queue: VecDeque<(StageRef, Stage)>,
}

struct Engine<'a> {
    contention: Contention,
    plans: &'a [Plan],
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    resources: HashMap<Resource, ResourceState>,
    /// Remaining unfinished branches per (task, step) for parallel steps.
    open_branches: HashMap<(usize, usize), usize>,
    finish: Vec<f64>,
    /// Injected faults; [`FaultPlan::none`] for fault-free runs.
    faults: &'a FaultPlan,
    /// First fault hit per task (a struck task never restarts in-sim;
    /// replanning is the repair layer's job).
    failed: Vec<Option<FaultHit>>,
    /// Energy charged at stage service start, per task (raw joules).
    energy: Vec<f64>,
    /// Whether any stage of the task was stretched; untouched completed
    /// tasks report the plan's own energy sum for bit-identity.
    touched: Vec<bool>,
    /// Fault strikes in processing order.
    hits: Vec<(usize, FaultHit)>,
}

impl<'a> Engine<'a> {
    fn new(contention: Contention, plans: &'a [Plan], faults: &'a FaultPlan) -> Engine<'a> {
        Engine {
            contention,
            plans,
            heap: BinaryHeap::new(),
            seq: 0,
            resources: HashMap::new(),
            open_branches: HashMap::new(),
            finish: vec![0.0; plans.len()],
            faults,
            failed: vec![None; plans.len()],
            energy: vec![0.0; plans.len()],
            touched: vec![false; plans.len()],
            hits: Vec::new(),
        }
    }

    fn run_with_arrivals(&mut self, arrivals: &[f64]) -> Vec<Seconds> {
        for task in 0..self.plans.len() {
            let at = arrivals.get(task).copied().unwrap_or(0.0);
            if at <= 0.0 {
                self.begin_step(task, 0, 0.0);
            } else {
                // A start marker: fires at the arrival time and releases
                // the task's first step.
                self.seq += 1;
                self.heap.push(Reverse(Event {
                    time: at,
                    seq: self.seq,
                    stage: StageRef {
                        task,
                        step: START_MARKER,
                        branch: usize::MAX,
                        pos: 0,
                    },
                }));
            }
        }
        while let Some(Reverse(ev)) = self.heap.pop() {
            if ev.stage.step == START_MARKER {
                self.begin_step(ev.stage.task, 0, ev.time);
            } else {
                self.complete_stage(ev);
            }
        }
        self.finish.iter().map(|&t| Seconds::new(t)).collect()
    }

    fn serialized(&self, r: Resource) -> bool {
        self.contention == Contention::Exclusive && r.is_exclusive()
    }

    fn begin_step(&mut self, task: usize, step: usize, now: f64) {
        let Some(plan_step) = self.plans[task].steps.get(step) else {
            self.finish[task] = now;
            return;
        };
        match plan_step {
            PlanStep::Single(stage) => {
                let sref = StageRef {
                    task,
                    step,
                    branch: usize::MAX,
                    pos: 0,
                };
                self.request(sref, *stage, now);
            }
            PlanStep::Parallel(branches) => {
                let live: Vec<usize> = branches
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| !b.is_empty())
                    .map(|(k, _)| k)
                    .collect();
                if live.is_empty() {
                    self.begin_step(task, step + 1, now);
                    return;
                }
                self.open_branches.insert((task, step), live.len());
                for k in live {
                    let stage = branches[k][0];
                    let sref = StageRef {
                        task,
                        step,
                        branch: k,
                        pos: 0,
                    };
                    self.request(sref, stage, now);
                }
            }
        }
    }

    fn request(&mut self, sref: StageRef, stage: Stage, now: f64) {
        if self.serialized(stage.resource) {
            let state = self.resources.entry(stage.resource).or_default();
            if state.busy {
                state.queue.push_back((sref, stage));
                return;
            }
            state.busy = true;
        }
        self.schedule(sref, stage, now);
    }

    /// Starts service of a stage: the point where faults apply. A fault
    /// hit fails the whole task; a degradation/straggler window stretches
    /// the stage (duration and energy alike). Outside every window the
    /// stretch is exactly `1.0`, and `duration * 1.0 == duration`, so a
    /// fault-free run keeps the analytic arithmetic bit for bit.
    fn schedule(&mut self, sref: StageRef, stage: Stage, now: f64) {
        if let Some(kind) = self.faults.hit(stage.resource, now) {
            self.fail_task(sref, stage, now, kind);
            return;
        }
        let stretch = self.faults.stretch(stage.resource, now);
        if stretch != 1.0 {
            self.touched[sref.task] = true;
            mec_obs::counter_add("sim/chaos/stretched_stages", 1);
        }
        self.energy[sref.task] += stage.energy.value() * stretch;
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time: now + stage.duration.value() * stretch,
            seq: self.seq,
            stage: sref,
        }));
    }

    /// Records the first fault hit on a task and frees the resource its
    /// failing stage was holding. In-flight sibling stages drain through
    /// [`Engine::complete_stage`]'s failed-task guard; queued ones are
    /// skipped by [`Engine::release`].
    fn fail_task(&mut self, sref: StageRef, stage: Stage, now: f64, kind: FaultHitKind) {
        if self.failed[sref.task].is_none() {
            let hit = FaultHit {
                time: Seconds::new(now),
                resource: stage.resource,
                kind,
            };
            self.failed[sref.task] = Some(hit);
            self.hits.push((sref.task, hit));
            mec_obs::counter_add(
                match kind {
                    FaultHitKind::DeviceLost(_) => "sim/chaos/device_lost",
                    FaultHitKind::LinkOutage(_) => "sim/chaos/link_outage",
                },
                1,
            );
        }
        self.release(stage.resource, now);
    }

    /// Frees a serialized resource and starts the next live waiter,
    /// skipping queued stages of tasks that have already failed.
    fn release(&mut self, resource: Resource, now: f64) {
        if !self.serialized(resource) {
            return;
        }
        loop {
            let next = self
                .resources
                .get_mut(&resource)
                .expect("released stage had a resource entry")
                .queue
                .pop_front();
            match next {
                Some((next_ref, _)) if self.failed[next_ref.task].is_some() => continue,
                Some((next_ref, next_stage)) => {
                    // May recurse through fail_task back into release if
                    // the waiter is struck at start; the queue shrinks
                    // every iteration, so this terminates.
                    self.schedule(next_ref, next_stage, now);
                    return;
                }
                None => {
                    self.resources
                        .get_mut(&resource)
                        .expect("released stage had a resource entry")
                        .busy = false;
                    return;
                }
            }
        }
    }

    fn complete_stage(&mut self, ev: Event) {
        let sref = ev.stage;
        let now = ev.time;
        let stage = self.stage_at(sref);

        // Free the resource and start the next waiter.
        self.release(stage.resource, now);

        // A stage of a failed task that was already in flight when the
        // fault struck still drains its resource (above) but no longer
        // advances the task.
        if self.failed[sref.task].is_some() {
            return;
        }

        // Advance the task.
        if sref.branch == usize::MAX {
            self.begin_step(sref.task, sref.step + 1, now);
            return;
        }
        let branches = match &self.plans[sref.task].steps[sref.step] {
            PlanStep::Parallel(b) => b,
            PlanStep::Single(_) => unreachable!("branch ref into a single step"),
        };
        let branch = &branches[sref.branch];
        if sref.pos + 1 < branch.len() {
            let next = branch[sref.pos + 1];
            let next_ref = StageRef {
                pos: sref.pos + 1,
                ..sref
            };
            self.request(next_ref, next, now);
        } else {
            let remaining = self
                .open_branches
                .get_mut(&(sref.task, sref.step))
                .expect("parallel step tracked");
            *remaining -= 1;
            if *remaining == 0 {
                self.open_branches.remove(&(sref.task, sref.step));
                self.begin_step(sref.task, sref.step + 1, now);
            }
        }
    }

    fn stage_at(&self, sref: StageRef) -> Stage {
        match &self.plans[sref.task].steps[sref.step] {
            PlanStep::Single(s) => *s,
            PlanStep::Parallel(b) => b[sref.branch][sref.pos],
        }
    }
}

// JSON codecs (wire-compatible with the former serde derives).
djson::impl_json_enum!(Contention { None, Exclusive });
djson::impl_json_struct!(TaskSimResult {
    id,
    site,
    arrival,
    completion,
    sojourn,
    energy,
    met_deadline,
});
djson::impl_json_struct!(SimReport { results });
djson::impl_json_struct!(FaultHit {
    time,
    resource,
    kind
});
djson::impl_json_enum!(ChaosOutcome {
    Completed {
        completion: Seconds,
        sojourn: Seconds,
        met_deadline: bool
    },
    Failed(FaultHit),
});
djson::impl_json_struct!(ChaosTaskResult {
    id,
    site,
    arrival,
    energy,
    outcome
});
djson::impl_json_struct!(ChaosEvent { task, hit });
djson::impl_json_struct!(ChaosSimReport { results, events });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
    use crate::radio::NetworkProfile;
    use crate::topology::{Cloud, DeviceId, MecSystem};
    use crate::units::{Bytes, Hertz};
    use crate::workload::ScenarioConfig;

    #[test]
    fn contention_free_simulation_matches_analytic_model() {
        let s = ScenarioConfig::paper_defaults(77).generate().unwrap();
        for site in ExecutionSite::ALL {
            let assignment: Vec<_> = s.tasks.iter().map(|t| (*t, site)).collect();
            let report = simulate(&s.system, &assignment, Contention::None).unwrap();
            for (task, result) in s.tasks.iter().zip(report.results.iter()) {
                let expect = cost::evaluate(&s.system, task).unwrap().at(site);
                let dt = (result.completion.value() - expect.time.value()).abs();
                assert!(
                    dt < 1e-9 * (1.0 + expect.time.value()),
                    "{} at {site}",
                    task.id
                );
                let de = (result.energy.value() - expect.energy.value()).abs();
                assert!(
                    de < 1e-9 * (1.0 + expect.energy.value()),
                    "{} at {site}",
                    task.id
                );
            }
        }
    }

    #[test]
    fn exclusive_contention_never_beats_contention_free() {
        let s = ScenarioConfig::paper_defaults(3).generate().unwrap();
        let assignment: Vec<_> = s
            .tasks
            .iter()
            .map(|t| (*t, ExecutionSite::Station))
            .collect();
        let free = simulate(&s.system, &assignment, Contention::None).unwrap();
        let queued = simulate(&s.system, &assignment, Contention::Exclusive).unwrap();
        for (f, q) in free.results.iter().zip(queued.results.iter()) {
            assert!(
                q.completion.value() >= f.completion.value() - 1e-12,
                "{}: queued {} < free {}",
                f.id,
                q.completion,
                f.completion
            );
            // Energy never changes: waiting is free.
            assert!((q.energy.value() - f.energy.value()).abs() < 1e-12);
        }
        assert!(queued.makespan() >= free.makespan());
    }

    #[test]
    fn identical_local_tasks_serialize_on_one_cpu() {
        // Two identical purely-local tasks on the same device: with
        // exclusive contention the second finishes at exactly 2× the
        // compute time.
        let mut b = MecSystem::builder(Cloud {
            cpu: Hertz::from_ghz(2.4),
        });
        let st = b.add_station(Hertz::from_ghz(4.0), Bytes::from_mb(200.0));
        b.add_device(
            st,
            Hertz::from_ghz(1.0),
            NetworkProfile::WiFi.link(),
            Bytes::from_mb(8.0),
        )
        .unwrap();
        let system = b.build().unwrap();
        let mk = |index| HolisticTask {
            id: crate::task::TaskId { user: 0, index },
            owner: DeviceId(0),
            local_size: Bytes::from_kb(1000.0),
            external_size: Bytes::ZERO,
            external_source: None,
            complexity: 1.0,
            resource: Bytes::from_kb(1000.0),
            deadline: Seconds::new(10.0),
        };
        let assignment = vec![
            (mk(0), ExecutionSite::Device),
            (mk(1), ExecutionSite::Device),
        ];
        let report = simulate(&system, &assignment, Contention::Exclusive).unwrap();
        let unit = 330.0 * 1e6 / 1e9; // cycles / Hz = 0.33 s
        assert!((report.results[0].completion.value() - unit).abs() < 1e-9);
        assert!((report.results[1].completion.value() - 2.0 * unit).abs() < 1e-9);
        assert_eq!(report.makespan(), report.results[1].completion);
    }

    #[test]
    fn report_statistics() {
        let s = ScenarioConfig::paper_defaults(5).generate().unwrap();
        let assignment: Vec<_> = s.tasks.iter().map(|t| (*t, ExecutionSite::Cloud)).collect();
        let report = simulate(&s.system, &assignment, Contention::None).unwrap();
        assert!(report.total_energy() > Joules::ZERO);
        assert!(report.mean_latency() > Seconds::ZERO);
        assert!(report.makespan() >= report.mean_latency());
        let rate = report.deadline_miss_rate();
        assert!((0.0..=1.0).contains(&rate));
        let empty = SimReport { results: vec![] };
        assert_eq!(empty.deadline_miss_rate(), 0.0);
        assert_eq!(empty.mean_latency(), Seconds::ZERO);
    }
}

#[cfg(test)]
mod arrival_tests {
    use super::*;
    use crate::workload::{poisson_arrivals, ScenarioConfig};

    #[test]
    fn contention_free_arrivals_shift_completions_exactly() {
        let mut cfg = ScenarioConfig::paper_defaults(701);
        cfg.tasks_total = 20;
        let s = cfg.generate().unwrap();
        let batch: Vec<_> = s
            .tasks
            .iter()
            .map(|t| (*t, ExecutionSite::Device))
            .collect();
        let base = simulate(&s.system, &batch, Contention::None).unwrap();
        let arrivals = poisson_arrivals(7, s.tasks.len(), 1.0).unwrap();
        let timed: Vec<_> = s
            .tasks
            .iter()
            .zip(arrivals.iter())
            .map(|(t, at)| (*t, ExecutionSite::Device, *at))
            .collect();
        let shifted = simulate_with_arrivals(&s.system, &timed, Contention::None).unwrap();
        for ((b, r), at) in base.results.iter().zip(&shifted.results).zip(&arrivals) {
            let expect = b.completion.value() + at.value();
            assert!(
                (r.completion.value() - expect).abs() < 1e-9 * (1.0 + expect),
                "{}",
                b.id
            );
            // Sojourn is arrival-independent without contention.
            assert!((r.sojourn.value() - b.sojourn.value()).abs() < 1e-9);
            assert_eq!(r.met_deadline, b.met_deadline);
        }
    }

    #[test]
    fn staggered_arrivals_relieve_queueing() {
        // One device, many identical local tasks: batch release queues
        // them all; slow Poisson release (gap > service time) eliminates
        // waiting entirely.
        let mut cfg = ScenarioConfig::paper_defaults(702);
        cfg.num_stations = 1;
        cfg.devices_per_station = 1;
        cfg.tasks_total = 10;
        cfg.external_frac_range = (0.0, 0.0);
        let s = cfg.generate().unwrap();
        let batch: Vec<_> = s
            .tasks
            .iter()
            .map(|t| (*t, ExecutionSite::Device))
            .collect();
        let queued = simulate(&s.system, &batch, Contention::Exclusive).unwrap();
        // Slow arrivals: one task every 100 s, far above any service time.
        let timed: Vec<_> = s
            .tasks
            .iter()
            .enumerate()
            .map(|(k, t)| (*t, ExecutionSite::Device, Seconds::new(100.0 * k as f64)))
            .collect();
        let relaxed = simulate_with_arrivals(&s.system, &timed, Contention::Exclusive).unwrap();
        assert!(relaxed.mean_latency() < queued.mean_latency());
        // With no overlap, queued sojourn equals the contention-free one.
        let free = simulate(&s.system, &batch, Contention::None).unwrap();
        for (r, f) in relaxed.results.iter().zip(free.results.iter()) {
            assert!(
                (r.sojourn.value() - f.sojourn.value()).abs() < 1e-9,
                "{}",
                r.id
            );
        }
    }

    #[test]
    fn negative_arrivals_are_rejected() {
        let mut cfg = ScenarioConfig::paper_defaults(703);
        cfg.tasks_total = 2;
        let s = cfg.generate().unwrap();
        let timed = vec![(s.tasks[0], ExecutionSite::Device, Seconds::new(-1.0))];
        assert!(simulate_with_arrivals(&s.system, &timed, Contention::None).is_err());
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::radio::NetworkProfile;
    use crate::topology::{Cloud, DeviceId, StationId};
    use crate::units::{Bytes, Hertz};
    use crate::workload::ScenarioConfig;

    /// One station, `n` identical devices.
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

    fn local_task(index: usize, owner: usize) -> HolisticTask {
        HolisticTask {
            id: TaskId { user: owner, index },
            owner: DeviceId(owner),
            local_size: Bytes::from_kb(1000.0),
            external_size: Bytes::ZERO,
            external_source: None,
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

    #[test]
    fn empty_plan_is_bit_identical_to_fault_free_run() {
        let s = ScenarioConfig::paper_defaults(41).generate().unwrap();
        for contention in [Contention::None, Contention::Exclusive] {
            let assignment: Vec<_> = s
                .tasks
                .iter()
                .enumerate()
                .map(|(k, t)| (*t, ExecutionSite::ALL[k % 3]))
                .collect();
            let base = simulate(&s.system, &assignment, contention).unwrap();
            let chaos =
                simulate_chaos(&s.system, &assignment, contention, &FaultPlan::none()).unwrap();
            assert!(chaos.events.is_empty());
            for (b, c) in base.results.iter().zip(&chaos.results) {
                assert_eq!(b.id, c.id);
                assert_eq!(b.energy.value().to_bits(), c.energy.value().to_bits());
                match c.outcome {
                    ChaosOutcome::Completed {
                        completion,
                        sojourn,
                        met_deadline,
                    } => {
                        assert_eq!(b.completion.value().to_bits(), completion.value().to_bits());
                        assert_eq!(b.sojourn.value().to_bits(), sojourn.value().to_bits());
                        assert_eq!(b.met_deadline, met_deadline);
                    }
                    ChaosOutcome::Failed(hit) => panic!("{}: spurious failure {hit:?}", b.id),
                }
            }
        }
    }

    #[test]
    fn dropout_fails_every_stage_starting_after_it() {
        // Three station offloads from one device, serialized on its
        // uplink. The device dies just after the first upload starts:
        // the queued uploads fail when the radio frees (exercising the
        // recursive release path), and the first task dies later at its
        // result download. Nothing is silently dropped.
        let system = small_system(1);
        let assignment: Vec<_> = (0..3)
            .map(|k| (local_task(k, 0), ExecutionSite::Station))
            .collect();
        let faults = FaultPlan::new(
            &system,
            vec![Fault::Dropout {
                device: DeviceId(0),
                at: Seconds::new(1e-6),
            }],
        )
        .unwrap();
        let report = simulate_chaos(&system, &assignment, Contention::Exclusive, &faults).unwrap();
        assert_eq!(report.results.len(), 3);
        for r in &report.results {
            assert!(
                matches!(
                    r.outcome,
                    ChaosOutcome::Failed(FaultHit {
                        kind: FaultHitKind::DeviceLost(DeviceId(0)),
                        ..
                    })
                ),
                "{}: {:?}",
                r.id,
                r.outcome
            );
        }
        // Queued tasks never started a stage, so they spent nothing; the
        // first task paid for its completed upload.
        assert_eq!(report.results[1].energy, Joules::ZERO);
        assert_eq!(report.results[2].energy, Joules::ZERO);
        assert!(report.results[0].energy > Joules::ZERO);
        // Failure order: the queued uploads die when the radio frees,
        // before the first task reaches its download.
        let order: Vec<usize> = report.events.iter().map(|e| e.task.index).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn outage_is_transient_and_window_scoped() {
        let system = small_system(1);
        let assignment = vec![(local_task(0, 0), ExecutionSite::Station)];
        // Window over the start: the upload fails transiently.
        let hit_plan = FaultPlan::new(
            &system,
            vec![Fault::LinkOutage {
                device: DeviceId(0),
                window: window(0.0, 1.0),
            }],
        )
        .unwrap();
        let report =
            simulate_chaos(&system, &assignment, Contention::Exclusive, &hit_plan).unwrap();
        assert!(matches!(
            report.results[0].outcome,
            ChaosOutcome::Failed(FaultHit {
                kind: FaultHitKind::LinkOutage(DeviceId(0)),
                ..
            })
        ));
        // Window long after the run: bit-identical completion.
        let miss_plan = FaultPlan::new(
            &system,
            vec![Fault::LinkOutage {
                device: DeviceId(0),
                window: window(1000.0, 1001.0),
            }],
        )
        .unwrap();
        let base = simulate(&system, &assignment, Contention::Exclusive).unwrap();
        let report =
            simulate_chaos(&system, &assignment, Contention::Exclusive, &miss_plan).unwrap();
        match report.results[0].outcome {
            ChaosOutcome::Completed { completion, .. } => assert_eq!(
                completion.value().to_bits(),
                base.results[0].completion.value().to_bits()
            ),
            ChaosOutcome::Failed(hit) => panic!("spurious failure {hit:?}"),
        }
    }

    #[test]
    fn straggler_stretches_duration_and_energy_alike() {
        let system = small_system(1);
        let assignment = vec![(local_task(0, 0), ExecutionSite::Device)];
        let base = simulate(&system, &assignment, Contention::None).unwrap();
        let faults = FaultPlan::new(
            &system,
            vec![Fault::Straggler {
                device: DeviceId(0),
                window: window(0.0, 1e6),
                slowdown: 3.0,
            }],
        )
        .unwrap();
        let report = simulate_chaos(&system, &assignment, Contention::None, &faults).unwrap();
        let ChaosOutcome::Completed { completion, .. } = report.results[0].outcome else {
            panic!("straggler must not kill the task");
        };
        let b = &base.results[0];
        assert!((completion.value() - 3.0 * b.completion.value()).abs() < 1e-9);
        assert!((report.results[0].energy.value() - 3.0 * b.energy.value()).abs() < 1e-9);
    }

    #[test]
    fn waiter_queued_behind_a_busy_radio_is_skipped_once_its_task_failed() {
        // Tasks T and U both gather external data from device 2 (its
        // uplink serializes them). U's own upload is struck by an outage
        // at t=0, failing U while its shared-data leg still sits in
        // device 2's queue — the released radio must skip it.
        let system = small_system(3);
        let mk = |index: usize, owner: usize| HolisticTask {
            external_size: Bytes::from_kb(500.0),
            external_source: Some(DeviceId(2)),
            ..local_task(index, owner)
        };
        let assignment = vec![
            (mk(0, 0), ExecutionSite::Station),
            (mk(1, 1), ExecutionSite::Station),
        ];
        let faults = FaultPlan::new(
            &system,
            vec![Fault::LinkOutage {
                device: DeviceId(1),
                window: window(0.0, 1e-9),
            }],
        )
        .unwrap();
        let report = simulate_chaos(&system, &assignment, Contention::Exclusive, &faults).unwrap();
        assert!(matches!(
            report.results[1].outcome,
            ChaosOutcome::Failed(FaultHit {
                kind: FaultHitKind::LinkOutage(DeviceId(1)),
                ..
            })
        ));
        // U never ran a stage: the struck upload and the skipped queued
        // leg both cost nothing.
        assert_eq!(report.results[1].energy, Joules::ZERO);
        // T is untouched and completes exactly as without faults.
        let base = simulate(&system, &assignment[..1], Contention::Exclusive).unwrap();
        match report.results[0].outcome {
            ChaosOutcome::Completed { completion, .. } => assert_eq!(
                completion.value().to_bits(),
                base.results[0].completion.value().to_bits()
            ),
            ChaosOutcome::Failed(hit) => panic!("spurious failure {hit:?}"),
        }
        assert_eq!(
            report.results[0].energy.value().to_bits(),
            base.results[0].energy.value().to_bits()
        );
    }

    #[test]
    fn chaos_report_round_trips_through_json_and_aggregates() {
        let system = small_system(2);
        let assignment = vec![
            (local_task(0, 0), ExecutionSite::Device),
            (local_task(1, 1), ExecutionSite::Station),
        ];
        let faults = FaultPlan::new(
            &system,
            vec![Fault::Dropout {
                device: DeviceId(1),
                at: Seconds::ZERO,
            }],
        )
        .unwrap();
        let report = simulate_chaos(&system, &assignment, Contention::Exclusive, &faults).unwrap();
        assert_eq!(report.failed().count(), 1);
        assert!(report.total_energy() >= Joules::ZERO);
        assert!(report.makespan() > Seconds::ZERO);
        let json = djson::to_string(&report);
        let back: ChaosSimReport = djson::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn non_finite_plans_are_rejected_not_scheduled() {
        // An absurd complexity overflows cycles to infinity; build_plan
        // must refuse rather than hand the executor a non-finite time.
        let system = small_system(1);
        let mut task = local_task(0, 0);
        task.complexity = f64::MAX;
        let err = build_plan(&system, &task, ExecutionSite::Device).unwrap_err();
        assert!(
            matches!(err, MecError::InvalidParameter { name: "plan", .. }),
            "{err}"
        );
        let assignment = vec![(task, ExecutionSite::Device)];
        assert!(simulate(&system, &assignment, Contention::None).is_err());
        assert!(
            simulate_chaos(&system, &assignment, Contention::None, &FaultPlan::none()).is_err()
        );
    }

    #[test]
    fn stations_are_infrastructure_and_never_fault() {
        // A fault naming a station-level resource is inexpressible by
        // construction; hit/stretch on infrastructure is always clean.
        let plan = FaultPlan::none();
        assert_eq!(plan.hit(Resource::StationCpu(StationId(0)), 0.0), None);
        assert_eq!(plan.stretch(Resource::CloudBackhaul, 0.0), 1.0);
    }
}
