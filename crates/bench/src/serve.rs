//! `dsmec serve` — an online assignment loop over a deterministic task
//! stream.
//!
//! The paper assigns one offline batch; a deployed controller keeps
//! assigning as tasks arrive and devices churn. This module runs that
//! steady state: a [`mec_sim::stream::TaskStream`] feeds micro-batches of
//! arrivals into an epoch loop that
//!
//! 1. applies device churn from an optional seeded fault plan:
//!    [`FaultPlan::dead_at`] names the devices dead at the epoch's close,
//!    their owned tasks cancel at ingest, and dead data sources are
//!    re-sourced through [`replacement_source`] — the chaos repair rules
//!    acting as a steady-state replanner,
//! 2. shards the instance per base-station cluster (clusters couple
//!    only through the cloud, so each shard is an LP of its own),
//! 3. solves every shard concurrently under the deterministic
//!    `par_map_result` contract via [`LpHta::solve_cluster`], each shard
//!    warm-started from the basis *its own station* produced last epoch,
//! 4. commits bases and statistics serially, rounds, and reconciles the
//!    one cross-cluster resource — cloud capacity — with a cheap serial
//!    migration pass,
//! 5. fingerprints the epoch's decisions (never wall times), so
//!    `--threads 1` and `--threads N` sessions are bit-comparable.
//!
//! Per-epoch spans, a sustained assignment counter and decision-latency
//! histograms flow through `mec-obs`; the [`ServeReport`] JSON carries
//! everything `dsmec trace` and CI gates need.

use crate::timing::percentile;
use dsmec_core::assignment::Decision;
use dsmec_core::capacity::Headroom;
use dsmec_core::costs::CostTable;
use dsmec_core::error::AssignError;
use dsmec_core::hta::{cluster_task_indices, ClusterSolve, FractionalSolution, LpHta, WarmBases};
use dsmec_core::repair::replacement_source;
use mec_sim::sim::{ChaosConfig, FaultPlan};
use mec_sim::stream::{StreamConfig, TaskStream};
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::StationId;
use mec_sim::units::{Bytes, Seconds};
use mec_sim::workload::ScenarioConfig;
use std::time::Instant;

/// Configuration of one serve session.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Stream seed: topology, tasks and arrival times.
    pub seed: u64,
    /// Number of epoch batches to drain.
    pub epochs: usize,
    /// Tasks per epoch; `0` means one task per device, which keeps every
    /// cluster's LP shape constant across epochs (best warm hit rates).
    pub batch: usize,
    /// Base stations in the topology.
    pub num_stations: usize,
    /// Devices per station.
    pub devices_per_station: usize,
    /// Maximum local input size per task, in kB.
    pub max_input_kb: f64,
    /// Poisson arrival rate, tasks per second.
    pub rate_per_second: f64,
    /// Churn seed: generates the session's fault plan (device dropouts
    /// cancel owned tasks at ingest and re-source shared data). `None`
    /// serves churn-free.
    pub chaos: Option<u64>,
    /// Per-epoch cap on cloud placements; exceeding epochs migrate their
    /// largest cloud occupants back to their stations where feasible.
    /// `None` leaves the cloud uncapacitated (the paper's model).
    pub cloud_limit: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            seed: 42,
            epochs: 20,
            batch: 0,
            num_stations: 5,
            devices_per_station: 10,
            max_input_kb: 3000.0,
            rate_per_second: 50.0,
            chaos: None,
            cloud_limit: None,
        }
    }
}

impl ServeConfig {
    /// The effective per-epoch batch size (`batch`, or one task per
    /// device when zero).
    #[must_use]
    pub fn effective_batch(&self) -> usize {
        if self.batch == 0 {
            self.num_stations * self.devices_per_station
        } else {
            self.batch
        }
    }

    fn stream_config(&self) -> StreamConfig {
        let mut scenario = ScenarioConfig::paper_defaults(self.seed);
        scenario.num_stations = self.num_stations;
        scenario.devices_per_station = self.devices_per_station;
        scenario.max_input_kb = self.max_input_kb;
        StreamConfig {
            scenario,
            epochs: self.epochs,
            batch: self.effective_batch(),
            rate_per_second: self.rate_per_second,
        }
    }
}

/// One epoch's outcome. Everything here is deterministic in the session
/// seed(s) except `decision_ns`, which is wall time and deliberately
/// excluded from [`EpochStats::fingerprint`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Zero-based epoch number.
    pub epoch: usize,
    /// Tasks that arrived this epoch.
    pub arrived: usize,
    /// Tasks assigned a site.
    pub assigned: usize,
    /// Tasks cancelled by the LP-HTA repair steps.
    pub cancelled: usize,
    /// Tasks cancelled at ingest because their owner died.
    pub churn_cancelled: usize,
    /// Tasks whose dead external source was replanned to a live device.
    pub resourced: usize,
    /// Cloud placements migrated back to stations by the reconciliation
    /// pass.
    pub cloud_migrations: usize,
    /// Live tasks that missed their deadline: assigned to a site whose
    /// completion time exceeds the deadline, or cancelled by repair
    /// (a cancelled task never completes at all). Churn cancellations are
    /// excluded — a dead owner has no SLA to miss. Deterministic, so it
    /// participates in report comparisons but not the fingerprint (which
    /// hashes raw decisions, from which this is derived).
    pub deadline_misses: usize,
    /// Wall time spent in the repair paths this epoch — churn ingest
    /// (owner cancellation, data re-sourcing) plus the cloud
    /// reconciliation pass — in milliseconds. Wall time, so excluded from
    /// fingerprints and scrubbed in deterministic comparisons exactly
    /// like `decision_ns`.
    pub repair_ms: f64,
    /// Cluster solves offered a chained basis.
    pub warm_attempts: usize,
    /// Offered bases the solver accepted (phase 1 skipped).
    pub warm_hits: usize,
    /// Offered bases rejected for shape mismatch (churn events).
    pub warm_rejections: usize,
    /// Simplex iterations spent this epoch.
    pub lp_iterations: usize,
    /// The epoch's `E_LP^(OPT)`.
    pub lp_objective: f64,
    /// Energy of the final epoch assignment.
    pub final_energy: f64,
    /// Wall-clock decision latency for the whole epoch, nanoseconds.
    pub decision_ns: u64,
    /// Order-sensitive digest of the epoch's decisions (task ids, sites,
    /// churn outcomes — no wall times). Equal fingerprints mean the same
    /// assignments; the `--threads 1` vs `--threads N` oracle.
    pub fingerprint: String,
}

/// The session report `dsmec serve` writes and CI gates.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Stream seed.
    pub seed: u64,
    /// Churn seed, if churn was enabled.
    pub chaos: Option<u64>,
    /// Effective tasks per epoch.
    pub batch: usize,
    /// Total tasks that arrived.
    pub arrived_total: usize,
    /// Total tasks assigned a site.
    pub assigned_total: usize,
    /// Total tasks cancelled (repair plus churn).
    pub cancelled_total: usize,
    /// Tasks replanned to a live data source.
    pub resourced_total: usize,
    /// Total cloud-to-station reconciliation migrations.
    pub cloud_migrations_total: usize,
    /// Cluster solves offered a chained basis.
    pub warm_attempts: u64,
    /// Offered bases accepted.
    pub warm_hits: u64,
    /// `warm_hits / warm_attempts` over the whole session.
    pub warm_hit_rate: f64,
    /// Hit rate excluding the cold first epoch — the steady-state figure
    /// the acceptance gate checks (> 0.5).
    pub steady_warm_hit_rate: f64,
    /// Median epoch decision latency, milliseconds.
    pub decision_p50_ms: f64,
    /// 95th-percentile epoch decision latency, milliseconds.
    pub decision_p95_ms: f64,
    /// Sustained assignment throughput over decision time.
    pub assignments_per_sec: f64,
    /// Digest of all epoch fingerprints — one string to compare across
    /// thread counts.
    pub session_fingerprint: String,
    /// Per-epoch outcomes.
    pub epochs: Vec<EpochStats>,
}

djson::impl_json_struct!(ServeConfig {
    seed,
    epochs,
    batch,
    num_stations,
    devices_per_station,
    max_input_kb,
    rate_per_second,
    chaos,
    cloud_limit,
});
djson::impl_json_struct!(EpochStats {
    epoch,
    arrived,
    assigned,
    cancelled,
    churn_cancelled,
    resourced,
    cloud_migrations,
    deadline_misses,
    repair_ms,
    warm_attempts,
    warm_hits,
    warm_rejections,
    lp_iterations,
    lp_objective,
    final_energy,
    decision_ns,
    fingerprint,
});
djson::impl_json_struct!(ServeReport {
    seed,
    chaos,
    batch,
    arrived_total,
    assigned_total,
    cancelled_total,
    resourced_total,
    cloud_migrations_total,
    warm_attempts,
    warm_hits,
    warm_hit_rate,
    steady_warm_hit_rate,
    decision_p50_ms,
    decision_p95_ms,
    assignments_per_sec,
    session_fingerprint,
    epochs,
});

/// Renders the session report as an aligned text table: one line per
/// epoch plus the session totals the CI gates read.
#[must_use]
pub fn render_serve_report(report: &ServeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: seed {} chaos {} batch {}",
        report.seed,
        report
            .chaos
            .map_or_else(|| "none".to_string(), |s| s.to_string()),
        report.batch
    );
    let _ = writeln!(
        out,
        "{:>5} {:>7} {:>8} {:>9} {:>6} {:>9} {:>11} {:>12} {:>11}",
        "epoch",
        "arrived",
        "assigned",
        "cancelled",
        "warm",
        "lp iters",
        "energy (J)",
        "latency",
        "fingerprint"
    );
    for e in &report.epochs {
        let warm = if e.warm_attempts == 0 {
            "cold".to_string()
        } else {
            format!("{}/{}", e.warm_hits, e.warm_attempts)
        };
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>8} {:>9} {:>6} {:>9} {:>11.2} {:>9.2}ms {:>11}",
            e.epoch,
            e.arrived,
            e.assigned,
            e.cancelled + e.churn_cancelled,
            warm,
            e.lp_iterations,
            e.final_energy,
            e.decision_ns as f64 / 1e6,
            &e.fingerprint[..11.min(e.fingerprint.len())],
        );
    }
    let _ = writeln!(
        out,
        "totals: {} assigned / {} arrived, warm hit rate {:.0}% (steady {:.0}%), \
         {:.0} assignments/s, p50 {:.2} ms, p95 {:.2} ms",
        report.assigned_total,
        report.arrived_total,
        report.warm_hit_rate * 100.0,
        report.steady_warm_hit_rate * 100.0,
        report.assignments_per_sec,
        report.decision_p50_ms,
        report.decision_p95_ms
    );
    let _ = writeln!(out, "session fingerprint {}", report.session_fingerprint);
    out
}

/// `hits / attempts`, or 0 when no basis was offered.
fn hit_rate(hits: usize, attempts: usize) -> f64 {
    if attempts == 0 {
        0.0
    } else {
        hits as f64 / attempts as f64
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How one arrived task left the epoch, encoded into the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Site(ExecutionSite),
    RepairCancelled,
    ChurnCancelled,
}

impl Outcome {
    fn code(self) -> u8 {
        match self {
            Outcome::Site(site) => site.index() as u8,
            Outcome::RepairCancelled => 3,
            Outcome::ChurnCancelled => 4,
        }
    }
}

/// Replans a task whose external data source died this epoch, through
/// the repair layer's [`replacement_source`] rule — the same rule every
/// epoch, so replays agree for any worker-thread count. When every other
/// device is dead (all holders of the shared datum went down at once)
/// the external dependency is dropped entirely — source cleared *and*
/// size zeroed together, preserving the
/// `external_size > 0 ⟺ external_source` pairing that
/// `HolisticTask::validate` enforces — so no task ever reaches the LP
/// still pointing at a dead source. Returns `true` iff the task was
/// re-sourced or had its dependency dropped.
///
/// `is_dead` is indexed by device id and sized to the device count; a
/// source outside it does not exist in this system and is left alone.
fn resource_dead_external(task: &mut HolisticTask, is_dead: &[bool]) -> bool {
    let Some(src) = task.external_source else {
        return false;
    };
    if src.0 >= is_dead.len() || !is_dead[src.0] {
        return false;
    }
    match replacement_source(task.owner, is_dead) {
        Some(d) => task.external_source = Some(d),
        None => {
            task.external_source = None;
            task.external_size = Bytes::ZERO;
        }
    }
    true
}

/// Runs a full serve session: generates the stream (and churn plan),
/// drains every epoch through the sharded incremental LP-HTA, and
/// returns the session report.
///
/// Deterministic in `(seed, chaos)` for any worker-thread count: shards
/// solve concurrently but commit in station order, and fingerprints
/// never include wall times.
///
/// # Errors
///
/// Returns [`AssignError`] for substrate failures or irrecoverable LP
/// numerical failures; per-task infeasibility lands in the report as
/// cancellations.
pub fn serve(config: &ServeConfig) -> Result<ServeReport, AssignError> {
    serve_with_hook(config, &mut |_| {})
}

/// [`serve`] with a per-epoch observer: `on_epoch` runs after each
/// epoch's statistics are final (decisions committed, fingerprint
/// hashed, obs counters/gauges recorded), in epoch order, on the serve
/// thread. The telemetry plane hangs its interval snapshots and flight
/// log off this hook; the hook is infallible by design — telemetry
/// failures must never abort an assignment session, so implementations
/// stash errors and surface them after the session ends.
///
/// # Errors
///
/// Same contract as [`serve`].
pub fn serve_with_hook(
    config: &ServeConfig,
    on_epoch: &mut dyn FnMut(&EpochStats),
) -> Result<ServeReport, AssignError> {
    let _session = mec_obs::span("serve/session");
    let stream = config.stream_config().generate()?;
    let plan = match config.chaos {
        Some(seed) => {
            let horizon = Seconds::new(stream.horizon().value().max(1.0));
            ChaosConfig::from_seed(seed)
                .generate(&stream.system, horizon)
                .map_err(AssignError::Mec)?
        }
        None => FaultPlan::none(),
    };

    // The serve loop always runs the sharded LP: the batch-mode fast
    // path proves optimality per instance but carries no chaining state,
    // which is the whole point of the incremental epoch API.
    let algo = LpHta::paper().without_fast_path();
    let mut warm = WarmBases::new();
    let mut epochs = Vec::with_capacity(stream.batches.len());
    let mut session_hash = FNV_OFFSET;
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(stream.batches.len());
    let mut decision_ns_total: u64 = 0;

    for batch in &stream.batches {
        let _epoch_span = mec_obs::span("serve/epoch");
        let started = Instant::now();
        // Dropouts are the only permanent churn: a device that died at or
        // before the epoch's close time is gone for this epoch.
        let is_dead = plan.dead_at(batch.close_time(), stream.system.num_devices());

        // Ingest churn: cancel dead owners, re-source dead data sources.
        let repair_started = Instant::now();
        let mut outcomes = vec![Outcome::RepairCancelled; batch.tasks.len()];
        let mut live_tasks: Vec<HolisticTask> = Vec::with_capacity(batch.tasks.len());
        let mut live_map: Vec<usize> = Vec::with_capacity(batch.tasks.len());
        let mut churn_cancelled = 0usize;
        let mut resourced = 0usize;
        for (slot, task) in batch.tasks.iter().enumerate() {
            if task.owner.0 < is_dead.len() && is_dead[task.owner.0] {
                outcomes[slot] = Outcome::ChurnCancelled;
                churn_cancelled += 1;
                continue;
            }
            let mut task = *task;
            if resource_dead_external(&mut task, &is_dead) {
                resourced += 1;
                mec_obs::counter_add("serve/resourced", 1);
            }
            live_map.push(slot);
            live_tasks.push(task);
        }
        let mut repair_ns = repair_started.elapsed().as_nanos();

        // Shard per cluster and solve concurrently, each shard offered
        // its own station's chained basis. The warm store is read-only
        // during the parallel region; commits happen serially below, in
        // station order, so the outcome is thread-count independent.
        let costs = crate::pricing::build_cost_table(&stream.system, &live_tasks)?;
        let shards: Vec<(StationId, Vec<usize>)> =
            cluster_task_indices(&stream.system, &live_tasks)?;
        let solves: Vec<Option<ClusterSolve>> = crate::par::par_map_result(&shards, |shard| {
            let (station, idxs) = shard;
            algo.solve_cluster(
                &stream.system,
                &live_tasks,
                &costs,
                *station,
                idxs,
                warm.basis(*station),
            )
        })?;

        let mut fractional = FractionalSolution {
            clusters: Vec::with_capacity(shards.len()),
            lp_objective: 0.0,
            lp_iterations: 0,
        };
        let mut warm_attempts = 0usize;
        let mut warm_hits = 0usize;
        let mut warm_rejections = 0usize;
        for ((station, _), solved) in shards.iter().zip(solves) {
            let Some(cs) = solved else { continue };
            warm_attempts += usize::from(warm.basis(*station).is_some());
            warm_hits += usize::from(cs.warm_used);
            if cs.warm_rejected {
                warm_rejections += 1;
                mec_obs::counter_add("serve/warm_rejections", 1);
            }
            match cs.basis {
                Some(basis) => warm.store(*station, basis),
                None => warm.clear(*station),
            }
            fractional.lp_objective += cs.objective;
            fractional.lp_iterations += cs.iterations;
            fractional.clusters.push(cs.fractions);
        }

        let (assignment, report) =
            algo.round_with(&stream.system, &live_tasks, &costs, &fractional)?;
        let mut decisions: Vec<Decision> = assignment.decisions().to_vec();
        let reconcile_started = Instant::now();
        let cloud_migrations =
            reconcile_cloud(config, &stream, &live_tasks, &costs, &mut decisions);
        repair_ns += reconcile_started.elapsed().as_nanos();

        // Deadline misses over the epoch's live tasks: an assignment is a
        // miss when its site cannot complete within the task's deadline,
        // and a repair cancellation is a miss by definition (the task
        // never runs). Churn cancellations are excluded above — they
        // never reach `decisions`.
        let mut deadline_misses = 0usize;
        for (live_idx, d) in decisions.iter().enumerate() {
            let missed = match d {
                Decision::Assigned(site) => {
                    !costs.feasible(live_idx, *site, live_tasks[live_idx].deadline)
                }
                Decision::Cancelled => true,
            };
            if missed {
                deadline_misses += 1;
            }
        }

        for (live_idx, &slot) in live_map.iter().enumerate() {
            outcomes[slot] = match decisions[live_idx] {
                Decision::Assigned(site) => Outcome::Site(site),
                Decision::Cancelled => Outcome::RepairCancelled,
            };
        }
        let assigned = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Site(_)))
            .count();
        let cancelled = batch.tasks.len() - assigned - churn_cancelled;

        let mut hash = FNV_OFFSET;
        for (task, outcome) in batch.tasks.iter().zip(&outcomes) {
            hash = fnv(hash, &(task.id.user as u64).to_le_bytes());
            hash = fnv(hash, &(task.id.index as u64).to_le_bytes());
            hash = fnv(hash, &[outcome.code()]);
        }
        let fingerprint = format!("{hash:016x}");
        session_hash = fnv(session_hash, fingerprint.as_bytes());

        let decision_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        decision_ns_total = decision_ns_total.saturating_add(decision_ns);
        let ms = decision_ns as f64 / 1e6;
        latencies_ms.push(ms);
        #[allow(clippy::cast_precision_loss)]
        let repair_ms = repair_ns as f64 / 1e6;
        mec_obs::counter_add("serve/assignments", assigned as u64);
        mec_obs::counter_add("serve/epochs", 1);
        mec_obs::counter_add("serve/deadline_misses", deadline_misses as u64);
        mec_obs::observe("serve/decision_latency_ms", ms);
        mec_obs::observe("serve/repair_ms", repair_ms);

        // The SLO gauges the telemetry plane exposes per epoch: the
        // current epoch index, the live queue depth after churn ingest,
        // and the rates a scrape or `dsmec top` renders directly.
        #[allow(clippy::cast_precision_loss)]
        {
            mec_obs::gauge_set("serve/epoch", batch.epoch as f64);
            mec_obs::gauge_set("serve/queue_depth", live_tasks.len() as f64);
            mec_obs::gauge_set(
                "serve/slo/deadline_miss_rate",
                if live_tasks.is_empty() {
                    0.0
                } else {
                    deadline_misses as f64 / live_tasks.len() as f64
                },
            );
            mec_obs::gauge_set(
                "serve/slo/warm_hit_rate",
                hit_rate(warm_hits, warm_attempts),
            );
            mec_obs::gauge_set("serve/slo/repair_ms", repair_ms);
            mec_obs::gauge_set("serve/slo/cloud_migrations", cloud_migrations as f64);
        }

        let stats = EpochStats {
            epoch: batch.epoch,
            arrived: batch.tasks.len(),
            assigned,
            cancelled,
            churn_cancelled,
            resourced,
            cloud_migrations,
            deadline_misses,
            repair_ms,
            warm_attempts,
            warm_hits,
            warm_rejections,
            lp_iterations: report.lp_iterations,
            lp_objective: report.lp_objective,
            final_energy: report.final_energy,
            decision_ns,
            fingerprint,
        };
        on_epoch(&stats);
        epochs.push(stats);
    }

    let arrived_total: usize = epochs.iter().map(|e| e.arrived).sum();
    let assigned_total: usize = epochs.iter().map(|e| e.assigned).sum();
    let warm_totals = |skip: usize| {
        epochs
            .iter()
            .skip(skip)
            .fold((0, 0), |(h, a), e| (h + e.warm_hits, a + e.warm_attempts))
    };
    let (warm_hits, warm_attempts) = warm_totals(0);
    let (steady_hits, steady_attempts) = warm_totals(1);
    let elapsed_secs = decision_ns_total as f64 / 1e9;
    Ok(ServeReport {
        seed: config.seed,
        chaos: config.chaos,
        batch: config.effective_batch(),
        arrived_total,
        assigned_total,
        cancelled_total: arrived_total - assigned_total,
        resourced_total: epochs.iter().map(|e| e.resourced).sum(),
        cloud_migrations_total: epochs.iter().map(|e| e.cloud_migrations).sum(),
        warm_attempts: warm_attempts as u64,
        warm_hits: warm_hits as u64,
        warm_hit_rate: hit_rate(warm_hits, warm_attempts),
        steady_warm_hit_rate: hit_rate(steady_hits, steady_attempts),
        decision_p50_ms: percentile(&latencies_ms, 50.0),
        decision_p95_ms: percentile(&latencies_ms, 95.0),
        assignments_per_sec: if elapsed_secs > 0.0 {
            assigned_total as f64 / elapsed_secs
        } else {
            0.0
        },
        session_fingerprint: format!("{session_hash:016x}"),
        epochs,
    })
}

/// The cheap serial cross-cluster pass: clusters solve independently, so
/// the only resource they can jointly oversubscribe is the cloud. When an
/// epoch places more than `cloud_limit` tasks there, migrate the largest
/// occupants back to their own stations while deadlines and station
/// capacity (over the *whole* epoch assignment) allow it; tasks that fit
/// nowhere stay at the cloud — the cap is a pressure valve, not a hard
/// constraint. Returns the number of migrations.
fn reconcile_cloud(
    config: &ServeConfig,
    stream: &TaskStream,
    tasks: &[HolisticTask],
    costs: &CostTable,
    decisions: &mut [Decision],
) -> usize {
    let Some(limit) = config.cloud_limit else {
        return 0;
    };
    let mut at_cloud: Vec<usize> = decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| matches!(d, Decision::Assigned(ExecutionSite::Cloud)))
        .map(|(i, _)| i)
        .collect();
    if at_cloud.len() <= limit {
        return 0;
    }
    // Station headroom after this epoch's own station placements.
    let mut room = Headroom::new(&stream.system);
    for (i, d) in decisions.iter().enumerate() {
        if matches!(d, Decision::Assigned(ExecutionSite::Station)) {
            if let Ok(claim) = room.claim(&tasks[i]) {
                room.take(ExecutionSite::Station, &claim);
            }
        }
    }
    // Largest occupants first, index ascending on ties — deterministic.
    at_cloud.sort_by(|&a, &b| {
        tasks[b]
            .resource
            .value()
            .total_cmp(&tasks[a].resource.value())
            .then(a.cmp(&b))
    });
    let mut migrated = 0usize;
    let mut remaining = at_cloud.len();
    for &i in &at_cloud {
        if remaining <= limit {
            break;
        }
        let Ok(claim) = room.claim(&tasks[i]) else {
            continue;
        };
        if costs.feasible(i, ExecutionSite::Station, tasks[i].deadline)
            && room.fits(ExecutionSite::Station, &claim)
        {
            room.take(ExecutionSite::Station, &claim);
            decisions[i] = Decision::Assigned(ExecutionSite::Station);
            migrated += 1;
            remaining -= 1;
            mec_obs::counter_add("serve/cloud_migrations", 1);
        }
    }
    migrated
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::topology::DeviceId;

    /// Scrubs the wall-clock fields (decision latencies, throughput) so
    /// replays can be compared on their deterministic content.
    fn scrub(mut r: ServeReport) -> ServeReport {
        r.decision_p50_ms = 0.0;
        r.decision_p95_ms = 0.0;
        r.assignments_per_sec = 0.0;
        for e in &mut r.epochs {
            e.decision_ns = 0;
            e.repair_ms = 0.0;
        }
        r
    }

    fn tiny_config(seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            epochs: 4,
            num_stations: 2,
            devices_per_station: 3,
            max_input_kb: 1200.0,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_is_deterministic_and_chains_bases() {
        let cfg = tiny_config(7);
        let a = scrub(serve(&cfg).unwrap());
        let b = scrub(serve(&cfg).unwrap());
        assert_eq!(a, b);
        assert_eq!(a.epochs.len(), 4);
        assert_eq!(a.arrived_total, 4 * cfg.effective_batch());
        // Constant shapes: every epoch after the first must offer and hit.
        assert!(a.warm_attempts > 0);
        assert!(
            a.steady_warm_hit_rate > 0.5,
            "steady hit rate {}",
            a.steady_warm_hit_rate
        );
        // Epoch 0 is cold by definition.
        assert_eq!(a.epochs[0].warm_attempts, 0);
    }

    #[test]
    fn churn_cancels_dead_owners_and_replans_sources() {
        // Some chaos seed must produce a dropout within the horizon; scan
        // a few to keep the test robust to plan-generation details.
        let mut hit = None;
        for chaos in 1..32u64 {
            let cfg = ServeConfig {
                chaos: Some(chaos),
                epochs: 6,
                ..tiny_config(11)
            };
            let r = serve(&cfg).unwrap();
            if r.epochs.iter().any(|e| e.churn_cancelled > 0) {
                hit = Some((cfg, r));
                break;
            }
        }
        let (cfg, r) = hit.expect("no chaos seed in 1..32 produced a dropout");
        let r = scrub(r);
        // Deterministic replay, including the churn.
        assert_eq!(scrub(serve(&cfg).unwrap()), r);
        // Churned tasks are cancelled, not silently dropped.
        let arrived: usize = r.epochs.iter().map(|e| e.arrived).sum();
        assert_eq!(arrived, 6 * cfg.effective_batch());
        assert!(r.cancelled_total > 0);
    }

    fn shared_task(owner: usize, source: usize) -> HolisticTask {
        HolisticTask {
            id: mec_sim::task::TaskId {
                user: owner,
                index: 0,
            },
            owner: DeviceId(owner),
            local_size: Bytes::from_kb(100.0),
            external_size: Bytes::from_kb(50.0),
            external_source: Some(DeviceId(source)),
            complexity: 1.0,
            resource: Bytes::from_kb(10.0),
            deadline: Seconds::new(5.0),
        }
    }

    #[test]
    fn resourcing_picks_the_lowest_live_non_owner() {
        // Source 3 died; devices 1 and 2 are also dead, 4 is the lowest
        // live device that is not the owner.
        let mut t = shared_task(0, 3);
        let touched = resource_dead_external(&mut t, &[false, true, true, true, false]);
        assert!(touched);
        assert_eq!(t.external_source, Some(DeviceId(4)));
        assert!(t.external_size.value() > 0.0);
        t.validate().unwrap();

        // A live source is left alone.
        let mut t = shared_task(0, 3);
        assert!(!resource_dead_external(&mut t, &[false, true, true, false]));
        assert_eq!(t.external_source, Some(DeviceId(3)));

        // A source outside the system's device range does not exist and
        // is left alone (nothing to re-source it to).
        let mut t = shared_task(0, 9);
        assert!(!resource_dead_external(&mut t, &[false, true]));
        assert_eq!(t.external_source, Some(DeviceId(9)));
    }

    #[test]
    fn all_holders_dead_drops_the_dependency_not_the_source_check() {
        // Every device except the owner died in this epoch: no live
        // holder of the shared datum remains. The task must not keep its
        // dead source — the dependency is dropped, source and size
        // together, and the result still validates.
        let mut t = shared_task(0, 2);
        let touched = resource_dead_external(&mut t, &[false, true, true]);
        assert!(touched);
        assert_eq!(t.external_source, None);
        assert_eq!(t.external_size.value(), 0.0);
        t.validate().unwrap();
    }

    #[test]
    fn all_holders_die_fingerprints_match_across_thread_counts() {
        // A two-device system: when a task's source dies, the only other
        // device is its owner, so re-sourcing is forced down the
        // drop-the-dependency path every time. Scan (seed, chaos) pairs
        // for a session that actually exercised it.
        let mut hit = None;
        'scan: for seed in 1..6u64 {
            for chaos in 1..32u64 {
                let cfg = ServeConfig {
                    seed,
                    chaos: Some(chaos),
                    epochs: 6,
                    num_stations: 1,
                    devices_per_station: 2,
                    max_input_kb: 1200.0,
                    ..ServeConfig::default()
                };
                let r = serve(&cfg).unwrap();
                if r.resourced_total > 0 {
                    hit = Some((cfg, r));
                    break 'scan;
                }
            }
        }
        let (cfg, base) = hit.expect("no (seed, chaos) pair re-sourced a task");
        let base = scrub(base);
        // Replays agree epoch by epoch for any worker-thread count: the
        // all-holders-die replanning happens in the serial ingest pass.
        let _t = crate::par::THREADS_TEST_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        for threads in [1usize, 4] {
            crate::par::set_threads(threads);
            let replay = scrub(serve(&cfg).unwrap());
            crate::par::set_threads(0);
            assert_eq!(
                replay.session_fingerprint, base.session_fingerprint,
                "threads {threads}"
            );
            for (a, b) in replay.epochs.iter().zip(base.epochs.iter()) {
                assert_eq!(a.fingerprint, b.fingerprint, "threads {threads}");
            }
            assert_eq!(replay, base, "threads {threads}");
        }
    }

    #[test]
    fn cloud_cap_triggers_the_serial_reconciliation_pass() {
        // Force heavy cloud pressure with a tiny cap: the pass must
        // migrate something (or the cap was never exceeded — also fine,
        // but then the cap must hold everywhere).
        let cfg = ServeConfig {
            cloud_limit: Some(1),
            ..tiny_config(13)
        };
        let r = serve(&cfg).unwrap();
        let capped = ServeConfig {
            cloud_limit: None,
            ..cfg.clone()
        };
        let free = serve(&capped).unwrap();
        // The reconciliation pass only ever moves cloud -> station, so
        // energy may change but the assigned count cannot drop.
        assert_eq!(r.arrived_total, free.arrived_total);
        assert_eq!(r.assigned_total, free.assigned_total);
        let baseline_cloud_heavy = free.epochs.iter().any(|e| e.assigned > 1);
        if baseline_cloud_heavy && r.cloud_migrations_total == 0 {
            // Nothing migrated: every epoch was already within the cap.
            for e in &r.epochs {
                assert!(e.cloud_migrations == 0);
            }
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = serve(&tiny_config(5)).unwrap();
        let json = djson::to_string(&r);
        let back: ServeReport = djson::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(json.contains("session_fingerprint"));
    }
}
