//! The three `dsmec serve` workloads.
//!
//! Closed loop, one client: the serve thread drains pre-generated epoch
//! batches back to back, so `throughput_per_s` is the saturation rate.
//! End-to-end numbers come from `serve_with_hook` as shipped. A traced run
//! also replays each session through the public calls serve makes, in
//! serve's order, timing every call from here; re-deriving each epoch's
//! fingerprint with serve's recipe proves the replay timed serve's work.

use crate::metrics::{fnv, mean, median, ms_since, peak_rss_mb, ratio, Run, FNV_OFFSET};
use djson::Json;
use dsmec_core::assignment::Decision;
use dsmec_core::error::AssignError;
use dsmec_core::hta::{cluster_task_indices, FractionalSolution, LpHta, WarmBases};
use mec_bench::serve::{serve_with_hook, ServeConfig, ServeReport};
use mec_bench::timing::percentile;
use mec_sim::sim::{ChaosConfig, Fault, FaultPlan};
use mec_sim::stream::StreamConfig;
use mec_sim::task::HolisticTask;
use mec_sim::topology::DeviceId;
use mec_sim::units::{Bytes, Seconds};
use mec_sim::workload::ScenarioConfig;
use std::time::{Duration, Instant};

/// Churn-plan seed of the CI heavy config (0xC0FFEE).
const CHURN_SEED: u64 = 12_648_430;

/// Fingerprint codes of the two cancellation outcomes; assigned tasks use
/// their site index (0–2).
const REPAIR_CANCELLED: u8 = 3;
const CHURN_CANCELLED: u8 = 4;

/// The percentile of a session's epochs reported as the tail. p90 leaves ten
/// epochs beyond it on churn and a thousand on steady; fleet has only ten.
const TAIL_PERCENTILE: f64 = 90.0;

/// Default topology (5 stations × 10 devices), one task per device per
/// epoch, no churn: every cluster keeps its LP shape, so every solve after
/// epoch 0 is a warm hit on a 10-task cluster.
pub fn steady(seed: u64, smoke: bool) -> ServeConfig {
    ServeConfig {
        seed,
        epochs: if smoke { 1000 } else { 10_000 },
        ..ServeConfig::default()
    }
}

/// The CI heavy config: 20 × 20 devices, batch 500 with device churn, so
/// cluster shapes shift every epoch and many solves run cold.
pub fn churn(seed: u64, smoke: bool) -> ServeConfig {
    ServeConfig {
        seed,
        epochs: if smoke { 25 } else { 100 },
        batch: 500,
        num_stations: 20,
        devices_per_station: 20,
        chaos: Some(CHURN_SEED),
        ..ServeConfig::default()
    }
}

/// 10⁵ devices (100 stations × 1000), one task per device per epoch.
/// Clusters of 1000 exceed `lp_cluster_limit`, so no LP is solved and the
/// epoch is rounding and pricing at scale.
pub fn fleet(seed: u64, smoke: bool) -> ServeConfig {
    ServeConfig {
        seed,
        epochs: if smoke { 3 } else { 10 },
        batch: 100_000,
        num_stations: 100,
        devices_per_station: 1000,
        ..ServeConfig::default()
    }
}

/// One untraced session's summary. The session's report is dropped once
/// checked; of each later session only its epoch times are kept.
struct Session {
    /// Stream generation plus churn plan: the time from the call to the
    /// first epoch hook, less epoch 0's own decision time.
    setup_s: f64,
    throughput: f64,
    p50_ms: f64,
    /// Each epoch's decision time, in ms.
    epoch_ms: Vec<f64>,
    /// Median of the epochs' `repair_ms`.
    repair_ms: f64,
    assigned: usize,
    fingerprint: String,
}

fn run_session(config: &ServeConfig) -> Result<(Session, ServeReport), AssignError> {
    let called = Instant::now();
    let mut first_hook: Option<Duration> = None;
    let report = serve_with_hook(config, &mut |_| {
        first_hook.get_or_insert_with(|| called.elapsed());
    })?;
    let epoch0_s = report
        .epochs
        .first()
        .map_or(0.0, |e| e.decision_ns as f64 * 1e-9);
    let ms: Vec<f64> = report
        .epochs
        .iter()
        .map(|e| e.decision_ns as f64 / 1e6)
        .collect();
    let repair_ms: Vec<f64> = report.epochs.iter().map(|e| e.repair_ms).collect();
    let session = Session {
        setup_s: first_hook.map_or(0.0, |d| d.as_secs_f64()) - epoch0_s,
        throughput: report.assignments_per_sec,
        p50_ms: percentile(&ms, 50.0),
        epoch_ms: ms,
        repair_ms: median(&repair_ms),
        assigned: report.assigned_total,
        fingerprint: report.session_fingerprint.clone(),
    };
    Ok((session, report))
}

/// Runs sessions on one worker thread until `budget` has passed (at least
/// `min_sessions`), checking each, then — when traced — replays every
/// session layer by layer and runs one more session on `threads` workers.
///
/// Every session replays the same epochs (the fingerprint check proves
/// it), so an epoch's own cost is its fastest time over the sessions:
/// contention from other tenants of the host only ever adds time, and it
/// comes and goes within seconds. Throughput and latency percentiles are
/// taken over these per-epoch costs; `setup_s` is the median over sessions.
pub fn run(
    config: &ServeConfig,
    threads: usize,
    budget: Duration,
    trace: bool,
    min_sessions: usize,
) -> Run {
    let mut run = Run::default();
    let mut sessions: Vec<Session> = Vec::new();
    // The first session's report: the reference every later one must match.
    let mut first: Option<ServeReport> = None;
    let mut peak_rss = 0.0;
    let mut replayed = Replayed::default();
    let started = Instant::now();
    while sessions.len() < min_sessions || started.elapsed() < budget {
        let label = format!("session {}", sessions.len());
        let (session, report) = match run_session(config) {
            Ok(s) => s,
            Err(e) => {
                run.attempted += 1;
                run.fail(1, format!("{label}: {e}"));
                break;
            }
        };
        check(&mut run, first.as_ref(), &report, &label);
        if first.is_none() {
            // Read once, so it depends on neither the number of sessions
            // nor how the allocator reuses memory between them.
            peak_rss = peak_rss_mb();
        }
        if trace {
            if let Err(e) = replay(config, &report, &mut replayed) {
                run.fail(1, format!("replay of {label}: {e}"));
            }
        }
        first.get_or_insert(report);
        sessions.push(session);
    }
    let Some(first) = first else {
        return run;
    };

    let per_session = |f: fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    let n = sessions.len();
    let mut own_ms = sessions[0].epoch_ms.clone();
    for s in &sessions[1..] {
        for (own, &ms) in own_ms.iter_mut().zip(&s.epoch_ms) {
            *own = own.min(ms);
        }
    }
    let own_s = own_ms.iter().sum::<f64>() / 1e3;
    let epochs = own_ms.len();
    run.set("setup_s", per_session(|s| s.setup_s), n);
    run.set(
        "throughput_per_s",
        ratio(sessions[0].assigned as f64, own_s),
        n,
    );
    run.set("latency_p50_ms", percentile(&own_ms, 50.0), epochs);
    let tail = percentile(&own_ms, TAIL_PERCENTILE);
    run.set("latency_tail_ms", tail, epochs);
    run.set("peak_rss_mb", peak_rss, 1);
    run.sessions = sessions.iter().map(session_json).collect();

    if trace {
        // The replayed layers are timed once per session, so they are
        // compared with serve's per-session and pooled times, not with the
        // own costs.
        let throughput = per_session(|s| s.throughput);
        let epoch_ms: Vec<f64> = sessions
            .iter()
            .flat_map(|s| s.epoch_ms.iter().copied())
            .collect();
        let serve_p50 = percentile(&epoch_ms, 50.0);
        let label = format!("threads={threads} session");
        mec_bench::par::set_threads(threads);
        let alternate = run_session(config);
        mec_bench::par::set_threads(1);
        match alternate {
            Ok((alt, alt_report)) => {
                check(&mut run, Some(&first), &alt_report, &label);
                run.set("par.speedup", ratio(alt.throughput, throughput), 1);
            }
            Err(e) => {
                run.attempted += 1;
                run.fail(1, format!("{label}: {e}"));
            }
        }
        if replayed.mismatches > 0 {
            let m = replayed.mismatches;
            run.fail(m, format!("{m} replayed epoch(s) differ from serve's"));
        }
        report_layers(&mut run, &sessions, &first, &replayed, serve_p50);
    }
    run
}

/// Checks one session's per-epoch invariants, and its fingerprints
/// against the run's first session. A failing epoch counts as failed.
fn check(run: &mut Run, reference: Option<&ServeReport>, report: &ServeReport, label: &str) {
    run.attempted += report.epochs.len() as u64;
    let mut bad = 0u64;
    let mut first_bad = None;
    for (i, e) in report.epochs.iter().enumerate() {
        let balanced =
            e.cancelled <= e.arrived && e.arrived == e.assigned + e.cancelled + e.churn_cancelled;
        // The LP bound covers every live task and the final energy only
        // the assigned ones, so the bound holds when repair cancelled none.
        let above_bound = e.cancelled > 0 || e.final_energy >= e.lp_objective * (1.0 - 1e-9);
        let same = reference
            .is_none_or(|r| r.epochs.get(i).map(|x| &x.fingerprint) == Some(&e.fingerprint));
        if !(balanced && above_bound && same) {
            bad += 1;
            first_bad.get_or_insert(format!(
                "epoch {i}: balanced {balanced}, energy {} vs LP bound {}, same fingerprint {same}",
                e.final_energy, e.lp_objective
            ));
        }
    }
    if let Some(r) = reference {
        if r.session_fingerprint != report.session_fingerprint && bad == 0 {
            bad = 1;
            first_bad = Some(format!(
                "session fingerprint {} vs {}",
                report.session_fingerprint, r.session_fingerprint
            ));
        }
    }
    if let Some(first) = first_bad {
        run.fail(
            bad,
            format!("{label}: {bad} epoch(s) failed a check; first: {first}"),
        );
    }
}

fn session_json(s: &Session) -> Json {
    Json::Obj(vec![
        ("setup_s".into(), Json::from(s.setup_s)),
        ("assigned".into(), Json::from(s.assigned as u64)),
        ("throughput_per_s".into(), Json::from(s.throughput)),
        ("latency_p50_ms".into(), Json::from(s.p50_ms)),
        ("fingerprint".into(), Json::from(s.fingerprint.as_str())),
    ])
}

/// Per-call timings pooled over every replayed epoch.
#[derive(Default)]
struct Replayed {
    mismatches: u64,
    generate_s: Vec<f64>,
    plan_ms: Vec<f64>,
    epoch_ms: Vec<f64>,
    pricing_ms: Vec<f64>,
    shard_ms: Vec<f64>,
    solve_wall_ms: Vec<f64>,
    solve_busy_ms: Vec<f64>,
    commit_us: Vec<f64>,
    round_ms: Vec<f64>,
    cluster_us: Vec<f64>,
    warm_us: Vec<f64>,
    cold_us: Vec<f64>,
    /// Per-session counts, from the first replay (they depend only on the
    /// seed).
    counts: Option<Counts>,
}

#[derive(Default, Clone, Copy)]
struct Counts {
    epochs: usize,
    dropouts: usize,
    warm_attempts: usize,
    warm_hits: usize,
    warm_rejections: usize,
    greedy_seeded: usize,
    repair_cancelled: usize,
    lp_iterations: usize,
}

/// The stream `serve` generates for `config`.
fn stream_config(config: &ServeConfig) -> StreamConfig {
    let mut scenario = ScenarioConfig::paper_defaults(config.seed);
    scenario.num_stations = config.num_stations;
    scenario.devices_per_station = config.devices_per_station;
    scenario.max_input_kb = config.max_input_kb;
    StreamConfig {
        scenario,
        epochs: config.epochs,
        batch: config.effective_batch(),
        rate_per_second: config.rate_per_second,
    }
}

/// Serve's ingest rule for a task whose external source died: the
/// lowest-id live device other than the owner, or no external data when
/// none is left. Benchmark glue, untimed; a change to serve's rule shows
/// up as a replay mismatch.
fn resource_dead_external(task: &mut HolisticTask, is_dead: &[bool]) {
    let Some(src) = task.external_source else {
        return;
    };
    if src.0 >= is_dead.len() || !is_dead[src.0] {
        return;
    }
    match (0..is_dead.len())
        .map(DeviceId)
        .find(|d| !is_dead[d.0] && *d != task.owner)
    {
        Some(d) => task.external_source = Some(d),
        None => {
            task.external_source = None;
            task.external_size = Bytes::ZERO;
        }
    }
}

/// Serve's documented epoch fingerprint: FNV-1a over each arrived task's
/// id and outcome code, in arrival order.
fn fingerprint(tasks: &[HolisticTask], outcomes: &[u8]) -> String {
    let mut hash = FNV_OFFSET;
    for (task, &code) in tasks.iter().zip(outcomes) {
        hash = fnv(hash, &(task.id.user as u64).to_le_bytes());
        hash = fnv(hash, &(task.id.index as u64).to_le_bytes());
        hash = fnv(hash, &[code]);
    }
    format!("{hash:016x}")
}

/// Replays one session through serve's public calls, timing each, and
/// counts the epochs whose fingerprint, LP objective or final energy
/// differ from `reference`.
fn replay(
    config: &ServeConfig,
    reference: &ServeReport,
    out: &mut Replayed,
) -> Result<(), AssignError> {
    let t = Instant::now();
    let stream = stream_config(config).generate().map_err(AssignError::Mec)?;
    out.generate_s.push(t.elapsed().as_secs_f64());
    let plan = match config.chaos {
        Some(seed) => {
            let t = Instant::now();
            let horizon = Seconds::new(stream.horizon().value().max(1.0));
            let plan = ChaosConfig::from_seed(seed)
                .generate(&stream.system, horizon)
                .map_err(AssignError::Mec)?;
            out.plan_ms.push(ms_since(t));
            plan
        }
        None => FaultPlan::none(),
    };
    let dropouts: Vec<(DeviceId, Seconds)> = plan
        .faults()
        .iter()
        .filter_map(|f| match *f {
            Fault::Dropout { device, at } => Some((device, at)),
            _ => None,
        })
        .collect();

    let algo = LpHta::paper().without_fast_path();
    let mut warm = WarmBases::new();
    let mut counts = Counts {
        dropouts: dropouts.len(),
        epochs: stream.batches.len(),
        ..Counts::default()
    };
    out.mismatches += stream.batches.len().abs_diff(reference.epochs.len()) as u64;
    for (batch, expected) in stream.batches.iter().zip(&reference.epochs) {
        let epoch_started = Instant::now();

        // Churn ingest (glue): identical live tasks for the timed calls.
        let now = batch.close_time();
        let mut is_dead = vec![false; stream.system.num_devices()];
        for &(d, at) in &dropouts {
            if at <= now && d.0 < is_dead.len() {
                is_dead[d.0] = true;
            }
        }
        let mut outcomes = vec![REPAIR_CANCELLED; batch.tasks.len()];
        let mut live: Vec<HolisticTask> = Vec::with_capacity(batch.tasks.len());
        let mut live_map: Vec<usize> = Vec::with_capacity(batch.tasks.len());
        for (slot, task) in batch.tasks.iter().enumerate() {
            if is_dead.get(task.owner.0) == Some(&true) {
                outcomes[slot] = CHURN_CANCELLED;
                continue;
            }
            let mut task = *task;
            resource_dead_external(&mut task, &is_dead);
            live_map.push(slot);
            live.push(task);
        }

        let t = Instant::now();
        let costs = mec_bench::pricing::build_cost_table(&stream.system, &live)?;
        out.pricing_ms.push(ms_since(t));

        let t = Instant::now();
        let shards = cluster_task_indices(&stream.system, &live)?;
        out.shard_ms.push(ms_since(t));

        let t = Instant::now();
        let solves = mec_bench::par::par_map_result(&shards, |(station, idxs)| {
            let t = Instant::now();
            let solved = algo.solve_cluster(
                &stream.system,
                &live,
                &costs,
                *station,
                idxs,
                warm.basis(*station),
            )?;
            Ok::<_, AssignError>((solved, t.elapsed()))
        })?;
        out.solve_wall_ms.push(ms_since(t));

        let mut fractional = FractionalSolution {
            clusters: Vec::with_capacity(shards.len()),
            lp_objective: 0.0,
            lp_iterations: 0,
        };
        let mut busy = Duration::ZERO;
        let mut commit = Duration::ZERO;
        for ((station, idxs), (solved, took)) in shards.iter().zip(solves) {
            busy += took;
            let Some(cs) = solved else { continue };
            let us = took.as_secs_f64() * 1e6;
            out.cluster_us.push(us);
            if idxs.len() > algo.lp_cluster_limit {
                counts.greedy_seeded += 1;
            } else if cs.warm_used {
                out.warm_us.push(us);
            } else {
                out.cold_us.push(us);
            }
            counts.warm_attempts += usize::from(warm.basis(*station).is_some());
            counts.warm_hits += usize::from(cs.warm_used);
            counts.warm_rejections += usize::from(cs.warm_rejected);
            let t = Instant::now();
            match cs.basis {
                Some(basis) => warm.store(*station, basis),
                None => warm.clear(*station),
            }
            commit += t.elapsed();
            fractional.lp_objective += cs.objective;
            fractional.lp_iterations += cs.iterations;
            fractional.clusters.push(cs.fractions);
        }
        out.solve_busy_ms.push(busy.as_secs_f64() * 1e3);
        out.commit_us.push(commit.as_secs_f64() * 1e6);

        let t = Instant::now();
        let (assignment, report) = algo.round_with(&stream.system, &live, &costs, &fractional)?;
        out.round_ms.push(ms_since(t));
        counts.repair_cancelled += report.cancelled.len();
        counts.lp_iterations += report.lp_iterations;

        // Outcomes and fingerprint (glue).
        for (&slot, d) in live_map.iter().zip(assignment.decisions()) {
            outcomes[slot] = match d {
                Decision::Assigned(site) => site.index() as u8,
                Decision::Cancelled => REPAIR_CANCELLED,
            };
        }
        let same = fingerprint(&batch.tasks, &outcomes) == expected.fingerprint
            && report.lp_objective.to_bits() == expected.lp_objective.to_bits()
            && report.final_energy.to_bits() == expected.final_energy.to_bits();
        out.epoch_ms.push(ms_since(epoch_started));
        out.mismatches += u64::from(!same);
    }
    out.counts.get_or_insert(counts);
    Ok(())
}

fn report_layers(
    run: &mut Run,
    sessions: &[Session],
    first: &ServeReport,
    r: &Replayed,
    serve_p50: f64,
) {
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let n = r.epoch_ms.len();
    let replay_total = sum(&r.epoch_ms);
    let c = r.counts.unwrap_or_default();
    run.set(
        "stream.generate_s",
        median(&r.generate_s),
        r.generate_s.len(),
    );
    run.set("fault.plan_ms", median(&r.plan_ms), r.plan_ms.len());
    run.set("fault.dropouts", c.dropouts as f64, 1);
    run.set("pricing.ms_per_epoch", median(&r.pricing_ms), n);
    run.set("pricing.share", ratio(sum(&r.pricing_ms), replay_total), n);
    run.set("shard.ms_per_epoch", median(&r.shard_ms), n);
    run.set("solve.wall_ms_per_epoch", median(&r.solve_wall_ms), n);
    run.set("solve.busy_ms_per_epoch", median(&r.solve_busy_ms), n);
    run.set("solve.share", ratio(sum(&r.solve_wall_ms), replay_total), n);
    let clusters = r.cluster_us.len();
    run.set(
        "solve.cluster_p50_us",
        percentile(&r.cluster_us, 50.0),
        clusters,
    );
    run.set(
        "solve.cluster_p99_us",
        percentile(&r.cluster_us, 99.0),
        clusters,
    );
    run.set("solve.warm_us_mean", mean(&r.warm_us), r.warm_us.len());
    run.set("solve.cold_us_mean", mean(&r.cold_us), r.cold_us.len());
    run.set(
        "solve.lp_iterations_per_epoch",
        ratio(c.lp_iterations as f64, c.epochs as f64),
        c.epochs,
    );
    run.set("solve.warm_attempts", c.warm_attempts as f64, 1);
    run.set("solve.warm_hits", c.warm_hits as f64, 1);
    run.set("solve.warm_rejections", c.warm_rejections as f64, 1);
    run.set(
        "solve.warm_hit_rate",
        ratio(c.warm_hits as f64, c.warm_attempts as f64),
        c.warm_attempts,
    );
    run.set("solve.greedy_seeded", c.greedy_seeded as f64, 1);
    run.set("commit.us_per_epoch", median(&r.commit_us), n);
    run.set("round.ms_per_epoch", median(&r.round_ms), n);
    run.set("round.share", ratio(sum(&r.round_ms), replay_total), n);
    run.set("round.repair_cancelled", c.repair_cancelled as f64, 1);

    // Serve's own per-epoch statistics, from the untraced sessions.
    let first = &first.epochs;
    let epochs = first.len() * sessions.len();
    let repair_ms: Vec<f64> = sessions.iter().map(|s| s.repair_ms).collect();
    let total = |f: fn(&mec_bench::serve::EpochStats) -> f64| first.iter().map(f).sum::<f64>();
    run.set("serve.repair_ms_per_epoch", median(&repair_ms), epochs);
    run.set("serve.resourced", total(|e| e.resourced as f64), 1);
    run.set(
        "serve.churn_cancelled",
        total(|e| e.churn_cancelled as f64),
        1,
    );
    let layers_ms = median(&r.pricing_ms)
        + median(&r.shard_ms)
        + median(&r.solve_wall_ms)
        + median(&r.commit_us) / 1e3
        + median(&r.round_ms);
    run.set(
        "serve.residual_us_per_epoch",
        (serve_p50 - layers_ms) * 1e3,
        epochs,
    );
    run.set(
        "serve.energy_gap",
        ratio(total(|e| e.final_energy), total(|e| e.lp_objective)),
        first.len(),
    );
    run.set(
        "serve.deadline_miss_frac",
        ratio(
            total(|e| e.deadline_misses as f64),
            total(|e| (e.arrived - e.churn_cancelled) as f64),
        ),
        first.len(),
    );
    run.set("trace.replay_mismatches", r.mismatches as f64, n);
    run.set(
        "trace.overhead_frac",
        ratio(median(&r.epoch_ms), serve_p50) - 1.0,
        n,
    );
}
