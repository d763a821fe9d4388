//! Cross-thread determinism of the online serve loop: a session run on
//! one worker thread and on four must produce bit-identical epoch
//! fingerprints (and identical deterministic report content) — shards
//! solve concurrently but commit in station order, so the thread count
//! may only change wall times.
//!
//! The worker-thread count is process-global; tests that toggle it hold
//! one shared lock.

use mec_bench::par;
use mec_bench::serve::{serve, EpochStats, ServeConfig, ServeReport};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Strips the wall-clock fields so two runs compare on decisions alone.
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

fn session(cfg: &ServeConfig, threads: usize) -> ServeReport {
    par::set_threads(threads);
    serve(cfg).unwrap()
}

/// The ISSUE acceptance oracle: identical epoch fingerprints between
/// `--threads 1` and `--threads 4` over several seeds, churn-free.
#[test]
fn serve_fingerprints_match_across_thread_counts() {
    let _guard = threads_lock();
    for seed in [3u64, 17, 4242] {
        let cfg = ServeConfig {
            seed,
            epochs: 5,
            ..ServeConfig::default()
        };
        let serial = session(&cfg, 1);
        let parallel = session(&cfg, 4);
        assert_eq!(
            serial.session_fingerprint, parallel.session_fingerprint,
            "seed {seed}: session fingerprints diverge across thread counts"
        );
        for (a, b) in serial.epochs.iter().zip(&parallel.epochs) {
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "seed {seed} epoch {}: fingerprints diverge",
                a.epoch
            );
        }
        assert_eq!(
            scrub(serial),
            scrub(parallel),
            "seed {seed}: report content"
        );
    }
    par::set_threads(0);
}

/// Same oracle under churn: dead owners and re-sourced tasks shuffle the
/// per-epoch shard shapes, which must still commit deterministically.
#[test]
fn serve_with_churn_is_thread_count_invariant() {
    let _guard = threads_lock();
    for (seed, chaos) in [(11u64, 3u64), (23, 9), (5, 21)] {
        let cfg = ServeConfig {
            seed,
            epochs: 6,
            num_stations: 2,
            devices_per_station: 3,
            max_input_kb: 1200.0,
            chaos: Some(chaos),
            ..ServeConfig::default()
        };
        let serial = session(&cfg, 1);
        let parallel = session(&cfg, 4);
        assert_eq!(
            scrub(serial),
            scrub(parallel),
            "seed {seed} chaos {chaos}: churned sessions diverge across threads"
        );
    }
    par::set_threads(0);
}

/// Pins the reference sessions' fingerprints to their golden values.
/// These are the byte-for-byte decision digests of `dsmec serve --seed
/// 42 --epochs 20` with and without the documented chaos seed; storage
/// and pricing refactors (DESIGN.md §11) must not move them. A change
/// here means decisions changed — that is a behavior change to justify,
/// not a constant to update in passing.
#[test]
fn reference_session_fingerprints_are_pinned() {
    let _guard = threads_lock();
    par::set_threads(0);
    let default_cfg = ServeConfig {
        seed: 42,
        epochs: 20,
        ..ServeConfig::default()
    };
    let report = serve(&default_cfg).unwrap();
    assert_eq!(report.session_fingerprint, "33b92d38ebe7d960");
    let chaos_cfg = ServeConfig {
        chaos: Some(12_648_430),
        ..default_cfg
    };
    let report = serve(&chaos_cfg).unwrap();
    assert_eq!(report.session_fingerprint, "03c67e80a4ca687f");
}

/// The telemetry-era `EpochStats` fields: `deadline_misses` is
/// deterministic content that must survive a djson round-trip and match
/// across runs; `repair_ms` is wall time that must stay out of the
/// fingerprint (two runs of the same session agree on every fingerprint
/// even though their repair timings differ).
#[test]
fn epoch_stats_new_fields_round_trip_and_stay_out_of_fingerprints() {
    let _guard = threads_lock();
    par::set_threads(0);
    let cfg = ServeConfig {
        seed: 42,
        epochs: 4,
        num_stations: 2,
        devices_per_station: 3,
        max_input_kb: 1200.0,
        ..ServeConfig::default()
    };
    let a = serve(&cfg).unwrap();
    let b = serve(&cfg).unwrap();

    let json = djson::to_string(&a.epochs[0]);
    assert!(json.contains("\"deadline_misses\""), "{json}");
    assert!(json.contains("\"repair_ms\""), "{json}");
    let back: EpochStats = djson::from_str(&json).unwrap();
    assert_eq!(back, a.epochs[0]);

    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(x.fingerprint, y.fingerprint, "epoch {}", x.epoch);
        assert_eq!(x.deadline_misses, y.deadline_misses, "epoch {}", x.epoch);
        assert!(x.repair_ms >= 0.0);
    }
    assert_eq!(scrub(a), scrub(b));
}

/// Warm-start acceptance gate: after the cold first epoch, the default
/// (churn-free) stream keeps every cluster's LP shape constant, so the
/// steady-state hit rate must clear the >50% bar with room to spare.
#[test]
fn steady_state_warm_hit_rate_clears_the_bar() {
    let _guard = threads_lock();
    par::set_threads(2);
    let cfg = ServeConfig {
        seed: 42,
        epochs: 8,
        ..ServeConfig::default()
    };
    let report = serve(&cfg).unwrap();
    assert!(
        report.steady_warm_hit_rate > 0.5,
        "steady warm hit rate {} below the acceptance bar",
        report.steady_warm_hit_rate
    );
    assert_eq!(report.epochs[0].warm_attempts, 0, "epoch 0 must run cold");
    assert!(report.warm_attempts > 0);
    par::set_threads(0);
}

/// Pins a greedy-seeded session: clusters of 2000 devices exceed
/// `lp_cluster_limit`, so no LP runs and every decision comes from the
/// greedy seed plus the Step-4–6 repairs — the path the 10⁵-device fleet
/// takes, with one task per device on average. Recorded before LP-HTA's
/// capacity repair was bucketed by owner; the bucketing must not move it.
#[test]
fn greedy_seeded_large_cluster_fingerprint_is_pinned() {
    let _guard = threads_lock();
    par::set_threads(0);
    let cfg = ServeConfig {
        seed: 42,
        epochs: 2,
        batch: 8000,
        num_stations: 4,
        devices_per_station: 2000,
        ..ServeConfig::default()
    };
    let report = serve(&cfg).unwrap();
    assert_eq!(report.session_fingerprint, "4c8c7708c7275c84");
}

/// Pins the CI heavy config (20 stations × 20 devices, batch 500, churn
/// seed 12648430) at 7 epochs — the shortest session whose rounding
/// migrates tasks in the Step-5/6 capacity repair
/// (`lp_hta/repair/migrations` = 2), so the repair's choice of victims is
/// covered by a pinned digest, not only by its feasibility.
#[test]
fn heavy_churn_session_with_capacity_migrations_is_pinned() {
    let _guard = threads_lock();
    par::set_threads(0);
    let cfg = ServeConfig {
        seed: 42,
        epochs: 7,
        batch: 500,
        num_stations: 20,
        devices_per_station: 20,
        chaos: Some(12_648_430),
        ..ServeConfig::default()
    };
    let report = serve(&cfg).unwrap();
    assert_eq!(report.session_fingerprint, "34b2a24488d66fc8");
}
