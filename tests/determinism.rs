//! Determinism guarantees of the parallel sweep engine: running on N
//! worker threads must produce outputs that are bit-identical to a single-threaded run, and the scenario/cost
//! caches must be invisible in results.
//!
//! The thread count is process-global, so every test that toggles it
//! holds one shared lock.

use mec_bench::figures::{fig2a, registry, ExperimentOptions};
use mec_bench::table::Figure;
use mec_bench::{cache, par};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that mutate the global thread count.
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Bitwise equality of two figures. Series whose name contains `time ms`
/// are wall-clock measurements: only their names are compared.
fn assert_bit_identical(a: &Figure, b: &Figure) {
    assert_eq!(a.x_ticks, b.x_ticks, "{}: x ticks differ", a.id);
    assert_eq!(a.series.len(), b.series.len(), "{}: series count", a.id);
    for (sa, sb) in a.series.iter().zip(&b.series) {
        assert_eq!(sa.name, sb.name, "{}: series name", a.id);
        if sa.name.contains("time ms") {
            continue;
        }
        assert_eq!(sa.values.len(), sb.values.len(), "{}: series length", a.id);
        for (i, (va, vb)) in sa.values.iter().zip(&sb.values).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{} `{}`[{i}]: serial {va} vs parallel {vb}",
                a.id,
                sa.name,
            );
        }
    }
}

/// The headline guarantee: every registered experiment, from a cold
/// cache, is bit-identical between one worker thread and four.
#[test]
fn figures_are_bit_identical_serial_vs_parallel() {
    let _guard = threads_lock();
    let opts = ExperimentOptions::quick();
    for (id, run) in registry() {
        par::set_threads(1);
        cache::clear();
        let serial = run(&opts).unwrap_or_else(|e| panic!("{id} (1 thread): {e}"));
        par::set_threads(4);
        cache::clear();
        let parallel = run(&opts).unwrap_or_else(|e| panic!("{id} (4 threads): {e}"));
        assert_bit_identical(&serial, &parallel);
        if id == "scale" {
            // The oracle property reaches ~1.5k devices; this pins both
            // DTA greedy rules at the full 10⁵-device fleet.
            let row = serial.to_csv().lines().nth(1).map(str::to_owned);
            assert_eq!(
                row.as_deref(),
                Some("100000,100000,100000,2047,1881,8,163"),
                "scale row"
            );
        }
    }
    par::set_threads(0);
}

/// A caller that keeps its cache warm must see the same figure as a cold
/// run — the cache can change timings only, never values.
#[test]
fn warm_cache_changes_nothing() {
    let _guard = threads_lock();
    par::set_threads(2);
    let opts = ExperimentOptions::quick();
    cache::clear();
    let cold = fig2a(&opts).unwrap();
    let stats = cache::stats();
    assert!(stats.scenario_misses > 0, "cold run must build scenarios");
    let warm = fig2a(&opts).unwrap();
    let stats = cache::stats();
    assert!(
        stats.scenario_hits >= stats.scenario_misses,
        "warm rerun must hit the scenario cache: {stats:?}"
    );
    assert_bit_identical(&cold, &warm);
    par::set_threads(0);
}

/// The cached scenario/cost pair equals a direct build, entry for entry.
#[test]
fn cached_cost_table_agrees_with_direct_build() {
    use dsmec_core::costs::CostTable;
    use mec_sim::workload::ScenarioConfig;
    // The cache counters are process-global; serialize with the tests
    // that assert on them.
    let _guard = threads_lock();
    let mut cfg = ScenarioConfig::paper_defaults(8899);
    cfg.tasks_total = 25;
    let cached = cache::scenario_with_costs(&cfg).unwrap();
    let scenario = cfg.generate().unwrap();
    let costs = CostTable::build(&scenario.system, &scenario.tasks).unwrap();
    assert_eq!(cached.scenario, scenario);
    assert_eq!(cached.costs, costs);
}

/// The sweep engine surfaces worker failures as errors in a deterministic
/// way (smallest failing index wins) regardless of the thread count.
#[test]
fn sweep_failures_are_deterministic() {
    use dsmec_core::error::AssignError;
    use mec_bench::par::par_map_result;
    let _guard = threads_lock();
    let items: Vec<usize> = (0..97).collect();
    for threads in [1usize, 4] {
        par::set_threads(threads);
        let out: Result<Vec<usize>, AssignError> = par_map_result(&items, |&i| {
            if i % 31 == 13 {
                Err(AssignError::InvalidInput(format!("item {i}")))
            } else {
                Ok(i)
            }
        });
        let err = out.unwrap_err();
        assert!(
            err.to_string().contains("item 13"),
            "threads={threads}: expected the smallest failing index, got {err}"
        );
    }
    par::set_threads(0);
}
