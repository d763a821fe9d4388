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

/// FNV-1a digest of a figure's deterministic content: its ticks, and the
/// name and values of every series except the wall-clock `time ms` ones.
/// Values are printed with `{:.8e}` so a last-bit libm difference between
/// machines cannot move the digest.
fn figure_digest(f: &Figure) -> u64 {
    let mut text = f.x_ticks.join(",");
    for s in f.series.iter().filter(|s| !s.name.contains("time ms")) {
        text.push('\n');
        text.push_str(&s.name);
        for v in &s.values {
            text.push_str(&format!(",{v:.8e}"));
        }
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The quick-mode figure digests, one per registry experiment. A change
/// that moves any figure value must update its pin here on purpose.
const FIGURE_DIGESTS: &[(&str, u64)] = &[
    ("table1", 0xda07c0b80ad95929),
    ("fig2a", 0xe07b403cb2bd392e),
    ("fig2b", 0x58d2daf2e8c083d2),
    ("fig3", 0x6439c448b18ca9c4),
    ("fig4a", 0xf87cd044018ee4f1),
    ("fig4b", 0xe4e7eb2a65143a1e),
    ("fig5a", 0x9de21fe7abc7bdae),
    ("fig5b", 0xb9cefbcf0df1302a),
    ("fig6a", 0xa83c9c8bd3deb599),
    ("fig6b", 0x1b42d83542bf807b),
    ("ratio_check", 0xaa7cbe90adc12262),
    ("ablate_lp_backend", 0xc31be7c916fd974e),
    ("ablate_rounding", 0xb3f7759ade0627d1),
    ("ablate_rebalance", 0x2058beb0084160f3),
    ("ablate_contention", 0x43cb498a6c0371d1),
    ("ext_nash", 0xe7021a9230b9184d),
    ("ext_battery", 0xedb306622523608f),
    ("ext_mobility", 0xae09c103170e2eeb),
    ("ext_online", 0x25646af422a1f097),
    ("ext_partial", 0x2eb943d40667d63b),
    ("ext_arrivals", 0x2fcfc2f672e53ce1),
    ("scale", 0x3dfe1b671e6c3883),
];

/// The headline guarantee: every registered experiment, from a cold
/// cache, is bit-identical between one worker thread and four, and equal
/// to its pinned digest.
#[test]
fn figures_are_bit_identical_serial_vs_parallel() {
    let _guard = threads_lock();
    let opts = ExperimentOptions::quick();
    let mut digests = Vec::new();
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
        digests.push((id, figure_digest(&serial)));
    }
    par::set_threads(0);
    assert_eq!(digests, FIGURE_DIGESTS, "figure digests");
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
