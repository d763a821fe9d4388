//! The metric catalog every run reports against, the record one workload
//! run fills in, and the few statistics the workloads share.

use mec_bench::timing::percentile;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`, in report order. Every workload
/// reports all of them; README.md gives each one's meaning per workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the serve epoch, the `scale` experiment and the
/// benchmark's own replay checks: `(name, unit)`.
const LAYERS: [(&str, &str); 41] = [
    ("stream.generate_s", "s"),
    ("fault.plan_ms", "ms"),
    ("fault.dropouts", "count"),
    ("pricing.ms_per_epoch", "ms"),
    ("pricing.share", "fraction"),
    ("shard.ms_per_epoch", "ms"),
    ("solve.wall_ms_per_epoch", "ms"),
    ("solve.busy_ms_per_epoch", "ms"),
    ("solve.share", "fraction"),
    ("solve.cluster_p50_us", "us"),
    ("solve.cluster_p99_us", "us"),
    ("solve.warm_us_mean", "us"),
    ("solve.cold_us_mean", "us"),
    ("solve.lp_iterations_per_epoch", "count"),
    ("solve.warm_attempts", "count"),
    ("solve.warm_hits", "count"),
    ("solve.warm_rejections", "count"),
    ("solve.warm_hit_rate", "fraction"),
    ("solve.greedy_seeded", "count"),
    ("commit.us_per_epoch", "us"),
    ("par.speedup", "ratio"),
    ("round.ms_per_epoch", "ms"),
    ("round.share", "fraction"),
    ("round.repair_cancelled", "count"),
    ("serve.repair_ms_per_epoch", "ms"),
    ("serve.resourced", "count"),
    ("serve.churn_cancelled", "count"),
    ("serve.residual_us_per_epoch", "us"),
    ("serve.energy_gap", "ratio"),
    ("serve.deadline_miss_frac", "fraction"),
    ("scale.generate_ms", "ms"),
    ("pricing.scale_ms", "ms"),
    ("dta.universe_ms", "ms"),
    ("dta.divide_balanced_ms", "ms"),
    ("dta.divide_min_devices_ms", "ms"),
    ("cache.scenario_hits", "count"),
    ("cache.scenario_misses", "count"),
    ("cache.lp_hits", "count"),
    ("cache.lp_misses", "count"),
    ("trace.replay_mismatches", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Every per-layer metric, `(name, unit)`: the fixed layers above plus one
/// `figures.<id>_ms` per registry experiment.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (id, _) in mec_bench::figures::registry() {
        all.push((format!("figures.{id}_ms"), "ms"));
    }
    all
}

/// A measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted: serve epochs, or repro experiment runs.
    pub attempted: u64,
    /// Attempted operations that errored or failed a correctness check.
    pub failed: u64,
    /// One line per failed check, for stderr.
    pub problems: Vec<String>,
    /// Measured metrics by name: end-to-end ones in every run, per-layer
    /// ones in traced runs. Layers a workload never reaches stay absent
    /// and are reported as 0 with 0 samples.
    pub metrics: BTreeMap<String, Value>,
    /// Raw per-session (serve) or per-pass (repro) values for `--out`.
    pub sessions: Vec<djson::Json>,
}

impl Run {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics
            .insert(name.to_string(), Value { value, samples });
    }

    /// Records a failed check.
    pub fn fail(&mut self, failures: u64, problem: String) {
        self.failed += failures;
        self.problems.push(problem);
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, or 0 when nothing was measured.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a hash over `bytes` — the digest serve's
/// fingerprints use.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}
