//! Plain wall-clock timing for the `harness = false` bench targets.
//!
//! Replaces the criterion dependency with an `Instant`-based measurement:
//! one warm-up call, then timed iterations until a per-case budget is
//! spent, reporting the mean, minimum, median (p50) and tail (p95) per
//! iteration.
//!
//! A positional argument filters cases by substring — the CLI shape
//! `cargo bench -- <filter>` already had under criterion — and flags
//! cargo forwards (such as `--bench`) are ignored. `DSMEC_BENCH_MS`
//! overrides the per-case time budget in milliseconds.

use std::hint::black_box;
use std::time::Instant;

/// One timed case: wall-clock statistics over `iters` iterations.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Case name as printed (group/case/param).
    pub name: String,
    /// Timed iterations (excluding the warm-up call).
    pub iters: u32,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Median iteration, nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile iteration, nanoseconds. With one sample this is
    /// that sample (nearest-rank percentiles are NaN-free for any
    /// non-empty input).
    pub p95_ns: f64,
}

/// Nearest-rank percentile of `samples` (`p` in `[0, 100]`), tolerant of
/// unsorted input. Every result is an actual sample, so one-sample runs
/// yield that sample for every percentile — never NaN. An empty slice
/// returns 0.0 (nothing was measured).
///
/// The rank is clamped into `[1, n]` *before* indexing, so out-of-domain
/// `p` values (negative, above 100, even NaN — `f64::max`/`min` ignore a
/// NaN operand) degrade to the extreme samples instead of panicking or
/// reading out of bounds.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: ceil(p/100 * n), clamped to [1, n], 1-indexed. The
    // float clamp happens before the usize cast so a huge/negative/NaN
    // rank can never leave the index range.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0).min(n as f64) as usize;
    sorted[rank - 1]
}

/// Collects timed cases and prints one aligned row per case.
#[derive(Debug)]
pub struct Harness {
    filter: Option<String>,
    budget_ns: f64,
    printed_header: bool,
    results: Vec<Measurement>,
}

impl Harness {
    /// Builds a harness from the process arguments (see module docs).
    #[must_use]
    pub fn from_args() -> Self {
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            if !arg.starts_with('-') {
                filter = Some(arg);
            }
        }
        let budget_ms: f64 = std::env::var("DSMEC_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300.0);
        Harness {
            filter,
            budget_ns: budget_ms * 1e6,
            printed_header: false,
            results: Vec::new(),
        }
    }

    /// Whether the CLI filter selects `name` — lets a case skip costly
    /// setup that [`Self::bench`] would throw away.
    #[must_use]
    pub fn wants(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|filter| name.contains(filter.as_str()))
    }

    /// Times `f`, printing a row unless the CLI filter excludes `name`.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        if !self.wants(name) {
            return;
        }
        // Warm-up call, outside the statistics.
        black_box(f());
        let mut samples: Vec<f64> = Vec::new();
        let mut total = 0.0;
        // At least one warm iteration always runs: a budget smaller than
        // a single iteration (e.g. `DSMEC_BENCH_MS=0`) must still produce
        // a real measurement, not a zero-sample NaN row.
        loop {
            let t = Instant::now();
            black_box(f());
            let ns = t.elapsed().as_secs_f64() * 1e9;
            total += ns;
            samples.push(ns);
            if total >= self.budget_ns || samples.len() >= 100_000 {
                break;
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        let iters = samples.len() as u32;
        let m = Measurement {
            name: name.to_string(),
            iters,
            mean_ns: total / f64::from(iters),
            min_ns: samples.iter().copied().fold(f64::INFINITY, f64::min),
            p50_ns: percentile(&samples, 50.0),
            p95_ns: percentile(&samples, 95.0),
        };
        if !self.printed_header {
            println!(
                "{:<44} {:>12} {:>12} {:>12} {:>12} {:>7}",
                "bench", "mean", "min", "p50", "p95", "iters"
            );
            self.printed_header = true;
        }
        println!(
            "{:<44} {:>12} {:>12} {:>12} {:>12} {:>7}",
            m.name,
            fmt_ns(m.mean_ns),
            fmt_ns(m.min_ns),
            fmt_ns(m.p50_ns),
            fmt_ns(m.p95_ns),
            m.iters
        );
        self.results.push(m);
    }

    /// Consumes the harness, returning every measurement taken.
    pub fn finish(self) -> Vec<Measurement> {
        self.results
    }
}

/// Human-friendly duration: picks ns/µs/ms/s by magnitude.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_and_filters() {
        let mut h = Harness {
            filter: Some("keep".into()),
            budget_ns: 1e5,
            printed_header: false,
            results: Vec::new(),
        };
        h.bench("keep/fast", || 1 + 1);
        h.bench("drop/slow", || panic!("filtered cases must not run"));
        let out = h.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "keep/fast");
        assert!(out[0].iters >= 1);
        assert!(out[0].min_ns <= out[0].mean_ns);
        assert!(out[0].min_ns <= out[0].p50_ns);
        assert!(out[0].p50_ns <= out[0].p95_ns);
    }

    #[test]
    fn zero_budget_still_records_one_iteration() {
        // Regression: a budget below one iteration's cost used to skip
        // the timing loop entirely, reporting 0 iters and a NaN mean.
        // The percentile columns inherit the guarantee: one sample, no
        // NaN anywhere.
        let mut h = Harness {
            filter: None,
            budget_ns: 0.0,
            printed_header: false,
            results: Vec::new(),
        };
        h.bench("tiny/budget", || std::hint::black_box(2 + 2));
        let out = h.finish();
        assert_eq!(out.len(), 1);
        assert!(out[0].iters >= 1);
        assert!(out[0].mean_ns.is_finite());
        assert!(out[0].min_ns.is_finite());
        assert!(out[0].p50_ns.is_finite());
        assert!(out[0].p95_ns.is_finite());
        if out[0].iters == 1 {
            assert_eq!(out[0].p50_ns, out[0].min_ns);
            assert_eq!(out[0].p95_ns, out[0].min_ns);
        }
    }

    #[test]
    fn percentile_is_nearest_rank_and_nan_free() {
        let one = [7.5];
        assert_eq!(percentile(&one, 50.0), 7.5);
        assert_eq!(percentile(&one, 95.0), 7.5);
        // 10 samples 1..=10: p50 → rank 5 → 5.0; p95 → rank ceil(9.5)=10.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 95.0), 10.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        // Unsorted input is handled; empty input is defined as 0.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    /// Nearest-rank property test against a sorted-scan oracle: for
    /// sample sizes 1..64 and arbitrary `p` (including out-of-domain
    /// values), the result equals the element the rank definition picks
    /// from a sorted copy, with the rank clamped to `[1, n]`.
    #[test]
    fn percentile_matches_sorted_scan_oracle() {
        detrand::prop::run_cases("percentile_nearest_rank", 128, |rng| {
            let n = rng.gen_range(1..64usize);
            let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
            let p = match rng.gen_range(0..4u64) {
                0 => rng.gen_range(0.0..100.0),
                1 => rng.gen_range(-50.0..0.0),
                2 => rng.gen_range(100.0..250.0),
                _ => f64::NAN,
            };
            let got = percentile(&samples, p);
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let raw = ((p / 100.0) * n as f64).ceil();
            let rank = if raw.is_nan() {
                1.0
            } else {
                raw.clamp(1.0, n as f64)
            };
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let expect = sorted[rank as usize - 1];
            detrand::prop_assert_eq!(got, expect);
            // The result is always one of the inputs — the nearest-rank
            // guarantee that keeps one-sample runs NaN-free.
            detrand::prop_assert!(samples.contains(&got));
            Ok(())
        });
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
        assert_eq!(fmt_ns(1.5e9), "1.50 s");
    }
}
