//! The `repro_quick` workload: every registry experiment in quick mode,
//! pass after pass, as a researcher regenerates the paper's figures.
//!
//! Each pass starts from a cold experiment cache. A traced run also
//! rebuilds the `scale` experiment — the bulk of a pass — from its public
//! calls, timing each, and checks that the rebuild reproduces the figure.

use crate::metrics::{fnv, median, ms_since, peak_rss_mb, ratio, Run, FNV_OFFSET};
use djson::Json;
use dsmec_core::dta::{divide_balanced, divide_min_devices};
use dsmec_core::error::AssignError;
use mec_bench::cache;
use mec_bench::figures::{registry, ExperimentOptions, Runner};
use mec_bench::table::Figure;
use mec_sim::workload::{DivisibleScenarioConfig, ScenarioConfig};
use std::time::{Duration, Instant};

/// One pass over the registry.
struct Pass {
    seconds: f64,
    /// Wall time of each runner, in registry order.
    runner_ms: Vec<f64>,
    /// CSV digest of each figure (`None` when the runner failed).
    digests: Vec<Option<u64>>,
    /// The `scale` figure's values, to compare with the traced rebuild.
    scale: Option<Vec<f64>>,
    cache: cache::CacheStats,
}

/// FNV-1a over the figure's CSV, leaving out wall-clock series (named
/// `time ms`) — the identity rule of `repro --perf`.
fn digest(fig: &Figure) -> u64 {
    let mut kept = fig.clone();
    kept.series.retain(|s| !s.name.contains("time ms"));
    fnv(FNV_OFFSET, kept.to_csv().as_bytes())
}

/// Runs every experiment once from a cold cache. An experiment fails when
/// it errors or when its digest differs from `reference`'s.
fn pass(
    runners: &[(&'static str, Runner)],
    opts: &ExperimentOptions,
    reference: Option<&[Option<u64>]>,
    label: &str,
    run: &mut Run,
) -> Pass {
    cache::clear();
    let started = Instant::now();
    let mut runner_ms = Vec::with_capacity(runners.len());
    let mut digests = Vec::with_capacity(runners.len());
    let mut scale = None;
    for (i, &(id, runner)) in runners.iter().enumerate() {
        let t = Instant::now();
        let result = runner(opts);
        runner_ms.push(ms_since(t));
        run.attempted += 1;
        let fig = match result {
            Ok(fig) => fig,
            Err(e) => {
                run.fail(1, format!("{label}: {id}: {e}"));
                digests.push(None);
                continue;
            }
        };
        let d = digest(&fig);
        if reference.is_some_and(|r| r.get(i) != Some(&Some(d))) {
            run.fail(1, format!("{label}: {id}: CSV differs from the first pass"));
        }
        digests.push(Some(d));
        if id == "scale" {
            scale = Some(fig.series.iter().flat_map(|s| s.values.clone()).collect());
        }
    }
    Pass {
        seconds: started.elapsed().as_secs_f64(),
        runner_ms,
        digests,
        scale,
        cache: cache::stats(),
    }
}

/// Timings of the rebuilt `scale` experiment's calls, in ms.
#[derive(Default)]
struct ScaleCalls {
    generate: Vec<f64>,
    pricing: Vec<f64>,
    universe: Vec<f64>,
    balanced: Vec<f64>,
    min_devices: Vec<f64>,
    /// Whole rebuild, generation included.
    total: Vec<f64>,
}

/// `figures::scale` in quick mode, one timed public call at a time; returns
/// the figure's values. The caller compares them with the figure, which is
/// what keeps this copy of scale's inputs in step with the experiment.
fn rebuild_scale(seed: u64, calls: &mut ScaleCalls) -> Result<Vec<f64>, AssignError> {
    let started = Instant::now();
    let mut cfg = ScenarioConfig::paper_defaults(seed);
    cfg.num_stations = 200;
    cfg.devices_per_station = 500;
    cfg.tasks_total = 100_000;
    let mut dcfg = DivisibleScenarioConfig::paper_defaults(seed);
    dcfg.base.num_stations = 200;
    dcfg.base.devices_per_station = 500;
    dcfg.num_items = 2048;
    dcfg.tasks_total = 1200;
    dcfg.items_per_task = (4, 20);
    let (s, d) = (cfg.generate()?, dcfg.generate()?);
    calls.generate.push(ms_since(started));

    let t = Instant::now();
    let costs = mec_bench::pricing::build_cost_table(&s.system, &s.tasks)?;
    calls.pricing.push(ms_since(t));
    let feasible = s
        .tasks
        .iter()
        .enumerate()
        .filter(|(i, t)| costs.task(*i).cheapest_feasible(t.deadline).is_some())
        .count();
    let t = Instant::now();
    let required = d.required_universe();
    calls.universe.push(ms_since(t));
    let t = Instant::now();
    let w = divide_balanced(&d.universe, &required)?;
    calls.balanced.push(ms_since(t));
    let t = Instant::now();
    let n = divide_min_devices(&d.universe, &required)?;
    calls.min_devices.push(ms_since(t));
    calls.total.push(ms_since(started));
    Ok(vec![
        costs.len() as f64,
        feasible as f64,
        required.len() as f64,
        w.involved_devices() as f64,
        n.involved_devices() as f64,
        w.max_share_len() as f64,
    ])
}

/// One warm-up pass, then timed passes until `budget` has passed (at least
/// two). The warm-up is the run's set-up: the first pass of the process,
/// which pays for every lazy initialisation, and the digest reference of
/// the rest. In a smoke run it is also the only timed pass.
pub fn run(seed: u64, threads: usize, budget: Duration, trace: bool, smoke: bool) -> Run {
    let opts = ExperimentOptions {
        seeds: vec![seed],
        quick: true,
    };
    let runners = registry();
    let mut run = Run::default();
    let mut reference: Option<Vec<Option<u64>>> = None;
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup_s = 0.0;
    let mut peak_rss = 0.0;
    let mut calls = ScaleCalls::default();
    let mut mismatches = 0u64;
    let min_passes = if smoke { 1 } else { 2 };
    let mut started = Instant::now();
    while passes.len() < min_passes || started.elapsed() < budget {
        let label = format!("pass {}", passes.len());
        // Rebuilt before the pass, so its inputs never share memory with it.
        let rebuilt = trace.then(|| rebuild_scale(seed, &mut calls));
        let p = pass(&runners, &opts, reference.as_deref(), &label, &mut run);
        match rebuilt {
            Some(Ok(values)) if p.scale.as_ref() != Some(&values) => {
                mismatches += 1;
                run.fail(
                    1,
                    format!("{label}: rebuilt scale {values:?} vs {:?}", p.scale),
                );
            }
            Some(Err(e)) => run.fail(1, format!("{label}: scale rebuild: {e}")),
            _ => {}
        }
        if reference.is_none() {
            reference = Some(p.digests.clone());
            setup_s = p.seconds;
            // Read once, as serve does after its first session.
            peak_rss = peak_rss_mb();
            if !smoke {
                started = Instant::now();
                continue;
            }
        }
        let runner_ms = p.runner_ms.iter().map(|&ms| Json::from(ms)).collect();
        run.sessions.push(Json::Obj(vec![
            ("pass_s".into(), Json::from(p.seconds)),
            ("runner_ms".into(), Json::Arr(runner_ms)),
        ]));
        passes.push(p);
    }

    // Every pass runs the same experiments on the same inputs (the digest
    // check proves it), so an experiment's own cost is its fastest time over
    // the passes, for the reason serve takes each epoch's fastest time. A
    // pass's cost is the sum; the slowest experiment is the tail.
    let runner_ms = |i: usize| passes.iter().map(move |p| p.runner_ms[i]);
    let own_ms: Vec<f64> = (0..runners.len())
        .map(|i| runner_ms(i).fold(f64::INFINITY, f64::min))
        .collect();
    let pass_ms: f64 = own_ms.iter().sum();
    let n = passes.len();
    run.set("setup_s", setup_s, 1);
    run.set(
        "throughput_per_s",
        ratio(runners.len() as f64, pass_ms / 1e3),
        n,
    );
    run.set("latency_p50_ms", pass_ms, n);
    run.set(
        "latency_tail_ms",
        own_ms.iter().copied().fold(0.0, f64::max),
        n,
    );
    run.set("peak_rss_mb", peak_rss, 1);

    if trace {
        mec_bench::par::set_threads(threads);
        let label = format!("threads={threads} pass");
        let parallel = pass(&runners, &opts, reference.as_deref(), &label, &mut run);
        mec_bench::par::set_threads(1);
        let pass_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
        run.set("par.speedup", ratio(median(&pass_s), parallel.seconds), 1);

        // The rebuild runs once per pass, so it is compared with the
        // median `scale` run.
        let mut scale_ms = 0.0;
        for (i, ((id, _), &ms)) in runners.iter().zip(&own_ms).enumerate() {
            run.set(&format!("figures.{id}_ms"), ms, n);
            if *id == "scale" {
                scale_ms = median(&runner_ms(i).collect::<Vec<_>>());
            }
        }
        run.set(
            "scale.generate_ms",
            median(&calls.generate),
            calls.generate.len(),
        );
        run.set(
            "pricing.scale_ms",
            median(&calls.pricing),
            calls.pricing.len(),
        );
        run.set(
            "dta.universe_ms",
            median(&calls.universe),
            calls.universe.len(),
        );
        run.set(
            "dta.divide_balanced_ms",
            median(&calls.balanced),
            calls.balanced.len(),
        );
        run.set(
            "dta.divide_min_devices_ms",
            median(&calls.min_devices),
            calls.min_devices.len(),
        );
        let stat = |f: fn(&cache::CacheStats) -> u64| {
            median(
                &passes
                    .iter()
                    .map(|p| f(&p.cache) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        run.set("cache.scenario_hits", stat(|c| c.scenario_hits), n);
        run.set("cache.scenario_misses", stat(|c| c.scenario_misses), n);
        run.set("cache.lp_hits", stat(|c| c.lp_hits), n);
        run.set("cache.lp_misses", stat(|c| c.lp_misses), n);
        run.set(
            "trace.replay_mismatches",
            mismatches as f64,
            calls.total.len(),
        );
        run.set(
            "trace.overhead_frac",
            ratio(median(&calls.total), scale_ms) - 1.0,
            calls.total.len(),
        );
    }
    run
}
