//! Warm-start correctness of the chain the serve loop runs: chaining
//! point k+1's cluster solves from point k's bases through
//! `LpHta::solve_cluster` must reproduce the cold objective at every
//! point. The same holds across a churned serve session, where most
//! chained bases no longer fit and the solves start from the cluster's
//! greedy basis instead.

use dsmec_core::costs::CostTable;
use dsmec_core::hta::{cluster_task_indices, LpHta, WarmBases};
use mec_sim::sim::ChaosConfig;
use mec_sim::stream::StreamConfig;
use mec_sim::units::{Bytes, Seconds};
use mec_sim::workload::ScenarioConfig;

/// A fig2b-shaped size sweep: the LP dimensions are constant across
/// points, so the warm chain actually hits.
const POINTS: [f64; 3] = [1000.0, 2000.0, 3000.0];
const SEEDS: [u64; 2] = [101, 102];

fn sweep_cfg(kb: f64, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_defaults(seed);
    cfg.tasks_total = 60;
    cfg.max_input_kb = kb;
    cfg
}

#[test]
fn warm_chains_match_cold_objectives_across_a_sweep() {
    // Point k+1 from point k's bases: same LP objective as a cold solve,
    // at every point of the sweep, for every seed.
    let algo = LpHta::paper().without_fast_path();
    for &seed in &SEEDS {
        let mut warm = WarmBases::new();
        let (mut attempts, mut hits) = (0u32, 0u32);
        for &kb in &POINTS {
            let s = sweep_cfg(kb, seed).generate().unwrap();
            let costs = CostTable::build(&s.system, &s.tasks).unwrap();
            let cold = algo.solve_relaxation(&s.system, &s.tasks, &costs).unwrap();
            let mut chained = 0.0;
            for (station, idxs) in cluster_task_indices(&s.system, &s.tasks).unwrap() {
                let prev = warm.basis(station);
                attempts += u32::from(prev.is_some());
                let cs = algo
                    .solve_cluster(&s.system, &s.tasks, &costs, station, &idxs, prev)
                    .unwrap()
                    .expect("every cluster has tasks");
                hits += u32::from(cs.warm_used);
                match cs.basis {
                    Some(basis) => warm.store(station, basis),
                    None => warm.clear(station),
                }
                chained += cs.objective;
            }
            let scale = 1.0 + cold.lp_objective.abs();
            assert!(
                (chained - cold.lp_objective).abs() < 1e-6 * scale,
                "seed {seed}, {kb} kB: warm objective {chained} vs cold {}",
                cold.lp_objective
            );
        }
        assert!(
            attempts >= 1 && hits >= 1,
            "seed {seed}: constant-shape sweep should warm-start \
             (attempts {attempts}, hits {hits})"
        );
    }
}

/// The benchmark's `serve_churn` topology (20 stations × 20 devices,
/// 500 tasks per epoch dealt over 400 devices, chaos seed `12648430`):
/// every epoch reshapes the clusters and dropouts cancel owners, so most
/// chained bases are rejected. Every cluster of every epoch, solved
/// through a `WarmBases` chain, must reach the cold objective, and after
/// epoch 0 more than nine in ten chained solves must start warm.
#[test]
fn churned_warm_chains_match_cold_solves_over_a_serve_session() {
    const EPOCHS: usize = 30;
    let mut scenario = ScenarioConfig::paper_defaults(42);
    scenario.num_stations = 20;
    scenario.devices_per_station = 20;
    let stream = StreamConfig {
        scenario,
        epochs: EPOCHS,
        batch: 500,
        rate_per_second: 50.0,
    }
    .generate()
    .unwrap();
    let horizon = Seconds::new(stream.horizon().value().max(1.0));
    let plan = ChaosConfig::from_seed(12_648_430)
        .generate(&stream.system, horizon)
        .unwrap();

    let algo = LpHta::paper().without_fast_path();
    let mut warm = WarmBases::new();
    let (mut attempts, mut hits, mut rejections) = (0u32, 0u32, 0u32);
    for batch in &stream.batches {
        // Serve's ingest: dead owners' tasks are cancelled, data from a
        // dead source is dropped (serve re-sources it; either keeps the
        // task valid).
        let now = batch.close_time();
        let is_dead = plan.dead_at(now, stream.system.num_devices());
        let live: Vec<_> = batch
            .tasks
            .iter()
            .filter(|t| !is_dead[t.owner.0])
            .map(|t| {
                let mut t = *t;
                if t.external_source.is_some_and(|src| is_dead[src.0]) {
                    t.external_source = None;
                    t.external_size = Bytes::ZERO;
                }
                t
            })
            .collect();
        let costs = mec_bench::pricing::build_cost_table(&stream.system, &live).unwrap();
        for (station, idxs) in cluster_task_indices(&stream.system, &live).unwrap() {
            let prev = warm.basis(station).cloned();
            let solve = |basis| {
                algo.solve_cluster(&stream.system, &live, &costs, station, &idxs, basis)
                    .unwrap()
                    .expect("every cluster has tasks")
            };
            let chained = solve(prev.as_ref());
            let cold = solve(None);
            let scale = 1.0 + cold.objective.abs();
            assert!(
                (chained.objective - cold.objective).abs() <= 1e-9 * scale,
                "station {station} at {now:?}: chained {} vs cold {}",
                chained.objective,
                cold.objective
            );
            if prev.is_some() {
                attempts += 1;
                hits += u32::from(chained.warm_used);
                rejections += u32::from(chained.warm_rejected);
            }
            match chained.basis {
                Some(basis) => warm.store(station, basis),
                None => warm.clear(station),
            }
        }
    }
    assert!(
        rejections * 3 > attempts,
        "churn should break many chains ({rejections} of {attempts} rejected)"
    );
    let hit_rate = f64::from(hits) / f64::from(attempts);
    assert!(
        hit_rate > 0.9,
        "warm hit rate {hit_rate:.3} ({hits} of {attempts}) after epoch 0"
    );
}
