//! Timing benches of the assignment algorithms themselves: LP-HTA (with
//! and without the exact fast path, and its rounding alone at fleet
//! scale), the comparators,
//! the exact branch-and-bound, and the DTA divisions (up to the `scale`
//! experiment's 10⁵ devices).
//!
//! Plain `harness = false` binary on [`mec_bench::timing`]; filter cases
//! with `cargo bench --bench algorithms -- <substring>`.

use dsmec_core::costs::CostTable;
use dsmec_core::dta::{divide_balanced, divide_min_devices, run_dta, DtaConfig};
use dsmec_core::hta::{AllOffload, ExactBnB, Hgos, HtaAlgorithm, LpHta};
use mec_bench::timing::Harness;
use mec_sim::workload::{DivisibleScenarioConfig, ScenarioConfig};

fn holistic(tasks: usize) -> (mec_sim::workload::Scenario, CostTable) {
    let mut cfg = ScenarioConfig::paper_defaults(9000 + tasks as u64);
    cfg.tasks_total = tasks;
    let s = cfg.generate().expect("generation");
    let costs = CostTable::build(&s.system, &s.tasks).expect("pricing");
    (s, costs)
}

fn bench_lp_hta(h: &mut Harness) {
    for tasks in [100usize, 200, 400] {
        let (s, costs) = holistic(tasks);
        let paper = LpHta::paper();
        h.bench(&format!("lp_hta/paper/{tasks}"), || {
            paper.assign(&s.system, &s.tasks, &costs).unwrap()
        });
        let full = LpHta::paper().without_fast_path();
        h.bench(&format!("lp_hta/full/{tasks}"), || {
            full.assign(&s.system, &s.tasks, &costs).unwrap()
        });
    }
}

/// Steps 3–6 alone at the 10⁵-device fleet's shape: 100 clusters of 1000
/// devices and 1000 tasks each. Every cluster exceeds `lp_cluster_limit`,
/// so the fractional input is the greedy seed and the time is rounding
/// plus the deadline and capacity repairs.
fn bench_round_greedy(h: &mut Harness) {
    const NAME: &str = "lp_hta/round_greedy/100x1000";
    if !h.wants(NAME) {
        return;
    }
    let mut cfg = ScenarioConfig::paper_defaults(9100);
    cfg.num_stations = 100;
    cfg.devices_per_station = 1000;
    cfg.tasks_total = 100_000;
    let s = cfg.generate().expect("generation");
    let costs = CostTable::build(&s.system, &s.tasks).expect("pricing");
    let algo = LpHta::paper().without_fast_path();
    let fractional = algo
        .solve_relaxation(&s.system, &s.tasks, &costs)
        .expect("greedy seed");
    h.bench(NAME, || {
        algo.round_with(&s.system, &s.tasks, &costs, &fractional)
            .unwrap()
    });
}

fn bench_comparators(h: &mut Harness) {
    let (s, costs) = holistic(300);
    h.bench("comparators/hgos", || {
        Hgos::default().assign(&s.system, &s.tasks, &costs).unwrap()
    });
    h.bench("comparators/all_offload", || {
        AllOffload.assign(&s.system, &s.tasks, &costs).unwrap()
    });
}

fn bench_exact(h: &mut Harness) {
    let mut cfg = ScenarioConfig::paper_defaults(77);
    cfg.num_stations = 2;
    cfg.devices_per_station = 3;
    cfg.tasks_total = 14;
    let s = cfg.generate().unwrap();
    let costs = CostTable::build(&s.system, &s.tasks).unwrap();
    h.bench("exact_bnb_14_tasks", || {
        ExactBnB::default()
            .solve(&s.system, &s.tasks, &costs)
            .unwrap()
    });
}

fn bench_dta(h: &mut Harness) {
    for items in [500usize, 1000, 2000] {
        let mut cfg = DivisibleScenarioConfig::paper_defaults(8000 + items as u64);
        cfg.num_items = items;
        cfg.tasks_total = 100;
        let s = cfg.generate().unwrap();
        let required = s.required_universe();
        h.bench(&format!("dta/divide_balanced/{items}"), || {
            divide_balanced(&s.universe, &required).unwrap()
        });
        h.bench(&format!("dta/divide_min_devices/{items}"), || {
            divide_min_devices(&s.universe, &required).unwrap()
        });
    }
    bench_dta_scale(h);
    // The whole pipeline at the paper's default scale.
    let s = DivisibleScenarioConfig::paper_defaults(8500)
        .generate()
        .unwrap();
    h.bench("dta/pipeline_workload_100_tasks", || {
        run_dta(&s, DtaConfig::workload()).unwrap()
    });
}

/// Both DTA divisions on the `scale` experiment's quick-mode universe at
/// seed 101: 200 × 500 = 10⁵ devices, 2048 items, 1200 tasks.
fn bench_dta_scale(h: &mut Harness) {
    const NAMES: [&str; 2] = ["dta/divide_balanced/scale", "dta/divide_min_devices/scale"];
    if !NAMES.iter().any(|name| h.wants(name)) {
        return;
    }
    let mut cfg = DivisibleScenarioConfig::paper_defaults(101);
    cfg.base.num_stations = 200;
    cfg.base.devices_per_station = 500;
    cfg.num_items = 2048;
    cfg.tasks_total = 1200;
    cfg.items_per_task = (4, 20);
    let s = cfg.generate().expect("generation");
    let required = s.required_universe();
    h.bench(NAMES[0], || {
        divide_balanced(&s.universe, &required).unwrap()
    });
    h.bench(NAMES[1], || {
        divide_min_devices(&s.universe, &required).unwrap()
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_lp_hta(&mut h);
    bench_round_greedy(&mut h);
    bench_comparators(&mut h);
    bench_exact(&mut h);
    bench_dta(&mut h);
    h.finish();
}
