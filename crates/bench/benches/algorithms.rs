//! Timing benches of the assignment algorithms themselves: LP-HTA (with
//! and without the exact fast path), the comparators,
//! the exact branch-and-bound, and the DTA divisions.
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
    // The whole pipeline at the paper's default scale.
    let s = DivisibleScenarioConfig::paper_defaults(8500)
        .generate()
        .unwrap();
    h.bench("dta/pipeline_workload_100_tasks", || {
        run_dta(&s, DtaConfig::workload()).unwrap()
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_lp_hta(&mut h);
    bench_comparators(&mut h);
    bench_exact(&mut h);
    bench_dta(&mut h);
    h.finish();
}
