//! Timing benches of the substrates: the production LP backend and the
//! dense simplex oracle on growing problem sizes, the data-sharing bitset,
//! the cost model and the discrete-event executor.
//!
//! Plain `harness = false` binary on [`mec_bench::timing`]; filter cases
//! with `cargo bench --bench substrate -- <substring>`.

use dsmec_core::costs::CostTable;
use dsmec_core::hta::HtaAlgorithm;
use linprog::simplex::solve_simplex;
use linprog::{solve, ConstraintSense, LpProblem};
use mec_bench::timing::Harness;
use mec_sim::data::{DataItemId, ItemSet};
use mec_sim::sim::{simulate, Contention};
use mec_sim::workload::ScenarioConfig;

/// A dense random-ish LP with box bounds, `rows` coupling rows and
/// `3 * rows` variables — the shape LP-HTA produces.
fn synthetic_lp(rows: usize) -> LpProblem {
    let n = 3 * rows;
    let mut lp = LpProblem::new(n);
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let c: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
    lp.set_objective(c).unwrap();
    for r in 0..rows {
        let terms: Vec<(usize, f64)> = (0..n)
            .filter(|j| (j + r) % 7 < 3)
            .map(|j| (j, 0.5 + next()))
            .collect();
        lp.add_constraint(terms, ConstraintSense::Le, 5.0 + next() * 10.0)
            .unwrap();
    }
    // Multiple-choice equality per variable triple, like C4.
    for k in 0..rows {
        lp.add_constraint(
            vec![(3 * k, 1.0), (3 * k + 1, 1.0), (3 * k + 2, 1.0)],
            ConstraintSense::Eq,
            1.0,
        )
        .unwrap();
    }
    for v in 0..n {
        lp.set_bounds(v, 0.0, 1.0).unwrap();
    }
    lp
}

fn bench_linprog(h: &mut Harness) {
    for rows in [20usize, 60, 120] {
        let lp = synthetic_lp(rows);
        h.bench(&format!("linprog/revised/{rows}"), || solve(&lp).unwrap());
        h.bench(&format!("linprog/simplex/{rows}"), || {
            solve_simplex(&lp).unwrap()
        });
    }
}

fn bench_itemset(h: &mut Harness) {
    let capacity = 10_000;
    let a = ItemSet::from_ids(capacity, (0..capacity).step_by(3).map(DataItemId));
    let b = ItemSet::from_ids(capacity, (0..capacity).step_by(5).map(DataItemId));
    h.bench("itemset/intersection_10k", || a.intersection(&b));
    h.bench("itemset/intersection_len_10k", || a.intersection_len(&b));
    h.bench("itemset/iterate_10k", || {
        a.iter().map(|d| d.0).sum::<usize>()
    });
}

fn bench_cost_and_sim(h: &mut Harness) {
    let mut cfg = ScenarioConfig::paper_defaults(4242);
    cfg.tasks_total = 200;
    let s = cfg.generate().unwrap();
    h.bench("cost_table_200_tasks", || {
        CostTable::build(&s.system, &s.tasks).unwrap()
    });
    let costs = CostTable::build(&s.system, &s.tasks).unwrap();
    let a = dsmec_core::hta::LpHta::paper()
        .assign(&s.system, &s.tasks, &costs)
        .unwrap();
    let exec = a.to_executable(&s.tasks).unwrap();
    h.bench("des/simulate_free_200", || {
        simulate(&s.system, &exec, Contention::None).unwrap()
    });
    h.bench("des/simulate_queued_200", || {
        simulate(&s.system, &exec, Contention::Exclusive).unwrap()
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_linprog(&mut h);
    bench_itemset(&mut h);
    bench_cost_and_sim(&mut h);
    h.finish();
}
