//! Shape tests for the reproduced figures: the absolute numbers depend on
//! our simulator, but the *qualitative* relationships the paper reports
//! (who wins, how curves move) must hold. Each test runs the real figure
//! runner in quick mode and checks the paper's claims about it.

use mec_bench::figures::{
    ablate_contention, ablate_lp_backend, ablate_rebalance, fig2a, fig2b, fig3, fig4a, fig4b,
    fig5a, fig5b, fig6a, fig6b, ratio_check, table1, ExperimentOptions,
};
use mec_bench::table::Figure;

fn quick() -> ExperimentOptions {
    ExperimentOptions::quick()
}

fn series<'f>(fig: &'f Figure, name: &str) -> &'f [f64] {
    &fig.series_named(name)
        .unwrap_or_else(|| panic!("{} missing series {name}", fig.id))
        .values
}

fn all_below(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

#[test]
fn fig2a_lp_hta_wins_on_energy() {
    let fig = fig2a(&quick()).unwrap();
    let lp = series(&fig, "LP-HTA");
    for other in ["AllToC", "AllOffload"] {
        assert!(
            lp.iter()
                .zip(series(&fig, other))
                .all(|(a, b)| *a < 0.5 * b),
            "LP-HTA must be far below {other}"
        );
    }
    // HGOS is competitive but never much better.
    let hgos = series(&fig, "HGOS");
    assert!(lp.iter().zip(hgos).all(|(a, b)| *a <= b * 1.05));
    // Energy grows with the task count for every algorithm.
    for s in &fig.series {
        assert!(
            s.values.windows(2).all(|w| w[0] < w[1]),
            "{} not increasing",
            s.name
        );
    }
}

#[test]
fn fig2b_lp_hta_wins_as_data_grows() {
    let fig = fig2b(&quick()).unwrap();
    let lp = series(&fig, "LP-HTA");
    // HGOS may edge ahead slightly at light load by ignoring deadlines
    // (the paper's Fig. 3 point); LP-HTA stays within a few percent.
    assert!(lp
        .iter()
        .zip(series(&fig, "HGOS"))
        .all(|(a, b)| *a <= b * 1.05));
    assert!(all_below(lp, series(&fig, "AllToC")));
    assert!(all_below(lp, series(&fig, "AllOffload")));
    assert!(
        lp.windows(2).all(|w| w[0] < w[1]),
        "energy grows with data size"
    );
}

#[test]
fn fig3_unsatisfied_ordering() {
    let fig = fig3(&quick()).unwrap();
    let lp = series(&fig, "LP-HTA");
    let hgos = series(&fig, "HGOS");
    let offload = series(&fig, "AllOffload");
    assert!(all_below(lp, hgos), "LP-HTA <= HGOS everywhere");
    assert!(all_below(lp, offload), "LP-HTA <= AllOffload everywhere");
    assert!(lp.iter().all(|&r| r < 0.2), "LP-HTA rate stays small");
    assert!(
        offload.iter().all(|&r| r > 0.3),
        "AllOffload misses many deadlines"
    );
}

#[test]
fn fig4a_latency_ordering() {
    let fig = fig4a(&quick()).unwrap();
    let lp = series(&fig, "LP-HTA");
    assert!(all_below(lp, series(&fig, "AllToC")));
    assert!(all_below(lp, series(&fig, "AllOffload")));
    assert!(lp
        .iter()
        .zip(series(&fig, "HGOS"))
        .all(|(a, b)| *a <= b * 1.02));
}

#[test]
fn fig4b_latency_grows_with_data() {
    let fig = fig4b(&quick()).unwrap();
    for s in &fig.series {
        assert!(
            s.values.windows(2).all(|w| w[0] <= w[1] * 1.05),
            "{} latency should grow (roughly) with input size",
            s.name
        );
    }
    let lp = series(&fig, "LP-HTA");
    assert!(all_below(lp, series(&fig, "AllToC")));
}

#[test]
fn fig5a_dta_saves_energy_with_growing_gap() {
    let fig = fig5a(&quick()).unwrap();
    let lp = series(&fig, "LP-HTA");
    let w = series(&fig, "DTA-Workload");
    let n = series(&fig, "DTA-Number");
    assert!(all_below(w, lp));
    assert!(all_below(n, lp));
    // The absolute saving grows with the number of tasks.
    let gap_first = lp[0] - w[0];
    let gap_last = lp[lp.len() - 1] - w[w.len() - 1];
    assert!(gap_last > gap_first, "paper: savings grow with task count");
}

#[test]
fn fig5b_dta_energy_falls_with_result_size() {
    let fig = fig5b(&quick()).unwrap();
    let w = series(&fig, "DTA-Workload");
    // Over the proportional models (0.4X → 0.05X) energy must fall.
    assert!(w[0] > w[1] && w[1] > w[2] && w[2] > w[3]);
    // LP-HTA barely moves: it ships raw data either way.
    let lp = series(&fig, "LP-HTA");
    let spread = (lp[0] - lp[3]).abs() / lp[0];
    assert!(spread < 0.15, "LP-HTA spread {spread} should be small");
    // DTA stays below LP-HTA everywhere.
    assert!(all_below(w, lp));
}

#[test]
fn fig6a_workload_processes_faster() {
    let fig = fig6a(&quick()).unwrap();
    let w = series(&fig, "DTA-Workload");
    let n = series(&fig, "DTA-Number");
    assert!(
        w.iter().zip(n).all(|(a, b)| *a < *b),
        "balanced division must process faster"
    );
}

#[test]
fn fig6b_number_involves_fewer_devices() {
    let fig = fig6b(&quick()).unwrap();
    let w = series(&fig, "DTA-Workload");
    let n = series(&fig, "DTA-Number");
    assert!(
        n.iter().zip(w).all(|(a, b)| *a < 0.5 * b),
        "set-cover division must involve far fewer devices"
    );
}

#[test]
fn table1_is_the_paper_table() {
    let fig = table1(&quick()).unwrap();
    assert_eq!(fig.x_ticks, vec!["4G", "Wi-Fi"]);
    let up = series(&fig, "upload (Mbps)");
    assert!((up[0] - 5.85).abs() < 1e-9);
    assert!((up[1] - 12.88).abs() < 1e-9);
    let pt = series(&fig, "P^T (W)");
    assert!((pt[0] - 7.32).abs() < 1e-9 && (pt[1] - 15.7).abs() < 1e-9);
}

#[test]
fn ratio_check_within_certificates() {
    let fig = ratio_check(&quick()).unwrap();
    let ratio = series(&fig, "empirical ratio");
    let bound = series(&fig, "certificate");
    for (r, b) in ratio.iter().zip(bound) {
        if r.is_finite() {
            assert!(*r >= 1.0 - 1e-9);
            assert!(r <= b, "empirical {r} above certificate {b}");
        }
    }
}

#[test]
fn lp_backends_agree_on_energy() {
    let fig = ablate_lp_backend(&quick()).unwrap();
    let revised = series(&fig, "LP objective (revised)");
    let dense = series(&fig, "LP objective (dense)");
    assert!(!revised.is_empty());
    for (r, d) in revised.iter().zip(dense) {
        assert!(*r > 0.0, "relaxation energy is positive: {r}");
        assert!(
            (r - d).abs() <= 1e-6 * d.abs(),
            "backends disagree: revised {r} vs dense {d}"
        );
    }
    for name in ["time ms (revised)", "time ms (dense)"] {
        assert!(series(&fig, name).iter().all(|t| *t >= 0.0), "{name}");
    }
}

#[test]
fn rebalance_sits_between_greedy_and_exact() {
    let fig = ablate_rebalance(&quick()).unwrap();
    let greedy = series(&fig, "greedy");
    let refined = series(&fig, "rebalanced");
    let exact = series(&fig, "exact");
    for ((g, r), e) in greedy.iter().zip(refined).zip(exact) {
        assert!(r <= g, "rebalancing never hurts");
        assert!(e <= r, "exact is the floor");
    }
}

#[test]
fn contention_stretches_latency() {
    let fig = ablate_contention(&quick()).unwrap();
    let free = series(&fig, "analytic mean latency");
    let queued = series(&fig, "queued mean latency");
    let makespan = series(&fig, "queued makespan");
    for ((f, q), m) in free.iter().zip(queued).zip(makespan) {
        assert!(q >= f);
        assert!(m >= q);
    }
}

#[test]
fn every_figure_writes_csv() {
    let dir = std::env::temp_dir().join("dsmec_csv_smoke");
    let fig = table1(&quick()).unwrap();
    fig.write_csv(&dir).unwrap();
    let content = std::fs::read_to_string(dir.join("table1.csv")).unwrap();
    assert!(content.lines().count() >= 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ext_nash_sits_between_lp_hta_and_chaos() {
    let fig = mec_bench::figures::ext_nash(&quick()).unwrap();
    let lp_e = series(&fig, "E LP-HTA");
    let nash_e = series(&fig, "E Nash");
    let lp_u = series(&fig, "unsat LP-HTA");
    let nash_u = series(&fig, "unsat Nash");
    for ((le, ne), (lu, nu)) in lp_e.iter().zip(nash_e).zip(lp_u.iter().zip(nash_u)) {
        assert!(
            *le <= ne * 1.05,
            "LP-HTA energy within 5% of Nash or better"
        );
        assert!(lu <= nu, "LP-HTA never has a worse unsatisfied rate");
    }
}

#[test]
fn ext_battery_shows_the_papers_tradeoff() {
    let fig = mec_bench::figures::ext_battery(&quick()).unwrap();
    let rounds = series(&fig, "rounds to first depletion");
    let untouched = series(&fig, "devices <0.1% drained");
    // Order: [LP-HTA raw, DTA-Workload, DTA-Number].
    assert!(
        rounds[1] > rounds[0],
        "balanced DTA outlives raw-data LP-HTA"
    );
    assert!(
        rounds[1] >= rounds[2],
        "balanced drain maximizes fleet lifetime"
    );
    assert!(
        untouched[2] > untouched[1],
        "DTA-Number spares the majority of devices (the paper's motivation)"
    );
}

#[test]
fn ext_mobility_staleness_price_appears_with_churn() {
    let fig = mec_bench::figures::ext_mobility(&quick()).unwrap();
    let de = series(&fig, "dE stale-fresh");
    let churn = series(&fig, "mean churn vs epoch 0");
    // No movement, no regret.
    assert!(de[0].abs() < 1e-9);
    assert!(churn[0].abs() < 1e-9);
    // Staleness never helps.
    assert!(de.iter().all(|&v| v >= -1e-6));
    // Movement happens when requested.
    assert!(churn[churn.len() - 1] > 0.05);
}

#[test]
fn ext_online_offline_wins_on_satisfaction() {
    let fig = mec_bench::figures::ext_online(&quick()).unwrap();
    let on = series(&fig, "unsat online-greedy");
    let off = series(&fig, "unsat offline");
    for (o, f) in on.iter().zip(off) {
        assert!(f <= o, "offline LP-HTA satisfies at least as many tasks");
    }
}

#[test]
fn ext_partial_saves_energy_but_lacks_the_cloud_fallback() {
    let fig = mec_bench::figures::ext_partial(&quick()).unwrap();
    let eb = series(&fig, "E binary LP-HTA");
    let ep = series(&fig, "E partial split");
    let ub = series(&fig, "unsat binary");
    let up = series(&fig, "unsat partial");
    for (((b, p), bu), pu) in eb.iter().zip(ep).zip(ub.iter()).zip(up) {
        // Fractional splitting is unconstrained by capacities and mixes
        // the two cheap sites optimally: it never needs more energy.
        assert!(*p <= b * 1.001, "partial energy {p} > binary {b}");
        // But it only knows device + station; binary LP-HTA's cloud
        // fallback satisfies at least as many tasks.
        assert!(*bu <= pu + 1e-9, "binary unsat {bu} > partial {pu}");
    }
}

#[test]
fn ext_arrivals_staggering_relieves_contention() {
    let fig = mec_bench::figures::ext_arrivals(&quick()).unwrap();
    let analytic = series(&fig, "analytic");
    let batch = series(&fig, "batch + contention");
    let open = series(&fig, "poisson + contention");
    for ((a, b), o) in analytic.iter().zip(batch).zip(open) {
        assert!(b >= a, "batch contention never beats analytic");
        assert!(*o >= a - 1e-9, "open contention never beats analytic");
    }
    // Quick mode sweeps a fast rate then a slow rate: the slow release
    // must be closer to the analytic floor than the batch is.
    let last = open.len() - 1;
    assert!(
        open[last] - analytic[last] <= batch[last] - analytic[last] + 1e-9,
        "slow Poisson release should relieve queueing"
    );
}
