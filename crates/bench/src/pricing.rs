//! Chunked parallel cost-table pricing (DESIGN.md §11).
//!
//! [`dsmec_core::costs::CostTable::build`] prices tasks serially through
//! [`mec_sim::cost::evaluate`]; this module splits the tasks into fixed
//! [`CHUNK_TASKS`]-sized ranges, prices each range with the same
//! [`CostMatrix::build`] under [`crate::par::par_map`], and concatenates
//! the chunk matrices back in task order.
//!
//! Errors stay deterministic: every chunk runs to its own first error,
//! and the chunks are inspected in task order, so the first failing
//! chunk's error — the first error in task order — is returned whatever
//! the thread count. (`par_map_result` aborts early and could report a
//! *later* failure first.)
//!
//! Bit-identity with the serial build holds by construction: both paths
//! price each task through the same `evaluate`, and fixed chunk
//! boundaries + in-order concatenation reproduce the serial row order.

use dsmec_core::costs::CostTable;
use dsmec_core::error::AssignError;
use mec_sim::cost::CostMatrix;
use mec_sim::task::HolisticTask;
use mec_sim::topology::MecSystem;

/// Tasks per parallel chunk. Fixed (not derived from thread count) so the
/// chunk boundaries — and thus the concatenation order — are identical
/// for every `--threads` setting.
pub const CHUNK_TASKS: usize = 8192;

/// Prices every task in `tasks`, fanning [`CostMatrix::build`] out over
/// [`CHUNK_TASKS`]-sized chunks. Produces a table bit-identical to
/// [`CostTable::build`] on the same inputs.
///
/// # Errors
///
/// Exactly the serial build's errors, first task first.
pub fn build_cost_table(
    system: &MecSystem,
    tasks: &[HolisticTask],
) -> Result<CostTable, AssignError> {
    let _timer = mec_obs::span("cost/build");
    let bounds: Vec<(usize, usize)> = (0..tasks.len())
        .step_by(CHUNK_TASKS)
        .map(|lo| (lo, (lo + CHUNK_TASKS).min(tasks.len())))
        .collect();
    let chunks = crate::par::par_map(&bounds, |&(lo, hi)| {
        CostMatrix::build(system, &tasks[lo..hi])
    });
    let mut matrix = CostMatrix::with_capacity(tasks.len());
    for chunk in chunks {
        matrix.append(&mut chunk.map_err(AssignError::Mec)?);
    }
    Ok(CostTable::from_matrix(matrix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::task::ExecutionSite;
    use mec_sim::topology::DeviceId;
    use mec_sim::units::Seconds;
    use mec_sim::workload::{Scenario, ScenarioConfig};

    /// Runs `build_cost_table` at each thread count in `threads`.
    fn priced_at(
        threads: &[usize],
        system: &MecSystem,
        tasks: &[HolisticTask],
    ) -> Vec<Result<CostTable, AssignError>> {
        let _t = crate::par::THREADS_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        threads
            .iter()
            .map(|&n| {
                crate::par::set_threads(n);
                let table = build_cost_table(system, tasks);
                crate::par::set_threads(0);
                table
            })
            .collect()
    }

    fn assert_bit_identical(a: &CostTable, b: &CostTable, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: row count");
        for i in 0..a.len() {
            for site in ExecutionSite::ALL {
                let (x, y) = (a.at(i, site), b.at(i, site));
                assert_eq!(
                    (x.time.value().to_bits(), x.energy.value().to_bits()),
                    (y.time.value().to_bits(), y.energy.value().to_bits()),
                    "{what}: task {i} at {site}"
                );
            }
        }
    }

    fn scenario(seed: u64, tasks: usize) -> Scenario {
        let mut cfg = ScenarioConfig::paper_defaults(seed);
        cfg.tasks_total = tasks;
        cfg.generate().unwrap()
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let s = scenario(7, 300); // one chunk
        let serial = CostTable::build(&s.system, &s.tasks).unwrap();
        for (threads, parallel) in [1, 4].iter().zip(priced_at(&[1, 4], &s.system, &s.tasks)) {
            assert_bit_identical(&parallel.unwrap(), &serial, &format!("threads={threads}"));
        }
    }

    #[test]
    fn chunk_boundaries_do_not_reorder_rows() {
        // Two full chunks plus a partial third.
        let s = scenario(8, 2 * CHUNK_TASKS + 77);
        let serial = CostTable::build(&s.system, &s.tasks).unwrap();
        for (threads, parallel) in [1, 4].iter().zip(priced_at(&[1, 4], &s.system, &s.tasks)) {
            assert_bit_identical(&parallel.unwrap(), &serial, &format!("threads={threads}"));
        }
    }

    #[test]
    fn first_error_in_task_order_wins() {
        let s = scenario(9, 2 * CHUNK_TASKS + 77);
        let mut tasks = s.tasks.clone();
        // One invalid task in chunk 2 and a different failure in chunk 1;
        // chunk 1's error must be reported.
        tasks[2 * CHUNK_TASKS + 5].deadline = Seconds::ZERO;
        tasks[CHUNK_TASKS + 3].owner = DeviceId(usize::MAX);
        let serial = CostTable::build(&s.system, &tasks).unwrap_err().to_string();
        assert!(serial.contains("unknown device"), "{serial}");
        for (threads, parallel) in [1, 4].iter().zip(priced_at(&[1, 4], &s.system, &tasks)) {
            let parallel = parallel.unwrap_err().to_string();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }
}
