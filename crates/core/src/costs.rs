//! Precomputed cost tables: `t_ijl`/`E_ijl` for every task × site, shared
//! by all assignment algorithms so the Section II formulas are evaluated
//! exactly once per scenario. The storage is a flat [`CostMatrix`] — two
//! contiguous stride-3 `Vec<f64>`s filled by [`mec_sim::cost::evaluate`]
//! per task (DESIGN.md §11) — so chunked parallel builders (see the bench
//! layer) can assemble a table from independently priced task ranges.

use crate::error::AssignError;
use mec_sim::cost::{CostMatrix, SiteCost, TaskCosts};
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::MecSystem;
use mec_sim::units::Seconds;

/// Cost of every task at every site, indexed like the task slice it was
/// built from.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    matrix: CostMatrix,
}

impl CostTable {
    /// Prices every task in `tasks` against `system`, serially. The
    /// bench layer's chunked parallel builder produces a bit-identical
    /// table via [`CostTable::from_matrix`].
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (invalid tasks, unknown devices),
    /// first task first.
    pub fn build(system: &MecSystem, tasks: &[HolisticTask]) -> Result<CostTable, AssignError> {
        let _timer = mec_obs::span("cost/build");
        Ok(CostTable {
            matrix: CostMatrix::build(system, tasks)?,
        })
    }

    /// Wraps an already-built matrix (e.g. one assembled from parallel
    /// chunks) as a table.
    #[must_use]
    pub fn from_matrix(matrix: CostMatrix) -> CostTable {
        CostTable { matrix }
    }

    /// Number of priced tasks.
    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    /// True iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// Full per-site costs of task `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; use [`CostTable::try_task`] for
    /// indices that are not already validated.
    pub fn task(&self, idx: usize) -> TaskCosts {
        self.try_task(idx)
            .unwrap_or_else(|e| panic!("CostTable::task: {e}"))
    }

    /// Full per-site costs of task `idx`, with a typed error out of
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::IndexOutOfRange`] when `idx` is not a row.
    pub fn try_task(&self, idx: usize) -> Result<TaskCosts, AssignError> {
        self.matrix
            .task_costs(idx)
            .ok_or(AssignError::IndexOutOfRange {
                what: "cost table",
                index: idx,
                len: self.len(),
            })
    }

    /// Cost of task `idx` at `site`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; use [`CostTable::try_at`] for
    /// indices that are not already validated.
    pub fn at(&self, idx: usize, site: ExecutionSite) -> SiteCost {
        self.try_at(idx, site)
            .unwrap_or_else(|e| panic!("CostTable::at: {e}"))
    }

    /// Cost of task `idx` at `site`, with a typed error out of range.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::IndexOutOfRange`] when `idx` is not a row.
    pub fn try_at(&self, idx: usize, site: ExecutionSite) -> Result<SiteCost, AssignError> {
        self.matrix
            .site(idx, site)
            .ok_or(AssignError::IndexOutOfRange {
                what: "cost table",
                index: idx,
                len: self.len(),
            })
    }

    /// Whether task `idx` meets `deadline` when run at `site`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn feasible(&self, idx: usize, site: ExecutionSite, deadline: Seconds) -> bool {
        self.at(idx, site).time <= deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::cost::evaluate;
    use mec_sim::workload::ScenarioConfig;

    #[test]
    fn table_matches_direct_evaluation() {
        let s = ScenarioConfig::paper_defaults(2).generate().unwrap();
        let table = CostTable::build(&s.system, &s.tasks).unwrap();
        assert_eq!(table.len(), s.tasks.len());
        assert!(!table.is_empty());
        for (i, t) in s.tasks.iter().enumerate() {
            let direct = evaluate(&s.system, t).unwrap();
            for site in ExecutionSite::ALL {
                assert_eq!(table.at(i, site), direct.at(site));
                // Bit-identity, not mere closeness.
                assert_eq!(
                    table.at(i, site).time.value().to_bits(),
                    direct.at(site).time.value().to_bits()
                );
                assert_eq!(
                    table.at(i, site).energy.value().to_bits(),
                    direct.at(site).energy.value().to_bits()
                );
            }
            assert_eq!(table.task(i), direct);
            assert!(table.feasible(i, ExecutionSite::Device, Seconds::new(f64::INFINITY)));
        }
    }

    #[test]
    fn build_rejects_invalid_tasks() {
        let s = ScenarioConfig::paper_defaults(2).generate().unwrap();
        let mut tasks = s.tasks.clone();
        tasks[0].deadline = Seconds::ZERO;
        assert!(CostTable::build(&s.system, &tasks).is_err());
    }

    #[test]
    fn out_of_range_access_is_typed_not_a_panic() {
        let s = ScenarioConfig::paper_defaults(2).generate().unwrap();
        let table = CostTable::build(&s.system, &s.tasks).unwrap();
        let n = table.len();
        let err = table.try_task(n).unwrap_err();
        assert!(
            matches!(err, AssignError::IndexOutOfRange { index, len, .. } if index == n && len == n),
            "{err}"
        );
        let err = table.try_at(n + 7, ExecutionSite::Cloud).unwrap_err();
        assert!(matches!(err, AssignError::IndexOutOfRange { .. }), "{err}");
        assert!(table.try_task(n - 1).is_ok());
        assert!(table.try_at(0, ExecutionSite::Device).is_ok());
    }
}
