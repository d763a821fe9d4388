//! # dsmec-core — task assignment for Data-Shared MEC systems
//!
//! A full reproduction of the algorithms in *Task Assignment Algorithms
//! in Data Shared Mobile Edge Computing Systems* (Cheng, Chen, Li, Gao —
//! ICDCS 2019), built on the [`mec_sim`] substrate:
//!
//! * **LP-HTA** ([`hta::LpHta`]) — the paper's LP-relaxation algorithm
//!   for the NP-complete Holistic Task Assignment problem, with its
//!   Theorem-2/Corollary-1 ratio-bound certificates attached to every run;
//! * **DTA-Workload / DTA-Number** ([`dta`]) — the two greedy data
//!   divisions for divisible tasks, plus the Section IV.C rearrangement
//!   pipeline that replaces raw-data movement with descriptors and
//!   partial results;
//! * **Comparators** — `HGOS`, `AllToC`, `AllOffload` as in Section V,
//!   plus exact branch-and-bound references for small instances.
//!
//! ```
//! use dsmec_core::costs::CostTable;
//! use dsmec_core::hta::{HtaAlgorithm, LpHta, AllToC};
//! use dsmec_core::metrics::evaluate_assignment;
//! use mec_sim::workload::ScenarioConfig;
//!
//! let s = ScenarioConfig::paper_defaults(7).generate()?;
//! let costs = CostTable::build(&s.system, &s.tasks)?;
//!
//! let smart = LpHta::paper().assign(&s.system, &s.tasks, &costs)?;
//! let naive = AllToC.assign(&s.system, &s.tasks, &costs)?;
//!
//! let m1 = evaluate_assignment(&s.tasks, &costs, &smart)?;
//! let m2 = evaluate_assignment(&s.tasks, &costs, &naive)?;
//! assert!(m1.total_energy < m2.total_energy);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assignment;
pub mod capacity;
pub mod costs;
pub mod dta;
pub mod error;
pub mod hta;
pub mod metrics;
pub mod repair;

pub use assignment::{Assignment, Decision};
pub use costs::CostTable;
pub use error::AssignError;
pub use hta::{HtaAlgorithm, LpHta};
pub use metrics::{evaluate_assignment, Metrics};
pub use repair::{execute_with_repair, repair_coverage, ChaosRunReport, RepairPolicy};
