//! # mec-sim — a Data-Shared Mobile Edge Computing system substrate
//!
//! Everything "system" about the ICDCS 2019 paper *Task Assignment
//! Algorithms in Data Shared Mobile Edge Computing Systems* lives here:
//! the three-level topology of Fig. 1, the computation and transmission
//! cost models of Section II, the data-sharing model of Section IV, the
//! Section V.A experiment settings as seeded workload generators, and a
//! discrete-event executor that runs assignments with or without resource
//! contention.
//!
//! The companion crate `dsmec-core` implements the paper's assignment
//! *algorithms* on top of this substrate.
//!
//! ```
//! use mec_sim::workload::ScenarioConfig;
//! use mec_sim::cost::evaluate;
//! use mec_sim::task::ExecutionSite;
//!
//! // A Section V.A scenario: 5 stations × 10 devices, 100 tasks.
//! let scenario = ScenarioConfig::paper_defaults(42).generate()?;
//! let costs = evaluate(&scenario.system, &scenario.tasks[0])?;
//! for (site, c) in costs.iter() {
//!     println!("{site}: {:.3} s, {:.3} J", c.time.value(), c.energy.value());
//! }
//! assert!(costs.at(ExecutionSite::Cloud).time > costs.at(ExecutionSite::Device).time);
//! # Ok::<(), mec_sim::MecError>(())
//! ```

// `!(x > 0.0)`-style guards are deliberate NaN catches in validation.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod backhaul;
pub mod battery;
pub mod compute;
pub mod cost;
pub mod data;
pub mod error;
pub mod mobility;
pub mod radio;
pub mod sim;
pub mod stream;
pub mod task;
pub mod topology;
pub mod transfer;
pub mod units;
pub mod workload;

pub use error::MecError;
pub use task::{ExecutionSite, HolisticTask, TaskId};
pub use topology::{DeviceId, MecSystem, StationId};
pub use units::{Bytes, Hertz, Joules, Seconds};
