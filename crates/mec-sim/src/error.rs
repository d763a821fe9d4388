//! Error types for the `mec-sim` crate.

use crate::topology::{DeviceId, StationId};
use std::error::Error;
use std::fmt;

/// Errors raised while assembling or querying a MEC system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MecError {
    /// Referenced a device that does not exist.
    UnknownDevice(DeviceId),
    /// Referenced a base station that does not exist.
    UnknownStation(StationId),
    /// A system must contain at least one base station.
    NoStations,
    /// A system must contain at least one mobile device.
    NoDevices,
    /// A workload parameter was out of its valid range.
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// An entity index does not fit a `u32`-packed index structure such
    /// as `data::OwnersIndex` (DESIGN.md §11).
    IndexOverflow {
        /// Which index space overflowed.
        what: &'static str,
        /// The offending index.
        index: usize,
    },
}

impl fmt::Display for MecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MecError::UnknownDevice(id) => write!(f, "unknown device {id}"),
            MecError::UnknownStation(id) => write!(f, "unknown base station {id}"),
            MecError::NoStations => write!(f, "a MEC system needs at least one base station"),
            MecError::NoDevices => write!(f, "a MEC system needs at least one mobile device"),
            MecError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            MecError::IndexOverflow { what, index } => {
                write!(f, "{what} {index} does not fit a u32 index")
            }
        }
    }
}

impl Error for MecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_ids() {
        let e = MecError::UnknownDevice(DeviceId(3));
        assert!(e.to_string().contains("device"));
        let e = MecError::InvalidParameter {
            name: "tasks_total",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("tasks_total"));
    }
}
