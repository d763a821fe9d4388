//! Free C2/C3 capacity while tasks are placed one at a time.
//!
//! The paper caps the resources hosted on device `i` at `max_i` (C2) and
//! on a base station at `max_S` (C3); the remote cloud is uncapacitated
//! (Section II.C). [`Headroom`] is the one ledger every greedy placement
//! loop keeps of what is still free: each loop asks whether a site
//! [`fits`](Headroom::fits) a task, [`take`](Headroom::take)s the task's
//! resources there, and — in the loops that move tasks —
//! [`give_back`](Headroom::give_back)s them. The arithmetic is one
//! subtraction or addition per placement, in placement order, so a loop
//! that keeps its order of placements keeps every free value bit for bit.
//!
//! [`crate::metrics::capacity_usage`] is deliberately *not* built on this
//! type: it sums an assignment's usage from scratch and is the
//! independent checker the tests hold every algorithm to.

use crate::error::AssignError;
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::{DeviceId, MecSystem, StationId};

/// What one task draws on when placed: its owner's C2 budget or its
/// owner's station's C3 budget, by `need` bytes. Outside this crate
/// only [`Headroom::claim`] makes one, so `station` is `device`'s station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// The task's owner device (the C2 budget at the device level).
    pub(crate) device: DeviceId,
    /// The owner's base station (the C3 budget at the station level).
    pub(crate) station: StationId,
    /// The task's resource requirement `r_ij` in bytes.
    pub(crate) need: f64,
}

/// Free device (C2) and station (C3) capacity of one system, starting
/// full and updated as tasks are placed.
#[derive(Debug)]
pub struct Headroom<'a> {
    system: &'a MecSystem,
    device: Vec<f64>,
    station: Vec<f64>,
}

impl<'a> Headroom<'a> {
    /// Every device and station of `system` at its full capacity.
    #[must_use]
    pub fn new(system: &'a MecSystem) -> Headroom<'a> {
        Headroom {
            system,
            device: system
                .devices()
                .iter()
                .map(|d| d.max_resource.value())
                .collect(),
            station: system
                .stations()
                .iter()
                .map(|s| s.max_resource.value())
                .collect(),
        }
    }

    /// The capacity `task` draws on.
    ///
    /// # Errors
    ///
    /// Returns the substrate's unknown-device error when `task`'s owner
    /// is not in the system.
    pub fn claim(&self, task: &HolisticTask) -> Result<Claim, AssignError> {
        Ok(Claim {
            device: task.owner,
            station: self.system.station_of(task.owner)?,
            need: task.resource.value(),
        })
    }

    /// The free capacity `site` takes `claim` from; `None` at the cloud.
    fn free_mut(&mut self, site: ExecutionSite, claim: &Claim) -> Option<&mut f64> {
        match site {
            ExecutionSite::Device => Some(&mut self.device[claim.device.0]),
            ExecutionSite::Station => Some(&mut self.station[claim.station.0]),
            ExecutionSite::Cloud => None,
        }
    }

    /// Whether `site` still has `claim.need` free; the cloud always fits.
    #[must_use]
    pub fn fits(&self, site: ExecutionSite, claim: &Claim) -> bool {
        match site {
            ExecutionSite::Device => self.device[claim.device.0] >= claim.need,
            ExecutionSite::Station => self.station[claim.station.0] >= claim.need,
            ExecutionSite::Cloud => true,
        }
    }

    /// Whether placing `claim` at `site` leaves at least `reserve` × the
    /// site's total capacity free: `free − need ≥ reserve · total`. The
    /// cloud always passes.
    #[must_use]
    pub fn keeps_reserve(&self, site: ExecutionSite, claim: &Claim, reserve: f64) -> bool {
        let (free, total) = match site {
            ExecutionSite::Device => (
                self.device[claim.device.0],
                self.system.devices()[claim.device.0].max_resource,
            ),
            ExecutionSite::Station => (
                self.station[claim.station.0],
                self.system.stations()[claim.station.0].max_resource,
            ),
            ExecutionSite::Cloud => return true,
        };
        free - claim.need >= reserve * total.value()
    }

    /// Places `claim` at `site`: its budget loses `claim.need`. Nothing is
    /// checked, so a caller may overcommit on purpose.
    pub fn take(&mut self, site: ExecutionSite, claim: &Claim) {
        if let Some(free) = self.free_mut(site, claim) {
            *free -= claim.need;
        }
    }

    /// Undoes [`Self::take`]: `site`'s budget regains `claim.need`.
    pub fn give_back(&mut self, site: ExecutionSite, claim: &Claim) {
        if let Some(free) = self.free_mut(site, claim) {
            *free += claim.need;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::workload::ScenarioConfig;

    #[test]
    fn take_and_give_back_track_each_budget_and_the_cloud_always_fits() {
        let s = ScenarioConfig::paper_defaults(3).generate().unwrap();
        let mut room = Headroom::new(&s.system);
        let task = s.tasks[0];
        let claim = room.claim(&task).unwrap();
        let max_i = s.system.device(task.owner).unwrap().max_resource.value();
        let max_s = s
            .system
            .station(claim.station)
            .unwrap()
            .max_resource
            .value();
        let whole = Claim {
            need: max_i,
            ..claim
        };
        assert!(room.fits(ExecutionSite::Device, &whole));
        room.take(ExecutionSite::Device, &claim);
        assert!(!room.fits(ExecutionSite::Device, &whole));
        assert!(room.fits(ExecutionSite::Station, &claim));
        room.give_back(ExecutionSite::Device, &claim);
        assert!(room.fits(ExecutionSite::Device, &whole));

        let huge = Claim {
            need: max_s * 2.0,
            ..claim
        };
        assert!(!room.fits(ExecutionSite::Station, &huge));
        assert!(room.fits(ExecutionSite::Cloud, &huge));
        room.take(ExecutionSite::Cloud, &huge);
        assert!(room.fits(ExecutionSite::Station, &claim));
    }

    #[test]
    fn reserve_test_holds_back_a_fraction_of_the_total() {
        let s = ScenarioConfig::paper_defaults(3).generate().unwrap();
        let room = Headroom::new(&s.system);
        let claim = room.claim(&s.tasks[0]).unwrap();
        let max_i = s.system.device(claim.device).unwrap().max_resource.value();
        let half = Claim {
            need: max_i / 2.0,
            ..claim
        };
        assert!(room.keeps_reserve(ExecutionSite::Device, &half, 0.5));
        assert!(!room.keeps_reserve(ExecutionSite::Device, &half, 0.6));
        assert!(room.keeps_reserve(ExecutionSite::Cloud, &half, 0.99));
    }

    #[test]
    fn unknown_owner_is_a_typed_error() {
        let s = ScenarioConfig::paper_defaults(3).generate().unwrap();
        let room = Headroom::new(&s.system);
        let mut task = s.tasks[0];
        task.owner = DeviceId(s.system.devices().len());
        assert!(room.claim(&task).is_err());
    }
}
