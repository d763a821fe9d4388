//! Battery model: per-device energy attribution and fleet lifetime.
//!
//! The paper's Section IV.B motivates DTA-Number with "saving energy for
//! the majority of mobile devices". The system-level energy metric cannot
//! see that distinction — it needs *per-device* attribution: who paid for
//! each upload, download and computation. [`attribute_energy`] decomposes
//! a task's energy onto the devices involved (backhaul energy is
//! infrastructure and charged to nobody), and [`BatteryFleet`] folds
//! attributions into remaining charge and lifetime statistics.

use crate::error::MecError;
use crate::task::{ExecutionSite, HolisticTask};
use crate::topology::{DeviceId, MecSystem};
use crate::transfer;
use crate::units::Joules;

/// Energy one device spends on one task execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceShare {
    /// The paying device.
    pub device: DeviceId,
    /// Battery energy it spends.
    pub energy: Joules,
}

/// Splits `E_ijl` onto the devices that pay it: the external-data source
/// pays its upload, the owner pays its radio traffic and (for local
/// execution) the computation. Backhaul energy is infrastructure and not
/// attributed.
///
/// The attributed device total never exceeds the system total
/// `E_ijl` (property-tested), the difference being the backhaul term.
///
/// # Errors
///
/// Propagates task validation and topology errors.
pub fn attribute_energy(
    system: &MecSystem,
    task: &HolisticTask,
    site: ExecutionSite,
) -> Result<Vec<DeviceShare>, MecError> {
    task.validate()?;
    let owner = system.device(task.owner)?;
    let alpha = task.local_size;
    let beta = task.external_size;
    let input = task.input_size();
    let result = system.result_model.result_size(input);

    let mut shares: Vec<DeviceShare> = Vec::new();
    let mut pay = |device: DeviceId, energy: Joules| {
        if energy > Joules::ZERO {
            match shares.iter_mut().find(|s| s.device == device) {
                Some(s) => s.energy += energy,
                None => shares.push(DeviceShare { device, energy }),
            }
        }
    };

    // The external source always pays its upload of β.
    if let Some(src) = task.external_source {
        let src_dev = system.device(src)?;
        pay(src, transfer::upload_energy(&src_dev.link, beta));
    }

    match site {
        ExecutionSite::Device => {
            if task.external_source.is_some() {
                pay(task.owner, transfer::download_energy(&owner.link, beta));
            }
            pay(
                task.owner,
                system
                    .cycle_model
                    .device_energy(input, task.complexity, owner.cpu),
            );
        }
        ExecutionSite::Station | ExecutionSite::Cloud => {
            pay(task.owner, transfer::upload_energy(&owner.link, alpha));
            pay(task.owner, transfer::download_energy(&owner.link, result));
        }
    }
    Ok(shares)
}

/// A fleet of device batteries.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryFleet {
    capacity: Vec<Joules>,
    remaining: Vec<Joules>,
}

impl BatteryFleet {
    /// Creates a fleet with one battery of `capacity` per device.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidParameter`] for a non-positive capacity.
    pub fn uniform(system: &MecSystem, capacity: Joules) -> Result<BatteryFleet, MecError> {
        if !(capacity.value() > 0.0) {
            return Err(MecError::InvalidParameter {
                name: "capacity",
                reason: format!("{capacity} must be positive"),
            });
        }
        let n = system.num_devices();
        Ok(BatteryFleet {
            capacity: vec![capacity; n],
            remaining: vec![capacity; n],
        })
    }

    /// Number of batteries.
    pub fn len(&self) -> usize {
        self.remaining.len()
    }

    /// True iff the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Remaining charge of one device.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::UnknownDevice`] for a bad id.
    pub fn remaining(&self, device: DeviceId) -> Result<Joules, MecError> {
        self.remaining
            .get(device.0)
            .copied()
            .ok_or(MecError::UnknownDevice(device))
    }

    /// Drains shares; charge floors at zero.
    pub fn drain(&mut self, shares: &[DeviceShare]) {
        for s in shares {
            if let Some(r) = self.remaining.get_mut(s.device.0) {
                *r = (*r - s.energy).max(Joules::ZERO);
            }
        }
    }

    /// Devices whose battery is exhausted.
    pub fn depleted(&self) -> Vec<DeviceId> {
        self.remaining
            .iter()
            .enumerate()
            .filter(|(_, r)| r.value() <= 0.0)
            .map(|(i, _)| DeviceId(i))
            .collect()
    }

    /// Smallest remaining fraction across the fleet (1.0 = untouched).
    pub fn min_remaining_fraction(&self) -> f64 {
        self.remaining
            .iter()
            .zip(self.capacity.iter())
            .map(|(r, c)| r.value() / c.value())
            .fold(1.0_f64, f64::min)
    }

    /// Number of devices whose drain stayed below `fraction` of capacity.
    pub fn devices_below_drain(&self, fraction: f64) -> usize {
        self.remaining
            .iter()
            .zip(self.capacity.iter())
            .filter(|(r, c)| (c.value() - r.value()) / c.value() < fraction)
            .count()
    }
}

/// One round's per-device drain of a set of executions: every
/// execution's [`attribute_energy`] shares, merged per device in the
/// order devices are first seen.
///
/// # Errors
///
/// Propagates attribution errors.
pub fn round_shares<'t>(
    system: &MecSystem,
    executions: impl IntoIterator<Item = (&'t HolisticTask, ExecutionSite)>,
) -> Result<Vec<DeviceShare>, MecError> {
    let mut round: Vec<DeviceShare> = Vec::new();
    for (task, site) in executions {
        for share in attribute_energy(system, task, site)? {
            match round.iter_mut().find(|s| s.device == share.device) {
                Some(s) => s.energy += share.energy,
                None => round.push(share),
            }
        }
    }
    Ok(round)
}

/// Repeats the per-round drain `round` until the first battery dies;
/// returns the number of completed rounds (fleet lifetime in rounds,
/// capped at `max_rounds`).
pub fn rounds_until_first_depletion(
    fleet: &mut BatteryFleet,
    round: &[DeviceShare],
    max_rounds: usize,
) -> usize {
    for r in 0..max_rounds {
        if !fleet.depleted().is_empty() {
            return r;
        }
        fleet.drain(round);
    }
    max_rounds
}

// JSON codecs (wire-compatible with the former serde derives).
djson::impl_json_struct!(DeviceShare { device, energy });
djson::impl_json_struct!(BatteryFleet {
    capacity,
    remaining
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
    use crate::units::Seconds;
    use crate::workload::ScenarioConfig;

    fn scenario() -> crate::workload::Scenario {
        let mut cfg = ScenarioConfig::paper_defaults(111);
        cfg.tasks_total = 30;
        cfg.generate().unwrap()
    }

    #[test]
    fn attribution_never_exceeds_system_energy() {
        let s = scenario();
        for task in &s.tasks {
            let costs = cost::evaluate(&s.system, task).unwrap();
            for site in ExecutionSite::ALL {
                let shares = attribute_energy(&s.system, task, site).unwrap();
                let attributed: f64 = shares.iter().map(|sh| sh.energy.value()).sum();
                let system_total = costs.at(site).energy.value();
                assert!(
                    attributed <= system_total + 1e-9,
                    "{} at {site}: attributed {attributed} > system {system_total}",
                    task.id
                );
                // Devices pay everything except backhaul, so the gap is
                // exactly the backhaul energy — in particular, for local
                // same-cluster execution the two must be equal.
                if site == ExecutionSite::Device {
                    let cross = task
                        .external_source
                        .map(|src| !s.system.same_cluster(task.owner, src).unwrap())
                        .unwrap_or(false);
                    if !cross {
                        assert!((attributed - system_total).abs() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn offloading_shifts_cost_but_owner_still_pays_radio() {
        let s = scenario();
        let task = s
            .tasks
            .iter()
            .find(|t| t.external_source.is_some())
            .unwrap();
        let local = attribute_energy(&s.system, task, ExecutionSite::Device).unwrap();
        let station = attribute_energy(&s.system, task, ExecutionSite::Station).unwrap();
        let owner_local = local
            .iter()
            .find(|s| s.device == task.owner)
            .unwrap()
            .energy;
        let owner_station = station
            .iter()
            .find(|s| s.device == task.owner)
            .unwrap()
            .energy;
        assert!(owner_local > Joules::ZERO);
        assert!(owner_station > Joules::ZERO);
        // The source pays the same β upload either way.
        let src = task.external_source.unwrap();
        let src_local = local.iter().find(|s| s.device == src).unwrap().energy;
        let src_station = station.iter().find(|s| s.device == src).unwrap().energy;
        assert!((src_local.value() - src_station.value()).abs() < 1e-12);
    }

    #[test]
    fn fleet_drains_and_reports() {
        let s = scenario();
        let mut fleet = BatteryFleet::uniform(&s.system, Joules::new(100.0)).unwrap();
        assert_eq!(fleet.len(), s.system.num_devices());
        assert!(!fleet.is_empty());
        assert_eq!(fleet.min_remaining_fraction(), 1.0);
        fleet.drain(&[DeviceShare {
            device: DeviceId(0),
            energy: Joules::new(40.0),
        }]);
        assert_eq!(fleet.remaining(DeviceId(0)).unwrap(), Joules::new(60.0));
        assert!(fleet.depleted().is_empty());
        assert!((fleet.min_remaining_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(fleet.devices_below_drain(0.5), fleet.len());
        fleet.drain(&[DeviceShare {
            device: DeviceId(0),
            energy: Joules::new(100.0),
        }]);
        assert_eq!(fleet.depleted(), vec![DeviceId(0)]);
        assert!(fleet.remaining(DeviceId(999)).is_err());
    }

    #[test]
    fn lifetime_counts_rounds() {
        let s = scenario();
        let round = round_shares(
            &s.system,
            s.tasks.iter().map(|t| (t, ExecutionSite::Device)),
        )
        .unwrap();
        let mut fleet = BatteryFleet::uniform(&s.system, Joules::new(50.0)).unwrap();
        let rounds = rounds_until_first_depletion(&mut fleet, &round, 10_000);
        assert!(rounds > 0, "one round cannot kill a 50 J battery here");
        assert!(rounds < 10_000, "drain must eventually deplete somebody");
        assert!(!fleet.depleted().is_empty());
    }

    #[test]
    fn tiny_deadline_task_is_rejected_by_validation() {
        let s = scenario();
        let mut bad = s.tasks[0];
        bad.deadline = Seconds::ZERO;
        assert!(attribute_energy(&s.system, &bad, ExecutionSite::Device).is_err());
    }

    #[test]
    fn uniform_rejects_nonpositive_capacity() {
        let s = scenario();
        assert!(BatteryFleet::uniform(&s.system, Joules::ZERO).is_err());
    }
}
