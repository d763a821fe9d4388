//! The classical comparators of Section V.B.
//!
//! * [`AllToC`] — every task goes to the remote cloud (the traditional
//!   cloud-computing strawman);
//! * [`AllOffload`] — every task is offloaded off the device: to the base
//!   station while its capacity lasts, then to the cloud;
//! * [`LocalFirst`] — the opposite extreme: keep work on the device while
//!   its capacity lasts (not in the paper; useful as a sanity bound);
//! * [`RandomAssign`] — a seeded uniform-random site per task.
//!
//! All baselines are deliberately deadline-oblivious, matching how the
//! paper describes them (their unsatisfied rates in Fig. 3 are high).

use crate::assignment::{Assignment, Decision};
use crate::capacity::Headroom;
use crate::costs::CostTable;
use crate::error::AssignError;
use crate::hta::HtaAlgorithm;
use detrand::{ChaCha8Rng, SliceRandom};
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::MecSystem;

/// Places each task, in order, at the first site of `preference` that
/// still has room. `preference` ends at the cloud, which always fits.
fn first_fit(
    system: &MecSystem,
    tasks: &[HolisticTask],
    preference: &[ExecutionSite],
) -> Result<Assignment, AssignError> {
    let mut room = Headroom::new(system);
    let mut decisions = Vec::with_capacity(tasks.len());
    for task in tasks {
        let claim = room.claim(task)?;
        let site = *preference
            .iter()
            .find(|&&s| room.fits(s, &claim))
            .expect("the cloud always fits");
        room.take(site, &claim);
        decisions.push(Decision::Assigned(site));
    }
    Ok(Assignment::new(decisions))
}

/// Offload every task to the remote cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllToC;

impl HtaAlgorithm for AllToC {
    fn name(&self) -> &'static str {
        "AllToC"
    }

    fn assign(
        &self,
        _system: &MecSystem,
        tasks: &[HolisticTask],
        _costs: &CostTable,
    ) -> Result<Assignment, AssignError> {
        Ok(Assignment::uniform(tasks.len(), ExecutionSite::Cloud))
    }
}

/// Offload every task off the device: base station first (while `max_S`
/// lasts), cloud afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllOffload;

impl HtaAlgorithm for AllOffload {
    fn name(&self) -> &'static str {
        "AllOffload"
    }

    fn assign(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        _costs: &CostTable,
    ) -> Result<Assignment, AssignError> {
        first_fit(
            system,
            tasks,
            &[ExecutionSite::Station, ExecutionSite::Cloud],
        )
    }
}

/// Keep every task on its own device while `max_i` lasts, then the
/// station, then the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocalFirst;

impl HtaAlgorithm for LocalFirst {
    fn name(&self) -> &'static str {
        "LocalFirst"
    }

    fn assign(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        _costs: &CostTable,
    ) -> Result<Assignment, AssignError> {
        first_fit(system, tasks, &ExecutionSite::ALL)
    }
}

/// Uniform-random site per task (deterministic in the seed). Ignores both
/// deadlines and capacities; a floor for every metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomAssign {
    /// RNG seed.
    pub seed: u64,
}

impl HtaAlgorithm for RandomAssign {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn assign(
        &self,
        _system: &MecSystem,
        tasks: &[HolisticTask],
        _costs: &CostTable,
    ) -> Result<Assignment, AssignError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let decisions = tasks
            .iter()
            .map(|_| {
                let site = *ExecutionSite::ALL.choose(&mut rng).expect("nonempty");
                Decision::Assigned(site)
            })
            .collect();
        Ok(Assignment::new(decisions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{capacity_usage, evaluate_assignment};
    use mec_sim::units::Bytes;
    use mec_sim::workload::ScenarioConfig;

    fn setup() -> (mec_sim::workload::Scenario, CostTable) {
        let s = ScenarioConfig::paper_defaults(21).generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        (s, costs)
    }

    #[test]
    fn all_to_c_sends_everything_to_cloud() {
        let (s, costs) = setup();
        let a = AllToC.assign(&s.system, &s.tasks, &costs).unwrap();
        assert_eq!(a.site_counts(), [0, 0, s.tasks.len()]);
    }

    #[test]
    fn all_offload_respects_station_capacity() {
        let (s, costs) = setup();
        let a = AllOffload.assign(&s.system, &s.tasks, &costs).unwrap();
        let [dev, _, _] = a.site_counts();
        assert_eq!(dev, 0, "AllOffload never uses devices");
        let usage = capacity_usage(&s.system, &s.tasks, &a).unwrap();
        assert!(usage.within_limits(&s.system, Bytes::new(1e-6)));
    }

    #[test]
    fn all_offload_spills_to_cloud_when_stations_fill() {
        let mut cfg = ScenarioConfig::paper_defaults(21);
        cfg.station_resource_mb = 10.0; // tiny stations
        cfg.tasks_total = 200;
        let s = cfg.generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let a = AllOffload.assign(&s.system, &s.tasks, &costs).unwrap();
        let [_, _, cloud] = a.site_counts();
        assert!(cloud > 0, "overflow must reach the cloud");
    }

    #[test]
    fn local_first_respects_device_capacity() {
        let (s, costs) = setup();
        let a = LocalFirst.assign(&s.system, &s.tasks, &costs).unwrap();
        let usage = capacity_usage(&s.system, &s.tasks, &a).unwrap();
        assert!(usage.within_limits(&s.system, Bytes::new(1e-6)));
        let [dev, _, _] = a.site_counts();
        assert!(dev > 0, "devices should hold some work");
    }

    #[test]
    fn random_is_seed_deterministic() {
        let (s, costs) = setup();
        let a = RandomAssign { seed: 5 }
            .assign(&s.system, &s.tasks, &costs)
            .unwrap();
        let b = RandomAssign { seed: 5 }
            .assign(&s.system, &s.tasks, &costs)
            .unwrap();
        let c = RandomAssign { seed: 6 }
            .assign(&s.system, &s.tasks, &costs)
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cloud_baseline_is_energy_worst() {
        let (s, costs) = setup();
        let cloud = evaluate_assignment(
            &s.tasks,
            &costs,
            &AllToC.assign(&s.system, &s.tasks, &costs).unwrap(),
        )
        .unwrap();
        let offload = evaluate_assignment(
            &s.tasks,
            &costs,
            &AllOffload.assign(&s.system, &s.tasks, &costs).unwrap(),
        )
        .unwrap();
        let local = evaluate_assignment(
            &s.tasks,
            &costs,
            &LocalFirst.assign(&s.system, &s.tasks, &costs).unwrap(),
        )
        .unwrap();
        assert!(cloud.total_energy > offload.total_energy);
        assert!(offload.total_energy > local.total_energy);
    }
}
