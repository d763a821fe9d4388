//! **Online HTA** (extension): tasks arrive one at a time and must be
//! placed immediately and irrevocably — the streaming version of the
//! paper's batch problem, natural for a deployed MEC controller.
//!
//! Two policies:
//!
//! * [`OnlinePolicy::Greedy`] — place each arrival at its cheapest
//!   deadline-feasible site with remaining capacity; cancel if none.
//! * [`OnlinePolicy::Reserve`] — the same, but a task may only claim a
//!   device/station slot while the *post-placement* free capacity stays
//!   above a reserve fraction, holding headroom for future arrivals.
//!   Classic admission control: worse on easy sequences, better under
//!   pressure.
//!
//! The `ext_online` bench measures both against the offline LP-HTA on the
//! same sequences (an empirical competitive ratio).

use crate::assignment::{Assignment, Decision};
use crate::capacity::Headroom;
use crate::costs::CostTable;
use crate::error::AssignError;
use crate::hta::HtaAlgorithm;
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::MecSystem;

/// Placement policy of the online controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlinePolicy {
    /// Cheapest feasible site, first come first served.
    Greedy,
    /// Cheapest feasible site whose post-placement free capacity stays
    /// above `reserve` × total capacity (cloud is always admissible).
    Reserve {
        /// Reserved headroom fraction in `[0, 1)`.
        reserve: f64,
    },
}

/// The online controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineHta {
    /// Placement policy.
    pub policy: OnlinePolicy,
}

impl Default for OnlineHta {
    fn default() -> Self {
        OnlineHta {
            policy: OnlinePolicy::Greedy,
        }
    }
}

impl HtaAlgorithm for OnlineHta {
    fn name(&self) -> &'static str {
        match self.policy {
            OnlinePolicy::Greedy => "Online-Greedy",
            OnlinePolicy::Reserve { .. } => "Online-Reserve",
        }
    }

    fn assign(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
    ) -> Result<Assignment, AssignError> {
        if tasks.len() != costs.len() {
            return Err(AssignError::LengthMismatch {
                tasks: tasks.len(),
                other: costs.len(),
            });
        }
        let reserve = match self.policy {
            OnlinePolicy::Greedy => 0.0,
            OnlinePolicy::Reserve { reserve } => reserve.clamp(0.0, 0.99),
        };
        let mut room = Headroom::new(system);
        let mut decisions = Vec::with_capacity(tasks.len());
        for (idx, task) in tasks.iter().enumerate() {
            let claim = room.claim(task)?;
            let choice = ExecutionSite::ALL
                .iter()
                .filter(|&&s| costs.feasible(idx, s, task.deadline))
                .filter(|&&s| room.keeps_reserve(s, &claim, reserve))
                .min_by(|&&a, &&b| {
                    costs
                        .at(idx, a)
                        .energy
                        .value()
                        .total_cmp(&costs.at(idx, b).energy.value())
                });
            match choice {
                Some(&site) => {
                    room.take(site, &claim);
                    decisions.push(Decision::Assigned(site));
                }
                None => decisions.push(Decision::Cancelled),
            }
        }
        Ok(Assignment::new(decisions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hta::LpHta;
    use crate::metrics::{capacity_usage, evaluate_assignment};
    use mec_sim::units::Bytes;
    use mec_sim::workload::ScenarioConfig;

    fn setup(seed: u64, tasks: usize, dev_mb: f64) -> (mec_sim::workload::Scenario, CostTable) {
        let mut cfg = ScenarioConfig::paper_defaults(seed);
        cfg.tasks_total = tasks;
        cfg.device_resource_mb = dev_mb;
        let s = cfg.generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        (s, costs)
    }

    #[test]
    fn online_respects_all_constraints() {
        for policy in [OnlinePolicy::Greedy, OnlinePolicy::Reserve { reserve: 0.2 }] {
            let (s, costs) = setup(121, 200, 6.0);
            let a = OnlineHta { policy }
                .assign(&s.system, &s.tasks, &costs)
                .unwrap();
            for (idx, task) in s.tasks.iter().enumerate() {
                if let Some(site) = a.decision(idx).site() {
                    assert!(costs.feasible(idx, site, task.deadline));
                }
            }
            let usage = capacity_usage(&s.system, &s.tasks, &a).unwrap();
            assert!(usage.within_limits(&s.system, Bytes::new(1e-6)));
        }
    }

    #[test]
    fn offline_lp_hta_never_loses_to_online() {
        for seed in [122, 123, 124] {
            let (s, costs) = setup(seed, 150, 8.0);
            let online = evaluate_assignment(
                &s.tasks,
                &costs,
                &OnlineHta::default()
                    .assign(&s.system, &s.tasks, &costs)
                    .unwrap(),
            )
            .unwrap();
            let offline = evaluate_assignment(
                &s.tasks,
                &costs,
                &LpHta::paper().assign(&s.system, &s.tasks, &costs).unwrap(),
            )
            .unwrap();
            // The offline optimum-certified algorithm is at least as good
            // per assigned task; with equal cancellation counts it wins
            // outright.
            if online.cancelled == offline.cancelled {
                assert!(
                    offline.total_energy.value() <= online.total_energy.value() + 1e-6,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn reserve_keeps_headroom() {
        let (s, costs) = setup(125, 300, 6.0);
        let greedy = OnlineHta::default()
            .assign(&s.system, &s.tasks, &costs)
            .unwrap();
        let reserve = OnlineHta {
            policy: OnlinePolicy::Reserve { reserve: 0.3 },
        }
        .assign(&s.system, &s.tasks, &costs)
        .unwrap();
        let g_use = capacity_usage(&s.system, &s.tasks, &greedy).unwrap();
        let r_use = capacity_usage(&s.system, &s.tasks, &reserve).unwrap();
        // Reserved devices keep at least the 30% headroom.
        for (used, d) in r_use.device_usage.iter().zip(s.system.devices()) {
            assert!(
                used.value() <= 0.7 * d.max_resource.value() + 1e-6,
                "device headroom violated"
            );
        }
        // Greedy packs devices at least as full overall.
        let g_total: f64 = g_use.device_usage.iter().map(|b| b.value()).sum();
        let r_total: f64 = r_use.device_usage.iter().map(|b| b.value()).sum();
        assert!(g_total >= r_total);
    }

    #[test]
    fn names_differ_by_policy() {
        assert_eq!(OnlineHta::default().name(), "Online-Greedy");
        assert_eq!(
            OnlineHta {
                policy: OnlinePolicy::Reserve { reserve: 0.1 }
            }
            .name(),
            "Online-Reserve"
        );
    }
}
