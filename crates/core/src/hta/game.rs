//! **NashOffload** — a decentralized computation-offloading *game*, after
//! Chen's multi-user offloading game (the paper's reference \[8\]) and the
//! behavioral variant of Tang & He \[13\].
//!
//! Each task is a selfish player choosing its site to minimize its own
//! overhead. The coupling that makes this a game is *edge congestion*:
//! a base station's CPU is shared, so a task computing at a station that
//! currently hosts `q` tasks runs `q`× slower. Players repeatedly play
//! best responses until no one can improve — a pure Nash equilibrium,
//! which exists because the game is a congestion game with a potential
//! function (each move strictly decreases the mover's overhead, and the
//! finite improvement property bounds the dynamics).
//!
//! Players honor the C2/C3 resource capacities (a site is only playable
//! while it has room) but are deadline-oblivious, as the references do
//! not model per-task deadlines — so NashOffload trades unsatisfied rate
//! for energy exactly the way the paper criticizes.

use crate::assignment::{Assignment, Decision};
use crate::capacity::{Claim, Headroom};
use crate::costs::CostTable;
use crate::error::AssignError;
use crate::hta::{HtaAlgorithm, Overhead};
use mec_sim::task::{ExecutionSite, HolisticTask};
use mec_sim::topology::MecSystem;

/// The best-response offloading game.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NashOffload {
    /// Weight of latency in each player's overhead (energy gets the
    /// complement).
    pub latency_weight: f64,
    /// Safety cap on best-response rounds.
    pub max_rounds: usize,
}

impl Default for NashOffload {
    fn default() -> Self {
        NashOffload {
            latency_weight: 0.5,
            max_rounds: 100,
        }
    }
}

/// Result details of the dynamics, exposed for tests and diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct GameOutcome {
    /// The equilibrium (or cap-hit) assignment.
    pub assignment: Assignment,
    /// Rounds of best-response dynamics played.
    pub rounds: usize,
    /// Whether a full round passed with no player moving (true Nash
    /// equilibrium) before the round cap.
    pub converged: bool,
}

impl NashOffload {
    /// Plays the game and reports convergence details.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn play(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
    ) -> Result<GameOutcome, AssignError> {
        if tasks.len() != costs.len() {
            return Err(AssignError::LengthMismatch {
                tasks: tasks.len(),
                other: costs.len(),
            });
        }
        let w = self.latency_weight.clamp(0.0, 1.0);
        let mut room = Headroom::new(system);
        let claims: Vec<Claim> = tasks
            .iter()
            .map(|t| room.claim(t))
            .collect::<Result<_, _>>()?;

        // Everybody starts at the cloud (always admissible); the dynamics
        // then migrate work down while capacity lasts.
        let mut sites: Vec<ExecutionSite> = vec![ExecutionSite::Cloud; tasks.len()];
        let mut station_load = vec![0usize; system.num_stations()];

        // Per-player normalization so overheads are commensurable.
        let norms: Vec<Overhead> = (0..tasks.len())
            .map(|idx| Overhead::of(&costs.task(idx), w))
            .collect();

        let overhead = |idx: usize, site: ExecutionSite, load_after: usize| -> f64 {
            let c = costs.at(idx, site);
            // Congestion: the station CPU is time-shared among the tasks
            // computing there, so compute time scales with the queue.
            let time = match site {
                ExecutionSite::Station => {
                    let base = c.time.value();
                    // Approximate the compute share of the station time
                    // via the cost model's compute component: total time
                    // minus what the task takes at an empty station is
                    // not recoverable here, so scale the whole station
                    // term conservatively by the load factor on the
                    // compute fraction (documented approximation).
                    base * (1.0 + 0.25 * load_after.saturating_sub(1) as f64)
                }
                _ => c.time.value(),
            };
            norms[idx].at(time, c.energy.value())
        };

        let mut rounds = 0usize;
        let mut converged = false;
        while rounds < self.max_rounds {
            rounds += 1;
            let mut moved = false;
            for (idx, claim) in claims.iter().enumerate() {
                let st = claim.station.0;
                let current = sites[idx];
                let current_cost = overhead(idx, current, station_load[st]);
                let mut best = (current, current_cost);
                for site in ExecutionSite::ALL {
                    if site == current || !room.fits(site, claim) {
                        continue;
                    }
                    let load_after = if site == ExecutionSite::Station {
                        station_load[st] + 1
                    } else {
                        station_load[st]
                    };
                    let cost = overhead(idx, site, load_after);
                    if cost + 1e-12 < best.1 {
                        best = (site, cost);
                    }
                }
                if best.0 != current {
                    room.give_back(current, claim);
                    room.take(best.0, claim);
                    if current == ExecutionSite::Station {
                        station_load[st] -= 1;
                    }
                    if best.0 == ExecutionSite::Station {
                        station_load[st] += 1;
                    }
                    sites[idx] = best.0;
                    moved = true;
                }
            }
            if !moved {
                converged = true;
                break;
            }
        }

        let decisions = sites.into_iter().map(Decision::Assigned).collect();
        Ok(GameOutcome {
            assignment: Assignment::new(decisions),
            rounds,
            converged,
        })
    }
}

impl HtaAlgorithm for NashOffload {
    fn name(&self) -> &'static str {
        "NashOffload"
    }

    fn assign(
        &self,
        system: &MecSystem,
        tasks: &[HolisticTask],
        costs: &CostTable,
    ) -> Result<Assignment, AssignError> {
        Ok(self.play(system, tasks, costs)?.assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hta::{AllToC, LpHta};
    use crate::metrics::evaluate_assignment;
    use mec_sim::workload::ScenarioConfig;

    fn setup(seed: u64, tasks: usize) -> (mec_sim::workload::Scenario, CostTable) {
        let mut cfg = ScenarioConfig::paper_defaults(seed);
        cfg.tasks_total = tasks;
        let s = cfg.generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        (s, costs)
    }

    #[test]
    fn dynamics_reach_equilibrium() {
        let (s, costs) = setup(91, 150);
        let out = NashOffload::default()
            .play(&s.system, &s.tasks, &costs)
            .unwrap();
        assert!(
            out.converged,
            "best response should converge well before the cap"
        );
        assert!(out.rounds < 50, "rounds {}", out.rounds);
        assert_eq!(out.assignment.len(), s.tasks.len());
    }

    #[test]
    fn equilibrium_is_stable_under_replay() {
        let (s, costs) = setup(92, 100);
        let a = NashOffload::default()
            .play(&s.system, &s.tasks, &costs)
            .unwrap();
        let b = NashOffload::default()
            .play(&s.system, &s.tasks, &costs)
            .unwrap();
        assert_eq!(a.assignment, b.assignment, "the dynamics are deterministic");
    }

    #[test]
    fn beats_cloud_but_not_lp_hta_on_energy() {
        let (s, costs) = setup(93, 200);
        let nash = evaluate_assignment(
            &s.tasks,
            &costs,
            &NashOffload::default()
                .assign(&s.system, &s.tasks, &costs)
                .unwrap(),
        )
        .unwrap();
        let cloud = evaluate_assignment(
            &s.tasks,
            &costs,
            &AllToC.assign(&s.system, &s.tasks, &costs).unwrap(),
        )
        .unwrap();
        let lp = evaluate_assignment(
            &s.tasks,
            &costs,
            &LpHta::paper().assign(&s.system, &s.tasks, &costs).unwrap(),
        )
        .unwrap();
        assert!(nash.total_energy < cloud.total_energy);
        // Nash players are deadline-oblivious, so they may undercut
        // LP-HTA's energy slightly by parking tasks at infeasible sites;
        // the flip side is a worse unsatisfied rate.
        assert!(lp.total_energy <= nash.total_energy * 1.05);
        assert!(lp.unsatisfied_rate <= nash.unsatisfied_rate + 1e-9);
    }

    #[test]
    fn congestion_pushes_players_apart() {
        // With pure latency weight and many tasks, not everyone piles on
        // the station: congestion must spread load.
        let (s, costs) = setup(94, 250);
        let out = NashOffload {
            latency_weight: 1.0,
            max_rounds: 200,
        }
        .play(&s.system, &s.tasks, &costs)
        .unwrap();
        let [dev, st, cl] = out.assignment.site_counts();
        assert!(dev > 0, "someone stays local");
        assert!(
            st + cl < s.tasks.len(),
            "not everyone offloads: {dev}/{st}/{cl}"
        );
    }

    #[test]
    fn round_cap_is_respected() {
        let (s, costs) = setup(95, 60);
        let out = NashOffload {
            latency_weight: 0.5,
            max_rounds: 1,
        }
        .play(&s.system, &s.tasks, &costs)
        .unwrap();
        assert_eq!(out.rounds, 1);
    }
}
#[cfg(test)]
mod capacity_tests {
    use super::*;
    use crate::costs::CostTable;
    use crate::metrics::capacity_usage;
    use mec_sim::units::Bytes;
    use mec_sim::workload::ScenarioConfig;

    #[test]
    fn equilibrium_respects_capacities() {
        let mut cfg = ScenarioConfig::paper_defaults(96);
        cfg.tasks_total = 300;
        cfg.device_resource_mb = 5.0;
        cfg.station_resource_mb = 60.0;
        let s = cfg.generate().unwrap();
        let costs = CostTable::build(&s.system, &s.tasks).unwrap();
        let out = NashOffload::default()
            .play(&s.system, &s.tasks, &costs)
            .unwrap();
        let usage = capacity_usage(&s.system, &s.tasks, &out.assignment).unwrap();
        assert!(usage.within_limits(&s.system, Bytes::new(1e-6)));
        let [dev, st, cl] = out.assignment.site_counts();
        assert!(
            dev > 0 && st > 0 && cl > 0,
            "pressure spreads players: {dev}/{st}/{cl}"
        );
    }
}
