//! The per-task, per-site cost model: `t_ijl` and `E_ijl` for
//! `l ∈ {device, station, cloud}`, implementing every formula of paper
//! Section II verbatim.
//!
//! * **Device** (`l=1`): retrieve the external data `β` from its source
//!   (through one or two base stations), then compute locally. Energy =
//!   retrieval radio energy + `κλ(α+β)f_i²` compute energy.
//! * **Station** (`l=2`): the source uploads `β` and the owner uploads `α`
//!   in parallel (the slower one gates), the station computes, the result
//!   `η(α+β)` is downloaded by the owner. Station compute energy is
//!   negligible per Section II.A.
//! * **Cloud** (`l=3`): both inputs are uploaded, forwarded over the
//!   station–cloud backhaul together with the result, the cloud computes,
//!   the owner downloads the result.

use crate::error::MecError;
use crate::radio::RadioLink;
use crate::task::{ExecutionSite, HolisticTask};
use crate::topology::MecSystem;
use crate::transfer;
use crate::units::{Hertz, Joules, Seconds};

/// Delay and energy of running one task at one site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteCost {
    /// Total delay `t_ijl = t^(C) + t^(R)`.
    pub time: Seconds,
    /// Total system energy `E_ijl` (paper Eq. (5)).
    pub energy: Joules,
}

/// Costs of one task across all three candidate sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCosts {
    per_site: [SiteCost; 3],
}

impl TaskCosts {
    /// Cost at one site.
    pub fn at(&self, site: ExecutionSite) -> SiteCost {
        self.per_site[site.index()]
    }

    /// Iterates `(site, cost)` in the paper's `l = 1, 2, 3` order.
    pub fn iter(&self) -> impl Iterator<Item = (ExecutionSite, SiteCost)> + '_ {
        ExecutionSite::ALL.iter().map(move |&s| (s, self.at(s)))
    }

    /// The site with the smallest energy among those meeting `deadline`,
    /// the lower level on ties; `None` when no site meets it. An infinite
    /// `deadline` gives the unconstrained argmin.
    pub fn cheapest_feasible(&self, deadline: Seconds) -> Option<ExecutionSite> {
        self.iter()
            .filter(|(_, c)| c.time <= deadline)
            .min_by(|a, b| a.1.energy.value().total_cmp(&b.1.energy.value()))
            .map(|(s, _)| s)
    }

    /// The smallest achievable delay over all sites.
    pub fn min_time(&self) -> Seconds {
        self.per_site
            .iter()
            .map(|c| c.time)
            .fold(Seconds::new(f64::INFINITY), Seconds::min)
    }

    /// The smallest energy over all sites.
    pub fn min_energy(&self) -> Joules {
        self.per_site
            .iter()
            .map(|c| c.energy)
            .fold(Joules::new(f64::INFINITY), Joules::min)
    }
}

/// Evaluates `t_ijl` and `E_ijl` for every site (Section II formulas).
///
/// # Errors
///
/// Returns [`MecError::UnknownDevice`] / [`MecError::UnknownStation`] when
/// the task references devices outside the system, and propagates
/// [`HolisticTask::validate`] failures.
///
/// # Examples
///
/// ```
/// use mec_sim::cost::evaluate;
/// use mec_sim::workload::ScenarioConfig;
/// use mec_sim::task::ExecutionSite;
///
/// let scenario = ScenarioConfig::paper_defaults(42).generate()?;
/// let costs = evaluate(&scenario.system, &scenario.tasks[0])?;
/// assert!(costs.at(ExecutionSite::Cloud).energy > costs.at(ExecutionSite::Device).energy);
/// # Ok::<(), mec_sim::MecError>(())
/// ```
pub fn evaluate(system: &MecSystem, task: &HolisticTask) -> Result<TaskCosts, MecError> {
    task.validate()?;
    let owner = system.device(task.owner)?;
    let station = system.station(owner.station)?;

    // External-data facts (absent when β = 0).
    let external = match task.external_source {
        Some(src) => {
            let src_dev = system.device(src)?;
            let cross = !system.same_cluster(task.owner, src)?;
            Some((src_dev.link, cross))
        }
        None => None,
    };

    Ok(site_costs(
        system,
        task,
        &owner.link,
        owner.cpu,
        station.cpu,
        external,
    ))
}

/// The Section II arithmetic behind [`evaluate`], given the owner's link
/// and CPU, its station's CPU and the external source's link (with
/// whether retrieval crosses clusters).
#[inline]
fn site_costs(
    system: &MecSystem,
    task: &HolisticTask,
    owner_link: &RadioLink,
    owner_cpu: Hertz,
    station_cpu: Hertz,
    external: Option<(RadioLink, bool)>,
) -> TaskCosts {
    let cloud = system.cloud();
    let bb = system.backhaul.station_to_station;
    let bc = system.backhaul.station_to_cloud;

    let alpha = task.local_size;
    let beta = task.external_size;
    let input = task.input_size();
    let result = system.result_model.result_size(input);
    let cycles = |_: ()| system.cycle_model.cycles(input, task.complexity);

    // --- l = 1: the owner's mobile device -----------------------------
    let device_cost = {
        let (t_r, e_r) = match external {
            Some((src_link, cross)) => {
                let mut t = transfer::upload_time(&src_link, beta)
                    + transfer::download_time(owner_link, beta);
                let mut e = transfer::upload_energy(&src_link, beta)
                    + transfer::download_energy(owner_link, beta);
                if cross {
                    t += bb.transfer_time(beta);
                    e += bb.transfer_energy(beta);
                }
                (t, e)
            }
            None => (Seconds::ZERO, Joules::ZERO),
        };
        let t_c = cycles(()) / owner_cpu;
        let e_c = system
            .cycle_model
            .device_energy(input, task.complexity, owner_cpu);
        SiteCost {
            time: t_r + t_c,
            energy: e_r + e_c,
        }
    };

    // --- l = 2: the connected base station -----------------------------
    let station_cost = {
        let beta_leg = match external {
            Some((src_link, cross)) => {
                let mut t = transfer::upload_time(&src_link, beta);
                if cross {
                    t += bb.transfer_time(beta);
                }
                t
            }
            None => Seconds::ZERO,
        };
        let alpha_leg = transfer::upload_time(owner_link, alpha);
        let gather = beta_leg.max(alpha_leg);
        let t_r = gather + transfer::download_time(owner_link, result);

        let mut e_r = transfer::upload_energy(owner_link, alpha)
            + transfer::download_energy(owner_link, result);
        if let Some((src_link, cross)) = external {
            e_r += transfer::upload_energy(&src_link, beta);
            if cross {
                e_r += bb.transfer_energy(beta);
            }
        }
        let t_c = cycles(()) / station_cpu;
        SiteCost {
            time: t_r + t_c,
            energy: e_r,
        }
    };

    // --- l = 3: the remote cloud ----------------------------------------
    let cloud_cost = {
        let beta_leg = match external {
            Some((src_link, _)) => transfer::upload_time(&src_link, beta),
            None => Seconds::ZERO,
        };
        let alpha_leg = transfer::upload_time(owner_link, alpha);
        let gather = beta_leg.max(alpha_leg);
        let haul = input + result;
        let t_r = gather + transfer::download_time(owner_link, result) + bc.transfer_time(haul);

        let mut e_r = transfer::upload_energy(owner_link, alpha)
            + transfer::download_energy(owner_link, result)
            + bc.transfer_energy(haul);
        if let Some((src_link, _)) = external {
            e_r += transfer::upload_energy(&src_link, beta);
        }
        let t_c = cycles(()) / cloud.cpu;
        SiteCost {
            time: t_r + t_c,
            energy: e_r,
        }
    };

    TaskCosts {
        per_site: [device_cost, station_cost, cloud_cost],
    }
}

/// Flat struct-of-arrays cost table: `times`/`energies` hold one stride-3
/// row per task (`l = device, station, cloud` order), so batch consumers
/// scan two contiguous `Vec<f64>`s instead of chasing per-task structs
/// (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostMatrix {
    times: Vec<f64>,
    energies: Vec<f64>,
}

impl CostMatrix {
    /// An empty matrix with room for `n` task rows.
    #[must_use]
    pub fn with_capacity(n: usize) -> CostMatrix {
        CostMatrix {
            times: Vec::with_capacity(3 * n),
            energies: Vec::with_capacity(3 * n),
        }
    }

    /// Prices every task with [`evaluate`], in task order.
    ///
    /// # Errors
    ///
    /// The first task's [`evaluate`] error, in task order.
    pub fn build(system: &MecSystem, tasks: &[HolisticTask]) -> Result<CostMatrix, MecError> {
        let mut m = CostMatrix::with_capacity(tasks.len());
        for task in tasks {
            m.push(evaluate(system, task)?);
        }
        Ok(m)
    }

    /// Appends one task row.
    #[inline]
    pub fn push(&mut self, costs: TaskCosts) {
        for c in costs.per_site {
            self.times.push(c.time.value());
            self.energies.push(c.energy.value());
        }
    }

    /// Moves every row of `other` onto the end of `self`, preserving row
    /// order — how chunked parallel builders concatenate their pieces
    /// back into one task-ordered table.
    pub fn append(&mut self, other: &mut CostMatrix) {
        self.times.append(&mut other.times);
        self.energies.append(&mut other.energies);
    }

    /// Number of task rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len() / 3
    }

    /// True iff no rows have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Cost of task `idx` at `site`; `None` out of range.
    #[must_use]
    pub fn site(&self, idx: usize, site: ExecutionSite) -> Option<SiteCost> {
        let at = 3 * idx + site.index();
        Some(SiteCost {
            time: Seconds::new(*self.times.get(at)?),
            energy: Joules::new(*self.energies.get(at)?),
        })
    }

    /// All three site costs of task `idx`; `None` out of range.
    #[must_use]
    pub fn task_costs(&self, idx: usize) -> Option<TaskCosts> {
        let row = self.times.get(3 * idx..3 * idx + 3)?;
        let erow = self.energies.get(3 * idx..3 * idx + 3)?;
        let site = |l: usize| SiteCost {
            time: Seconds::new(row[l]),
            energy: Joules::new(erow[l]),
        };
        Some(TaskCosts {
            per_site: [site(0), site(1), site(2)],
        })
    }
}

// JSON codecs (wire-compatible with the former serde derives).
djson::impl_json_struct!(SiteCost { time, energy });
djson::impl_json_struct!(TaskCosts { per_site });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::NetworkProfile;
    use crate::task::TaskId;
    use crate::topology::{Cloud, DeviceId, MecSystem, ResultModel};
    use crate::units::{Bytes, Hertz};

    /// Two stations, two devices each. Device CPUs 1.5 GHz, WiFi links.
    fn system() -> MecSystem {
        let mut b = MecSystem::builder(Cloud {
            cpu: Hertz::from_ghz(2.4),
        });
        let s0 = b.add_station(Hertz::from_ghz(4.0), Bytes::from_mb(200.0));
        let s1 = b.add_station(Hertz::from_ghz(4.0), Bytes::from_mb(200.0));
        for st in [s0, s0, s1, s1] {
            b.add_device(
                st,
                Hertz::from_ghz(1.5),
                NetworkProfile::WiFi.link(),
                Bytes::from_mb(8.0),
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    fn task(owner: usize, src: Option<usize>, alpha_kb: f64, beta_kb: f64) -> HolisticTask {
        HolisticTask {
            id: TaskId {
                user: owner,
                index: 0,
            },
            owner: DeviceId(owner),
            local_size: Bytes::from_kb(alpha_kb),
            external_size: Bytes::from_kb(beta_kb),
            external_source: src.map(DeviceId),
            complexity: 1.0,
            resource: Bytes::from_kb(alpha_kb + beta_kb),
            deadline: Seconds::new(60.0),
        }
    }

    #[test]
    fn energy_ordering_matches_paper_assumption() {
        // E_ij1 < E_ij2 < E_ij3 for data-local tasks: local compute is far
        // cheaper than radio, and the cloud path hauls the most bytes.
        let sys = system();
        let costs = evaluate(&sys, &task(0, Some(1), 2500.0, 500.0)).unwrap();
        let e1 = costs.at(ExecutionSite::Device).energy;
        let e2 = costs.at(ExecutionSite::Station).energy;
        let e3 = costs.at(ExecutionSite::Cloud).energy;
        assert!(e1 < e2, "device {e1} < station {e2}");
        assert!(e2 < e3, "station {e2} < cloud {e3}");
    }

    #[test]
    fn purely_local_task_pays_no_radio_at_device() {
        let sys = system();
        let costs = evaluate(&sys, &task(0, None, 3000.0, 0.0)).unwrap();
        let dev = costs.at(ExecutionSite::Device);
        // Expected: only compute. 3 MB · 330 c/B / 1.5 GHz = 0.66 s.
        assert!((dev.time.value() - 0.66).abs() < 1e-9);
        let e_compute =
            sys.cycle_model
                .device_energy(Bytes::from_kb(3000.0), 1.0, Hertz::from_ghz(1.5));
        assert!((dev.energy.value() - e_compute.value()).abs() < 1e-12);
    }

    #[test]
    fn cross_cluster_retrieval_costs_more_than_same_cluster() {
        let sys = system();
        let same = evaluate(&sys, &task(0, Some(1), 2000.0, 800.0)).unwrap();
        let cross = evaluate(&sys, &task(0, Some(2), 2000.0, 800.0)).unwrap();
        for site in [ExecutionSite::Device, ExecutionSite::Station] {
            assert!(
                cross.at(site).energy > same.at(site).energy,
                "{site}: cross-cluster must add backhaul energy"
            );
            assert!(cross.at(site).time >= same.at(site).time);
        }
        // The cloud path is identical either way (no BS–BS leg).
        let c_same = same.at(ExecutionSite::Cloud);
        let c_cross = cross.at(ExecutionSite::Cloud);
        assert!((c_same.energy.value() - c_cross.energy.value()).abs() < 1e-12);
    }

    #[test]
    fn station_gather_is_max_of_parallel_uploads() {
        // With a huge β and tiny α the gather is gated by the β leg.
        let sys = system();
        let costs = evaluate(&sys, &task(0, Some(1), 1.0, 4000.0)).unwrap();
        let link = NetworkProfile::WiFi.link();
        let beta_t = transfer::upload_time(&link, Bytes::from_kb(4000.0));
        let station = costs.at(ExecutionSite::Station);
        // time = gather + result download + compute
        let result = sys.result_model.result_size(Bytes::from_kb(4001.0));
        let expect = beta_t
            + transfer::download_time(&link, result)
            + sys.cycle_model.cycles(Bytes::from_kb(4001.0), 1.0) / Hertz::from_ghz(4.0);
        assert!((station.time.value() - expect.value()).abs() < 1e-9);
    }

    #[test]
    fn cloud_latency_includes_backhaul_floor() {
        let sys = system();
        let costs = evaluate(&sys, &task(0, None, 10.0, 0.0)).unwrap();
        // Even a tiny task pays the 250 ms station→cloud latency.
        assert!(costs.at(ExecutionSite::Cloud).time.value() > 0.25);
    }

    #[test]
    fn cheapest_feasible_respects_deadline() {
        let sys = system();
        let t = task(0, None, 3000.0, 0.0);
        let costs = evaluate(&sys, &t).unwrap();
        // Generous deadline → device (cheapest energy).
        assert_eq!(
            costs.cheapest_feasible(Seconds::new(60.0)),
            Some(ExecutionSite::Device)
        );
        // Impossible deadline → none.
        assert_eq!(costs.cheapest_feasible(Seconds::new(1e-6)), None);
        assert!(costs.min_time() <= costs.at(ExecutionSite::Device).time);
        assert!(costs.min_energy() <= costs.at(ExecutionSite::Cloud).energy);
    }

    #[test]
    fn constant_result_model_is_honored() {
        let mut sys = system();
        sys.result_model = ResultModel::Constant(Bytes::from_kb(1.0));
        let big = evaluate(&sys, &task(0, None, 5000.0, 0.0)).unwrap();
        sys.result_model = ResultModel::Proportional(0.2);
        let prop = evaluate(&sys, &task(0, None, 5000.0, 0.0)).unwrap();
        // A 1 kB constant result is far cheaper to return than 1000 kB.
        assert!(big.at(ExecutionSite::Station).energy < prop.at(ExecutionSite::Station).energy);
    }

    #[test]
    fn invalid_task_is_rejected() {
        let sys = system();
        let mut t = task(0, Some(1), 100.0, 100.0);
        t.external_source = Some(DeviceId(0)); // self-sourcing
        assert!(evaluate(&sys, &t).is_err());
        let t2 = task(9, None, 100.0, 0.0); // unknown owner
        assert!(evaluate(&sys, &t2).is_err());
    }
}
