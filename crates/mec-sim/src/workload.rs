//! Seeded workload generators reproducing the experiment settings of
//! paper Section V.A:
//!
//! * device CPUs uniform in 1–2 GHz, stations at 4 GHz, cloud at 2.4 GHz
//!   (Amazon T2.nano);
//! * each device on 4G or Wi-Fi at random (Table I parameters);
//! * task input data up to a configurable maximum (3000 kB in most
//!   figures), external data 0–0.5× the local data, result size `η = 0.2`;
//! * deadlines drawn as a multiple of the task's best achievable latency,
//!   so tightness is controllable and comparable across scenarios.
//!
//! All generation is deterministic in the seed (ChaCha8), so every figure
//! of the bench harness is exactly reproducible.

use crate::aggregate::AggregateOp;
use crate::cost;
use crate::data::{DataUniverse, ItemSet};
use crate::error::MecError;
use crate::radio::NetworkProfile;
use crate::task::{DivisibleTask, HolisticTask, TaskId};
use crate::topology::{Cloud, DeviceId, MecSystem, ResultModel};
use crate::units::{Bytes, Hertz, Seconds};
use detrand::{ChaCha8Rng, SliceRandom};

/// Configuration of a holistic-task scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// RNG seed; equal configs generate equal scenarios.
    pub seed: u64,
    /// Number of base stations `k`.
    pub num_stations: usize,
    /// Devices attached to each station (`n = k · devices_per_station`).
    pub devices_per_station: usize,
    /// Total number of tasks, distributed round-robin over users.
    pub tasks_total: usize,
    /// Maximum local input size per task, in kB.
    pub max_input_kb: f64,
    /// Local input is uniform in `[min_input_frac, 1] · max_input_kb`.
    pub min_input_frac: f64,
    /// External data is uniform in `[lo, hi] ·` local size (paper: 0–0.5).
    pub external_frac_range: (f64, f64),
    /// Deadline is uniform in `[lo, hi] ·` the task's best latency.
    pub deadline_factor_range: (f64, f64),
    /// Device CPU range in GHz (paper: 1–2).
    pub device_cpu_ghz_range: (f64, f64),
    /// Station CPU in GHz (paper: 4).
    pub station_cpu_ghz: f64,
    /// Cloud CPU in GHz (paper: 2.4, Amazon T2.nano).
    pub cloud_cpu_ghz: f64,
    /// Per-device resource capacity `max_i` in MB.
    pub device_resource_mb: f64,
    /// Per-station resource capacity `max_S` in MB.
    pub station_resource_mb: f64,
    /// `C_ij = resource_factor · (α+β)`.
    pub resource_factor: f64,
    /// Probability a device uses Wi-Fi (otherwise 4G).
    pub wifi_prob: f64,
    /// Result-size model `η`.
    pub result_model: ResultModel,
    /// Operator complexity multiplier range.
    pub complexity_range: (f64, f64),
}

impl ScenarioConfig {
    /// The Section V.A defaults: 5 stations × 10 devices, 100 tasks of up
    /// to 3000 kB, η = 0.2.
    pub fn paper_defaults(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            num_stations: 5,
            devices_per_station: 10,
            tasks_total: 100,
            max_input_kb: 3000.0,
            min_input_frac: 0.25,
            external_frac_range: (0.0, 0.5),
            deadline_factor_range: (1.0, 3.0),
            device_cpu_ghz_range: (1.0, 2.0),
            station_cpu_ghz: 4.0,
            cloud_cpu_ghz: 2.4,
            device_resource_mb: 8.0,
            station_resource_mb: 200.0,
            resource_factor: 1.0,
            wifi_prob: 0.5,
            result_model: ResultModel::paper_default(),
            complexity_range: (1.0, 1.0),
        }
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidParameter`] describing the first bad
    /// field.
    pub fn validate(&self) -> Result<(), MecError> {
        let bad = |name: &'static str, reason: String| MecError::InvalidParameter { name, reason };
        if self.num_stations == 0 {
            return Err(bad("num_stations", "must be positive".into()));
        }
        if self.devices_per_station == 0 {
            return Err(bad("devices_per_station", "must be positive".into()));
        }
        if self.tasks_total == 0 {
            return Err(bad("tasks_total", "must be positive".into()));
        }
        if !(self.max_input_kb > 0.0) {
            return Err(bad(
                "max_input_kb",
                format!("{} must be positive", self.max_input_kb),
            ));
        }
        if !(0.0 < self.min_input_frac && self.min_input_frac <= 1.0) {
            return Err(bad("min_input_frac", "must be in (0, 1]".into()));
        }
        for (name, (lo, hi)) in [
            ("external_frac_range", self.external_frac_range),
            ("deadline_factor_range", self.deadline_factor_range),
            ("device_cpu_ghz_range", self.device_cpu_ghz_range),
            ("complexity_range", self.complexity_range),
        ] {
            if !(lo.is_finite() && hi.is_finite() && lo <= hi && lo >= 0.0) {
                return Err(bad(name, format!("({lo}, {hi}) is not a valid range")));
            }
        }
        if !(0.0..=1.0).contains(&self.wifi_prob) {
            return Err(bad("wifi_prob", "must be a probability".into()));
        }
        Ok(())
    }

    /// Generates the deterministic scenario for this configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioConfig::validate`] and topology errors.
    pub fn generate(&self) -> Result<Scenario, MecError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let system = self.generate_system(&mut rng)?;
        let tasks = self.generate_tasks(&system, &mut rng)?;
        Ok(Scenario { system, tasks })
    }

    fn generate_system(&self, rng: &mut ChaCha8Rng) -> Result<MecSystem, MecError> {
        let mut b = MecSystem::builder(Cloud {
            cpu: Hertz::from_ghz(self.cloud_cpu_ghz),
        });
        b.result_model(self.result_model);
        for _ in 0..self.num_stations {
            let st = b.add_station(
                Hertz::from_ghz(self.station_cpu_ghz),
                Bytes::from_mb(self.station_resource_mb),
            );
            for _ in 0..self.devices_per_station {
                let ghz = rng.gen_range(self.device_cpu_ghz_range.0..=self.device_cpu_ghz_range.1);
                let profile = if rng.gen_bool(self.wifi_prob) {
                    NetworkProfile::WiFi
                } else {
                    NetworkProfile::FourG
                };
                b.add_device(
                    st,
                    Hertz::from_ghz(ghz),
                    profile.link(),
                    Bytes::from_mb(self.device_resource_mb),
                )?;
            }
        }
        b.build()
    }

    fn generate_tasks(
        &self,
        system: &MecSystem,
        rng: &mut ChaCha8Rng,
    ) -> Result<Vec<HolisticTask>, MecError> {
        let n = system.num_devices();
        let mut per_user_counter = vec![0usize; n];
        let mut tasks = Vec::with_capacity(self.tasks_total);
        for t in 0..self.tasks_total {
            let user = t % n;
            let owner = DeviceId(user);
            let index = per_user_counter[user];
            per_user_counter[user] += 1;

            let alpha_kb = rng.gen_range(self.min_input_frac..=1.0) * self.max_input_kb;
            let (flo, fhi) = self.external_frac_range;
            let ext_frac = if fhi > flo {
                rng.gen_range(flo..=fhi)
            } else {
                flo
            };
            let beta_kb = ext_frac * alpha_kb;
            let external_source = if beta_kb * 1e3 >= 1.0 && n > 1 {
                // Uniform over the other devices; cross-cluster sources
                // arise naturally from the topology.
                let mut src = rng.gen_range(0..n - 1);
                if src >= user {
                    src += 1;
                }
                Some(DeviceId(src))
            } else {
                None
            };
            let beta_kb = if external_source.is_some() {
                beta_kb
            } else {
                0.0
            };

            let (clo, chi) = self.complexity_range;
            let complexity = if chi > clo {
                rng.gen_range(clo..=chi)
            } else {
                clo
            };

            let mut task = HolisticTask {
                id: TaskId { user, index },
                owner,
                local_size: Bytes::from_kb(alpha_kb),
                external_size: Bytes::from_kb(beta_kb),
                external_source,
                complexity,
                resource: Bytes::from_kb(self.resource_factor * (alpha_kb + beta_kb)),
                deadline: Seconds::new(1.0), // placeholder until priced below
            };
            let costs = cost::evaluate(system, &task)?;
            let (dlo, dhi) = self.deadline_factor_range;
            let factor = if dhi > dlo {
                rng.gen_range(dlo..=dhi)
            } else {
                dlo
            };
            task.deadline = costs.min_time() * factor;
            tasks.push(task);
        }
        Ok(tasks)
    }
}

/// A generated holistic-task scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The MEC system.
    pub system: MecSystem,
    /// The tasks, ordered by generation (round-robin over users).
    pub tasks: Vec<HolisticTask>,
}

/// Configuration of a divisible-task scenario (Section IV): a shared data
/// universe with overlapping per-device holdings, and aggregation tasks
/// over random item subsets.
#[derive(Debug, Clone, PartialEq)]
pub struct DivisibleScenarioConfig {
    /// Topology and physics come from the holistic config.
    pub base: ScenarioConfig,
    /// Number of data items `M` in the universe.
    pub num_items: usize,
    /// Size of each data item/block, in kB.
    pub item_kb: f64,
    /// Each device monitors a contiguous circular *region* of the item
    /// space whose width (as a fraction of the universe) is uniform in
    /// this range — regions overlap, exactly like the overlapping
    /// monitoring areas the paper motivates data sharing with.
    pub region_width: (f64, f64),
    /// Number of divisible tasks to generate.
    pub tasks_total: usize,
    /// Each task needs between these many items (inclusive).
    pub items_per_task: (usize, usize),
    /// Deadline slack multiplier over a serial local processing estimate.
    pub deadline_slack: (f64, f64),
}

impl DivisibleScenarioConfig {
    /// Defaults matching the Fig. 5–6 experiments: a 2000-item universe of
    /// 2000 kB/`num_items`-ish blocks with light replication.
    pub fn paper_defaults(seed: u64) -> DivisibleScenarioConfig {
        DivisibleScenarioConfig {
            base: ScenarioConfig::paper_defaults(seed),
            num_items: 1000,
            item_kb: 100.0,
            region_width: (0.08, 0.2),
            tasks_total: 100,
            items_per_task: (5, 30),
            deadline_slack: (2.0, 5.0),
        }
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidParameter`] describing the first bad
    /// field.
    pub fn validate(&self) -> Result<(), MecError> {
        self.base.validate()?;
        let bad = |name: &'static str, reason: String| MecError::InvalidParameter { name, reason };
        if self.num_items == 0 {
            return Err(bad("num_items", "must be positive".into()));
        }
        if !(self.item_kb > 0.0) {
            return Err(bad("item_kb", "must be positive".into()));
        }
        let (wlo, whi) = self.region_width;
        if !(wlo.is_finite() && whi.is_finite() && 0.0 < wlo && wlo <= whi && whi <= 1.0) {
            return Err(bad(
                "region_width",
                format!("({wlo}, {whi}) must satisfy 0 < lo <= hi <= 1"),
            ));
        }
        if self.tasks_total == 0 {
            return Err(bad("tasks_total", "must be positive".into()));
        }
        let (lo, hi) = self.items_per_task;
        if lo == 0 || lo > hi || hi > self.num_items {
            return Err(bad(
                "items_per_task",
                format!("({lo}, {hi}) must satisfy 0 < lo <= hi <= num_items"),
            ));
        }
        Ok(())
    }

    /// Generates the deterministic divisible scenario.
    ///
    /// # Errors
    ///
    /// Propagates validation and topology errors.
    pub fn generate(&self) -> Result<DivisibleScenario, MecError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.base.seed ^ 0x9e3779b97f4a7c15);
        let system = self.base.generate_system(&mut rng)?;
        let n = system.num_devices();
        let m = self.num_items;

        // Holdings: each device observes a contiguous circular region of
        // the item space; regions overlap, so items typically have many
        // owners near region centers and few near the edges.
        let mut holdings = vec![ItemSet::new(m); n];
        for holding in holdings.iter_mut() {
            let (wlo, whi) = self.region_width;
            let width = if whi > wlo {
                rng.gen_range(wlo..=whi)
            } else {
                wlo
            };
            let span = ((width * m as f64).round() as usize).clamp(1, m);
            let start = rng.gen_range(0..m);
            insert_circular(holding, start, span);
        }
        // Orphan fix-up: any item no region reached is handed to a random
        // device so the universe invariant (every item owned) holds.
        {
            let mut covered = ItemSet::new(m);
            for h in &holdings {
                covered.union_with(h);
            }
            for item in 0..m {
                let id = crate::data::DataItemId(item);
                if !covered.contains(id) {
                    holdings[rng.gen_range(0..n)].insert(id);
                }
            }
        }
        let item_sizes = vec![Bytes::from_kb(self.item_kb); m];
        let universe = DataUniverse::new(item_sizes, holdings)?;

        // Tasks: random owners, random item subsets, random operators.
        let slowest_cpu = system
            .devices()
            .iter()
            .map(|d| d.cpu)
            .fold(Hertz::new(f64::INFINITY), Hertz::min);
        let mut per_user_counter = vec![0usize; n];
        let mut tasks = Vec::with_capacity(self.tasks_total);
        for t in 0..self.tasks_total {
            let user = t % n;
            per_user_counter[user] += 1;
            let (ilo, ihi) = self.items_per_task;
            let count = rng.gen_range(ilo..=ihi);
            let mut pool: Vec<usize> = (0..m).collect();
            pool.shuffle(&mut rng);
            let items =
                ItemSet::from_ids(m, pool.into_iter().take(count).map(crate::data::DataItemId));
            let op = *AggregateOp::ALL.choose(&mut rng).expect("nonempty");
            let input = universe.set_size(&items);
            let serial_local = system.cycle_model.cycles(input, 1.0) / slowest_cpu;
            let (slo, shi) = self.deadline_slack;
            let slack = if shi > slo {
                rng.gen_range(slo..=shi)
            } else {
                slo
            };
            tasks.push(DivisibleTask {
                id: TaskId {
                    user,
                    index: per_user_counter[user] - 1,
                },
                owner: DeviceId(user),
                op,
                items,
                complexity: 1.0,
                resource: input,
                deadline: serial_local * slack,
            });
        }
        Ok(DivisibleScenario {
            system,
            universe,
            tasks,
        })
    }
}

/// A generated divisible-task scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DivisibleScenario {
    /// The MEC system.
    pub system: MecSystem,
    /// The shared data universe with per-device holdings.
    pub universe: DataUniverse,
    /// The divisible tasks.
    pub tasks: Vec<DivisibleTask>,
}

impl DivisibleScenario {
    /// The union of all tasks' required items — the paper's `D`.
    pub fn required_universe(&self) -> ItemSet {
        let mut d = ItemSet::new(self.universe.num_items());
        for t in &self.tasks {
            d.union_with(&t.items);
        }
        d
    }
}

/// Adds the circular region `start, start+1, …, start+span−1 (mod m)` to
/// `holding` as at most two word-filled ranges (the second when the
/// region wraps past item `m − 1`).
fn insert_circular(holding: &mut ItemSet, start: usize, span: usize) {
    let m = holding.capacity();
    let end = start + span;
    holding.insert_range(start..end.min(m));
    if end > m {
        holding.insert_range(0..end - m);
    }
}

// JSON codecs (wire-compatible with the former serde derives).
djson::impl_json_struct!(ScenarioConfig {
    seed,
    num_stations,
    devices_per_station,
    tasks_total,
    max_input_kb,
    min_input_frac,
    external_frac_range,
    deadline_factor_range,
    device_cpu_ghz_range,
    station_cpu_ghz,
    cloud_cpu_ghz,
    device_resource_mb,
    station_resource_mb,
    resource_factor,
    wifi_prob,
    result_model,
    complexity_range,
});
djson::impl_json_struct!(Scenario { system, tasks });
djson::impl_json_struct!(DivisibleScenarioConfig {
    base,
    num_items,
    item_kb,
    region_width,
    tasks_total,
    items_per_task,
    deadline_slack,
});
djson::impl_json_struct!(DivisibleScenario {
    system,
    universe,
    tasks
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = ScenarioConfig::paper_defaults(7).generate().unwrap();
        let b = ScenarioConfig::paper_defaults(7).generate().unwrap();
        assert_eq!(a, b);
        let c = ScenarioConfig::paper_defaults(8).generate().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn paper_defaults_shape() {
        let s = ScenarioConfig::paper_defaults(1).generate().unwrap();
        assert_eq!(s.system.num_stations(), 5);
        assert_eq!(s.system.num_devices(), 50);
        assert_eq!(s.tasks.len(), 100);
        for t in &s.tasks {
            t.validate().unwrap();
            assert!(t.local_size.as_kb() <= 3000.0 + 1e-9);
            assert!(t.external_size.value() <= 0.5 * t.local_size.value() + 1e-6);
        }
    }

    #[test]
    fn deadlines_are_achievable_by_construction() {
        let s = ScenarioConfig::paper_defaults(3).generate().unwrap();
        for t in &s.tasks {
            let costs = cost::evaluate(&s.system, t).unwrap();
            assert!(
                costs.min_time() <= t.deadline,
                "{}: best {} > deadline {}",
                t.id,
                costs.min_time(),
                t.deadline
            );
        }
    }

    #[test]
    fn device_cpus_respect_configured_range() {
        let s = ScenarioConfig::paper_defaults(11).generate().unwrap();
        for d in s.system.devices() {
            let ghz = d.cpu.as_ghz();
            assert!((1.0..=2.0).contains(&ghz), "cpu {ghz} GHz out of range");
        }
    }

    #[test]
    fn tasks_spread_round_robin() {
        let mut cfg = ScenarioConfig::paper_defaults(5);
        cfg.tasks_total = 101; // one device gets an extra task
        let s = cfg.generate().unwrap();
        let mut counts = vec![0usize; s.system.num_devices()];
        for t in &s.tasks {
            counts[t.owner.0] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "round-robin keeps loads within 1");
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut cfg = ScenarioConfig::paper_defaults(1);
        cfg.tasks_total = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ScenarioConfig::paper_defaults(1);
        cfg.wifi_prob = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = ScenarioConfig::paper_defaults(1);
        cfg.external_frac_range = (0.5, 0.1);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn divisible_scenario_covers_universe() {
        let cfg = DivisibleScenarioConfig::paper_defaults(9);
        let s = cfg.generate().unwrap();
        assert_eq!(s.universe.num_items(), cfg.num_items);
        assert_eq!(s.tasks.len(), cfg.tasks_total);
        for t in &s.tasks {
            t.validate().unwrap();
        }
        // Every required item is owned by somebody (universe invariant).
        let d = s.required_universe();
        for item in d.iter() {
            assert!(!s.universe.owners(item).is_empty());
        }
    }

    #[test]
    fn divisible_generation_is_deterministic() {
        let a = DivisibleScenarioConfig::paper_defaults(2)
            .generate()
            .unwrap();
        let b = DivisibleScenarioConfig::paper_defaults(2)
            .generate()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn divisible_validation_rejects_bad_ranges() {
        let mut cfg = DivisibleScenarioConfig::paper_defaults(1);
        cfg.items_per_task = (0, 5);
        assert!(cfg.validate().is_err());
        let mut cfg = DivisibleScenarioConfig::paper_defaults(1);
        cfg.items_per_task = (10, 5);
        assert!(cfg.validate().is_err());
        let mut cfg = DivisibleScenarioConfig::paper_defaults(1);
        cfg.num_items = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn circular_region_fill_matches_per_item_inserts() {
        detrand::prop::run_cases(
            "circular_region_fill_matches_per_item_inserts",
            512,
            |rng| {
                let m = match rng.gen_range(0..3usize) {
                    0 => 64 * rng.gen_range(1..5usize),
                    1 => rng.gen_range(1..300usize),
                    _ => 64 * rng.gen_range(1..5usize) + rng.gen_range(1..64usize),
                };
                // Starts and region ends on word boundaries, full-universe
                // spans and wrapping regions each get a share of the cases.
                let start = if rng.gen_bool(0.3) {
                    64 * rng.gen_range(0..=(m - 1) / 64)
                } else {
                    rng.gen_range(0..m)
                };
                let span = match rng.gen_range(0..4usize) {
                    0 => m,
                    1 => {
                        // The region ends just before a word boundary (or at
                        // item m − 1), wrapping when that end precedes start.
                        let end = (64 * rng.gen_range(1..=m.div_ceil(64))).min(m);
                        match (end + m - start) % m {
                            0 => m,
                            span => span,
                        }
                    }
                    _ => rng.gen_range(1..=m),
                };
                let mut filled = ItemSet::new(m);
                insert_circular(&mut filled, start, span);
                let mut expected = ItemSet::new(m);
                for k in 0..span {
                    expected.insert(crate::data::DataItemId((start + k) % m));
                }
                detrand::prop_assert_eq!(filled, expected, "m {m}, start {start}, span {span}");
                Ok(())
            },
        );
    }
}

/// Poisson arrival times: `n` cumulative exponential inter-arrival gaps
/// at `rate_per_second`, deterministic in the seed. Feed these to
/// [`crate::sim::simulate_with_arrivals`] for open-loop workloads instead
/// of the paper's all-at-once batch.
///
/// # Errors
///
/// Returns [`MecError::InvalidParameter`] for a non-positive rate.
pub fn poisson_arrivals(
    seed: u64,
    n: usize,
    rate_per_second: f64,
) -> Result<Vec<Seconds>, MecError> {
    if !(rate_per_second.is_finite() && rate_per_second > 0.0) {
        return Err(MecError::InvalidParameter {
            name: "rate_per_second",
            reason: format!("{rate_per_second} must be positive"),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x706f6973_736f6e21);
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate_per_second;
        out.push(Seconds::new(t));
    }
    Ok(out)
}

#[cfg(test)]
mod arrival_tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_sorted_and_deterministic() {
        let a = poisson_arrivals(5, 200, 2.0).unwrap();
        let b = poisson_arrivals(5, 200, 2.0).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // Mean inter-arrival ~ 1/rate: loose statistical check.
        let mean_gap = a.last().unwrap().value() / a.len() as f64;
        assert!((mean_gap - 0.5).abs() < 0.15, "mean gap {mean_gap}");
    }

    #[test]
    fn poisson_rejects_bad_rate() {
        assert!(poisson_arrivals(1, 10, 0.0).is_err());
        assert!(poisson_arrivals(1, 10, f64::NAN).is_err());
    }
}
