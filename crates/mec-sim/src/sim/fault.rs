//! The fault plane: deterministic, seed-replayable failure injection for
//! the discrete-event executor.
//!
//! A [`FaultPlan`] is a list of faults pinned to *simulated* timestamps:
//! permanent device dropouts, transient radio-link outage windows,
//! link-rate degradation windows and CPU straggler windows. Plans are
//! either hand-built ([`FaultPlan::new`]) or drawn from a seed through
//! [`ChaosConfig`] — the same seed always yields the same plan, so any
//! degraded run replays bit-for-bit.
//!
//! ## Semantics (the determinism contract, DESIGN.md §8)
//!
//! Faults apply at **stage service start**, never mid-flight:
//!
//! * a stage *starting* at or after a device's dropout time on any of
//!   that device's resources fails its task (permanent);
//! * a radio stage starting inside a link-outage window fails its task
//!   with a *transient* marker — the repair layer retries with backoff;
//! * a radio stage starting inside a degradation window is stretched by
//!   `1/factor`; a compute stage starting inside a straggler window is
//!   stretched by `slowdown`. Stretched stages cost proportionally more
//!   energy (power × time).
//!
//! Stations, backhaul pipes and the cloud never fault in this model —
//! the paper's Section II treats them as provisioned infrastructure;
//! churn lives at the device edge.
//!
//! An empty plan never touches the engine's arithmetic: a
//! [`FaultPlan::none`] run is bit-identical to the fault-free executor
//! (asserted by `tests/chaos.rs`).

use crate::error::MecError;
use crate::sim::plan::Resource;
use crate::topology::{DeviceId, MecSystem};
use crate::units::Seconds;
use detrand::ChaCha8Rng;

/// A half-open activity window `[from, until)` in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Window start (inclusive).
    pub from: Seconds,
    /// Window end (exclusive).
    pub until: Seconds,
}

impl Window {
    /// Whether `t` falls inside the window.
    #[must_use]
    pub fn contains(&self, t: f64) -> bool {
        self.from.value() <= t && t < self.until.value()
    }
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The device dies permanently at `at`: every stage starting at or
    /// after `at` on one of its resources fails its task.
    Dropout {
        /// The dying device.
        device: DeviceId,
        /// Time of death.
        at: Seconds,
    },
    /// The device's radio link is unusable during the window; radio
    /// stages starting inside fail transiently (retryable).
    LinkOutage {
        /// The affected device.
        device: DeviceId,
        /// When the link is down.
        window: Window,
    },
    /// The device's radio rate is multiplied by `factor` (in `(0, 1)`)
    /// during the window: radio stages starting inside take `1/factor`
    /// times longer.
    LinkDegraded {
        /// The affected device.
        device: DeviceId,
        /// When the link is degraded.
        window: Window,
        /// Rate multiplier in `(0, 1)`.
        factor: f64,
    },
    /// The device's CPU runs `slowdown` times slower (`> 1`) during the
    /// window: compute stages starting inside are stretched by it.
    Straggler {
        /// The affected device.
        device: DeviceId,
        /// When the CPU drags.
        window: Window,
        /// Duration multiplier `> 1`.
        slowdown: f64,
    },
}

impl Fault {
    /// The device the fault targets.
    #[must_use]
    pub fn device(&self) -> DeviceId {
        match *self {
            Fault::Dropout { device, .. }
            | Fault::LinkOutage { device, .. }
            | Fault::LinkDegraded { device, .. }
            | Fault::Straggler { device, .. } => device,
        }
    }
}

/// Why a stage failed: the distinction the repair layer branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultHitKind {
    /// Permanent: the device carrying the stage's resource is dead.
    DeviceLost(DeviceId),
    /// Transient: the device's radio was inside an outage window.
    LinkOutage(DeviceId),
}

/// A validated list of faults (see the module docs for semantics).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: guaranteed bit-identical to a fault-free run.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan { faults: Vec::new() }
    }

    /// Wraps and validates a fault list.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidParameter`] for non-finite or negative
    /// times, inverted windows, degradation factors outside `(0, 1)` or
    /// straggler slowdowns `<= 1`, and [`MecError::UnknownDevice`] for
    /// devices outside `system`.
    pub fn new(system: &MecSystem, faults: Vec<Fault>) -> Result<FaultPlan, MecError> {
        let bad = |reason: String| MecError::InvalidParameter {
            name: "fault",
            reason,
        };
        let check_time = |t: Seconds, what: &str| -> Result<(), MecError> {
            if !(t.is_finite() && t.value() >= 0.0) {
                return Err(bad(format!(
                    "{what} must be nonnegative and finite, got {t}"
                )));
            }
            Ok(())
        };
        let check_window = |w: &Window| -> Result<(), MecError> {
            check_time(w.from, "window start")?;
            check_time(w.until, "window end")?;
            if w.until.value() <= w.from.value() {
                return Err(bad(format!(
                    "window [{}, {}) is empty or inverted",
                    w.from, w.until
                )));
            }
            Ok(())
        };
        for fault in &faults {
            system.device(fault.device())?;
            match fault {
                Fault::Dropout { at, .. } => check_time(*at, "dropout time")?,
                Fault::LinkOutage { window, .. } => check_window(window)?,
                Fault::LinkDegraded { window, factor, .. } => {
                    check_window(window)?;
                    if !(factor.is_finite() && *factor > 0.0 && *factor < 1.0) {
                        return Err(bad(format!(
                            "degradation factor {factor} must be in (0, 1)"
                        )));
                    }
                }
                Fault::Straggler {
                    window, slowdown, ..
                } => {
                    check_window(window)?;
                    if !(slowdown.is_finite() && *slowdown > 1.0) {
                        return Err(bad(format!("straggler slowdown {slowdown} must be > 1")));
                    }
                }
            }
        }
        Ok(FaultPlan { faults })
    }

    /// The injected faults.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True iff no fault is injected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Which devices are dead at `now`: a dense mask over device ids
    /// `0..num_devices`, `true` where a dropout happened at or before
    /// `now`. Dropouts are permanent, so the mask only grows with `now`;
    /// `Seconds::new(f64::INFINITY)` gives every device that ever drops.
    /// Dropouts of ids at or past `num_devices` are left out.
    #[must_use]
    pub fn dead_at(&self, now: Seconds, num_devices: usize) -> Vec<bool> {
        let mut dead = vec![false; num_devices];
        for fault in &self.faults {
            if let Fault::Dropout { device, at } = *fault {
                if at <= now && device.0 < num_devices {
                    dead[device.0] = true;
                }
            }
        }
        dead
    }

    /// What (if anything) kills a stage on `resource` starting at `now`.
    /// Dropouts take precedence over outages — a dead device's radio is
    /// permanently gone, not transiently down.
    #[must_use]
    pub fn hit(&self, resource: Resource, now: f64) -> Option<FaultHitKind> {
        let device = resource.device()?;
        let mut outage = None;
        for fault in &self.faults {
            match fault {
                Fault::Dropout { device: d, at } if *d == device && now >= at.value() => {
                    return Some(FaultHitKind::DeviceLost(*d));
                }
                Fault::LinkOutage { device: d, window }
                    if *d == device && resource.is_radio() && window.contains(now) =>
                {
                    outage = Some(FaultHitKind::LinkOutage(*d));
                }
                _ => {}
            }
        }
        outage
    }

    /// Duration multiplier for a stage on `resource` starting at `now`
    /// (`1.0` when untouched). Overlapping windows compound.
    #[must_use]
    pub fn stretch(&self, resource: Resource, now: f64) -> f64 {
        let Some(device) = resource.device() else {
            return 1.0;
        };
        let mut factor = 1.0;
        for fault in &self.faults {
            match fault {
                Fault::LinkDegraded {
                    device: d,
                    window,
                    factor: rate,
                } if *d == device && resource.is_radio() && window.contains(now) => {
                    factor *= 1.0 / rate;
                }
                Fault::Straggler {
                    device: d,
                    window,
                    slowdown,
                } if *d == device
                    && matches!(resource, Resource::DeviceCpu(_))
                    && window.contains(now) =>
                {
                    factor *= slowdown;
                }
                _ => {}
            }
        }
        factor
    }
}

/// Seeded fault-plan generation knobs. `from_seed` gives the documented
/// defaults; every rate is per-device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed driving every draw (same seed ⇒ same plan).
    pub seed: u64,
    /// Probability a device drops out during the horizon.
    pub dropout_prob: f64,
    /// Probability a device suffers one link-outage window.
    pub outage_prob: f64,
    /// Probability a device suffers one link-degradation window.
    pub degraded_prob: f64,
    /// Probability a device straggles for one window.
    pub straggler_prob: f64,
}

impl ChaosConfig {
    /// The default chaos mix for a seed: 10% dropouts, 20% outages, 20%
    /// degradations, 20% stragglers.
    #[must_use]
    pub fn from_seed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            dropout_prob: 0.10,
            outage_prob: 0.20,
            degraded_prob: 0.20,
            straggler_prob: 0.20,
        }
    }

    /// Draws a fault plan for `system` over `[0, horizon)`. Devices are
    /// visited in id order and each consumes a fixed number of draws, so
    /// the plan is a pure function of `(config, device count, horizon)`.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidParameter`] when a probability is
    /// outside `[0, 1]` or the horizon is not positive and finite.
    pub fn generate(&self, system: &MecSystem, horizon: Seconds) -> Result<FaultPlan, MecError> {
        for (name, p) in [
            ("dropout_prob", self.dropout_prob),
            ("outage_prob", self.outage_prob),
            ("degraded_prob", self.degraded_prob),
            ("straggler_prob", self.straggler_prob),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(MecError::InvalidParameter {
                    name: "chaos",
                    reason: format!("{name} {p} must be in [0, 1]"),
                });
            }
        }
        if !(horizon.is_finite() && horizon.value() > 0.0) {
            return Err(MecError::InvalidParameter {
                name: "chaos",
                reason: format!("horizon {horizon} must be positive and finite"),
            });
        }
        let h = horizon.value();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut faults = Vec::new();
        let window = |rng: &mut ChaCha8Rng| {
            let from = rng.gen_range(0.0..h * 0.8);
            let len = rng.gen_range(h * 0.05..h * 0.25);
            Window {
                from: Seconds::new(from),
                until: Seconds::new((from + len).min(h)),
            }
        };
        for device in system.devices() {
            // Each device consumes the same draw sequence regardless of
            // which faults fire, keeping plans stable under rate tweaks.
            let dropout = rng.gen_bool(self.dropout_prob);
            let dropout_at = rng.gen_range(h * 0.1..h);
            let outage = rng.gen_bool(self.outage_prob);
            let outage_window = window(&mut rng);
            let degraded = rng.gen_bool(self.degraded_prob);
            let degraded_window = window(&mut rng);
            let degraded_factor = rng.gen_range(0.2..0.8);
            let straggler = rng.gen_bool(self.straggler_prob);
            let straggler_window = window(&mut rng);
            let straggler_slowdown = rng.gen_range(1.5..4.0);
            if dropout {
                faults.push(Fault::Dropout {
                    device: device.id,
                    at: Seconds::new(dropout_at),
                });
            }
            if outage {
                faults.push(Fault::LinkOutage {
                    device: device.id,
                    window: outage_window,
                });
            }
            if degraded {
                faults.push(Fault::LinkDegraded {
                    device: device.id,
                    window: degraded_window,
                    factor: degraded_factor,
                });
            }
            if straggler {
                faults.push(Fault::Straggler {
                    device: device.id,
                    window: straggler_window,
                    slowdown: straggler_slowdown,
                });
            }
        }
        FaultPlan::new(system, faults)
    }
}

// JSON codecs (djson wire shapes, so plans land in reports/artifacts).
djson::impl_json_struct!(Window { from, until });
djson::impl_json_enum!(Fault {
    Dropout { device: DeviceId, at: Seconds },
    LinkOutage { device: DeviceId, window: Window },
    LinkDegraded {
        device: DeviceId,
        window: Window,
        factor: f64
    },
    Straggler {
        device: DeviceId,
        window: Window,
        slowdown: f64
    },
});
djson::impl_json_enum!(FaultHitKind {
    DeviceLost(DeviceId),
    LinkOutage(DeviceId)
});
djson::impl_json_struct!(FaultPlan { faults });
djson::impl_json_struct!(ChaosConfig {
    seed,
    dropout_prob,
    outage_prob,
    degraded_prob,
    straggler_prob,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ScenarioConfig;

    fn system() -> MecSystem {
        ScenarioConfig::paper_defaults(9).generate().unwrap().system
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let sys = system();
        let cfg = ChaosConfig::from_seed(0xC0FFEE);
        let a = cfg.generate(&sys, Seconds::new(10.0)).unwrap();
        let b = cfg.generate(&sys, Seconds::new(10.0)).unwrap();
        assert_eq!(a, b);
        let c = ChaosConfig::from_seed(0xC0FFEE + 1)
            .generate(&sys, Seconds::new(10.0))
            .unwrap();
        assert_ne!(a, c);
        // The default mix fires on a 50-device system.
        assert!(!a.is_empty());
    }

    #[test]
    fn validation_rejects_malformed_faults() {
        let sys = system();
        let d = DeviceId(0);
        let w = |a: f64, b: f64| Window {
            from: Seconds::new(a),
            until: Seconds::new(b),
        };
        // Unknown device.
        assert!(matches!(
            FaultPlan::new(
                &sys,
                vec![Fault::Dropout {
                    device: DeviceId(999),
                    at: Seconds::new(1.0)
                }]
            ),
            Err(MecError::UnknownDevice(_))
        ));
        // Negative / non-finite times.
        for at in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(FaultPlan::new(
                &sys,
                vec![Fault::Dropout {
                    device: d,
                    at: Seconds::new(at)
                }]
            )
            .is_err());
        }
        // Inverted window.
        assert!(FaultPlan::new(
            &sys,
            vec![Fault::LinkOutage {
                device: d,
                window: w(2.0, 1.0)
            }]
        )
        .is_err());
        // Degradation factor outside (0, 1).
        for factor in [0.0, 1.0, 1.5, f64::NAN] {
            assert!(FaultPlan::new(
                &sys,
                vec![Fault::LinkDegraded {
                    device: d,
                    window: w(0.0, 1.0),
                    factor
                }]
            )
            .is_err());
        }
        // Slowdown must exceed 1.
        assert!(FaultPlan::new(
            &sys,
            vec![Fault::Straggler {
                device: d,
                window: w(0.0, 1.0),
                slowdown: 1.0
            }]
        )
        .is_err());
        // Bad chaos knobs.
        let mut cfg = ChaosConfig::from_seed(1);
        cfg.dropout_prob = 1.5;
        assert!(cfg.generate(&sys, Seconds::new(10.0)).is_err());
        let cfg = ChaosConfig::from_seed(1);
        assert!(cfg.generate(&sys, Seconds::ZERO).is_err());
    }

    #[test]
    fn hit_and_stretch_respect_resource_classes() {
        let sys = system();
        let d = DeviceId(3);
        let w = Window {
            from: Seconds::new(1.0),
            until: Seconds::new(2.0),
        };
        let plan = FaultPlan::new(
            &sys,
            vec![
                Fault::Dropout {
                    device: DeviceId(1),
                    at: Seconds::new(5.0),
                },
                Fault::LinkOutage {
                    device: d,
                    window: w,
                },
                Fault::LinkDegraded {
                    device: d,
                    window: w,
                    factor: 0.5,
                },
                Fault::Straggler {
                    device: d,
                    window: w,
                    slowdown: 3.0,
                },
            ],
        )
        .unwrap();

        // Dropout bites only at/after its time, on any device resource.
        assert_eq!(plan.hit(Resource::DeviceCpu(DeviceId(1)), 4.9), None);
        assert_eq!(
            plan.hit(Resource::DeviceUp(DeviceId(1)), 5.0),
            Some(FaultHitKind::DeviceLost(DeviceId(1)))
        );
        // Outage bites radio stages inside the window only.
        assert_eq!(
            plan.hit(Resource::DeviceUp(d), 1.5),
            Some(FaultHitKind::LinkOutage(d))
        );
        assert_eq!(plan.hit(Resource::DeviceUp(d), 2.0), None); // half-open
        assert_eq!(plan.hit(Resource::DeviceCpu(d), 1.5), None); // CPU unaffected
                                                                 // Stations/backhaul/cloud never fault.
        assert_eq!(plan.hit(Resource::StationBackhaul, 1.5), None);
        assert_eq!(plan.stretch(Resource::CloudCpu, 1.5), 1.0);
        // Degradation stretches radio by 1/factor; straggler stretches CPU.
        assert_eq!(plan.stretch(Resource::DeviceDown(d), 1.5), 2.0);
        assert_eq!(plan.stretch(Resource::DeviceCpu(d), 1.5), 3.0);
        assert_eq!(plan.stretch(Resource::DeviceCpu(d), 2.5), 1.0);
        // The dead mask follows the same at-or-after rule.
        let n = sys.num_devices();
        assert!(plan.dead_at(Seconds::new(4.9), n).iter().all(|&dead| !dead));
        let dead = plan.dead_at(Seconds::new(5.0), n);
        assert_eq!(dead, plan.dead_at(Seconds::new(f64::INFINITY), n));
        let dead_ids: Vec<usize> = (0..n).filter(|&i| dead[i]).collect();
        assert_eq!(dead_ids, vec![1]);
        // Ids past the mask are left out.
        assert_eq!(plan.dead_at(Seconds::new(5.0), 1), vec![false]);
    }

    #[test]
    fn plans_round_trip_through_json() {
        let sys = system();
        let plan = ChaosConfig::from_seed(7)
            .generate(&sys, Seconds::new(8.0))
            .unwrap();
        let json = djson::to_string(&plan);
        let back: FaultPlan = djson::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
