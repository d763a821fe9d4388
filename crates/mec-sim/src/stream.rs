//! Deterministic open-loop task streams for the online serve mode.
//!
//! The paper's experiments assign one fixed batch; a serving system sees
//! tasks *arrive*. [`StreamConfig`] turns a [`ScenarioConfig`] into a
//! fixed topology plus a seeded sequence of epoch batches: `epochs ×
//! batch` tasks drawn from the same generator as the offline scenarios,
//! released at Poisson arrival times and grouped into micro-batches the
//! assignment loop drains one epoch at a time.
//!
//! Everything is deterministic in the seed — two streams from equal
//! configs are equal, which is what the serve loop's cross-thread
//! fingerprint oracle relies on. Because scenario tasks are dealt
//! round-robin over devices, a `batch` that is a multiple of the device
//! count keeps every cluster's per-epoch task count constant, so the
//! per-station LP shape is stable across epochs and warm-started bases
//! keep fitting (see `dsmec serve`).

use crate::error::MecError;
use crate::task::HolisticTask;
use crate::topology::MecSystem;
use crate::units::Seconds;
use crate::workload::{poisson_arrivals, ScenarioConfig};

/// Configuration of a deterministic task-arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Topology, task physics and the master seed.
    pub scenario: ScenarioConfig,
    /// Number of epoch batches to generate.
    pub epochs: usize,
    /// Tasks per epoch. Multiples of the device count keep per-cluster
    /// LP shapes constant across epochs (best warm-start hit rates).
    pub batch: usize,
    /// Poisson arrival rate, tasks per second.
    pub rate_per_second: f64,
}

impl StreamConfig {
    /// Paper-defaults topology (5 stations × 10 devices) streaming
    /// `epochs` batches of one task per device at 50 tasks/s.
    pub fn paper_defaults(seed: u64, epochs: usize) -> StreamConfig {
        let scenario = ScenarioConfig::paper_defaults(seed);
        let batch = scenario.num_stations * scenario.devices_per_station;
        StreamConfig {
            scenario,
            epochs,
            batch,
            rate_per_second: 50.0,
        }
    }

    /// Generates the deterministic stream: one topology, `epochs` batches
    /// of `batch` tasks each, with strictly increasing arrival times.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidParameter`] for zero epochs/batch or a
    /// non-positive rate, and propagates scenario-generation errors. A bad
    /// scenario field is reported before the stream's own parameters.
    pub fn generate(&self) -> Result<TaskStream, MecError> {
        // `tasks_total` is set from `epochs × batch` below, so any
        // positive stand-in lets `validate` check the other fields.
        let mut cfg = self.scenario.clone();
        cfg.tasks_total = 1;
        cfg.validate()?;
        if self.epochs == 0 {
            return Err(MecError::InvalidParameter {
                name: "epochs",
                reason: "must be positive".into(),
            });
        }
        if self.batch == 0 {
            return Err(MecError::InvalidParameter {
                name: "batch",
                reason: "must be positive".into(),
            });
        }
        let total =
            self.epochs
                .checked_mul(self.batch)
                .ok_or_else(|| MecError::InvalidParameter {
                    name: "epochs",
                    reason: format!("{} x {} tasks overflows", self.epochs, self.batch),
                })?;
        cfg.tasks_total = total;
        let scenario = cfg.generate()?;
        let arrivals = poisson_arrivals(self.scenario.seed, total, self.rate_per_second)?;
        let batches = scenario
            .tasks
            .chunks(self.batch)
            .zip(arrivals.chunks(self.batch))
            .enumerate()
            .map(|(epoch, (tasks, at))| EpochBatch {
                epoch,
                tasks: tasks.to_vec(),
                arrivals: at.to_vec(),
            })
            .collect();
        Ok(TaskStream {
            system: scenario.system,
            batches,
        })
    }
}

/// One epoch's worth of arrivals: the tasks and their release times,
/// parallel vectors in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochBatch {
    /// Zero-based epoch number.
    pub epoch: usize,
    /// The tasks arriving this epoch.
    pub tasks: Vec<HolisticTask>,
    /// Release times, parallel to `tasks`, strictly increasing across
    /// the whole stream.
    pub arrivals: Vec<Seconds>,
}

impl EpochBatch {
    /// When this epoch's last task arrives — the decision deadline the
    /// serve loop batches against.
    #[must_use]
    pub fn close_time(&self) -> Seconds {
        self.arrivals.last().copied().unwrap_or(Seconds::ZERO)
    }
}

/// A generated stream: the fixed topology and the epoch batches.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskStream {
    /// The MEC system every epoch assigns into.
    pub system: MecSystem,
    /// Epoch batches in arrival order.
    pub batches: Vec<EpochBatch>,
}

impl TaskStream {
    /// Arrival time of the stream's last task (zero for an empty stream)
    /// — the horizon a churn plan should span.
    #[must_use]
    pub fn horizon(&self) -> Seconds {
        self.batches
            .last()
            .map(EpochBatch::close_time)
            .unwrap_or(Seconds::ZERO)
    }
}

djson::impl_json_struct!(StreamConfig {
    scenario,
    epochs,
    batch,
    rate_per_second,
});
djson::impl_json_struct!(EpochBatch {
    epoch,
    tasks,
    arrivals
});
djson::impl_json_struct!(TaskStream { system, batches });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let a = StreamConfig::paper_defaults(11, 4).generate().unwrap();
        let b = StreamConfig::paper_defaults(11, 4).generate().unwrap();
        assert_eq!(a, b);
        let c = StreamConfig::paper_defaults(12, 4).generate().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn batches_keep_per_device_load_constant() {
        // One task per device per epoch: every epoch covers every device
        // exactly once, so per-cluster LP shapes never change.
        let stream = StreamConfig::paper_defaults(3, 3).generate().unwrap();
        assert_eq!(stream.batches.len(), 3);
        let n = stream.system.num_devices();
        for batch in &stream.batches {
            assert_eq!(batch.tasks.len(), n);
            let mut seen = vec![false; n];
            for t in &batch.tasks {
                assert!(!seen[t.owner.0], "device {} twice in epoch", t.owner.0);
                seen[t.owner.0] = true;
            }
        }
    }

    #[test]
    fn arrivals_increase_across_the_whole_stream() {
        let stream = StreamConfig::paper_defaults(9, 5).generate().unwrap();
        let all: Vec<f64> = stream
            .batches
            .iter()
            .flat_map(|b| b.arrivals.iter().map(|s| s.value()))
            .collect();
        assert_eq!(all.len(), 5 * stream.system.num_devices());
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(stream.horizon().value(), *all.last().unwrap());
        assert!(stream.batches[0].close_time().value() < stream.horizon().value());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut cfg = StreamConfig::paper_defaults(1, 0);
        assert!(cfg.generate().is_err());
        cfg.epochs = 2;
        cfg.batch = 0;
        assert!(cfg.generate().is_err());
        cfg.batch = 4;
        cfg.rate_per_second = 0.0;
        assert!(cfg.generate().is_err());
    }

    #[test]
    fn a_bad_scenario_is_named_before_the_stream_parameters() {
        // `dsmec serve --stations 0` builds exactly this config.
        let mut cfg = StreamConfig::paper_defaults(1, 2);
        cfg.scenario.num_stations = 0;
        cfg.batch = 0;
        let err = cfg.generate().unwrap_err();
        assert!(
            matches!(
                err,
                MecError::InvalidParameter {
                    name: "num_stations",
                    ..
                }
            ),
            "{err}"
        );
        cfg.scenario.num_stations = 2;
        let err = cfg.generate().unwrap_err();
        assert!(
            matches!(err, MecError::InvalidParameter { name: "batch", .. }),
            "{err}"
        );
    }

    #[test]
    fn stream_round_trips_through_json() {
        let mut cfg = StreamConfig::paper_defaults(5, 2);
        cfg.scenario.num_stations = 1;
        cfg.scenario.devices_per_station = 3;
        cfg.batch = 3;
        let stream = cfg.generate().unwrap();
        let json = djson::to_string(&stream);
        let back: TaskStream = djson::from_str(&json).unwrap();
        assert_eq!(back, stream);
    }
}
