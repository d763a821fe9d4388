//! The exported trace shape: stable, versioned, documented in DESIGN.md
//! §7. Everything here round-trips through `djson` (schema test below).
//!
//! ## Versioning / compatibility rule
//!
//! Schema changes are **additive**: new top-level keys may appear, the
//! existing ones never change shape, and `version` is bumped to mark the
//! addition. To keep every released reader working on every future file,
//! [`TraceSnapshot`] deliberately bypasses `djson`'s strict object
//! decoder at the top level: unknown top-level keys are ignored and the
//! `events` array (new in v2) defaults to empty — so a v2 reader parses
//! v1 files and a v1-shaped reader keeps parsing v2 aggregates. The
//! nested record types stay strict; their shapes are frozen per version
//! — with one carve-out: [`HistogramStat`] grew `p50`/`p95`/`p99` in v3,
//! and its hand-written decoder defaults them to 0 when absent so v3
//! readers keep parsing v1/v2 files (`bench/baseline.json` included).

use djson::{impl_json_struct, FromJson, Json, JsonError, ToJson};

/// Version of the trace JSON schema emitted by [`TraceSnapshot`].
/// v1: aggregates only. v2: adds the flight-recorder `events` array.
/// v3: adds the top-level `gauges` array and nearest-rank `p50`/`p95`/
/// `p99` percentile fields on histogram aggregates.
pub const SCHEMA_VERSION: u32 = 3;

/// Aggregated statistics of one named span (timed region).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Metric path, e.g. `lp_hta/relaxation`.
    pub name: String,
    /// Number of times the span ran.
    pub count: u64,
    /// Total wall time across all runs, nanoseconds.
    pub total_ns: u64,
    /// Fastest single run, nanoseconds.
    pub min_ns: u64,
    /// Slowest single run, nanoseconds.
    pub max_ns: u64,
}

impl_json_struct!(SpanStat {
    name,
    count,
    total_ns,
    min_ns,
    max_ns
});

/// Final value of one monotonic counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterStat {
    /// Metric path, e.g. `linprog/simplex/pivots`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

impl_json_struct!(CounterStat { name, value });

/// Current value of one gauge (last write wins). New in schema v3.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeStat {
    /// Metric path, e.g. `serve/queue_depth`.
    pub name: String,
    /// The most recently set value.
    pub value: f64,
}

impl_json_struct!(GaugeStat { name, value });

/// Aggregated statistics of one value histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStat {
    /// Metric path, e.g. `dta/greedy/residual_items`.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (mean = `sum / count`).
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Nearest-rank median, estimated from the fixed log buckets
    /// (upper bucket bound, clamped into `[min, max]`). New in v3.
    pub p50: f64,
    /// Nearest-rank 95th percentile, same estimator. New in v3.
    pub p95: f64,
    /// Nearest-rank 99th percentile, same estimator. New in v3.
    pub p99: f64,
}

impl ToJson for HistogramStat {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), self.name.to_json()),
            ("count".to_string(), self.count.to_json()),
            ("sum".to_string(), self.sum.to_json()),
            ("min".to_string(), self.min.to_json()),
            ("max".to_string(), self.max.to_json()),
            ("p50".to_string(), self.p50.to_json()),
            ("p95".to_string(), self.p95.to_json()),
            ("p99".to_string(), self.p99.to_json()),
        ])
    }
}

impl FromJson for HistogramStat {
    /// Hand-written for the v3 carve-out: the v1 fields are required,
    /// the percentile fields default to 0 when absent (v1/v2 files),
    /// and unknown keys are ignored like at the snapshot top level.
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let Json::Obj(entries) = value else {
            return Err(JsonError::expected("object", value).at("HistogramStat"));
        };
        let mut name = None;
        let mut count = None;
        let mut sum = None;
        let mut min = None;
        let mut max = None;
        let (mut p50, mut p95, mut p99) = (0.0, 0.0, 0.0);
        for (key, field) in entries {
            let pathed = |e: JsonError| e.at(format!("HistogramStat.{key}"));
            match key.as_str() {
                "name" => name = Some(String::from_json(field).map_err(pathed)?),
                "count" => count = Some(u64::from_json(field).map_err(pathed)?),
                "sum" => sum = Some(f64::from_json(field).map_err(pathed)?),
                "min" => min = Some(f64::from_json(field).map_err(pathed)?),
                "max" => max = Some(f64::from_json(field).map_err(pathed)?),
                "p50" => p50 = f64::from_json(field).map_err(pathed)?,
                "p95" => p95 = f64::from_json(field).map_err(pathed)?,
                "p99" => p99 = f64::from_json(field).map_err(pathed)?,
                _ => {}
            }
        }
        let require =
            |field: &str| JsonError::msg(format!("missing field `{field}`")).at("HistogramStat");
        Ok(HistogramStat {
            name: name.ok_or_else(|| require("name"))?,
            count: count.ok_or_else(|| require("count"))?,
            sum: sum.ok_or_else(|| require("sum"))?,
            min: min.ok_or_else(|| require("min"))?,
            max: max.ok_or_else(|| require("max"))?,
            p50,
            p95,
            p99,
        })
    }
}

/// One flight-recorder event: a single finished occurrence of a span,
/// with identity and parent linkage (schema v2, see DESIGN.md §7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Metric path, same namespace as [`SpanStat::name`].
    pub name: String,
    /// Process-unique span id (> 0; ids are never reused).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root. Usually the innermost
    /// open span on the same thread; fan-out workers link across
    /// threads via `mec_obs::span_with_parent`.
    pub parent: u64,
    /// Dense id of the thread the span ran on.
    pub thread: u64,
    /// Start time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End time, same epoch; `end_ns >= start_ns`.
    pub end_ns: u64,
}

impl_json_struct!(SpanEvent {
    name,
    id,
    parent,
    thread,
    start_ns,
    end_ns
});

impl SpanEvent {
    /// Wall time of this occurrence, nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One merged, name-sorted export of everything recorded since the last
/// reset. This is the JSON written by `repro --trace` / `dsmec --trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Schema version ([`SCHEMA_VERSION`]) of the *writer*. Readers
    /// accept any version (see the module-level compatibility rule).
    pub version: u32,
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Counter values, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Gauge values, sorted by name, empty before any `gauge_set` (and
    /// in every v1/v2 file). New in schema v3.
    pub gauges: Vec<GaugeStat>,
    /// Histogram aggregates, sorted by name.
    pub histograms: Vec<HistogramStat>,
    /// Flight-recorder events sorted by start time, empty unless events
    /// were enabled (and in every v1 file). New in schema v2.
    pub events: Vec<SpanEvent>,
}

impl ToJson for TraceSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".to_string(), self.version.to_json()),
            ("spans".to_string(), self.spans.to_json()),
            ("counters".to_string(), self.counters.to_json()),
            ("gauges".to_string(), self.gauges.to_json()),
            ("histograms".to_string(), self.histograms.to_json()),
            ("events".to_string(), self.events.to_json()),
        ])
    }
}

impl FromJson for TraceSnapshot {
    /// Tolerant top-level decode: every section defaults to empty when
    /// absent (v1 files have no `events`), unknown keys are skipped
    /// (future versions only add keys), only `version` is required.
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let Json::Obj(entries) = value else {
            return Err(JsonError::expected("object", value).at("TraceSnapshot"));
        };
        let mut snap = TraceSnapshot {
            version: 0,
            spans: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            events: Vec::new(),
        };
        let mut saw_version = false;
        for (key, field) in entries {
            let pathed = |e: JsonError| e.at(format!("TraceSnapshot.{key}"));
            match key.as_str() {
                "version" => {
                    snap.version = u32::from_json(field).map_err(pathed)?;
                    saw_version = true;
                }
                "spans" => snap.spans = Vec::from_json(field).map_err(pathed)?,
                "counters" => snap.counters = Vec::from_json(field).map_err(pathed)?,
                "gauges" => snap.gauges = Vec::from_json(field).map_err(pathed)?,
                "histograms" => snap.histograms = Vec::from_json(field).map_err(pathed)?,
                "events" => snap.events = Vec::from_json(field).map_err(pathed)?,
                _ => {} // forward compatibility: later versions add keys
            }
        }
        if !saw_version {
            return Err(JsonError::msg("missing field `version`").at("TraceSnapshot"));
        }
        Ok(snap)
    }
}

impl TraceSnapshot {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
    }

    /// Looks up a span aggregate by exact name.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Looks up a counter value by exact name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by exact name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram aggregate by exact name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramStat> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// One counter inside an interval window: the running total plus the
/// delta accumulated since the previous tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterWindow {
    /// Metric path.
    pub name: String,
    /// Cumulative value since the last reset.
    pub total: u64,
    /// Increment within this window.
    pub delta: u64,
}

impl_json_struct!(CounterWindow { name, total, delta });

/// One occupied histogram bucket of a window, in Prometheus `le` form:
/// the cumulative count of window observations at or below `le`.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket (a power of two).
    pub le: f64,
    /// Window observations with value `<= le` (non-decreasing across
    /// the bucket list; the implicit `+Inf` count is the window count).
    pub count: u64,
}

impl_json_struct!(BucketCount { le, count });

/// One histogram windowed over an interval: the delta statistics since
/// the previous tick plus the running total count.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramWindow {
    /// Metric path.
    pub name: String,
    /// Cumulative observation count since the last reset.
    pub total_count: u64,
    /// Observations within this window.
    pub count: u64,
    /// Sum of the window's observed values.
    pub sum: f64,
    /// Lower bound on the window's smallest value (bucket bound
    /// tightened by the cumulative minimum); 0 when the window is empty.
    pub min: f64,
    /// Upper bound on the window's largest value; 0 when empty.
    pub max: f64,
    /// Nearest-rank median over the window's bucket deltas.
    pub p50: f64,
    /// Nearest-rank 95th percentile over the window.
    pub p95: f64,
    /// Nearest-rank 99th percentile over the window.
    pub p99: f64,
    /// The window's occupied buckets, ascending `le`.
    pub buckets: Vec<BucketCount>,
}

impl_json_struct!(HistogramWindow {
    name,
    total_count,
    count,
    sum,
    min,
    max,
    p50,
    p95,
    p99,
    buckets,
});

/// One closed telemetry window, returned by `mec_obs::snapshot_interval`
/// and appended per epoch to the `dsmec serve --metrics-out` JSONL
/// flight log (one compact-encoded snapshot per line).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSnapshot {
    /// Zero-based tick index since the last reset.
    pub interval: u64,
    /// Counter windows, sorted by name.
    pub counters: Vec<CounterWindow>,
    /// Current gauge values, sorted by name.
    pub gauges: Vec<GaugeStat>,
    /// Histogram windows, sorted by name.
    pub histograms: Vec<HistogramWindow>,
}

impl_json_struct!(IntervalSnapshot {
    interval,
    counters,
    gauges,
    histograms,
});

impl IntervalSnapshot {
    /// Looks up a counter window by exact name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<&CounterWindow> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Looks up a gauge value by exact name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram window by exact name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramWindow> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            version: SCHEMA_VERSION,
            spans: vec![SpanStat {
                name: "lp_hta/relaxation".into(),
                count: 3,
                total_ns: 1_500,
                min_ns: 400,
                max_ns: 700,
            }],
            counters: vec![CounterStat {
                name: "linprog/simplex/pivots".into(),
                value: 42,
            }],
            gauges: vec![GaugeStat {
                name: "serve/queue_depth".into(),
                value: 12.0,
            }],
            histograms: vec![HistogramStat {
                name: "dta/greedy/residual_items".into(),
                count: 2,
                sum: 9.0,
                min: 3.0,
                max: 6.0,
                p50: 3.0,
                p95: 6.0,
                p99: 6.0,
            }],
            events: vec![
                SpanEvent {
                    name: "sweep/point".into(),
                    id: 1,
                    parent: 0,
                    thread: 1,
                    start_ns: 10,
                    end_ns: 900,
                },
                SpanEvent {
                    name: "lp_hta/relaxation".into(),
                    id: 2,
                    parent: 1,
                    thread: 1,
                    start_ns: 20,
                    end_ns: 420,
                },
            ],
        }
    }

    /// The schema round-trip the ISSUE asks for: emit → parse with djson
    /// → assert span/counter/event shape.
    #[test]
    fn snapshot_round_trips_through_djson() {
        let snap = sample();
        let text = djson::to_string_pretty(&snap);
        let back: TraceSnapshot = djson::from_str(&text).unwrap();
        assert_eq!(back, snap);

        // The documented top-level shape, checked structurally too.
        let value = djson::parse(&text).unwrap();
        let djson::Json::Obj(fields) = &value else {
            panic!("snapshot must serialize as an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "version",
                "spans",
                "counters",
                "gauges",
                "histograms",
                "events"
            ]
        );
    }

    /// Compat rule for the v3 histogram fields: a pre-v3 file whose
    /// histograms lack `p50`/`p95`/`p99` (and whose top level lacks
    /// `gauges`) still decodes, with the percentiles zeroed.
    #[test]
    fn pre_v3_histograms_without_percentiles_still_parse() {
        let v2 = r#"{
            "version": 2,
            "spans": [],
            "counters": [],
            "histograms": [{"name": "h", "count": 2, "sum": 9.0, "min": 3.0, "max": 6.0}],
            "events": []
        }"#;
        let snap: TraceSnapshot = djson::from_str(v2).unwrap();
        assert!(snap.gauges.is_empty());
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.p50, 0.0);
        assert_eq!(h.p95, 0.0);
        assert_eq!(h.p99, 0.0);
    }

    /// Interval snapshots — the per-epoch flight-log record — round-trip
    /// through djson and expose name lookups like the cumulative shape.
    #[test]
    fn interval_snapshot_round_trips_through_djson() {
        let window = IntervalSnapshot {
            interval: 3,
            counters: vec![CounterWindow {
                name: "serve/assigned".into(),
                total: 100,
                delta: 40,
            }],
            gauges: vec![GaugeStat {
                name: "serve/queue_depth".into(),
                value: 5.0,
            }],
            histograms: vec![HistogramWindow {
                name: "serve/repair_ms".into(),
                total_count: 9,
                count: 4,
                sum: 10.0,
                min: 1.0,
                max: 4.0,
                p50: 2.0,
                p95: 4.0,
                p99: 4.0,
                buckets: vec![
                    BucketCount { le: 2.0, count: 3 },
                    BucketCount { le: 4.0, count: 4 },
                ],
            }],
        };
        let text = djson::to_string(&window);
        let back: IntervalSnapshot = djson::from_str(&text).unwrap();
        assert_eq!(back, window);
        assert_eq!(back.counter("serve/assigned").unwrap().delta, 40);
        assert_eq!(back.gauge("serve/queue_depth"), Some(5.0));
        assert_eq!(back.histogram("serve/repair_ms").unwrap().buckets.len(), 2);
        assert!(back.counter("nope").is_none());
        assert_eq!(back.gauge("nope"), None);
        assert!(back.histogram("nope").is_none());
    }

    /// Compat rule, backward half: a v1 file (no `events` key) still
    /// decodes, with an empty event list.
    #[test]
    fn v1_files_without_events_still_parse() {
        let v1 = r#"{
            "version": 1,
            "spans": [{"name": "a", "count": 1, "total_ns": 5, "min_ns": 5, "max_ns": 5}],
            "counters": [],
            "histograms": []
        }"#;
        let snap: TraceSnapshot = djson::from_str(v1).unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.spans.len(), 1);
        assert!(snap.events.is_empty());
    }

    /// Compat rule, forward half: unknown top-level keys from a future
    /// version are ignored, so today's reader parses tomorrow's file.
    #[test]
    fn unknown_top_level_keys_are_ignored() {
        let v4 = r#"{"version": 4, "spans": [], "counters": [], "gauges": [],
                     "histograms": [], "events": [], "future_section": [1, 2, 3]}"#;
        let snap: TraceSnapshot = djson::from_str(v4).unwrap();
        assert_eq!(snap.version, 4);
        assert!(snap.is_empty());
    }

    #[test]
    fn missing_version_is_rejected() {
        let err = djson::from_str::<TraceSnapshot>("{\"spans\": []}").unwrap_err();
        assert!(err.to_string().contains("missing field `version`"), "{err}");
    }

    #[test]
    fn event_duration_saturates() {
        let mut e = sample().events[0].clone();
        assert_eq!(e.duration_ns(), 890);
        e.end_ns = 0;
        assert_eq!(e.duration_ns(), 0);
    }

    #[test]
    fn lookup_helpers_find_by_name() {
        let snap = TraceSnapshot {
            version: SCHEMA_VERSION,
            spans: vec![],
            counters: vec![CounterStat {
                name: "cache/scenario/hits".into(),
                value: 7,
            }],
            gauges: vec![GaugeStat {
                name: "serve/epoch".into(),
                value: 3.0,
            }],
            histograms: vec![],
            events: vec![],
        };
        assert_eq!(snap.counter("cache/scenario/hits"), Some(7));
        assert_eq!(snap.counter("cache/scenario/misses"), None);
        assert_eq!(snap.gauge("serve/epoch"), Some(3.0));
        assert_eq!(snap.gauge("nope"), None);
        assert!(snap.span("nope").is_none());
        assert!(snap.histogram("nope").is_none());
        assert!(!snap.is_empty());
    }
}
