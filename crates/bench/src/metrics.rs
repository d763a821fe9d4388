//! The `dsmec serve` telemetry plane and its analyzers.
//!
//! [`TelemetryPlane`] hangs off the serve loop's per-epoch hook
//! ([`crate::serve::serve_with_hook`]): each epoch it closes one
//! `mec_obs` interval window ([`mec_obs::snapshot_interval`]), appends it
//! as a djson line to the `--metrics-out` JSONL flight log, and
//! republishes the Prometheus exposition body the `--metrics-addr`
//! endpoint serves. The hook is infallible — a full disk or dead socket
//! must never abort an assignment session — so I/O errors are stashed
//! and surfaced by [`TelemetryPlane::finish`] after the session ends.
//!
//! Two analyzers read the plane back:
//!
//! * `dsmec metrics FLIGHT.jsonl [--slo k=v,…]` — batch: summarizes the
//!   flight log as a per-interval trend table and, with `--slo`, exits
//!   nonzero when any interval violates a threshold. This is CI's gate
//!   over *time-series* behavior, not just end totals.
//! * `dsmec top --addr HOST:PORT | FLIGHT.jsonl` — live: polls the
//!   exposition endpoint and prints one trend line per interval (or
//!   renders a recorded flight log once).

use crate::exposition::{http_get, parse_exposition, render_exposition, MetricsServer};
use crate::serve::EpochStats;
use mec_obs::IntervalSnapshot;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::net::SocketAddr;
use std::time::Duration;

/// Where the serve loop should emit telemetry, resolved from CLI flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryOptions {
    /// JSONL flight-log path (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Exposition bind address (`--metrics-addr`).
    pub metrics_addr: Option<String>,
}

impl TelemetryOptions {
    /// Resolves the options from the flags; an absent or empty flag
    /// leaves its sink off.
    #[must_use]
    pub fn resolve(out_flag: Option<&str>, addr_flag: Option<&str>) -> TelemetryOptions {
        let pick = |flag: Option<&str>| flag.filter(|v| !v.is_empty()).map(str::to_string);
        TelemetryOptions {
            metrics_out: pick(out_flag),
            metrics_addr: pick(addr_flag),
        }
    }

    /// Whether any telemetry sink is configured.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.metrics_out.is_some() || self.metrics_addr.is_some()
    }
}

/// The live telemetry plane for one serve session: flight-log writer
/// plus exposition endpoint, fed once per epoch.
#[derive(Debug)]
pub struct TelemetryPlane {
    out: Option<(String, BufWriter<File>)>,
    server: Option<MetricsServer>,
    records: u64,
    error: Option<String>,
}

impl TelemetryPlane {
    /// Starts the configured sinks: creates/truncates the flight log,
    /// binds the exposition endpoint, and enables `mec-obs` so the serve
    /// loop's counters, gauges and histograms actually record. Returns
    /// `Ok(None)` when no sink is configured.
    ///
    /// # Errors
    ///
    /// File creation or socket bind failures — these happen before any
    /// assignment work, so they *are* allowed to abort the command.
    pub fn start(opts: &TelemetryOptions) -> Result<Option<TelemetryPlane>, String> {
        if !opts.is_active() {
            return Ok(None);
        }
        mec_obs::set_enabled(true);
        let out = match &opts.metrics_out {
            Some(path) => {
                let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
                Some((path.clone(), BufWriter::new(file)))
            }
            None => None,
        };
        let server = match &opts.metrics_addr {
            Some(spec) => Some(MetricsServer::bind(spec)?),
            None => None,
        };
        Ok(Some(TelemetryPlane {
            out,
            server,
            records: 0,
            error: None,
        }))
    }

    /// The exposition endpoint's bound address, when one is serving.
    #[must_use]
    pub fn server_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(MetricsServer::addr)
    }

    /// The per-epoch feed: closes one interval window, publishes it to
    /// the endpoint and appends it to the flight log. Infallible — the
    /// first I/O error is stashed for [`TelemetryPlane::finish`] and
    /// later epochs stop writing (the endpoint keeps serving).
    pub fn on_epoch(&mut self, _stats: &EpochStats) {
        let window = mec_obs::snapshot_interval();
        if let Some(server) = &self.server {
            server.publish(render_exposition(&window));
        }
        if self.error.is_none() {
            if let Some((path, writer)) = &mut self.out {
                let line = djson::to_string(&window);
                if let Err(e) = writeln!(writer, "{line}") {
                    self.error = Some(format!("{path}: {e}"));
                }
            }
        }
        self.records += 1;
    }

    /// Tears the plane down: flushes the flight log, shuts the endpoint
    /// down, and surfaces any I/O error an epoch stashed. Returns the
    /// number of intervals recorded.
    ///
    /// # Errors
    ///
    /// The first flight-log write/flush error of the session.
    pub fn finish(mut self) -> Result<u64, String> {
        if let Some((path, mut writer)) = self.out.take() {
            if let Err(e) = writer.flush() {
                self.error.get_or_insert(format!("{path}: {e}"));
            }
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        match self.error {
            Some(e) => Err(format!("telemetry: {e}")),
            None => Ok(self.records),
        }
    }
}

/// Reads a JSONL flight log back into interval snapshots. Blank lines
/// are ignored; a malformed line reports its line number.
///
/// # Errors
///
/// File read errors and per-line djson decode errors.
pub fn read_flight_log(path: &str) -> Result<Vec<IntervalSnapshot>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let snap: IntervalSnapshot =
            djson::from_str(line).map_err(|e| format!("{path}:{}: {e}", idx + 1))?;
        records.push(snap);
    }
    Ok(records)
}

/// One `--slo` threshold. Semantics per key:
///
/// | key            | reads                              | violated when |
/// |----------------|------------------------------------|---------------|
/// | `p50_ms`       | decision-latency window p50        | `> limit`     |
/// | `p95_ms`       | decision-latency window p95        | `> limit`     |
/// | `p99_ms`       | decision-latency window p99        | `> limit`     |
/// | `miss_rate`    | `serve/slo/deadline_miss_rate`     | `> limit`     |
/// | `warm_rate_min`| `serve/slo/warm_hit_rate`          | `< limit`     |
/// | `queue_max`    | `serve/queue_depth`                | `> limit`     |
///
/// Latency and warm-rate rules skip the first record: epoch 0 is the
/// cold epoch by construction (no basis to chain, caches empty).
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// One of the keys above.
    pub key: String,
    /// The threshold.
    pub limit: f64,
}

const SLO_KEYS: [&str; 6] = [
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "miss_rate",
    "warm_rate_min",
    "queue_max",
];

/// Parses `--slo key=value[,key=value…]`.
///
/// # Errors
///
/// Unknown keys, missing `=`, and non-finite limits.
pub fn parse_slo(spec: &str) -> Result<Vec<SloRule>, String> {
    let mut rules = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("--slo entries look like key=value, got {part:?}"))?;
        let key = key.trim();
        if !SLO_KEYS.contains(&key) {
            return Err(format!(
                "unknown --slo key `{key}` (known: {})",
                SLO_KEYS.join(", ")
            ));
        }
        let limit: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("--slo {key}= needs a number, got {value:?}"))?;
        if !limit.is_finite() {
            return Err(format!("--slo {key}= must be finite"));
        }
        rules.push(SloRule {
            key: key.to_string(),
            limit,
        });
    }
    if rules.is_empty() {
        return Err("--slo needs at least one key=value rule".to_string());
    }
    Ok(rules)
}

/// One interval that broke a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloViolation {
    /// The interval index from the record.
    pub interval: u64,
    /// The rule key.
    pub key: String,
    /// The observed value.
    pub observed: f64,
    /// The configured limit.
    pub limit: f64,
}

/// The decision-latency histogram every latency rule reads.
const LATENCY_HIST: &str = "serve/decision_latency_ms";

/// Evaluates every rule over every record, returning all violations in
/// (record, rule) order. See [`SloRule`] for per-key semantics.
#[must_use]
pub fn evaluate_slo(records: &[IntervalSnapshot], rules: &[SloRule]) -> Vec<SloViolation> {
    let mut violations = Vec::new();
    for (pos, rec) in records.iter().enumerate() {
        for rule in rules {
            let cold_skipped = matches!(
                rule.key.as_str(),
                "p50_ms" | "p95_ms" | "p99_ms" | "warm_rate_min"
            );
            if pos == 0 && cold_skipped {
                continue;
            }
            let observed = match rule.key.as_str() {
                "p50_ms" => rec
                    .histogram(LATENCY_HIST)
                    .filter(|h| h.count > 0)
                    .map(|h| h.p50),
                "p95_ms" => rec
                    .histogram(LATENCY_HIST)
                    .filter(|h| h.count > 0)
                    .map(|h| h.p95),
                "p99_ms" => rec
                    .histogram(LATENCY_HIST)
                    .filter(|h| h.count > 0)
                    .map(|h| h.p99),
                "miss_rate" => rec.gauge("serve/slo/deadline_miss_rate"),
                "warm_rate_min" => rec.gauge("serve/slo/warm_hit_rate"),
                "queue_max" => rec.gauge("serve/queue_depth"),
                _ => None,
            };
            let Some(observed) = observed else { continue };
            let violated = if rule.key == "warm_rate_min" {
                observed < rule.limit
            } else {
                observed > rule.limit
            };
            if violated {
                violations.push(SloViolation {
                    interval: rec.interval,
                    key: rule.key.clone(),
                    observed,
                    limit: rule.limit,
                });
            }
        }
    }
    violations
}

/// The quantities one trend row shows, extracted from one interval
/// record (flight-log path) or one scraped exposition (live path).
#[derive(Debug, Clone, PartialEq)]
struct TrendRow {
    interval: u64,
    assigned: f64,
    rate: f64,
    p50_ms: f64,
    p95_ms: f64,
    warm_pct: f64,
    miss_pct: f64,
    queue: f64,
    migrations: f64,
}

impl TrendRow {
    fn from_record(rec: &IntervalSnapshot) -> TrendRow {
        let assigned = rec
            .counter("serve/assignments")
            .map_or(0.0, |c| c.delta as f64);
        let (p50, p95, window_s) = rec
            .histogram(LATENCY_HIST)
            .map_or((0.0, 0.0, 0.0), |h| (h.p50, h.p95, h.sum / 1e3));
        TrendRow {
            interval: rec.interval,
            assigned,
            rate: if window_s > 0.0 {
                assigned / window_s
            } else {
                0.0
            },
            p50_ms: p50,
            p95_ms: p95,
            warm_pct: rec.gauge("serve/slo/warm_hit_rate").unwrap_or(0.0) * 100.0,
            miss_pct: rec.gauge("serve/slo/deadline_miss_rate").unwrap_or(0.0) * 100.0,
            queue: rec.gauge("serve/queue_depth").unwrap_or(0.0),
            migrations: rec.gauge("serve/slo/cloud_migrations").unwrap_or(0.0),
        }
    }

    fn header() -> String {
        format!(
            "{:>8} {:>9} {:>9} {:>8} {:>8} {:>6} {:>6} {:>6} {:>5}",
            "interval", "assigned", "rate/s", "p50 ms", "p95 ms", "warm%", "miss%", "queue", "migr"
        )
    }

    fn render(&self) -> String {
        format!(
            "{:>8} {:>9.0} {:>9.0} {:>8.2} {:>8.2} {:>6.1} {:>6.1} {:>6.0} {:>5.0}",
            self.interval,
            self.assigned,
            self.rate,
            self.p50_ms,
            self.p95_ms,
            self.warm_pct,
            self.miss_pct,
            self.queue,
            self.migrations
        )
    }
}

/// Renders a flight log as an aligned trend table: one row per interval
/// showing the assignment rate, latency window percentiles, and the SLO
/// gauges. Long logs are downsampled to a bounded stride (the final
/// interval is always shown) so a multi-thousand-epoch session stays
/// readable; the SLO gate always evaluates every interval regardless.
#[must_use]
pub fn render_trend(records: &[IntervalSnapshot]) -> String {
    const MAX_ROWS: usize = 50;
    let stride = records.len().div_ceil(MAX_ROWS).max(1);
    let mut out = String::new();
    if stride > 1 {
        let _ = writeln!(
            out,
            "trend: showing every {stride}th of {} intervals",
            records.len()
        );
    }
    let _ = writeln!(out, "{}", TrendRow::header());
    let last = records.len().saturating_sub(1);
    for (i, rec) in records.iter().enumerate() {
        if i % stride == 0 || i == last {
            let _ = writeln!(out, "{}", TrendRow::from_record(rec).render());
        }
    }
    out
}

/// Arguments of `dsmec metrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsArgs {
    /// The flight-log path (positional operand).
    pub file: String,
    /// Optional `--slo key=value,…` gate.
    pub slo: Option<String>,
}

/// `dsmec metrics FLIGHT.jsonl [--slo …]`: summarize a flight log and
/// gate it.
///
/// # Errors
///
/// Read/parse errors, and — the gate — a summary of every SLO violation,
/// which the binary turns into a nonzero exit.
pub fn metrics_command(args: &MetricsArgs) -> Result<(), String> {
    let records = read_flight_log(&args.file)?;
    if records.is_empty() {
        return Err(format!("{}: flight log holds no intervals", args.file));
    }
    let assigned_total = records
        .last()
        .and_then(|r| r.counter("serve/assignments"))
        .map_or(0, |c| c.total);
    println!(
        "metrics: {} — {} intervals, {} assignments",
        args.file,
        records.len(),
        assigned_total
    );
    print!("{}", render_trend(&records));
    let Some(spec) = &args.slo else {
        return Ok(());
    };
    let rules = parse_slo(spec)?;
    let violations = evaluate_slo(&records, &rules);
    if violations.is_empty() {
        println!(
            "slo: ok ({} rules over {} intervals)",
            rules.len(),
            records.len()
        );
        return Ok(());
    }
    for v in &violations {
        eprintln!(
            "slo violation: interval {} {} = {:.3} (limit {:.3})",
            v.interval, v.key, v.observed, v.limit
        );
    }
    Err(format!(
        "{} SLO violation(s) across {} interval(s)",
        violations.len(),
        records.len()
    ))
}

/// Arguments of `dsmec top`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopArgs {
    /// Flight-log path (positional operand) — render once and exit.
    pub file: Option<String>,
    /// Live endpoint (`--addr HOST:PORT`) — poll and stream rows.
    pub addr: Option<String>,
    /// Poll interval in milliseconds (`--interval-ms`, default 1000).
    pub interval_ms: u64,
    /// Poll count (`--iterations`, default 0 = until the endpoint
    /// closes).
    pub iterations: u64,
}

/// `dsmec top`: live (or recorded) trend view. In `--addr` mode each
/// poll scrapes `/metrics`, re-parses the exposition, and prints one row
/// whenever the served interval advances; the loop ends after
/// `--iterations` polls, or when the endpoint closes (session over).
///
/// # Errors
///
/// Missing input, unreachable endpoint on the *first* poll, and
/// flight-log read errors. A later poll failing means the session ended
/// — that is the normal way a watch terminates, not an error.
pub fn top_command(args: &TopArgs) -> Result<(), String> {
    if let Some(file) = &args.file {
        let records = read_flight_log(file)?;
        print!("{}", render_trend(&records));
        return Ok(());
    }
    let Some(addr) = &args.addr else {
        return Err("top needs a FLIGHT.jsonl operand or --addr HOST:PORT".to_string());
    };
    let timeout = Duration::from_secs(2);
    println!("{}", TrendRow::header());
    let mut last_interval: Option<u64> = None;
    let mut polls = 0u64;
    loop {
        match http_get(addr, "/metrics", timeout) {
            Ok((200, body)) => {
                let exp =
                    parse_exposition(&body).map_err(|e| format!("{addr}: bad exposition: {e}"))?;
                if let Some(row) = scraped_row(&exp) {
                    if last_interval != Some(row.interval) {
                        last_interval = Some(row.interval);
                        println!("{}", row.render());
                    }
                }
            }
            Ok((status, _)) => return Err(format!("{addr}: /metrics answered {status}")),
            Err(e) => {
                if polls == 0 {
                    return Err(e);
                }
                println!("endpoint closed — session over");
                return Ok(());
            }
        }
        polls += 1;
        if args.iterations > 0 && polls >= args.iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(10)));
    }
}

/// Rebuilds a trend row from scraped exposition samples. `None` until
/// the endpoint has published its first interval.
fn scraped_row(exp: &crate::exposition::Exposition) -> Option<TrendRow> {
    let interval = exp.value("dsmec_interval")?;
    let assigned = exp.value("dsmec_serve_assignments_window").unwrap_or(0.0);
    let window_s = exp
        .value("dsmec_serve_decision_latency_ms_sum")
        .unwrap_or(0.0)
        / 1e3;
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    Some(TrendRow {
        interval: interval.max(0.0) as u64,
        assigned,
        rate: if window_s > 0.0 {
            assigned / window_s
        } else {
            0.0
        },
        p50_ms: exp
            .value("dsmec_serve_decision_latency_ms_p50")
            .unwrap_or(0.0),
        p95_ms: exp
            .value("dsmec_serve_decision_latency_ms_p95")
            .unwrap_or(0.0),
        warm_pct: exp.value("dsmec_serve_slo_warm_hit_rate").unwrap_or(0.0) * 100.0,
        miss_pct: exp
            .value("dsmec_serve_slo_deadline_miss_rate")
            .unwrap_or(0.0)
            * 100.0,
        queue: exp.value("dsmec_serve_queue_depth").unwrap_or(0.0),
        migrations: exp.value("dsmec_serve_slo_cloud_migrations").unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_obs::{CounterWindow, GaugeStat, HistogramWindow};

    fn record(interval: u64, p95: f64, miss: f64, warm: f64) -> IntervalSnapshot {
        IntervalSnapshot {
            interval,
            counters: vec![CounterWindow {
                name: "serve/assignments".into(),
                total: 50 * (interval + 1),
                delta: 50,
            }],
            gauges: vec![
                GaugeStat {
                    name: "serve/slo/deadline_miss_rate".into(),
                    value: miss,
                },
                GaugeStat {
                    name: "serve/slo/warm_hit_rate".into(),
                    value: warm,
                },
                GaugeStat {
                    name: "serve/queue_depth".into(),
                    value: 50.0,
                },
            ],
            histograms: vec![HistogramWindow {
                name: LATENCY_HIST.into(),
                total_count: interval + 1,
                count: 1,
                sum: p95,
                min: p95,
                max: p95,
                p50: p95,
                p95,
                p99: p95,
                buckets: vec![],
            }],
        }
    }

    #[test]
    fn slo_specs_parse_and_reject_unknown_keys() {
        let rules = parse_slo("p95_ms=40, miss_rate=0.1").unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].key, "p95_ms");
        assert_eq!(rules[0].limit, 40.0);
        assert!(parse_slo("p97_ms=1")
            .unwrap_err()
            .contains("unknown --slo key"));
        assert!(parse_slo("p95_ms").unwrap_err().contains("key=value"));
        assert!(parse_slo("p95_ms=wat")
            .unwrap_err()
            .contains("needs a number"));
        assert!(parse_slo("").is_err());
    }

    #[test]
    fn slo_evaluation_skips_the_cold_epoch_for_latency_and_warm_rules() {
        // Record 0 is slow and cold — latency/warm rules must ignore it;
        // record 2 breaks both the p95 and the miss-rate rule.
        let records = vec![
            record(0, 400.0, 0.0, 0.0),
            record(1, 5.0, 0.0, 0.9),
            record(2, 80.0, 0.5, 0.9),
        ];
        let rules = parse_slo("p95_ms=40,miss_rate=0.1,warm_rate_min=0.5").unwrap();
        let violations = evaluate_slo(&records, &rules);
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].interval, 2);
        assert_eq!(violations[0].key, "p95_ms");
        assert_eq!(violations[1].key, "miss_rate");
        // A warm-rate floor of 0.95 catches records 1 and 2 but not the
        // cold record 0.
        let strict = parse_slo("warm_rate_min=0.95").unwrap();
        let v = evaluate_slo(&records, &strict);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.interval >= 1));
    }

    #[test]
    fn flight_logs_round_trip_and_report_bad_lines() {
        let dir = std::env::temp_dir().join("dsmec_metrics_flight_log");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        let records = vec![record(0, 10.0, 0.0, 0.0), record(1, 5.0, 0.0, 1.0)];
        let mut text = String::new();
        for r in &records {
            text.push_str(&djson::to_string(r));
            text.push('\n');
        }
        std::fs::write(&path, &text).unwrap();
        let back = read_flight_log(path.to_str().unwrap()).unwrap();
        assert_eq!(back, records);

        std::fs::write(&path, "{\"interval\": 0").unwrap();
        let err = read_flight_log(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains(":1:"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trend_rows_compute_rates_from_the_latency_window() {
        // 50 assignments over a 10 ms window → 5000/s.
        let rows = render_trend(&[record(3, 10.0, 0.25, 0.8)]);
        assert!(rows.contains("interval"), "{rows}");
        let data = rows.lines().nth(1).unwrap();
        assert!(data.contains("5000"), "{data}");
        assert!(data.contains("25.0"), "{data}");
        assert!(data.contains("80.0"), "{data}");
    }

    #[test]
    fn long_trends_downsample_but_keep_the_final_interval() {
        let records: Vec<IntervalSnapshot> = (0..200).map(|i| record(i, 10.0, 0.0, 0.5)).collect();
        let rows = render_trend(&records);
        assert!(
            rows.starts_with("trend: showing every 4th of 200 intervals"),
            "{rows}"
        );
        // Note line + header + at most ceil(200/4) strided rows + final.
        assert!(rows.lines().count() <= 53, "{rows}");
        assert!(
            rows.lines().last().unwrap().trim_start().starts_with("199"),
            "{rows}"
        );
    }

    #[test]
    fn telemetry_options_resolve_flag_over_env() {
        // A flag sets its sink; empty or absent leaves it off.
        let opts = TelemetryOptions::resolve(Some("m.jsonl"), None);
        assert_eq!(opts.metrics_out.as_deref(), Some("m.jsonl"));
        assert!(opts.is_active());
        let off = TelemetryOptions::resolve(Some(""), None);
        assert!(!off.is_active());
    }
}
