//! Zero-dependency Prometheus text exposition for the telemetry plane.
//!
//! Three pieces, all std-only:
//!
//! 1. [`render_exposition`] turns one [`mec_obs::IntervalSnapshot`] into
//!    Prometheus text format 0.0.4: `# TYPE` declarations, counters
//!    (cumulative `_total` samples), gauges, and histograms. Histogram
//!    `_bucket`/`_sum`/`_count` series carry the *window* statistics —
//!    they reset every interval, which Prometheus-compatible scrapers
//!    treat as a counter reset — and each histogram additionally exports
//!    its nearest-rank `_p50`/`_p95`/`_p99` as gauges so dashboards get
//!    percentiles without server-side quantile math.
//! 2. [`parse_exposition`] validates exposition text back into samples:
//!    every sample line must resolve to a declared metric family (with
//!    the histogram suffix rules applied), which is what the golden
//!    fixture and the CI scrape check.
//! 3. [`MetricsServer`] answers `GET /metrics` from a
//!    `std::net::TcpListener` thread with a hand-rolled request-line
//!    parser — no HTTP library — that reads at most 8 KiB of request
//!    head and answers `431` past it. The body is a mutex-swapped
//!    `Arc<String>` the serve loop republishes each epoch; shutdown flips
//!    a flag and self-connects to unblock the blocking `accept`.

use mec_obs::IntervalSnapshot;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maps a `mec-obs` metric path onto a Prometheus metric name: `dsmec_`
/// prefix, every non-alphanumeric byte folded to `_`.
///
/// `serve/slo/deadline_miss_rate` → `dsmec_serve_slo_deadline_miss_rate`.
#[must_use]
pub fn metric_name(path: &str) -> String {
    let mut out = String::with_capacity(path.len() + 6);
    out.push_str("dsmec_");
    for c in path.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats a sample value the way Prometheus expects: shortest
/// round-trip decimal, `+Inf`/`-Inf`/`NaN` spelled out.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders one interval snapshot as Prometheus text exposition (format
/// 0.0.4). Deterministic: metric order follows the snapshot's sorted
/// name order, floats print in shortest round-trip form.
#[must_use]
pub fn render_exposition(snapshot: &IntervalSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE dsmec_interval gauge");
    let _ = writeln!(out, "dsmec_interval {}", snapshot.interval);
    for c in &snapshot.counters {
        let name = metric_name(&c.name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}_total {}", c.total);
        // The window delta as a companion gauge: scrapers that only see
        // the latest body (like `dsmec top`) get per-interval increments
        // without differentiating the cumulative series themselves.
        let _ = writeln!(out, "# TYPE {name}_window gauge");
        let _ = writeln!(out, "{name}_window {}", c.delta);
    }
    for g in &snapshot.gauges {
        let name = metric_name(&g.name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_value(g.value));
    }
    for h in &snapshot.histograms {
        let name = metric_name(&h.name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        for b in &h.buckets {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {}",
                fmt_value(b.le),
                b.count
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", fmt_value(h.sum));
        let _ = writeln!(out, "{name}_count {}", h.count);
        for (suffix, value) in [("p50", h.p50), ("p95", h.p95), ("p99", h.p99)] {
            let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
            let _ = writeln!(out, "{name}_{suffix} {}", fmt_value(value));
        }
    }
    out
}

/// One parsed sample line of an exposition document.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name, including any `_total`/`_bucket`/… suffix.
    pub name: String,
    /// Label pairs in source order (`le` for histogram buckets).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A validated exposition document: declared families plus every sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Exposition {
    /// `# TYPE` declarations: family name → `counter`/`gauge`/`histogram`.
    pub types: BTreeMap<String, String>,
    /// All sample lines, in document order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// Looks up a sample's value by full sample name, ignoring labels
    /// (first match wins).
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }
}

/// Resolves a sample name to its declared family: the name itself, the
/// counter's `_total` form, or a histogram's `_bucket`/`_sum`/`_count`
/// series.
fn family_of<'a>(types: &BTreeMap<String, String>, sample: &'a str) -> Option<&'a str> {
    if types.contains_key(sample) {
        return Some(sample);
    }
    if let Some(base) = sample.strip_suffix("_total") {
        if types.get(base).map(String::as_str) == Some("counter") {
            return Some(base);
        }
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return Some(base);
            }
        }
    }
    None
}

/// The first fault [`parse_exposition`] found, and the line it sits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpositionError {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong with the line.
    pub fault: ExpositionFault,
}

/// The faults [`parse_exposition`] rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpositionFault {
    /// A `# TYPE` line without exactly a name and a kind.
    MalformedType,
    /// A `# TYPE` kind outside counter/gauge/histogram/summary/untyped.
    UnknownType(String),
    /// A second `# TYPE` for the named family.
    DuplicateType(String),
    /// A `{` with no closing `}`.
    UnclosedLabels,
    /// A sample name with no value after it.
    NoValue,
    /// A sample name outside `[A-Za-z_:][A-Za-z0-9_:]*`.
    InvalidName(String),
    /// A sample value that is not a number, `+Inf`, `-Inf` or `NaN`.
    InvalidValue(String),
    /// A label pair without `=`.
    LabelWithoutEquals,
    /// A label value without surrounding quotes.
    UnquotedLabel,
    /// A sample of no `# TYPE`-declared family.
    OrphanSample(String),
}

impl ExpositionFault {
    fn at(self, line: usize) -> ExpositionError {
        ExpositionError { line, fault: self }
    }
}

impl fmt::Display for ExpositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.fault {
            ExpositionFault::MalformedType => write!(f, "malformed TYPE declaration"),
            ExpositionFault::UnknownType(kind) => write!(f, "unknown metric type `{kind}`"),
            ExpositionFault::DuplicateType(name) => write!(f, "duplicate TYPE for `{name}`"),
            ExpositionFault::UnclosedLabels => write!(f, "unclosed label braces"),
            ExpositionFault::NoValue => write!(f, "sample has no value"),
            ExpositionFault::InvalidName(name) => write!(f, "invalid metric name `{name}`"),
            ExpositionFault::InvalidValue(v) => write!(f, "invalid sample value `{v}`"),
            ExpositionFault::LabelWithoutEquals => write!(f, "label without `=`"),
            ExpositionFault::UnquotedLabel => write!(f, "label value must be quoted"),
            ExpositionFault::OrphanSample(name) => {
                write!(f, "sample `{name}` does not belong to any declared family")
            }
        }
    }
}

impl std::error::Error for ExpositionError {}

/// Parses and validates Prometheus text exposition. Every sample line
/// must resolve to a `# TYPE`-declared family; malformed lines, unknown
/// metric types and orphan samples are errors. Non-`TYPE` comment lines
/// and blank lines are ignored.
///
/// # Errors
///
/// The first violation, with its line number.
pub fn parse_exposition(text: &str) -> Result<Exposition, ExpositionError> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_ascii_whitespace();
                let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next())
                else {
                    return Err(ExpositionFault::MalformedType.at(lineno));
                };
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(ExpositionFault::UnknownType(kind.to_string()).at(lineno));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(ExpositionFault::DuplicateType(name.to_string()).at(lineno));
                }
            }
            continue;
        }
        samples.push((lineno, parse_sample(line, lineno)?));
    }
    for (lineno, s) in &samples {
        if family_of(&types, &s.name).is_none() {
            return Err(ExpositionFault::OrphanSample(s.name.clone()).at(*lineno));
        }
    }
    let samples = samples.into_iter().map(|(_, s)| s).collect();
    Ok(Exposition { types, samples })
}

/// Parses one sample line: `name[{label="value",…}] value`.
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, ExpositionError> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line[brace..]
                .find('}')
                .map(|i| brace + i)
                .ok_or(ExpositionFault::UnclosedLabels.at(lineno))?;
            (
                &line[..brace],
                Some((&line[brace + 1..close], &line[close + 1..])),
            )
        }
        None => (line, None),
    };
    let (labels, value_part) = match rest {
        Some((label_text, tail)) => (parse_labels(label_text, lineno)?, tail),
        None => {
            let space = name_part
                .find(char::is_whitespace)
                .ok_or(ExpositionFault::NoValue.at(lineno))?;
            return finish_sample(&name_part[..space], vec![], &name_part[space..], lineno);
        }
    };
    finish_sample(name_part, labels, value_part, lineno)
}

fn finish_sample(
    name: &str,
    labels: Vec<(String, String)>,
    value_part: &str,
    lineno: usize,
) -> Result<Sample, ExpositionError> {
    let name = name.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return Err(ExpositionFault::InvalidName(name.to_string()).at(lineno));
    }
    let value_text = value_part.trim();
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| ExpositionFault::InvalidValue(v.to_string()).at(lineno))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses `key="value"` pairs separated by commas.
fn parse_labels(text: &str, lineno: usize) -> Result<Vec<(String, String)>, ExpositionError> {
    let mut labels = Vec::new();
    let text = text.trim();
    if text.is_empty() {
        return Ok(labels);
    }
    for pair in text.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let eq = pair
            .find('=')
            .ok_or(ExpositionFault::LabelWithoutEquals.at(lineno))?;
        let key = pair[..eq].trim();
        let raw = pair[eq + 1..].trim();
        let value = raw
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or(ExpositionFault::UnquotedLabel.at(lineno))?;
        labels.push((key.to_string(), value.to_string()));
    }
    Ok(labels)
}

/// The exposition endpoint: a listener thread serving the latest
/// published body at `GET /metrics`. Everything else 404s. Bodies are
/// swapped atomically (`Mutex<Arc<String>>`), so a slow scraper never
/// blocks the serve loop beyond the swap.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    body: Arc<Mutex<Arc<String>>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `spec` (`HOST:PORT`, port `0` for ephemeral) and starts the
    /// listener thread.
    ///
    /// # Errors
    ///
    /// The bind error, stringified with the offending address.
    pub fn bind(spec: &str) -> Result<MetricsServer, String> {
        let listener = TcpListener::bind(spec).map_err(|e| format!("metrics bind {spec}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("metrics local_addr: {e}"))?;
        let body: Arc<Mutex<Arc<String>>> = Arc::new(Mutex::new(Arc::new(String::new())));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_body = Arc::clone(&body);
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dsmec-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let current =
                        Arc::clone(&thread_body.lock().unwrap_or_else(|p| p.into_inner()));
                    // One request per connection; errors on a single
                    // connection never take the endpoint down.
                    let _ = serve_connection(stream, &current);
                }
            })
            .map_err(|e| format!("metrics thread spawn: {e}"))?;
        Ok(MetricsServer {
            addr,
            body,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — the real port when `:0` was requested.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Swaps in a new exposition body for subsequent scrapes.
    pub fn publish(&self, body: String) {
        *self.body.lock().unwrap_or_else(|p| p.into_inner()) = Arc::new(body);
    }

    /// Stops the listener thread and joins it. Called by `Drop` too;
    /// explicit shutdown just makes session teardown visible at the call
    /// site.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // `accept` blocks until a peer arrives; a throwaway self-connect
        // is that peer. Failure is fine — the listener then dies with the
        // process.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Cap on the request line plus headers. A scrape request is well under
/// 1 KiB; a longer head is refused with `431` instead of being buffered.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;

/// How much of a refused request is read and discarded after the `431`:
/// closing a socket with unread input resets the connection, which can
/// destroy the response before the client reads it.
const MAX_DISCARD: u64 = 4 * 1024 * 1024;

/// Reads one request, answers it, closes the connection. The hand-rolled
/// parser reads the request line (`GET /metrics HTTP/1.1`), drains
/// headers to the blank line, and ignores everything else. Lines are
/// read as bytes, so a head that is not UTF-8 gets a `404` like any
/// other unknown request. At most [`MAX_REQUEST_HEAD`] bytes are read; a
/// head that does not end within them gets
/// `431 Request Header Fields Too Large`.
fn serve_connection(stream: TcpStream, body: &str) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new((&stream).take(MAX_REQUEST_HEAD));
    let mut request_line = Vec::new();
    reader.read_until(b'\n', &mut request_line)?;
    let mut parts = request_line
        .split(u8::is_ascii_whitespace)
        .filter(|part| !part.is_empty());
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    // Drain headers so well-behaved clients see a clean close.
    let mut terminated = false;
    let mut header = Vec::new();
    loop {
        header.clear();
        if reader.read_until(b'\n', &mut header)? == 0 {
            break;
        }
        if header.iter().all(u8::is_ascii_whitespace) {
            terminated = true;
            break;
        }
    }
    if !terminated && reader.get_ref().limit() == 0 {
        respond(
            &stream,
            "431 Request Header Fields Too Large",
            "text/plain",
            "request header fields too large\n",
        )?;
        stream.shutdown(Shutdown::Write)?;
        // Best effort: a client that keeps sending past the discard cap
        // or stalls past the read timeout just gets the connection closed.
        let _ = std::io::copy(&mut (&stream).take(MAX_DISCARD), &mut std::io::sink());
        return Ok(());
    }
    if method == b"GET" && (path == b"/metrics" || path.starts_with(b"/metrics?")) {
        respond(&stream, "200 OK", "text/plain; version=0.0.4", body)
    } else {
        respond(&stream, "404 Not Found", "text/plain", "not found\n")
    }
}

/// Writes one complete `Connection: close` response.
fn respond(
    mut stream: &TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Cap on a whole response read by [`http_get`]. A scrape is tens of
/// KiB; a peer that keeps streaming past this is cut off with an error
/// instead of growing the buffer without bound.
const MAX_RESPONSE: u64 = 4 * 1024 * 1024;

/// Minimal HTTP client for `dsmec top` and the tests: one `GET`, returns
/// `(status, body)`. At most 4 MiB of response are read.
///
/// # Errors
///
/// Connection, I/O and malformed-response errors, stringified, and a
/// response longer than 4 MiB.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<(u16, String), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("metrics connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("metrics timeout: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("metrics timeout: {e}"))?;
    let mut stream = stream;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("metrics request: {e}"))?;
    let mut raw = Vec::new();
    stream
        .take(MAX_RESPONSE + 1)
        .read_to_end(&mut raw)
        .map_err(|e| format!("metrics read: {e}"))?;
    if raw.len() as u64 > MAX_RESPONSE {
        return Err(format!(
            "metrics response: longer than {MAX_RESPONSE} bytes"
        ));
    }
    let raw = String::from_utf8(raw).map_err(|e| format!("metrics response: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "metrics response: missing header terminator".to_string())?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("metrics response: bad status line `{status_line}`"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_obs::{BucketCount, CounterWindow, GaugeStat, HistogramWindow};

    fn window() -> IntervalSnapshot {
        IntervalSnapshot {
            interval: 2,
            counters: vec![CounterWindow {
                name: "serve/assignments".into(),
                total: 120,
                delta: 60,
            }],
            gauges: vec![GaugeStat {
                name: "serve/queue_depth".into(),
                value: 6.0,
            }],
            histograms: vec![HistogramWindow {
                name: "serve/decision_latency_ms".into(),
                total_count: 4,
                count: 2,
                sum: 3.5,
                min: 1.0,
                max: 2.5,
                p50: 2.0,
                p95: 2.5,
                p99: 2.5,
                buckets: vec![
                    BucketCount { le: 2.0, count: 1 },
                    BucketCount { le: 4.0, count: 2 },
                ],
            }],
        }
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(
            metric_name("serve/slo/deadline_miss_rate"),
            "dsmec_serve_slo_deadline_miss_rate"
        );
        assert_eq!(
            metric_name("obs.events dropped"),
            "dsmec_obs_events_dropped"
        );
    }

    #[test]
    fn rendered_exposition_parses_and_exposes_every_series() {
        let text = render_exposition(&window());
        let exp = parse_exposition(&text).unwrap();
        assert_eq!(
            exp.types.get("dsmec_serve_assignments").map(String::as_str),
            Some("counter")
        );
        assert_eq!(exp.value("dsmec_serve_assignments_total"), Some(120.0));
        assert_eq!(exp.value("dsmec_serve_assignments_window"), Some(60.0));
        assert_eq!(exp.value("dsmec_serve_queue_depth"), Some(6.0));
        assert_eq!(exp.value("dsmec_interval"), Some(2.0));
        assert_eq!(exp.value("dsmec_serve_decision_latency_ms_sum"), Some(3.5));
        assert_eq!(
            exp.value("dsmec_serve_decision_latency_ms_count"),
            Some(2.0)
        );
        assert_eq!(exp.value("dsmec_serve_decision_latency_ms_p95"), Some(2.5));
        // Bucket labels survive, including the implicit +Inf bound.
        let buckets: Vec<&Sample> = exp
            .samples
            .iter()
            .filter(|s| s.name == "dsmec_serve_decision_latency_ms_bucket")
            .collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].labels, vec![("le".to_string(), "2".to_string())]);
        assert_eq!(
            buckets[2].labels,
            vec![("le".to_string(), "+Inf".to_string())]
        );
        assert_eq!(buckets[2].value, 2.0);
    }

    #[test]
    fn parser_rejects_orphan_samples_and_bad_lines() {
        let fault = |text: &str| {
            parse_exposition(text)
                .map(|_| ())
                .map_err(|e| (e.line, e.fault))
        };
        let orphan = "# TYPE dsmec_x gauge\ndsmec_x 1\ndsmec_mystery_total 4\n";
        assert_eq!(
            fault(orphan),
            Err((
                3,
                ExpositionFault::OrphanSample("dsmec_mystery_total".into())
            ))
        );
        let bad_type = "# TYPE dsmec_x flux\ndsmec_x 1\n";
        assert_eq!(
            fault(bad_type),
            Err((1, ExpositionFault::UnknownType("flux".into())))
        );
        let no_value = "# TYPE dsmec_x gauge\ndsmec_x\n";
        assert_eq!(fault(no_value), Err((2, ExpositionFault::NoValue)));
        let unclosed = "# TYPE dsmec_x histogram\ndsmec_x_bucket{le=\"1\" 3\n";
        assert_eq!(fault(unclosed), Err((2, ExpositionFault::UnclosedLabels)));
        let err = parse_exposition("# TYPE dsmec_x gauge\ndsmec_x one\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: invalid sample value `one`");
    }

    #[test]
    fn server_serves_latest_body_and_shuts_down_cleanly() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        server.publish(render_exposition(&window()));
        let (status, body) = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(status, 200);
        let exp = parse_exposition(&body).unwrap();
        assert_eq!(exp.value("dsmec_interval"), Some(2.0));

        // Republish: the next scrape sees the swap.
        let mut next = window();
        next.interval = 3;
        server.publish(render_exposition(&next));
        let (_, body) = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(
            parse_exposition(&body).unwrap().value("dsmec_interval"),
            Some(3.0)
        );

        // Unknown paths 404 without killing the listener.
        let (status, _) = http_get(&addr, "/nope", Duration::from_secs(2)).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(status, 200);

        server.shutdown();
        // The port is closed (or at least no longer answering /metrics).
        assert!(http_get(&addr, "/metrics", Duration::from_millis(500)).is_err());
    }

    /// A request line that never ends is refused after the head cap
    /// instead of being buffered whole, and the listener keeps serving.
    #[test]
    fn unbounded_request_line_gets_431_and_the_listener_survives() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        server.publish(render_exposition(&window()));
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&vec![b'A'; 1 << 20]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");

        let (status, _) = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    /// A peer that answers with a valid head and then keeps streaming is
    /// cut off at the response cap with an error, not buffered whole.
    #[test]
    fn endless_response_is_cut_off_at_the_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Read the whole request first: closing with unread input
            // would reset the connection under the client's reads.
            let mut reader = BufReader::new(&stream);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                line.clear();
            }
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n");
            // Stream until the client hangs up past the cap (the write
            // fails), with a backstop far beyond it; report which ended
            // the stream.
            let chunk = vec![b'x'; 64 * 1024];
            (0..16 * MAX_RESPONSE / chunk.len() as u64).any(|_| stream.write_all(&chunk).is_err())
        });
        let err = http_get(&addr, "/metrics", Duration::from_secs(5)).unwrap_err();
        assert!(err.contains("longer than"), "{err}");
        assert!(peer.join().unwrap(), "the client read to the backstop");
    }
}
