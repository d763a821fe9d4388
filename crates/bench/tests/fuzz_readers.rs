//! Byte-level fuzzing of the readers that take outside bytes: the djson
//! parser, the flight-log record decoder (`djson::from_str` into an
//! [`IntervalSnapshot`], what `read_flight_log` runs per line), the
//! `/metrics` exposition parser and the exposition endpoint's request
//! head reader. Valid inputs are mutated by flipping, inserting and
//! deleting bytes and by splicing in a prefix of the input itself (which
//! nests and repeats structure). Every parser must return `Ok` or a typed
//! error, and the endpoint must answer every request with one status
//! line; a panic fails the test.

use detrand::prop::run_cases;
use detrand::ChaCha8Rng;
use mec_bench::exposition::{http_get, parse_exposition, render_exposition, MetricsServer};
use mec_obs::{BucketCount, CounterWindow, GaugeStat, HistogramWindow, IntervalSnapshot};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Mutated inputs per reader.
const CASES: u64 = 4000;

/// Bytes that steer mutations toward the parsers' decision points.
const STRUCTURAL: &[u8] = b"{}[]\",:\\/ \n\t#=0123456789.-+eEnulltruefalseNaNInf\xc3\xa9\xff";

fn snapshot() -> IntervalSnapshot {
    IntervalSnapshot {
        interval: 7,
        counters: vec![
            CounterWindow {
                name: "serve/assignments".into(),
                total: 1200,
                delta: 60,
            },
            CounterWindow {
                name: "linprog/revised/solves".into(),
                total: 15,
                delta: 3,
            },
        ],
        gauges: vec![GaugeStat {
            name: "serve/queue_depth".into(),
            value: -6.25e-3,
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

/// Applies one to four random byte-level edits to `seed`.
fn mutate(rng: &mut ChaCha8Rng, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..rng.gen_range(1usize..5) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0usize..4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0usize..8),
            1 => {
                let byte = if rng.gen_bool(0.5) {
                    STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
                } else {
                    rng.next_u32() as u8
                };
                bytes.insert(at, byte);
            }
            2 if at < bytes.len() => {
                let end = (at + rng.gen_range(1usize..9)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => {
                let prefix = bytes[..rng.gen_range(0..bytes.len() + 1)].to_vec();
                bytes.splice(at..at, prefix);
            }
        }
        if bytes.is_empty() {
            break;
        }
    }
    bytes
}

/// Feeds `CASES` mutations of `seed` to `reader`; the readers see text
/// the way their callers produce it, after a lossy UTF-8 decode.
fn fuzz(name: &str, seed: &str, reader: impl Fn(&str)) {
    run_cases(name, CASES, |rng| {
        let bytes = mutate(rng, seed.as_bytes());
        reader(&String::from_utf8_lossy(&bytes));
        Ok(())
    });
}

#[test]
fn djson_parse_never_panics_on_mutated_documents() {
    let seed = r#"{"a": [1, -2.5e3, true, false, null], "s": "x\"\\é\n", "o": {"k": [[], {}]}}"#;
    assert!(djson::parse(seed).is_ok());
    fuzz("fuzz_djson_parse", seed, |text| {
        let _ = djson::parse(text);
    });
}

#[test]
fn flight_log_records_never_panic_on_mutated_lines() {
    let seed = djson::to_string(&snapshot());
    assert_eq!(
        djson::from_str::<IntervalSnapshot>(&seed).unwrap(),
        snapshot()
    );
    fuzz("fuzz_flight_log_record", &seed, |text| {
        let _ = djson::from_str::<IntervalSnapshot>(text);
    });
}

#[test]
fn exposition_parser_never_panics_on_mutated_scrapes() {
    let seed = render_exposition(&snapshot());
    assert!(parse_exposition(&seed).is_ok());
    fuzz("fuzz_exposition", &seed, |text| {
        let _ = parse_exposition(text);
    });
}

/// Sends `head` on a fresh connection, closes the write half so the
/// server sees the end of the request, and returns the raw response.
fn exchange(addr: SocketAddr, head: &[u8]) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let timeout = Some(Duration::from_secs(5));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream.write_all(head).map_err(|e| format!("write: {e}"))?;
    stream
        .shutdown(Shutdown::Write)
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut raw = Vec::new();
    stream
        .take(1 << 20)
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    Ok(String::from_utf8_lossy(&raw).into_owned())
}

/// The status code of a response carrying exactly one `HTTP/1.1`
/// status line with one of the codes the endpoint may send.
fn single_status(response: &str) -> Result<u16, String> {
    let lines = response.matches("HTTP/1.1 ").count();
    let code = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok());
    match code {
        Some(code @ (200 | 404 | 431)) if lines == 1 => Ok(code),
        _ => Err(format!(
            "want one 200|404|431 status line, got {response:?}"
        )),
    }
}

/// Mutated request heads, one connection each, served one after another
/// by a live endpoint: every connection gets exactly one status line,
/// and a well-formed scrape still succeeds afterwards.
#[test]
fn metrics_endpoint_answers_every_mutated_request_head() {
    let server = MetricsServer::bind("127.0.0.1:0").unwrap();
    let body = render_exposition(&snapshot());
    server.publish(body.clone());
    let addr = server.addr();
    let valid = "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";

    let mut oversized = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
    oversized.resize(9 * 1024, b'a');
    let mut long_line = b"GET /".to_vec();
    long_line.resize(9 * 1024, b'm');
    let fixed: [(&[u8], Option<u16>); 9] = [
        (valid.as_bytes(), Some(200)),
        (b"GET /metrics?x=1 HTTP/1.1\r\n\r\n", Some(200)),
        (b"GET /other HTTP/1.1\r\n\r\n", Some(404)),
        (b"GET /met", Some(404)),
        (b"GET /metrics HTTP/1.1", None),
        (b"GET /metrics HTTP/1.1\nHost: x\n\n", Some(200)),
        (
            b"\x00\xff\xfe\x80GET /metrics\r\n\xc3\x28: \x01\r\n\r\n",
            Some(404),
        ),
        (&oversized, Some(431)),
        (&long_line, Some(431)),
    ];
    for (head, want) in fixed {
        let shown = String::from_utf8_lossy(&head[..head.len().min(40)]).into_owned();
        let got = exchange(addr, head).and_then(|r| single_status(&r));
        match (got, want) {
            (Ok(code), Some(want)) => assert_eq!(code, want, "head {shown:?}"),
            (Ok(_), None) => {}
            (Err(e), _) => panic!("head {shown:?}: {e}"),
        }
    }
    assert_eq!(
        exchange(addr, &[]).and_then(|r| single_status(&r)),
        Ok(404),
        "an empty request"
    );

    run_cases("fuzz_metrics_request_head", 190, |rng| {
        let head = mutate(rng, valid.as_bytes());
        exchange(addr, &head)
            .and_then(|r| single_status(&r))
            .map(|_| ())
    });

    let (status, scraped) =
        http_get(&addr.to_string(), "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!((status, scraped), (200, body));
    server.shutdown();
}
