//! Byte-level fuzzing of the readers that take outside bytes: the djson
//! parser, the flight-log record decoder (`djson::from_str` into an
//! [`IntervalSnapshot`], what `read_flight_log` runs per line) and the
//! `/metrics` exposition parser. Valid inputs are mutated by flipping,
//! inserting and deleting bytes and by splicing in a prefix of the input
//! itself (which nests and repeats structure). Every reader must return
//! `Ok` or a typed error; a panic fails the test.

use detrand::prop::run_cases;
use detrand::ChaCha8Rng;
use mec_bench::exposition::{parse_exposition, render_exposition};
use mec_obs::{BucketCount, CounterWindow, GaugeStat, HistogramWindow, IntervalSnapshot};

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
