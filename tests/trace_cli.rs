//! End-to-end check of the `--trace` plumbing: run `repro` on a small
//! selection of experiments, then parse the emitted trace with `djson`
//! and assert the documented schema (DESIGN.md §7) actually comes out —
//! and that `dsmec trace` can analyze, diff and gate it.

use mec_obs::{TraceSnapshot, SCHEMA_VERSION};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `repro --quick fig2a fig6b --trace` inside a fresh per-test temp
/// dir and returns the trace path. fig2a exercises the LP-HTA pipeline
/// (relaxation → rounding → repair plus the LP kernels); fig6b the DTA
/// greedy division. Every run also checks that `repro` runs each selected
/// experiment exactly once and leaves no report in its working directory.
fn record_quick_trace(tag: &str) -> PathBuf {
    let dir = fresh_dir(tag);
    let trace_path = dir.join("trace.json");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "fig2a",
            "fig6b",
            "--trace",
            trace_path.to_str().expect("utf-8 path"),
            "--out",
            dir.join("csv").to_str().expect("utf-8 path"),
        ])
        .current_dir(&dir)
        .env_remove("DSMEC_TRACE")
        .env_remove("DSMEC_TRACE_EVENTS")
        .output()
        .expect("run repro");
    assert!(
        output.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // Only the requested outputs: no report lands in the working dir.
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("list temp dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    written.sort();
    assert_eq!(written, ["csv", "trace.json"], "repro wrote stray files");
    let trace = read_trace(&trace_path);
    for id in ["fig2a", "fig6b"] {
        let name = format!("experiment/{id}");
        let span = trace.spans.iter().find(|s| s.name == name);
        assert_eq!(span.map(|s| s.count), Some(1), "{name} runs exactly once");
    }
    trace_path
}

/// Runs `dsmec trace` with `args` and returns `(exit ok, stdout, stderr)`.
fn dsmec_trace(args: &[&str]) -> (bool, String, String) {
    let mut all = vec!["trace"];
    all.extend_from_slice(args);
    dsmec_in(&std::env::temp_dir(), &all)
}

/// Runs `dsmec` with `args` in `dir` and returns `(exit ok, stdout,
/// stderr)`.
fn dsmec_in(dir: &Path, args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_dsmec"))
        .args(args)
        .current_dir(dir)
        .env_remove("DSMEC_TRACE")
        .env_remove("DSMEC_CHAOS")
        .output()
        .expect("run dsmec");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A fresh per-test working directory for commands that write files.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsmec_trace_cli_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn dsmec_rejects_flags_its_command_does_not_read() {
    let dir = fresh_dir("flags");
    // A flag its command does not read must fail before anything runs:
    // ignored, `serve --epoch 2` would run the default 20 epochs.
    for (args, flag) in [
        (&["serve", "--epoch", "2"][..], "--epoch"),
        (&["generate", "--sed", "7"], "--sed"),
        (&["assign", "--quick"], "--quick"),
        (&["report", "--contention"], "--contention"),
        (&["metrics", "flight.jsonl", "--gate", "1.1"], "--gate"),
    ] {
        let (ok, stdout, stderr) = dsmec_in(&dir, args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains(&format!("unknown flag {flag} for `{}`", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?} ran: {stdout}");
    }
    let (ok, _, stderr) = dsmec_in(&dir, &["bogus", "--x"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command `bogus`"), "{stderr}");
    let written = std::fs::read_dir(&dir).expect("list temp dir").count();
    assert_eq!(written, 0, "a rejected command wrote files");

    // A command's own flags and the global ones are still accepted.
    let (ok, stdout, stderr) = dsmec_in(
        &dir,
        &[
            "generate",
            "--seed",
            "7",
            "--tasks",
            "5",
            "--threads",
            "1",
            "--out",
            "s.json",
        ],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("5 tasks"), "{stdout}");
    let (ok, _, stderr) = dsmec_in(
        &dir,
        &[
            "simulate",
            "--scenario",
            "s.json",
            "--contention",
            "--assignment",
        ],
    );
    assert!(!ok);
    assert!(
        stderr.contains("flag --assignment needs a value"),
        "{stderr}"
    );
}

#[test]
fn dsmec_serve_names_the_bad_scenario_parameter() {
    let dir = fresh_dir("serve_stations");
    let (ok, _, stderr) = dsmec_in(&dir, &["serve", "--stations", "0", "--epochs", "1"]);
    assert!(!ok);
    assert!(stderr.contains("`num_stations`"), "{stderr}");
}

fn read_trace(path: &Path) -> TraceSnapshot {
    let text = std::fs::read_to_string(path).expect("read trace file");
    djson::from_str(&text).expect("trace parses as a snapshot")
}

#[test]
fn repro_trace_emits_the_documented_schema() {
    let trace_path = record_quick_trace("schema");
    let trace = read_trace(&trace_path);
    assert_eq!(trace.version, SCHEMA_VERSION);

    let span_names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "lp_hta/relaxation",
        "lp_hta/rounding",
        "lp_hta/repair",
        "dta/division",
        "sweep/point",
    ] {
        assert!(
            span_names.contains(&expected),
            "missing span {expected:?} in {span_names:?}"
        );
    }
    for span in &trace.spans {
        assert!(span.count >= 1, "span {} has no samples", span.name);
        assert!(
            span.total_ns >= span.max_ns,
            "span {} misaggregated",
            span.name
        );
    }

    // The LP kernel in use must report its iteration count, whichever
    // backend the paper configuration selects.
    assert!(
        trace.counters.iter().any(|c| c.name.starts_with("linprog/")
            && c.name.ends_with("/iterations")
            && c.value > 0),
        "no LP kernel iteration counter in {:?}",
        trace.counters
    );
    assert!(trace.counter("dta/greedy/rounds").unwrap_or(0) > 0);
    // Cold cache + distinct figures: every sweep point is a miss.
    assert!(trace.counter("cache/scenario/misses").unwrap_or(0) > 0);
}

#[test]
fn repro_trace_records_nested_flight_recorder_events() {
    let trace_path = record_quick_trace("events");
    let trace = read_trace(&trace_path);
    assert!(!trace.events.is_empty(), "v2 trace carries span events");

    // The documented nesting chain: sweep (root) → experiment/<id> →
    // sweep/point (on worker threads, linked via the explicit parent id).
    let sweeps: Vec<_> = trace.events.iter().filter(|e| e.name == "sweep").collect();
    assert_eq!(sweeps.len(), 1, "one sweep root per recorded pass");
    let sweep = sweeps[0];
    assert_eq!(sweep.parent, 0, "sweep is a root span");

    let experiment_ids: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| e.name.starts_with("experiment/"))
        .map(|e| {
            assert_eq!(e.parent, sweep.id, "experiments nest under the sweep");
            e.id
        })
        .collect();
    assert_eq!(experiment_ids.len(), 2, "fig2a and fig6b");

    let points: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "sweep/point")
        .collect();
    assert!(!points.is_empty(), "worker points recorded");
    for p in points {
        assert!(
            experiment_ids.contains(&p.parent),
            "sweep/point parent {} is not an experiment span",
            p.parent
        );
        assert!(p.end_ns >= p.start_ns, "monotonic event bounds");
    }

    // Worker staging reached the snapshot via the explicit join-point
    // flush, and the recorder kept every event (no ring overflow on a
    // quick run).
    assert!(trace.counter("obs/flush").unwrap_or(0) > 0);
    assert_eq!(trace.counter("obs/events/dropped"), None);
}

#[test]
fn dsmec_trace_renders_table_critical_path_and_folded_stacks() {
    let trace_path = record_quick_trace("report");
    let trace_str = trace_path.to_str().unwrap();

    let (ok, stdout, stderr) = dsmec_trace(&[trace_str]);
    assert!(ok, "dsmec trace failed: {stderr}");
    // Non-empty self-time table…
    assert!(stdout.contains("self ms"), "{stdout}");
    assert!(stdout.contains("sweep/point"), "{stdout}");
    // …and a critical path rooted at the sweep.
    assert!(stdout.contains("critical path"), "{stdout}");
    assert!(stdout.contains("% serial"), "{stdout}");

    let folded_path = trace_path.with_file_name("stacks.folded");
    let folded_str = folded_path.to_str().unwrap();
    let (ok, _, stderr) = dsmec_trace(&[trace_str, "--folded", folded_str]);
    assert!(ok, "dsmec trace --folded failed: {stderr}");
    let folded = std::fs::read_to_string(&folded_path).expect("folded output written");
    assert!(!folded.is_empty());
    for line in folded.lines() {
        // flamegraph format: `root;child;leaf <ns>`.
        let (stack, ns) = line.rsplit_once(' ').expect("folded line has a count");
        assert!(!stack.is_empty(), "bad folded line {line:?}");
        assert!(ns.parse::<u64>().is_ok(), "bad folded count {line:?}");
    }
    assert!(
        folded.lines().any(|l| l.starts_with("sweep;experiment/")),
        "stacks are rooted at the sweep:\n{folded}"
    );
}

#[test]
fn dsmec_trace_gate_passes_identity_and_fails_injected_regression() {
    let trace_path = record_quick_trace("gate");
    let trace_str = trace_path.to_str().unwrap();

    // A trace never regresses against itself.
    let (ok, stdout, stderr) = dsmec_trace(&[trace_str, "--baseline", trace_str, "--gate", "1.01"]);
    assert!(ok, "identity gate tripped: {stderr}");
    assert!(stdout.contains("ratio"), "{stdout}");

    // Inject a 2x regression on every span that clears the noise floor
    // and check the gate exits nonzero, naming a span.
    let mut slow = read_trace(&trace_path);
    for span in &mut slow.spans {
        span.total_ns *= 2;
    }
    let slow_path = trace_path.with_file_name("slow.json");
    std::fs::write(&slow_path, djson::to_string_pretty(&slow)).expect("write regressed trace");
    let (ok, _, stderr) = dsmec_trace(&[
        slow_path.to_str().unwrap(),
        "--baseline",
        trace_str,
        "--gate",
        "1.5",
    ]);
    assert!(!ok, "2x regression must trip a 1.5x gate");
    assert!(stderr.contains("regression gate failed"), "{stderr}");
    assert!(stderr.contains("2.000x"), "{stderr}");
}
