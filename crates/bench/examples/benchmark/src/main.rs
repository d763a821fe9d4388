//! The repository benchmark: `dsmec serve` on three named configs and the
//! `repro` quick sweep, end to end and, with `--trace 1`, layer by layer.
//! README.md in this directory describes the workloads, the metrics and
//! the correctness checks.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/examples/benchmark/Cargo.toml -- \
//!     --workload serve_churn [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! ```

mod metrics;
mod repro;
mod serve;

use djson::Json;
use metrics::{Run, END_TO_END};
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark definition at the repository root. Every run checks that
/// it reports exactly the workloads and metrics listed there.
const SPEC: &str = include_str!("../../../../../BENCHMARK.json");

const WORKLOADS: [&str; 4] = ["serve_steady", "serve_churn", "serve_fleet", "repro_quick"];

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--smoke]";

struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => o.out = Some(value()?),
            "--smoke" => o.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    } else if !o.smoke {
        return Err("--workload is required".into());
    }
    Ok(o)
}

/// `(name, unit)` pairs of one metric list of the spec.
fn spec_metrics(spec: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| match m.get(k) {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    };
    match spec.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect(),
        _ => Vec::new(),
    }
}

/// Checks that BENCHMARK.json names exactly what this program reports;
/// returns its `run_seconds`.
fn check_spec() -> Result<f64, String> {
    let spec = djson::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let per_layer: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    let workloads: Vec<String> = match spec.get("workloads") {
        Some(Json::Arr(ws)) => ws
            .iter()
            .filter_map(|w| match w.get("name") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
        ));
    }
    for (key, ours) in [("end_to_end", end_to_end), ("per_layer", per_layer)] {
        let theirs = spec_metrics(&spec, key);
        if theirs != ours {
            return Err(format!(
                "BENCHMARK.json {key} {theirs:?} != reported {ours:?}"
            ));
        }
    }
    match spec.get("run_seconds") {
        Some(Json::Num(n)) => n.as_f64().ok_or("BENCHMARK.json run_seconds".into()),
        _ => Err("BENCHMARK.json has no run_seconds".into()),
    }
}

/// Runs one workload on one worker thread; a traced run also runs one
/// session or pass on `threads` workers.
fn run_workload(
    name: &str,
    seed: Option<u64>,
    threads: usize,
    budget: Duration,
    trace: bool,
    smoke: bool,
) -> Run {
    mec_bench::par::set_threads(1);
    // Two sessions at least, so the cross-session fingerprint check has a
    // pair; a traced run checks against its replay and its other-thread-count run.
    let min_sessions = if smoke || trace { 1 } else { 2 };
    let serve = |config| serve::run(&config, threads, budget, trace, min_sessions);
    match name {
        "serve_steady" => serve(serve::steady(seed.unwrap_or(42), smoke)),
        "serve_churn" => serve(serve::churn(seed.unwrap_or(42), smoke)),
        "serve_fleet" => serve(serve::fleet(seed.unwrap_or(42), smoke)),
        _ => repro::run(seed.unwrap_or(101), threads, budget, trace, smoke),
    }
}

/// Prints one `name value unit n=samples` line per metric (a traced run
/// prints its end-to-end ones too) and returns the run's result metrics
/// as JSON `{name: {value, unit}}`, plus the same with sample counts for
/// `--out`. A traced run's result is its per-layer metrics.
fn report(run: &Run, trace: bool) -> (Json, Json) {
    let e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    let layers = if trace {
        metrics::per_layer()
    } else {
        Vec::new()
    };
    let mut result = Vec::new();
    let mut detailed = Vec::new();
    for (i, (name, unit)) in e2e.iter().chain(&layers).enumerate() {
        let v = run.metrics.get(name).copied().unwrap_or_default();
        println!("{name} {} {unit} n={}", v.value, v.samples);
        if trace == (i < e2e.len()) {
            continue;
        }
        let value = Json::from(if v.value.is_finite() { v.value } else { 0.0 });
        let unit = Json::from(*unit);
        let samples = Json::from(v.samples as u64);
        let fields = vec![("value".to_string(), value), ("unit".to_string(), unit)];
        let mut with_samples = fields.clone();
        with_samples.push(("samples".to_string(), samples));
        result.push((name.clone(), Json::Obj(fields)));
        detailed.push((name.clone(), Json::Obj(with_samples)));
    }
    (Json::Obj(result), Json::Obj(detailed))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            eprintln!("workloads: {}", WORKLOADS.join(", "));
            return ExitCode::from(2);
        }
    };
    let run_seconds = match check_spec() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Workloads are measured on one worker thread; a traced run compares
    // one session or pass on this many.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));

    // A smoke run is every workload (or the one named) at a few percent of
    // its size, traced so every check runs, with no time budget.
    let (names, budget, trace): (Vec<&str>, f64, bool) = if opts.smoke {
        let names = opts
            .workload
            .as_deref()
            .map_or(WORKLOADS.to_vec(), |w| vec![w]);
        (names, 0.0, true)
    } else {
        let w = opts.workload.as_deref().unwrap_or_default();
        (vec![w], opts.seconds.unwrap_or(run_seconds), opts.trace)
    };
    let budget = Duration::from_secs_f64(budget);

    let mut all_correct = true;
    let mut records = Vec::new();
    for name in names {
        if opts.smoke {
            println!("== {name}");
        }
        let run = run_workload(name, opts.seed, threads, budget, trace, opts.smoke);
        for p in &run.problems {
            eprintln!("{name}: FAILED: {p}");
        }
        let correct = run.failed == 0 && run.attempted > 0;
        all_correct &= correct;
        let (metrics, detailed) = report(&run, trace);
        records.push(Json::Obj(vec![
            ("workload".into(), Json::from(name)),
            ("seed".into(), opts.seed.map_or(Json::Null, Json::from)),
            ("seconds".into(), Json::from(budget.as_secs_f64())),
            ("trace".into(), Json::from(trace)),
            ("correct".into(), Json::from(correct)),
            ("attempted".into(), Json::from(run.attempted)),
            ("failed".into(), Json::from(run.failed)),
            ("metrics".into(), detailed),
            ("sessions".into(), Json::Arr(run.sessions)),
        ]));
        let result = Json::Obj(vec![
            ("correct".into(), Json::from(correct)),
            ("attempted".into(), Json::from(run.attempted)),
            ("failed".into(), Json::from(run.failed)),
            ("metrics".into(), metrics),
        ]);
        println!("{}", result.render(false));
    }
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, Json::Arr(records).render(true) + "\n") {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
