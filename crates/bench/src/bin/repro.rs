//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!   repro                 run every experiment (full sweeps)
//!   repro fig2a fig3      run selected experiments
//!   repro --quick         CI-sized sweeps
//!   repro --out DIR       CSV output directory (default target/experiments)
//!   repro --threads N     worker threads (0 = auto; also DSMEC_THREADS)
//!   repro --trace P       write an mec-obs trace (aggregates + flight-
//!                         recorder span events, schema v2 in DESIGN.md §7,
//!                         analyzable with `dsmec trace`);
//!                         DSMEC_TRACE_EVENTS=0 records aggregates only
//!
//! Every selected experiment runs once, from a cold cache. Outputs are
//! bit-identical at any thread count (`tests/determinism.rs`); timings
//! live in the benchmark package (`crates/bench/examples/benchmark`).

use mec_bench::cli;
use mec_bench::figures::{registry, ExperimentOptions, Runner};
use mec_bench::table::Figure;
use std::path::PathBuf;
use std::process::ExitCode;

/// Outcome of one pass over the selected experiments.
struct Pass {
    /// `(id, figure, wall-time ms)` for every experiment that succeeded.
    figures: Vec<(&'static str, Figure, f64)>,
    /// Experiments that failed, with rendered errors.
    failures: Vec<(&'static str, String)>,
}

fn run_pass(runners: &[(&'static str, Runner)], opts: &ExperimentOptions) -> Pass {
    // Root of the flight-recorder chain: sweep → experiment/<id> →
    // sweep/point (on workers, linked via the explicit parent id) →
    // lp_hta/* / dta/* / linprog/*.
    let _pass_span = mec_obs::span("sweep");
    let mut pass = Pass {
        figures: Vec::new(),
        failures: Vec::new(),
    };
    for &(id, run) in runners {
        let _exp_span = mec_obs::span(mec_bench::figures::experiment_span(id));
        let start = std::time::Instant::now();
        match run(opts) {
            Ok(fig) => pass
                .figures
                .push((id, fig, start.elapsed().as_secs_f64() * 1e3)),
            Err(e) => pass.failures.push((id, e.to_string())),
        }
    }
    pass
}

fn main() -> ExitCode {
    let mut opts = ExperimentOptions::default();
    let mut out_dir = PathBuf::from("target/experiments");
    let mut trace_flag: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts = ExperimentOptions::quick(),
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(path) => trace_flag = Some(path),
                None => {
                    eprintln!("--trace requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match args.next().map(|s| cli::apply_threads(&s)) {
                Some(Ok(_)) => {}
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--threads requires a count");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--quick] [--threads N] [--out DIR] [--trace PATH] \
                     [EXPERIMENT...]"
                );
                eprintln!("environment:");
                eprintln!("  DSMEC_THREADS=N       worker threads when --threads is not given");
                eprintln!("  DSMEC_TRACE_EVENTS=0  record aggregates only (no span events)");
                eprintln!("experiments:");
                for (id, _) in registry() {
                    eprintln!("  {id}");
                }
                return ExitCode::SUCCESS;
            }
            other => selected.push(other.to_string()),
        }
    }

    let runners: Vec<(&'static str, Runner)> = registry()
        .into_iter()
        .filter(|(id, _)| selected.is_empty() || selected.iter().any(|s| s == id))
        .collect();
    let unknown: Vec<&String> = selected
        .iter()
        .filter(|s| !registry().iter().any(|(id, _)| id == s))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiments: {unknown:?} (see --help)");
        return ExitCode::FAILURE;
    }

    let trace_path = cli::init_trace(trace_flag.as_deref());
    let pass = run_pass(&runners, &opts);

    for (id, fig, ms) in &pass.figures {
        println!("{}", fig.render_table());
        if let Err(e) = fig.write_csv(&out_dir) {
            eprintln!("warning: could not write {id}.csv: {e}");
        } else {
            println!(
                "   -> {}  ({:.1}s)\n",
                out_dir.join(format!("{id}.csv")).display(),
                ms / 1e3
            );
        }
    }
    for (id, e) in &pass.failures {
        eprintln!("{id} FAILED: {e}");
    }

    if let Some(path) = &trace_path {
        let trace = mec_obs::snapshot();
        match cli::write_json(path, &trace) {
            Ok(()) => println!(
                "trace: {} spans, {} counters -> {path}",
                trace.spans.len(),
                trace.counters.len()
            ),
            Err(e) => {
                eprintln!("ERROR: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if pass.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
