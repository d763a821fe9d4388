//! `dsmec` — command-line front end to the Data-Shared MEC toolkit.
//!
//! ```text
//! dsmec generate --seed 42 --tasks 200 --out scenario.json
//! dsmec assign   --scenario scenario.json --algorithm lp-hta --out assignment.json
//! dsmec simulate --scenario scenario.json --assignment assignment.json --contention
//! dsmec report   --scenario scenario.json --assignment assignment.json
//! dsmec compare  --scenario scenario.json
//! dsmec trace    trace.json --folded stacks.txt
//! dsmec trace    new.json --baseline old.json --gate 1.15
//! ```

use mec_bench::cli::{
    assign_scenario, generate_scenario, read_json, render_report, simulate_assignment, write_json,
    AlgorithmName, AssignmentFile,
};
use mec_sim::sim::Contention;
use mec_sim::workload::Scenario;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "--help".to_string());
    let known = command_flags(&command)
        .ok_or_else(|| format!("unknown command `{command}` (see --help)"))?;
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut switches: Vec<String> = Vec::new();
    let mut positionals: Vec<String> = Vec::new();
    let mut pending: Option<String> = None;
    for arg in args {
        if let Some(name) = pending.take() {
            flags.insert(name, arg);
            continue;
        }
        if let Some(name) = arg.strip_prefix("--") {
            if !GLOBAL_FLAGS.contains(&name) && !known.contains(&name) {
                return Err(format!(
                    "unknown flag --{name} for `{command}` (see --help)"
                ));
            }
            match name {
                "contention" => switches.push(name.to_string()),
                _ => pending = Some(name.to_string()),
            }
        } else if matches!(command.as_str(), "trace" | "metrics" | "top") {
            // Only the analyzers take positional operands (their input
            // files); everywhere else a stray word is still a usage error.
            positionals.push(arg);
        } else {
            return Err(format!("unexpected positional argument `{arg}`"));
        }
    }
    if let Some(name) = pending {
        return Err(format!("flag --{name} needs a value"));
    }
    if let Some(spec) = flags.get("threads") {
        mec_bench::cli::apply_threads(spec)?;
    }
    if command == "trace" {
        // Offline analysis of an existing trace: never records one.
        return run_trace(&flags, &positionals);
    }
    if command == "metrics" {
        // Flight-log analyzer + SLO gate: exits nonzero on violation.
        return run_metrics(&flags, &positionals);
    }
    if command == "top" {
        return run_top(&flags, &positionals);
    }
    // Tracing: --trace PATH or DSMEC_TRACE=PATH enables mec-obs and
    // writes the snapshot after the command completes.
    let trace_path = mec_bench::cli::init_trace(flags.get("trace").map(String::as_str));

    let outcome = dispatch(&command, &flags, &switches);
    if let Some(path) = &trace_path {
        mec_bench::cli::write_trace(path)?;
        println!("wrote trace {path}");
    }
    outcome
}

/// Flags every command accepts: `--threads N` and `--trace P`.
const GLOBAL_FLAGS: [&str; 2] = ["threads", "trace"];

/// The flags (and the `--contention` switch) `command` reads, besides
/// [`GLOBAL_FLAGS`]; `None` for an unknown command.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "generate" => &[
            "seed",
            "stations",
            "devices-per-station",
            "tasks",
            "max-input-kb",
            "out",
        ],
        "assign" => &["scenario", "algorithm", "seed", "out"],
        "simulate" => &["scenario", "assignment", "contention", "chaos", "chaos-out"],
        "report" => &["scenario", "assignment"],
        "divisible" => &["seed", "tasks", "items"],
        "serve" => &[
            "seed",
            "epochs",
            "batch",
            "stations",
            "devices-per-station",
            "max-input-kb",
            "rate",
            "chaos",
            "cloud-limit",
            "metrics-out",
            "metrics-addr",
            "out",
        ],
        "compare" => &["scenario", "seed"],
        "trace" => &["folded", "baseline", "gate", "min-total-ms", "floor", "top"],
        "metrics" => &["slo"],
        "top" => &["addr", "interval-ms", "iterations"],
        "--help" | "-h" | "help" => &[],
        _ => return None,
    })
}

/// `dsmec trace <FILE>` / `dsmec trace --baseline OLD NEW --gate R`.
fn run_trace(flags: &HashMap<String, String>, positionals: &[String]) -> Result<(), String> {
    let mut args = mec_bench::trace_report::TraceArgs {
        file: positionals
            .first()
            .cloned()
            .ok_or("trace needs a FILE operand (see --help)")?,
        folded: flags.get("folded").cloned(),
        baseline: flags.get("baseline").cloned(),
        ..Default::default()
    };
    if positionals.len() > 1 {
        return Err(format!("trace takes one FILE operand, got {positionals:?}"));
    }
    if let Some(gate) = flags.get("gate") {
        let ratio: f64 = gate
            .parse()
            .map_err(|_| "--gate must be a ratio like 1.15".to_string())?;
        if !(ratio.is_finite() && ratio >= 1.0) {
            return Err("--gate must be a finite ratio >= 1.0".to_string());
        }
        if args.baseline.is_none() {
            return Err("--gate requires --baseline OLD.json".to_string());
        }
        args.gate = Some(ratio);
    }
    if let Some(floor) = flags.get("min-total-ms") {
        args.min_total_ms = floor
            .parse()
            .map_err(|_| "--min-total-ms must be a number".to_string())?;
    }
    if let Some(spec) = flags.get("floor") {
        // --floor prefix=ms[,prefix=ms]: per-prefix gate floors.
        for part in spec.split(',') {
            let (prefix, ms) = part
                .split_once('=')
                .ok_or_else(|| format!("--floor entries look like prefix=ms, got {part:?}"))?;
            let ms: f64 = ms
                .parse()
                .map_err(|_| format!("--floor {prefix}= needs a number, got {part:?}"))?;
            if prefix.is_empty() || !ms.is_finite() || ms < 0.0 {
                return Err(format!("--floor entry {part:?} is not a valid prefix=ms"));
            }
            args.floors.push((prefix.to_string(), ms));
        }
    }
    if let Some(top) = flags.get("top") {
        args.top = top
            .parse()
            .map_err(|_| "--top must be an integer".to_string())?;
    }
    mec_bench::trace_report::trace_command(&args)
}

/// `dsmec metrics FLIGHT.jsonl [--slo key=value,…]`.
fn run_metrics(flags: &HashMap<String, String>, positionals: &[String]) -> Result<(), String> {
    if positionals.len() > 1 {
        return Err(format!(
            "metrics takes one FLIGHT.jsonl operand, got {positionals:?}"
        ));
    }
    let args = mec_bench::metrics::MetricsArgs {
        file: positionals
            .first()
            .cloned()
            .ok_or("metrics needs a FLIGHT.jsonl operand (see --help)")?,
        slo: flags.get("slo").cloned(),
    };
    mec_bench::metrics::metrics_command(&args)
}

/// `dsmec top [FLIGHT.jsonl] [--addr HOST:PORT] [--interval-ms N]
/// [--iterations N]`.
fn run_top(flags: &HashMap<String, String>, positionals: &[String]) -> Result<(), String> {
    if positionals.len() > 1 {
        return Err(format!(
            "top takes at most one FLIGHT.jsonl operand, got {positionals:?}"
        ));
    }
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} must be an integer"))
            })
            .unwrap_or(Ok(default))
    };
    let args = mec_bench::metrics::TopArgs {
        file: positionals.first().cloned(),
        addr: flags.get("addr").cloned(),
        interval_ms: parse_u64("interval-ms", 1000)?,
        iterations: parse_u64("iterations", 0)?,
    };
    mec_bench::metrics::top_command(&args)
}

fn dispatch(
    command: &str,
    flags: &HashMap<String, String>,
    switches: &[String],
) -> Result<(), String> {
    let get_u64 =
        |flags: &HashMap<String, String>, name: &str, default: u64| -> Result<u64, String> {
            flags
                .get(name)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("--{name} must be an integer"))
                })
                .unwrap_or(Ok(default))
        };
    let get_usize =
        |flags: &HashMap<String, String>, name: &str, default: usize| -> Result<usize, String> {
            flags
                .get(name)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("--{name} must be an integer"))
                })
                .unwrap_or(Ok(default))
        };

    match command {
        "generate" => {
            let seed = get_u64(flags, "seed", 42)?;
            let stations = get_usize(flags, "stations", 5)?;
            let devices = get_usize(flags, "devices-per-station", 10)?;
            let tasks = get_usize(flags, "tasks", 100)?;
            let kb: f64 = flags
                .get("max-input-kb")
                .map(|v| {
                    v.parse()
                        .map_err(|_| "--max-input-kb must be a number".to_string())
                })
                .unwrap_or(Ok(3000.0))?;
            let scenario =
                generate_scenario(seed, stations, devices, tasks, kb).map_err(|e| e.to_string())?;
            let out = flags.get("out").cloned().unwrap_or("scenario.json".into());
            write_json(&out, &scenario)?;
            println!(
                "wrote {out}: {} stations, {} devices, {} tasks",
                scenario.system.num_stations(),
                scenario.system.num_devices(),
                scenario.tasks.len()
            );
            Ok(())
        }
        "assign" => {
            let scenario: Scenario =
                read_json(flags.get("scenario").ok_or("--scenario required")?)?;
            let name = flags
                .get("algorithm")
                .map(String::as_str)
                .unwrap_or("lp-hta");
            let algorithm = AlgorithmName::parse(name)
                .ok_or_else(|| format!("unknown algorithm `{name}` (try lp-hta, hgos, nash, …)"))?;
            let seed = get_u64(flags, "seed", 42)?;
            let file = assign_scenario(&scenario, algorithm, seed).map_err(|e| e.to_string())?;
            let out = flags
                .get("out")
                .cloned()
                .unwrap_or("assignment.json".into());
            write_json(&out, &file)?;
            print!("{}", render_report(&file, None));
            println!("wrote {out}");
            Ok(())
        }
        "simulate" | "report" => {
            let scenario: Scenario =
                read_json(flags.get("scenario").ok_or("--scenario required")?)?;
            let file: AssignmentFile =
                read_json(flags.get("assignment").ok_or("--assignment required")?)?;
            let contention = if switches.iter().any(|s| s == "contention") {
                Contention::Exclusive
            } else {
                Contention::None
            };
            let sim = if command == "simulate" {
                Some(simulate_assignment(&scenario, &file, contention).map_err(|e| e.to_string())?)
            } else {
                None
            };
            print!("{}", render_report(&file, sim.as_ref()));
            // Fault injection: --chaos SEED or DSMEC_CHAOS=SEED replays
            // the assignment under a seeded fault plan with repair.
            if command == "simulate" {
                let chaos = mec_bench::cli::resolve_chaos(flags.get("chaos").map(String::as_str))?;
                if let Some(seed) = chaos {
                    let run = mec_bench::cli::chaos_assignment(&scenario, &file, contention, seed)
                        .map_err(|e| e.to_string())?;
                    print!("{}", mec_bench::cli::render_chaos_report(&run));
                    if let Some(out) = flags.get("chaos-out") {
                        write_json(out, &run)?;
                        println!("wrote {out}");
                    }
                }
            }
            Ok(())
        }
        "divisible" => {
            use dsmec_core::dta::{run_dta, DtaConfig};
            use mec_sim::workload::DivisibleScenarioConfig;
            let seed = get_u64(flags, "seed", 42)?;
            let tasks = get_usize(flags, "tasks", 100)?;
            let items = get_usize(flags, "items", 1000)?;
            let mut cfg = DivisibleScenarioConfig::paper_defaults(seed);
            cfg.tasks_total = tasks;
            cfg.num_items = items;
            let s = cfg.generate().map_err(|e| e.to_string())?;
            println!(
                "{:<14} {:>12} {:>10} {:>16} {:>8}",
                "strategy", "energy (J)", "devices", "processing (s)", "pieces"
            );
            println!("{}", "-".repeat(66));
            for dta in [DtaConfig::workload(), DtaConfig::number()] {
                let r = run_dta(&s, dta).map_err(|e| e.to_string())?;
                println!(
                    "{:<14} {:>12.1} {:>10} {:>16.3} {:>8}",
                    dta.strategy.to_string(),
                    r.total_energy.value(),
                    r.involved_devices,
                    r.processing_time.value(),
                    r.pieces.len()
                );
            }
            Ok(())
        }
        "serve" => {
            use mec_bench::metrics::{TelemetryOptions, TelemetryPlane};
            use mec_bench::serve::{serve, serve_with_hook, ServeConfig};
            let defaults = ServeConfig::default();
            let mut cfg = ServeConfig {
                seed: get_u64(flags, "seed", defaults.seed)?,
                epochs: get_usize(flags, "epochs", defaults.epochs)?,
                batch: get_usize(flags, "batch", defaults.batch)?,
                num_stations: get_usize(flags, "stations", defaults.num_stations)?,
                devices_per_station: get_usize(
                    flags,
                    "devices-per-station",
                    defaults.devices_per_station,
                )?,
                ..defaults
            };
            if let Some(kb) = flags.get("max-input-kb") {
                cfg.max_input_kb = kb
                    .parse()
                    .map_err(|_| "--max-input-kb must be a number".to_string())?;
            }
            if let Some(rate) = flags.get("rate") {
                cfg.rate_per_second = rate
                    .parse()
                    .map_err(|_| "--rate must be a number (tasks/s)".to_string())?;
            }
            cfg.chaos = mec_bench::cli::resolve_chaos(flags.get("chaos").map(String::as_str))?;
            if let Some(limit) = flags.get("cloud-limit") {
                cfg.cloud_limit = Some(
                    limit
                        .parse()
                        .map_err(|_| "--cloud-limit must be an integer".to_string())?,
                );
            }
            // Telemetry plane: --metrics-out / --metrics-addr (or their
            // DSMEC_METRICS_* environment fallbacks) feed the per-epoch
            // hook; fingerprints are identical with the plane on or off.
            let telemetry = TelemetryOptions::resolve(
                flags.get("metrics-out").map(String::as_str),
                flags.get("metrics-addr").map(String::as_str),
            );
            let mut plane = TelemetryPlane::start(&telemetry)?;
            if let Some(addr) = plane.as_ref().and_then(TelemetryPlane::server_addr) {
                println!("metrics: serving http://{addr}/metrics");
            }
            let report = match plane.as_mut() {
                Some(p) => serve_with_hook(&cfg, &mut |e| p.on_epoch(e)),
                None => serve(&cfg),
            }
            .map_err(|e| e.to_string())?;
            print!("{}", mec_bench::serve::render_serve_report(&report));
            let out = flags.get("out").cloned().unwrap_or("serve.json".into());
            write_json(&out, &report)?;
            println!("wrote {out}");
            if let Some(p) = plane {
                let intervals = p.finish()?;
                if let Some(path) = &telemetry.metrics_out {
                    println!("wrote {path} ({intervals} intervals)");
                }
            }
            Ok(())
        }
        "compare" => {
            let scenario: Scenario =
                read_json(flags.get("scenario").ok_or("--scenario required")?)?;
            let seed = get_u64(flags, "seed", 42)?;
            println!(
                "{:<12} {:>12} {:>12} {:>12}",
                "algorithm", "energy (J)", "latency (s)", "unsatisfied"
            );
            println!("{}", "-".repeat(52));
            for name in AlgorithmName::ALL {
                let file = assign_scenario(&scenario, name, seed).map_err(|e| e.to_string())?;
                println!(
                    "{:<12} {:>12.1} {:>12.3} {:>11.1}%",
                    name.as_str(),
                    file.metrics.total_energy.value(),
                    file.metrics.mean_latency.value(),
                    file.metrics.unsatisfied_rate * 100.0
                );
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            eprintln!("usage: dsmec <command> [flags]");
            eprintln!("commands:");
            eprintln!("  generate  --seed N --stations K --devices-per-station D --tasks T \\");
            eprintln!("            --max-input-kb KB --out scenario.json");
            eprintln!("  assign    --scenario F --algorithm NAME --out assignment.json");
            eprintln!("  simulate  --scenario F --assignment F [--contention] \\");
            eprintln!("            [--chaos SEED [--chaos-out chaos.json]]");
            eprintln!("            --chaos injects a seeded fault plan (device dropouts,");
            eprintln!("            link outages/degradation, stragglers) and replans");
            eprintln!("            stranded tasks; the run is deterministic per seed");
            eprintln!("  report    --scenario F --assignment F");
            eprintln!("  serve     --seed N --epochs E [--batch B] [--stations K] \\");
            eprintln!("            [--devices-per-station D] [--rate R] [--chaos SEED] \\");
            eprintln!("            [--cloud-limit C] [--out serve.json] \\");
            eprintln!("            [--metrics-addr HOST:PORT] [--metrics-out FLIGHT.jsonl]");
            eprintln!("            online mode: drain E epoch batches of task arrivals");
            eprintln!("            through the sharded incremental LP-HTA, warm-starting");
            eprintln!("            each base-station cluster from its previous basis;");
            eprintln!("            --chaos adds device churn, --cloud-limit caps cloud");
            eprintln!("            placements per epoch (excess migrates to stations);");
            eprintln!("            --metrics-addr serves live Prometheus text at GET");
            eprintln!("            /metrics, --metrics-out appends one interval snapshot");
            eprintln!("            per epoch as a JSONL flight log (DESIGN.md §12)");
            eprintln!("  metrics   FLIGHT.jsonl [--slo p95_ms=X,miss_rate=Y,…]");
            eprintln!("            summarize a flight log as a per-interval trend table;");
            eprintln!("            --slo exits nonzero when any interval violates a rule");
            eprintln!("            (keys: p50_ms p95_ms p99_ms miss_rate warm_rate_min");
            eprintln!("            queue_max)");
            eprintln!("  top       FLIGHT.jsonl | --addr HOST:PORT [--interval-ms N] \\");
            eprintln!("            [--iterations N]");
            eprintln!("            live trend view: poll a serve session's /metrics");
            eprintln!("            endpoint (one row per interval, until the session");
            eprintln!("            ends) or render a recorded flight log once");
            eprintln!("  compare   --scenario F");
            eprintln!("  divisible --seed N --tasks T --items M");
            eprintln!("  trace     FILE [--folded OUT.txt] [--top N]");
            eprintln!("            analyze a trace JSON: self-time table, critical path,");
            eprintln!("            flamegraph folded stacks");
            eprintln!("  trace     NEW.json --baseline OLD.json [--gate RATIO] \\");
            eprintln!("            [--min-total-ms MS] [--floor prefix=MS[,prefix=MS]]");
            eprintln!("            diff two traces; with --gate, exit nonzero when any");
            eprintln!("            span's total time regressed past RATIO; --floor sets");
            eprintln!("            per-prefix noise floors (longest matching prefix wins)");
            eprintln!("global flags:");
            eprintln!("  --threads N  worker threads for sweeps, pricing and serve's cluster LPs (0 = auto)");
            eprintln!("  --trace P    write an mec-obs trace JSON with flight-recorder");
            eprintln!("               events (schema v2, DESIGN.md §7)");
            eprintln!("environment:");
            eprintln!("  DSMEC_THREADS=N       worker threads when --threads is not given");
            eprintln!("  DSMEC_TRACE=P         trace output path when --trace is not given");
            eprintln!("  DSMEC_TRACE_EVENTS=0  record aggregates only (no span events)");
            eprintln!("  DSMEC_CHAOS=SEED      chaos seed when --chaos is not given");
            eprintln!("  DSMEC_METRICS_ADDR=A  serve exposition bind when --metrics-addr");
            eprintln!("                        is not given");
            eprintln!("  DSMEC_METRICS_OUT=P   flight-log path when --metrics-out is not");
            eprintln!("                        given");
            eprintln!("algorithms: lp-hta hgos all-to-c all-offload local-first nash random");
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (see --help)")),
    }
}
