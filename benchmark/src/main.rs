//! The PoE benchmark: six named workloads at fixed rates under a given
//! seed, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one, with correctness checked in the same command.
//!
//! ```text
//! poe-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, in this process; the last line of stdout is the
//!     result object BENCHMARK.json's contract describes
//! poe-benchmark [--seed <n>] [--seconds <s>] [--repeat <N>]
//!     every workload, each in a fresh child process of this binary
//!     (so memory, CPU and leaked threads are per workload), untraced
//!     under seeds n … n+N-1 and traced once; prints every metric with
//!     its unit, the spread over the N sets against each bound, and
//!     writes out/results.json with the runner fingerprint
//! poe-benchmark --emit-spec
//!     prints BENCHMARK.json
//! ```
//!
//! `README.md` next to this package defines every metric and says how
//! to read the output.

mod fabric;
mod json;
mod outcome;
mod procstat;
mod replay;
mod sim;
mod spec;
mod stats;
mod trace;

use json::Json;
use spec::{Better, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// Ends a run that cannot produce a result: message on stderr, no
/// result line, non-zero exit.
fn die(message: &str) -> ! {
    eprintln!("poe-benchmark: {message}");
    std::process::exit(1)
}

/// Where the span file and the result file go: `out/` next to this
/// package's manifest (ignored by git).
fn out_dir() -> PathBuf {
    let package = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(package).join("out")
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    emit_spec: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        emit_spec: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let name = value();
                args.workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| die(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                args.seed = value().parse().unwrap_or_else(|_| die("--seed takes a whole number"))
            }
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| die("--seconds takes a number"));
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    die("--seconds must be in (0, 60]");
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            "--repeat" => {
                args.repeat = value().parse().unwrap_or_else(|_| die("--repeat takes a count"));
                if args.repeat == 0 {
                    die("--repeat must be at least 1");
                }
            }
            "--emit-spec" => args.emit_spec = true,
            other => die(&format!("unknown argument {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.emit_spec {
        print!("{}", spec::benchmark_json());
        return;
    }
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

/// One workload in this process; the contract's result line last.
fn run_one(workload: Workload, args: &Args) {
    let mut outcome = match workload {
        Workload::BackupCrash => fabric::run_backup_crash(args.seed, args.seconds, args.trace),
        Workload::SimViewchange => sim::run(args.seed, args.seconds, args.trace),
        open_loop => fabric::run_open(open_loop, args.seed, args.seconds, args.trace),
    };
    let line = outcome.result_line(args.trace);
    for note in &outcome.notes {
        eprintln!("{}: {note}", workload.name());
    }
    for violation in &outcome.violations {
        eprintln!("{}: VIOLATED: {violation}", workload.name());
    }
    println!("{line}");
    if !outcome.violations.is_empty() {
        std::process::exit(2);
    }
}

/// A child's metrics by name, or why there are none.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result =
        Json::parse(line).map_err(|e| format!("no result line ({e}); exit {}", output.status))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("checks violated (exit {})", output.status));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload in a child process each: `repeat` untraced sets under
/// consecutive seeds and one traced set, a table of both, the spread of
/// each end-to-end metric held against its bound, and a result file.
fn run_all(args: &Args) {
    let fingerprint = procstat::fingerprint();
    println!("runner: {fingerprint}");
    println!(
        "seed {} .. {}, {} s measured per run",
        args.seed,
        args.seed + args.repeat as u64 - 1,
        args.seconds
    );
    let mut failures = 0usize;
    let mut workloads_json = Vec::new();
    for workload in Workload::ALL {
        println!("\n== {} — {}", workload.name(), workload.why());
        let mut sets: Vec<Json> = Vec::new();
        for r in 0..args.repeat {
            match run_child(workload, args.seed + r as u64, args.seconds, false) {
                Ok(result) => sets.push(result),
                Err(e) => {
                    failures += 1;
                    println!("   run {r} FAILED: {e}");
                }
            }
        }
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let values: Vec<f64> = sets.iter().filter_map(|s| metric_value(s, m.name)).collect();
            if values.is_empty() {
                continue;
            }
            let med = stats::median(&values);
            let mut line = format!("   {:<28} {:>14.4} {:<6}", m.name, med, m.unit);
            let mut entry = vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("median", Json::Num(med)),
                ("values", Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())),
            ];
            if values.len() >= 3 {
                let (q1, q3) = stats::quartiles(&values);
                let spread = stats::relative_spread(&values);
                // `setup_s` is held to its bound between medians only.
                let over = spread > m.bound && m.name != "setup_s";
                line.push_str(&format!(
                    "  q1 {q1:.4} q3 {q3:.4}  spread {:.2} % of bound {:.0} %{}",
                    spread * 100.0,
                    m.bound * 100.0,
                    if over { "  <-- SPREAD OVER BOUND" } else { "" }
                ));
                failures += usize::from(over);
                entry.extend([
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(spread)),
                ]);
            }
            println!("{line}");
            end_to_end.push(Json::obj(entry));
        }
        let mut per_layer = Vec::new();
        match run_child(workload, args.seed, args.seconds, true) {
            Ok(result) => {
                for m in PER_LAYER {
                    let value = metric_value(&result, m.name).unwrap_or(0.0);
                    let arrow = if m.better == Better::Higher { "higher is better" } else { "" };
                    println!("   {:<40} {:>14.4} {:<10} {arrow}", m.name, value, m.unit);
                    per_layer.push(Json::obj([
                        ("name", Json::str(m.name)),
                        ("unit", Json::str(m.unit)),
                        ("value", Json::Num(value)),
                    ]));
                }
            }
            Err(e) => {
                failures += 1;
                println!("   traced run FAILED: {e}");
            }
        }
        workloads_json.push(Json::obj([
            ("name", Json::str(workload.name())),
            ("end_to_end", Json::Arr(end_to_end)),
            ("per_layer", Json::Arr(per_layer)),
        ]));
    }
    let results = Json::obj([
        ("runner", fingerprint),
        ("seed", Json::Num(args.seed as f64)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("constants", spec::constants()),
        ("workloads", Json::Arr(workloads_json)),
    ]);
    let dir = out_dir();
    let path = dir.join("results.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, results.pretty())) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            failures += 1;
            println!("\ncannot write {}: {e}", path.display());
        }
    }
    if failures > 0 {
        println!("{failures} failed run(s) or spread(s) over bound");
        std::process::exit(2);
    }
}
