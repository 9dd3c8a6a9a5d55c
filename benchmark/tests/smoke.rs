//! Holds the benchmark to its own contract: `BENCHMARK.json` is what
//! the binary emits, and every workload — run for one second — prints
//! exactly the metrics `BENCHMARK.json` names, with their units, finite,
//! and passes its own correctness checks.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`:
//! an unoptimised build is past the knee at the fixed rates, so the
//! load runs are skipped there.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// The measured window of the smoke runs, seconds.
const SMOKE_SECONDS: &str = "1";

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_poe-benchmark"))
}

fn committed_spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root")
}

fn items<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    match spec.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("BENCHMARK.json: {key} is {other:?}"),
    }
}

fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    match item.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key} is {other:?}"),
    }
}

#[test]
fn benchmark_json_is_what_the_binary_emits() {
    let output = benchmark().arg("--emit-spec").output().expect("run --emit-spec");
    assert!(output.status.success());
    assert_eq!(String::from_utf8_lossy(&output.stdout), committed_spec());
}

#[test]
fn every_workload_prints_exactly_the_metrics_the_spec_names() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the load runs need an optimised build (cargo test --release)");
        return;
    }
    let spec = Json::parse(&committed_spec()).expect("BENCHMARK.json parses");
    let units = |key: &str| -> BTreeMap<String, String> {
        items(&spec, key)
            .iter()
            .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
            .collect()
    };
    let expected = [("0", units("end_to_end")), ("1", units("per_layer"))];

    for workload in items(&spec, "workloads") {
        let name = text(workload, "name");
        for (trace, expected_units) in &expected {
            let output = benchmark()
                .args(["--workload", name, "--seed", "7", "--seconds", SMOKE_SECONDS])
                .args(["--trace", trace])
                .output()
                .expect("run the workload");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{name} --trace {trace} exited {}:\n{stderr}",
                output.status
            );
            let line = stdout.lines().last().expect("a result line");
            let result = Json::parse(line).expect("the last stdout line is one JSON object");
            let Json::Obj(pairs) = &result else { panic!("result is not an object") };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{name}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}:\n{stderr}");
            let attempted = result.get("attempted").and_then(Json::as_f64).expect("attempted");
            let failed = result.get("failed").and_then(Json::as_f64).expect("failed");
            assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{name}: attempted {attempted}");
            assert!(failed == 0.0, "{name}: {failed} operations failed");

            let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics") };
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(metric, body)| {
                    let value = body.get("value").and_then(Json::as_f64).expect("a value");
                    assert!(value.is_finite(), "{name}: {metric} is {value}");
                    if *trace == "0" {
                        assert!(value > 0.0, "{name}: end-to-end {metric} is {value}");
                    }
                    (metric.clone(), text(body, "unit").to_string())
                })
                .collect();
            assert_eq!(&printed, expected_units, "{name} --trace {trace}: names or units differ");
        }
    }
}
