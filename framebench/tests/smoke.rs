//! Smoke mode: every workload of the registry on a tiny frame, untraced and traced, on the
//! default seed and on a second seed. Each run must pass its correctness
//! gate and print every metric `BENCHMARK.json` names, with its unit, in a
//! last line that parses as the result object.

use serde::Value;
use std::path::Path;
use std::process::Command;

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::parse_value_str(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn count(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::U64(n)) => *n,
        other => panic!("{key}: expected a whole number, found {other:?}"),
    }
}

/// `(name, unit)` of every metric in one of the registry's lists.
fn named(bench: &Value, list: &str) -> Vec<(String, String)> {
    array(bench, list)
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_framebench"))
        .args(["--smoke", "--workload", workload, "--seconds", "0.3"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse_value_str(last).unwrap_or_else(|e| panic!("{last}: {e:?}"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_passes_the_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = load(&root.join("../BENCHMARK.json"));
    let registry = load(&root.join("registry.json"));
    let end_to_end = named(&bench, "end_to_end");
    let per_layer = named(&bench, "per_layer");
    for (name, unit) in &per_layer {
        let entry = registry
            .get("per_layer")
            .and_then(|r| r.get(name))
            .unwrap_or_else(|| panic!("{name} is missing from registry.json"));
        assert_eq!(str_of(entry, "unit"), unit, "{name}");
    }
    // The registry lists every workload the binary runs: those in
    // BENCHMARK.json and any kept for measuring by hand.
    let workloads = registry
        .get("workloads")
        .and_then(Value::as_object)
        .expect("registry workloads");
    for w in array(&bench, "workloads") {
        let name = str_of(w, "name");
        assert!(
            workloads.iter().any(|(k, _)| k == name),
            "{name} is missing from registry.json"
        );
    }
    for (workload, _) in workloads {
        for seed in [1, 48_271] {
            for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
                let result = run(workload, seed, trace);
                let keys: Vec<&str> = result
                    .as_object()
                    .expect("the result is an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(
                    result.get("correct"),
                    Some(&Value::Bool(true)),
                    "{workload} seed {seed}"
                );
                assert!(count(&result, "attempted") >= 1);
                assert_eq!(count(&result, "failed"), 0, "{workload} seed {seed}");
                let metrics = result.get("metrics").expect("metrics");
                assert_eq!(metrics.as_object().map(<[_]>::len), Some(expected.len()));
                for (name, unit) in expected.iter() {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                    assert_eq!(str_of(m, "unit"), unit, "{workload}: {name}");
                    assert!(
                        matches!(m.get("value"), Some(Value::F64(_) | Value::U64(_))),
                        "{workload}: {name} has no numeric value"
                    );
                }
            }
        }
    }
}

#[test]
fn a_bad_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_framebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
