//! The harness checked against its own contract: `BENCHMARK.json` agrees
//! with the vocabulary `bench list` prints, and every workload survives
//! a short run in both modes with every metric present.

use std::path::Path;
use std::process::Command;

use aim2_benchmark::json::Json;
use aim2_benchmark::spec;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
}

#[test]
fn benchmark_json_agrees_with_bench_list() {
    spec::validate().unwrap();
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    let file = Json::parse(&text).unwrap();
    assert_eq!(file, spec::contract());
    // Exactly the contract's keys, nothing else.
    let keys: Vec<&str> = file
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let listed = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("list")
        .output()
        .unwrap();
    let listed = String::from_utf8(listed.stdout).unwrap();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for entry in file.get(section).unwrap().as_arr().unwrap() {
            let name = entry.get("name").unwrap().as_str().unwrap();
            assert!(
                listed
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "bench list does not print {name}"
            );
        }
    }
}

/// Run `bench run --workload W --seconds 1 --trace T` and return the
/// driver's line.
fn smoke(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["run", "--workload", workload, "--seed", "7"])
        .args(["--seconds", "1", "--trace", trace])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).unwrap()
}

#[test]
fn every_workload_survives_a_one_second_run_in_both_modes() {
    for w in &spec::WORKLOADS {
        for (trace, names) in [
            (
                "0",
                spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
            (
                "1",
                spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
        ] {
            let line = smoke(w.name, trace);
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("correct").unwrap().as_bool(),
                Some(true),
                "{}",
                w.name
            );
            assert_eq!(
                line.get("failed").unwrap().as_f64(),
                Some(0.0),
                "{}",
                w.name
            );
            assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, names, "{} trace {trace}: metric names", w.name);
            for (name, m) in metrics {
                let value = m.get("value").unwrap().as_f64().unwrap();
                assert_eq!(m.get("unit").unwrap().as_str(), Some(spec::unit_of(name)));
                if trace == "0" {
                    assert!(
                        value > 0.0,
                        "{} {name} = {value}: end-to-end metrics are never 0",
                        w.name
                    );
                }
            }
        }
    }
}

#[test]
fn an_unknown_workload_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["run", "--workload", "no_such_workload"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed on failure");
}
