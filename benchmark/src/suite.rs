//! `bench run` without `--workload`: every workload, untraced and then
//! traced, each run in a child process of its own, folded into one
//! result file.
//!
//! A child per run keeps allocator state, version garbage and peak
//! memory of one workload out of the next one's numbers.

use std::process::Command;

use crate::cli::RunOpts;
use crate::engine;
use crate::json::Json;
use crate::manifest;
use crate::spec;

pub fn run_all(o: &RunOpts) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--trace", trace])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()]);
            if !o.plant.is_zero() {
                cmd.args(["--plant", &format!("net:{}us", o.plant.as_micros())]);
            }
            let file = engine::out_dir().join(format!("result-{}-trace{trace}.json", w.name));
            // A child that dies must not be read as an earlier run's file.
            let _ = std::fs::remove_file(&file);
            // The child prints every metric by name; let it through.
            let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("{} left no result ({}): {e}", w.name, file.display()))?;
            let parsed = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            runs.push(
                parsed
                    .get("result")
                    .cloned()
                    .ok_or_else(|| format!("{}: no result", file.display()))?,
            );
        }
    }
    let manifest = manifest::collect(o, &runs);
    let out = o
        .out
        .clone()
        .map_or_else(|| engine::out_dir().join("result.json"), Into::into);
    let file = Json::obj(vec![("manifest", manifest), ("runs", Json::Arr(runs))]);
    std::fs::write(&out, file.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(i32::from(!all_correct))
}
