//! The run manifest: what a result was measured on, recorded in every
//! result file so two files can be checked for comparability before
//! they are compared.

use std::process::Command;

use aim2::DbConfig;

use crate::cli::RunOpts;
use crate::engine;
use crate::json::Json;
use crate::run::WindowPlan;

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
                    path.starts_with(mount)
                        .then(|| (mount.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `{workload: field}` over the untraced runs.
fn per_workload(runs: &[Json], field: impl Fn(&Json) -> Option<&Json>) -> Json {
    Json::Obj(
        runs.iter()
            .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
            .filter_map(|r| Some((r.get("workload")?.as_str()?.to_string(), field(r)?.clone())))
            .collect(),
    )
}

/// The manifest of a result file that holds `runs` (`Outcome::to_json`).
pub fn collect(o: &RunOpts, runs: &[Json]) -> Json {
    let cfg = DbConfig::default();
    let w = WindowPlan::for_seconds(o.seconds);
    let out = engine::out_dir();
    let _ = std::fs::create_dir_all(&out);
    Json::obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::str(cpu_model())),
        ("kernel", Json::str(first_line_of("uname", &["-sr"]))),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
        // A driver checkout is not a git repository; then this is "unknown".
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(o.seed as f64)),
        ("page_size", Json::Num(cfg.page_size as f64)),
        ("pool_frames", Json::Num(cfg.buffer_frames as f64)),
        (
            "connections",
            Json::obj(vec![("mixed_rw", Json::Num(2.0)), ("others", Json::Num(1.0))]),
        ),
        (
            "window_plan",
            Json::obj(vec![
                ("warmup_s", Json::Num(w.warmup.as_secs_f64())),
                ("windows", Json::Num(w.windows as f64)),
                ("window_s", Json::Num(w.window.as_secs_f64())),
            ]),
        ),
        ("data_dir_fs", Json::str(fs_type(&out))),
        // The CPUs each workload's timed run was allowed: one where it
        // pinned itself. A pinned result does not compare with an
        // unpinned one.
        ("cpus", per_workload(runs, |r| r.get("cpus"))),
        (
            "timed_ops",
            per_workload(runs, |r| r.get("detail")?.get("timed_ops")),
        ),
        ("plant_us", Json::Num(o.plant.as_micros() as f64)),
        (
            "latency_note",
            Json::str("loopback socket and page-cache fsync in a sandbox: the sandbox's latency, not a device's"),
        ),
    ])
}

/// The fields two results must share to be comparable.
pub const COMPARABLE: [&str; 9] = [
    "nproc",
    "cpu_model",
    "profile",
    "seed",
    "page_size",
    "pool_frames",
    "window_plan",
    "data_dir_fs",
    "cpus",
];
