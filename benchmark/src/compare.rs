//! `bench compare A.json B.json`: one row per end-to-end metric and
//! workload it is judged on, with both medians, both spreads, the bound
//! and a verdict.
//!
//! A pair is `unresolved` when either side's spread (across the run's
//! own windows or repetitions) is wider than the bound: noise that large
//! can hide or fake a regression. It is `regressed` when B's median is
//! worse than A's by more than the bound, else `ok`. The two exact counts
//! (`fail_ratio`, `acked_commits_lost`) regress on any increase. A
//! regressed latency is attributed to the level of the peel pass whose
//! time moved most.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::manifest::COMPARABLE;
use crate::spec::{self, EndToEnd};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` is the baseline. `worse_by` is the share of `a` by which `b` is
/// worse (negative when it is better). A difference within the metric's
/// absolute floor is neither a regression nor noise.
pub fn judge(m: &EndToEnd, a: f64, b: f64, spread: f64) -> (Verdict, f64) {
    let worse = if m.better == "higher" { a - b } else { b - a };
    let worse_by = if a == 0.0 { 0.0 } else { worse / a };
    let verdict = if spread > m.bound && spread * a > m.floor {
        Verdict::Unresolved
    } else if worse_by > m.bound && worse > m.floor {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// One side of the comparison.
struct Side {
    manifest: Json,
    /// `(workload, traced)` → that run's result.
    runs: BTreeMap<(String, bool), Json>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let manifest = file
        .get("manifest")
        .cloned()
        .ok_or_else(|| format!("{path}: no manifest"))?;
    // A single-workload file holds `result`; a suite file holds `runs`.
    let list: Vec<Json> = match (file.get("runs"), file.get("result")) {
        (Some(Json::Arr(runs)), _) => runs.clone(),
        (_, Some(one)) => vec![one.clone()],
        _ => return Err(format!("{path}: neither runs nor result")),
    };
    let mut runs = BTreeMap::new();
    for r in list {
        let key = (
            r.get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: run without a workload"))?
                .to_string(),
            r.get("trace").and_then(Json::as_bool).unwrap_or(false),
        );
        runs.insert(key, r);
    }
    Ok(Side { manifest, runs })
}

/// `run[section][metric]`: a metric's value (`metrics`), the spread of
/// its windows (`spread`) or an exact count (`exact`).
fn field(run: &Json, section: &str, metric: &str) -> Option<f64> {
    run.get(section)?.get(metric)?.as_f64()
}

/// The levels a statement's latency splits into, from the peel pass.
const LEVELS: [(&str, &str); 3] = [
    ("net", "net.overhead_us"),
    ("txn", "txn.session_query_us"),
    ("core", "core.query_us"),
];

/// Name the per-layer metric whose time moved most between the sides.
fn attribute(a: &Side, b: &Side, workload: &str) -> String {
    let key = (workload.to_string(), true);
    let (Some(ra), Some(rb)) = (a.runs.get(&key), b.runs.get(&key)) else {
        return "no traced runs to attribute it with".to_string();
    };
    let level = |run: &Json, layer: &str| -> f64 {
        let get = |m: &str| field(run, "metrics", m).unwrap_or(0.0);
        match layer {
            // What the transaction layer adds over the core level.
            "txn" => get("txn.session_query_us") - get("core.query_us"),
            "net" => get("net.overhead_us"),
            _ => get("core.query_us"),
        }
    };
    let (layer, metric, delta) = LEVELS
        .iter()
        .map(|(layer, metric)| (*layer, *metric, level(rb, layer) - level(ra, layer)))
        .max_by(|x, y| x.2.total_cmp(&y.2))
        .expect("three levels");
    format!("{layer} level: {metric} moved by {delta:+.1} us")
}

pub fn run(a_path: &str, b_path: &str) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let differing: Vec<&str> = COMPARABLE
        .iter()
        .copied()
        .filter(|k| a.manifest.get(k) != b.manifest.get(k))
        .collect();
    if !differing.is_empty() {
        return Err(format!(
            "the two results are not comparable: manifests differ in {}",
            differing.join(", ")
        ));
    }
    println!(
        "{:<14} {:<26} {:>14} {:>8} {:>14} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "A median", "A spread", "B median", "B spread", "bound", "worse by"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    for w in &spec::WORKLOADS {
        let key = (w.name.to_string(), false);
        let (Some(ra), Some(rb)) = (a.runs.get(&key), b.runs.get(&key)) else {
            continue;
        };
        for m in spec::END_TO_END.iter().filter(|m| m.on.contains(&w.name)) {
            let value = |run: &Json| {
                Some((
                    field(run, "metrics", m.name)?,
                    field(run, "spread", m.name)?,
                ))
            };
            let (Some((ma, sa)), Some((mb, sb))) = (value(ra), value(rb)) else {
                return Err(format!("{} of {} is missing from a file", m.name, w.name));
            };
            let (verdict, worse_by) = judge(m, ma, mb, sa.max(sb));
            let why = match verdict {
                Verdict::Regressed if m.unit == "us" => {
                    format!("  <- {}", attribute(&a, &b, w.name))
                }
                _ => String::new(),
            };
            println!(
                "{:<14} {:<26} {:>14.4} {:>8.3} {:>14.4} {:>8.3} {:>6.2} {:>+8.3}  {}{}",
                w.name,
                m.name,
                ma,
                sa,
                mb,
                sb,
                m.bound,
                worse_by,
                verdict.name(),
                why
            );
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
        }
        for m in spec::EXACT.iter().filter(|m| m.on.contains(&w.name)) {
            let (Some(ea), Some(eb)) = (field(ra, "exact", m.name), field(rb, "exact", m.name))
            else {
                return Err(format!("{} of {} is missing from a file", m.name, w.name));
            };
            let verdict = if eb > ea {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            println!(
                "{:<14} {:<26} {:>14.4} {:>8} {:>14.4} {:>8} {:>6} {:>8}  {}",
                w.name,
                m.name,
                ea,
                "",
                eb,
                "",
                "exact",
                "",
                verdict.name()
            );
            regressed += usize::from(verdict == Verdict::Regressed);
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(i32::from(regressed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &'static str, bound: f64, floor: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "us",
            better,
            bound,
            floor,
            on: &[],
            what: "",
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric("lower", 0.10, 0.0);
        let higher = metric("higher", 0.10, 0.0);
        // Lower is better: 12 % slower against a 10 % bound.
        assert_eq!(judge(&lower, 100.0, 112.0, 0.01).0, Verdict::Regressed);
        assert_eq!(judge(&lower, 100.0, 108.0, 0.01).0, Verdict::Ok);
        assert_eq!(judge(&lower, 100.0, 50.0, 0.01).0, Verdict::Ok);
        // Higher is better: throughput down 12 %.
        assert_eq!(judge(&higher, 100.0, 88.0, 0.01).0, Verdict::Regressed);
        assert_eq!(judge(&higher, 100.0, 150.0, 0.01).0, Verdict::Ok);
        // Spread wider than the bound: nothing can be said either way.
        assert_eq!(judge(&lower, 100.0, 112.0, 0.2).0, Verdict::Unresolved);
        assert_eq!(judge(&lower, 100.0, 100.0, 0.2).0, Verdict::Unresolved);
        let (_, worse_by) = judge(&higher, 200.0, 150.0, 0.0);
        assert!((worse_by - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_change_within_the_absolute_floor_is_not_judged() {
        // 25 % or 0.25 s: a 4 ms set-up may double, a 2 s one may not.
        let setup = metric("lower", 0.25, 0.25);
        assert_eq!(judge(&setup, 0.004, 0.008, 0.0).0, Verdict::Ok);
        assert_eq!(judge(&setup, 0.004, 0.004, 0.9).0, Verdict::Ok);
        assert_eq!(judge(&setup, 2.0, 2.6, 0.0).0, Verdict::Regressed);
        assert_eq!(judge(&setup, 2.0, 2.0, 0.3).0, Verdict::Unresolved);
    }
}
