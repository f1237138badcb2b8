//! The untraced timed run of a socket workload: the end-to-end metrics.

use crate::cli::RunOpts;
use crate::json::Json;
use crate::oracle;
use crate::outcome::Outcome;
use crate::run::{self, Setups, WindowPlan};
use crate::summary::{median, Latencies};
use crate::workloads::{self, Plan};

/// Build the workload's plan and give every read statement its expected
/// answer, computed in-process on an in-memory copy of the tables.
pub fn plan_with_answers(name: &str, seed: u64) -> Result<Plan, String> {
    let mut plan = workloads::plan(name, seed).ok_or_else(|| format!("no plan for {name}"))?;
    let mut db = oracle::memory_db(&plan.tables)?;
    for script in &mut plan.scripts {
        oracle::fill(&mut script.pool, &mut db)?;
    }
    Ok(plan)
}

fn ops_in(windows: &[Latencies]) -> f64 {
    windows.iter().map(Latencies::len).sum::<usize>() as f64
}

pub fn run(name: &str, o: &RunOpts) -> Result<Outcome, String> {
    let plan = plan_with_answers(name, o.seed)?;
    let windows = WindowPlan::for_seconds(o.seconds);
    let mut setups = Setups::new(&plan, o.plant, None);
    let mut out = Outcome::new(name, o.seed, o.seconds, false);
    let mut logs = Vec::new();
    let mut rss = Vec::new();
    let mut wrong_states = Vec::new();
    for w in 0..windows.windows {
        let mut inst = setups.one_more()?;
        logs.push(run::timed_window(&mut inst.conns, windows));
        for conn in &mut inst.conns {
            if let Err(e) = run::verify_final_state(conn) {
                wrong_states.push(format!("window {w}, {}: {e}", conn.script.role));
            }
        }
        rss.push(inst.server_peak_rss_mb());
        inst.tear_down();
    }
    out.check(
        "final_state",
        wrong_states.is_empty(),
        wrong_states.join("; "),
    );
    while setups.wants_more() {
        setups.one_more()?.tear_down();
    }
    let setup = setups.summary();
    let timed = run::summarize(&plan.scripts, &logs, windows.window);

    // Every metric with the values of its five windows (or of its
    // set-ups folded into fifths), so that its spread is in the file.
    for (name, rate) in [
        ("ops_per_s", &timed.ops),
        ("rows_per_s", &timed.rows),
        ("commits_per_s", &timed.commits),
    ] {
        out.set_with_spread(name, rate.per_s, &rate.windows);
    }
    for (p50_name, p95_name, by_window) in [
        ("p50_us", "p95_us", &timed.op_lat_windows),
        ("commit_p50_us", "commit_p95_us", &timed.commit_lat_windows),
    ] {
        let (w50, w95): (Vec<f64>, Vec<f64>) = by_window.iter().map(|w| w.p50_p95_us()).unzip();
        out.set_with_spread(p50_name, median(&w50), &w50);
        out.set_with_spread(p95_name, median(&w95), &w95);
    }
    out.set_with_spread("peak_rss_mb", median(&rss), &rss);
    for (name, figure) in [
        ("setup_s", &setup.setup_s),
        ("recovery_s", &setup.recovery_s),
        ("checkpoint_s", &setup.checkpoint_s),
        ("disk_bytes_per_user_byte", &setup.disk_bytes_per_user_byte),
    ] {
        out.set_with_spread(name, figure.median, &figure.fifths);
    }
    out.attempted = timed.attempted;
    out.failed = timed.failed;
    out.fails = timed
        .fails
        .iter()
        .map(|(k, n)| (k.to_string(), *n))
        .collect();
    out.detail = vec![
        (
            "timed_ops".to_string(),
            Json::Num(ops_in(&timed.op_lat_windows)),
        ),
        (
            "timed_commits".to_string(),
            Json::Num(ops_in(&timed.commit_lat_windows)),
        ),
        ("setup_reps".to_string(), Json::Num(setup.reps as f64)),
        (
            "ops_per_s_windows".to_string(),
            Json::Arr(timed.ops.windows.iter().map(|w| Json::Num(*w)).collect()),
        ),
        (
            "classes".to_string(),
            Json::Arr(
                timed
                    .classes
                    .iter()
                    .map(|(class, n, p50)| {
                        Json::obj(vec![
                            ("class", Json::str(*class)),
                            ("ops", Json::Num(*n as f64)),
                            ("p50_us", Json::Num(*p50)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    out.finish();
    Ok(out)
}
