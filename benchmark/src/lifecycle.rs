//! `open_recover`: the server process cycled through what a steady loop
//! never touches — a checkpoint under write traffic, a kill without
//! warning, a restart on the same directory.
//!
//! One cycle: `UPDATES_PER_PHASE` acknowledged single-row updates
//! (phase A), a timed `Checkpoint` verb, as many updates again (phase
//! B), `SIGKILL`, respawn, first answered query, then the recovered
//! tables are read back and held against the acknowledged history.
//! Cycles repeat on the same directory until `--seconds` have passed.

use std::time::{Duration, Instant};

use crate::cli::RunOpts;
use crate::engine;
use crate::json::Json;
use crate::outcome::Outcome;
use crate::run::{self, Conn, Log};
use crate::socket;
use crate::summary::{fifths, median, Latencies};

/// Acknowledged updates before the checkpoint, and again after it.
pub const UPDATES_PER_PHASE: usize = 24;
const MIN_CYCLES: usize = 3;

/// Where in the acknowledged history the recovered state stands: the
/// number of post-checkpoint updates it holds, if it is a prefix at all.
/// `history` lists the post-checkpoint updates as `(row, value)`.
pub fn recovered_prefix(
    at_checkpoint: &[i64],
    history: &[(usize, i64)],
    recovered: &[i64],
) -> Option<usize> {
    let mut state = at_checkpoint.to_vec();
    for n in 0..=history.len() {
        if state == recovered {
            return Some(n);
        }
        if let Some((row, value)) = history.get(n) {
            state[*row] = *value;
        }
    }
    None
}

/// Play the script's next `n` single-row updates. Returns the seconds
/// they took and, in order, the `(row, value)` each one wrote.
pub fn acked_updates(conn: &mut Conn, log: &mut Log, n: usize) -> (f64, Vec<(usize, i64)>) {
    let started = Instant::now();
    let mut history = Vec::new();
    let mut model = conn.script.model.clone();
    for _ in 0..n {
        conn.run_txn(log, None);
        // Exactly one row of the model moved: that is the update.
        if let Some(row) = (0..model.len()).find(|i| model[*i] != conn.script.model[*i]) {
            model[row] = conn.script.model[row];
            history.push((row, model[row]));
        }
    }
    (started.elapsed().as_secs_f64(), history)
}

struct Cycle {
    update_s: f64,
    /// Latencies of the cycle's acknowledged updates.
    lat: Latencies,
    checkpoint_s: f64,
    recovery_s: f64,
    /// `VmHWM` of the server the cycle killed.
    peak_rss_mb: f64,
    lost: usize,
}

pub fn run(o: &RunOpts) -> Result<Outcome, String> {
    let plan = socket::plan_with_answers("open_recover", o.seed)?;
    let (mut inst, setup) = run::set_up_repeatedly(&plan, o.plant, None)?;
    let mut out = Outcome::new("open_recover", o.seed, o.seconds, false);
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut failed_by_kind = std::collections::BTreeMap::new();
    let mut holes = Vec::new();
    let began = Instant::now();
    let budget = Duration::from_secs_f64(o.seconds);

    while cycles.len() < MIN_CYCLES || began.elapsed() < budget {
        let mut log = Log::default();
        let (a_s, _) = acked_updates(&mut inst.conns[0], &mut log, UPDATES_PER_PHASE);
        let checkpoint_s = inst.checkpoint()?;
        let at_checkpoint = inst.conns[0].script.model.clone();
        let (b_s, history) = acked_updates(&mut inst.conns[0], &mut log, UPDATES_PER_PHASE);

        let peak_rss_mb = inst.server_peak_rss_mb();
        let recovery_s = inst.kill_and_restart(&plan)?;

        let conn = &mut inst.conns[0];
        let fetch = conn.fetch;
        let recovered = run::read_model_state(
            &mut |sql| run::rows_over(&mut conn.client, fetch, sql),
            at_checkpoint.len(),
        )?;
        let kept = recovered_prefix(&at_checkpoint, &history, &recovered);
        if kept.is_none() {
            holes.push(cycles.len());
        }
        // The next cycle's history starts from what actually survived.
        conn.script.model = recovered;
        let mut lat = Latencies::default();
        for op in &log.ops {
            match op.fail {
                None => lat.push(op.lat),
                Some(kind) => {
                    *failed_by_kind
                        .entry(kind.name().to_string())
                        .or_insert(0u64) += 1
                }
            }
        }
        out.attempted += log.ops.len() as u64;
        cycles.push(Cycle {
            update_s: a_s + b_s,
            lat,
            checkpoint_s,
            recovery_s,
            peak_rss_mb,
            lost: history.len() - kept.unwrap_or(0),
        });
    }

    // Space: the directory after one last checkpoint.
    inst.checkpoint()?;
    let disk_bytes = engine::dir_bytes(&inst.dir.path);
    let user_bytes = inst.load.user_bytes;
    inst.tear_down();

    out.check(
        "recovered_state_is_a_prefix_of_the_acked_history",
        holes.is_empty(),
        if holes.is_empty() {
            format!("{} kill-and-restart cycles", cycles.len())
        } else {
            format!(
                "cycles {holes:?} of {}: every pre-checkpoint update must be visible and the rest a prefix",
                cycles.len()
            )
        },
    );

    // Five values per metric, as a windowed run has: each fifth of the
    // cycles, in order.
    let groups: Vec<&[Cycle]> = cycles.chunks(cycles.len().div_ceil(5)).collect();
    let merged = |part: &[Cycle]| {
        let mut lat = Latencies::default();
        for c in part {
            lat.extend(&c.lat);
        }
        lat
    };
    let rates: Vec<f64> = groups
        .iter()
        .map(|part| {
            part.iter().map(|c| c.lat.len() as f64).sum::<f64>()
                / part.iter().map(|c| c.update_s).sum::<f64>()
        })
        .collect();
    let (w50, w95): (Vec<f64>, Vec<f64>) =
        groups.iter().map(|part| merged(part).p50_p95_us()).unzip();
    let timed_ops: usize = cycles.iter().map(|c| c.lat.len()).sum();
    let col = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();

    out.set_with_spread("setup_s", setup.setup_s.median, &setup.setup_s.fifths);
    // Every op is one autocommit update: a statement, a row, a commit.
    for name in ["ops_per_s", "rows_per_s", "commits_per_s"] {
        out.set_with_spread(name, median(&rates), &rates);
    }
    for (name, windows) in [
        ("p50_us", &w50),
        ("commit_p50_us", &w50),
        ("p95_us", &w95),
        ("commit_p95_us", &w95),
    ] {
        out.set_with_spread(name, median(windows), windows);
    }
    let rss = col(&|c| c.peak_rss_mb);
    out.set_with_spread("peak_rss_mb", median(&rss), &fifths(&rss));
    let recovery = col(&|c| c.recovery_s);
    out.set_with_spread("recovery_s", median(&recovery), &fifths(&recovery));
    let checkpoint = col(&|c| c.checkpoint_s);
    out.set_with_spread("checkpoint_s", median(&checkpoint), &fifths(&checkpoint));
    // Measured once, at the end; its spread is that of the loaded
    // directories it grew from.
    out.set(
        "disk_bytes_per_user_byte",
        disk_bytes as f64 / user_bytes as f64,
    );
    out.spreads.push((
        "disk_bytes_per_user_byte",
        crate::summary::spread(&setup.disk_bytes_per_user_byte.fifths),
    ));
    let lost = col(&|c| c.lost as f64);
    out.exact.push(("acked_commits_lost", median(&lost)));
    out.failed = failed_by_kind.values().sum();
    out.fails = failed_by_kind.into_iter().collect();
    out.detail = vec![
        ("cycles".to_string(), Json::Num(cycles.len() as f64)),
        ("timed_ops".to_string(), Json::Num(timed_ops as f64)),
        ("setup_reps".to_string(), Json::Num(setup.reps as f64)),
        (
            "per_cycle".to_string(),
            Json::Arr(
                cycles
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("updates_per_s", Json::Num(c.lat.len() as f64 / c.update_s)),
                            ("checkpoint_s", Json::Num(c.checkpoint_s)),
                            ("recovery_s", Json::Num(c.recovery_s)),
                            ("acked_commits_lost", Json::Num(c.lost as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    out.finish();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_search_finds_the_floor_the_top_and_rejects_holes() {
        let ckpt = [1, 2, 3];
        let history = [(0, 10), (1, 20), (0, 30)];
        assert_eq!(recovered_prefix(&ckpt, &history, &[1, 2, 3]), Some(0));
        assert_eq!(recovered_prefix(&ckpt, &history, &[10, 20, 3]), Some(2));
        assert_eq!(recovered_prefix(&ckpt, &history, &[30, 20, 3]), Some(3));
        // The second update without the first is not a prefix.
        assert_eq!(recovered_prefix(&ckpt, &history, &[1, 20, 3]), None);
        // A lost pre-checkpoint value is not a prefix either.
        assert_eq!(recovered_prefix(&ckpt, &history, &[0, 2, 3]), None);
    }
}
