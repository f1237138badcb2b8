//! The peel-and-trace pass: the per-layer metrics.
//!
//! The workload's first transactions are replayed, a fixed number of
//! them, through successively shallower public entry points:
//!
//! 0. over TCP, untraced — the baseline the tracing tax is taken from;
//! 1. over TCP with client tracing on — harness spans around every call
//!    into the client library, the engine's counters and histograms
//!    read before and after, server stage self times from the flight
//!    recorder;
//! 2. `Session::{begin, execute, commit}` in-process — no socket;
//! 3. `Database::execute` in-process — no transaction layer;
//!
//! and then single functions are probed (`probes`). Level differences
//! attribute time to the layer peeled off: net = 1 − 2, txn = 2 − 3,
//! exec + storage = 3 − parse − plan. The server runs in this process
//! here (the timed run keeps it in a child) because levels 2 and 3 and
//! the counters need the engine's handles.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use aim2::{Database, DbConfig, ExecResult};
use aim2_net::QueryOutcome;
use aim2_obs::HistSnapshot;
use aim2_storage::faultdisk::FaultInjector;
use aim2_storage::stats::{Stats, StatsSnapshot};
use aim2_storage::wal::WAL_FILE;
use aim2_txn::{Session, SharedDatabase};

use crate::cli::RunOpts;
use crate::engine::{self, DataDir};
use crate::gen::{self, Script, TxnMode};
use crate::json::Json;
use crate::lifecycle;
use crate::oracle;
use crate::outcome::Outcome;
use crate::probes;
use crate::run::{self, Conn, Host, Log};
use crate::socket;
use crate::span::{self, SpanRecorder};
use crate::summary::{median, Latencies};
use crate::workloads::Plan;

/// Traces the flight recorder must hold: every statement and verb of
/// the traced level.
const FLIGHT_CAPACITY: usize = 8_192;
/// Rows of the larger ACCOUNTS copy `txn.commit_size_ratio` divides by.
const BIG_ACCOUNTS: usize = 20_000;

const HISTOGRAMS: [&str; 8] = [
    "exec.cursor_lifetime",
    "mvcc.publish",
    "txn.lock_wait",
    "txn.snapshot_age",
    "net.query",
    "storage.page_read",
    "wal.append",
    "wal.fsync",
];

/// Everything read before and after the traced level.
struct Reading {
    stats: StatsSnapshot,
    hists: Vec<HistSnapshot>,
    wal_bytes: u64,
    disk_writes: u64,
}

impl Reading {
    fn take(stats: &Stats, observer: &FaultInjector, wal: &PathBuf) -> Reading {
        Reading {
            stats: stats.snapshot(),
            hists: HISTOGRAMS.iter().map(|h| stats.histogram(h)).collect(),
            wal_bytes: std::fs::metadata(wal).map_or(0, |m| m.len()),
            disk_writes: observer.writes(),
        }
    }
}

/// `(mean_us, sum_us)` of what a histogram recorded between two reads.
fn hist_delta(before: &Reading, after: &Reading, name: &str) -> (f64, f64) {
    let i = HISTOGRAMS
        .iter()
        .position(|h| *h == name)
        .expect("a listed histogram");
    let count = after.hists[i].count - before.hists[i].count;
    let sum_us = (after.hists[i].sum - before.hists[i].sum) as f64 / 1e3;
    (
        if count == 0 {
            0.0
        } else {
            sum_us / count as f64
        },
        sum_us,
    )
}

/// Replay each connection's first `txns` transactions, one thread per
/// connection, optionally recording harness spans.
fn fixed_pass(conns: &mut [Conn], txns: u64, spans: bool) -> Vec<(Log, Option<SpanRecorder>)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    conn.script.rewind();
                    let mut log = Log::default();
                    let mut rec = spans.then(SpanRecorder::new);
                    for _ in 0..txns {
                        conn.run_txn(&mut log, rec.as_mut());
                    }
                    (log, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The server counts a frame and records a statement's trace after it
/// has written the reply, so the client can get ahead of it by one step.
/// A ping it has answered proves every earlier request is accounted for;
/// the pause lets the ping's own frame be counted too.
fn settle(conns: &mut [Conn]) {
    for c in conns {
        let _ = c.client.ping();
    }
    std::thread::sleep(std::time::Duration::from_millis(2));
}

fn op_latencies(logs: &[(Log, Option<SpanRecorder>)], conns: &[Conn]) -> Latencies {
    let mut lat = Latencies::default();
    for ((log, _), conn) in logs.iter().zip(conns) {
        if conn.script.counts_ops {
            for op in log.ops.iter().filter(|op| op.fail.is_none()) {
                lat.push(op.lat);
            }
        }
    }
    lat
}

fn as_outcome(r: ExecResult) -> QueryOutcome {
    match r {
        ExecResult::Table(s, v) => QueryOutcome::Table(s, v),
        ExecResult::Count(n) => QueryOutcome::Count(n as u64),
        ExecResult::Ok(m) => QueryOutcome::Ok(m),
    }
}

/// What an in-process level measured.
#[derive(Default)]
struct Level {
    stmt: Latencies,
    /// Write transactions: first statement to commit done.
    commit: Latencies,
    wrong: u64,
}

/// Level 2: the script through `Session`, bracketed as the server
/// brackets it (a bare query is an implicit read-only snapshot, a bare
/// update an implicit transaction committed before the reply).
fn session_level(shared: &SharedDatabase, script: &mut Script, txns: u64) -> Level {
    script.rewind();
    let mut level = Level::default();
    let mut session: Session = shared.session();
    for _ in 0..txns {
        let txn = script.next_txn();
        let writes = txn
            .stmts
            .iter()
            .any(|s| matches!(s.expect, gen::Expect::Affected(_)));
        let begun = match txn.mode {
            TxnMode::ReadOnly => session.begin_read_only(),
            TxnMode::ReadWrite => session.begin(),
            TxnMode::Auto if writes => session.begin(),
            TxnMode::Auto => session.begin_read_only(),
        };
        if begun.is_err() {
            level.wrong += 1;
            continue;
        }
        let started = Instant::now();
        for stmt in &txn.stmts {
            let t = Instant::now();
            let reply = session.execute(&stmt.sql);
            let lat = t.elapsed();
            match reply.map(as_outcome) {
                Ok(out) if oracle::check(&out, &stmt.expect).is_ok() => {
                    if script.counts_ops {
                        level.stmt.push(lat);
                    }
                }
                _ => level.wrong += 1,
            }
        }
        let committed = session.commit();
        if committed.is_err() {
            level.wrong += 1;
        } else if writes {
            level.commit.push(started.elapsed());
        }
    }
    level
}

/// Level 3: the script straight into `Database::execute`. Also counts
/// the cold blocks each `F1` probe decoded.
fn core_level(db: &mut Database, script: &mut Script, txns: u64) -> (Level, Vec<u64>) {
    script.rewind();
    let mut level = Level::default();
    let mut probe_blocks = Vec::new();
    for _ in 0..txns {
        for stmt in &script.next_txn().stmts {
            let blocks = db.stats().colstore_blocks_decoded();
            let t = Instant::now();
            let reply = db.execute(&stmt.sql);
            let lat = t.elapsed();
            if stmt.class == "F1" {
                probe_blocks.push(db.stats().colstore_blocks_decoded() - blocks);
            }
            match reply.map(as_outcome) {
                Ok(out) if oracle::check(&out, &stmt.expect).is_ok() => {
                    if script.counts_ops {
                        level.stmt.push(lat);
                    }
                }
                _ => level.wrong += 1,
            }
        }
    }
    (level, probe_blocks)
}

/// `txn.commit_us` on a `rows`-row ACCOUNTS table of its own.
fn commit_us_at(seed: u64, rows: usize, txns: u64) -> Result<f64, String> {
    let accounts = gen::accounts(seed, rows);
    let mut script = Script::commit_dml(seed, gen::balances(&accounts));
    let dir = DataDir::fresh("commit-size")?;
    let mut db = Database::with_config(engine::db_config(&dir.path));
    engine::load_tables(&mut db, &[accounts])?;
    db.checkpoint().map_err(|e| e.to_string())?;
    let shared = SharedDatabase::new(db);
    let level = session_level(&shared, &mut script, txns);
    if level.wrong > 0 {
        return Err(format!(
            "{} wrong answers on the {rows}-row table",
            level.wrong
        ));
    }
    Ok(level.commit.p50_us())
}

fn scaled(txns: u64, seconds: f64) -> u64 {
    ((txns as f64 * (seconds / 10.0).min(1.0)).round() as u64).max(2)
}

/// Every distinct statement of the first `txns` transactions.
fn distinct_statements(plan: &Plan, txns: u64) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    for script in &plan.scripts {
        let mut s = script.clone();
        for _ in 0..txns {
            for stmt in s.next_txn().stmts {
                seen.insert(stmt.sql.clone());
            }
        }
    }
    seen.into_iter().collect()
}

pub fn run(name: &str, o: &RunOpts) -> Result<Outcome, String> {
    let plan = socket::plan_with_answers(name, o.seed)?;
    let observer = FaultInjector::observer();
    let tune = {
        let observer = observer.clone();
        move |cfg: &mut DbConfig| {
            cfg.flight_recorder_capacity = FLIGHT_CAPACITY;
            cfg.fault = Some(observer.clone());
        }
    };
    let (mut inst, setup) = run::set_up_repeatedly(&plan, o.plant, Some(&tune))?;
    let Host::Local(served) = &inst.host else {
        unreachable!("the peel pass serves from this process");
    };
    let shared = served.shared.clone();
    let stats = shared.stats();
    let wal = inst.dir.path.join(WAL_FILE);
    let txns = scaled(plan.peel_txns, o.seconds);
    let mut out = Outcome::new(name, o.seed, o.seconds, true);

    // Level 0 twice: once to fill caches, once to measure. Each measured
    // level starts right after a checkpoint, so the log's before-images
    // (one per page first touched in an epoch) are counted from the same
    // place every time.
    fixed_pass(&mut inst.conns, txns, false);
    shared.checkpoint().map_err(|e| e.to_string())?;
    let untraced = fixed_pass(&mut inst.conns, txns, false);
    let untraced_lat = op_latencies(&untraced, &inst.conns);
    shared.checkpoint().map_err(|e| e.to_string())?;

    // Level 1.
    for c in &mut inst.conns {
        c.client.set_tracing(true);
    }
    settle(&mut inst.conns);
    let before = Reading::take(&stats, &observer, &wal);
    let traced = fixed_pass(&mut inst.conns, txns, true);
    settle(&mut inst.conns);
    let after = Reading::take(&stats, &observer, &wal);
    for c in &mut inst.conns {
        c.client.set_tracing(false);
    }
    let traced_lat = op_latencies(&traced, &inst.conns);
    let traced_p50 = traced_lat.p50_us();
    let d = before.stats.delta(&after.stats);
    let ops: u64 = traced.iter().map(|(l, _)| l.ops.len() as u64).sum();
    let commits: u64 = traced
        .iter()
        .zip(&inst.conns)
        .filter(|(_, c)| c.script.counts_commits)
        .map(|((l, _), _)| l.txns.len() as u64)
        .sum();
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    let per_commit = |n: u64| n as f64 / commits.max(1) as f64;
    out.attempted = ops;
    let mut fails: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (log, _) in &traced {
        for kind in log.ops.iter().filter_map(|op| op.fail) {
            *fails.entry(kind.name()).or_default() += 1;
        }
    }
    out.failed = fails.values().sum();
    out.fails = fails.iter().map(|(k, n)| (k.to_string(), *n)).collect();
    out.set("client.fail_ratio", per_op(out.failed));

    for (metric, n) in [
        ("exec.objects_decoded_per_op", d.objects_decoded),
        ("exec.early_exits_per_op", d.cursor_early_exits),
        ("txn.lock_waits_per_op", d.lock_waits),
        ("txn.snapshot_reads_per_op", d.snapshot_reads),
        ("net.shed_per_op", d.net_load_shed),
        ("net.retries_per_op", d.net_retries),
        ("net.deadline_exceeded_per_op", d.net_deadline_exceeded),
        ("storage.buf_misses_per_op", d.buf_misses),
        ("storage.blocks_pruned_per_op", d.colstore_blocks_pruned),
        ("storage.blocks_decoded_per_op", d.colstore_blocks_decoded),
        ("storage.values_scanned_per_op", d.colstore_values_scanned),
    ] {
        out.set(metric, per_op(n));
    }
    for (metric, n) in [
        (
            "txn.versions_published_per_commit",
            d.mvcc_versions_published,
        ),
        ("txn.gc_reclaimed_per_commit", d.mvcc_gc_reclaimed),
        ("storage.page_writes_per_commit", d.page_writes),
        ("storage.wal_appends_per_commit", d.wal_appends),
        (
            "storage.wal_bytes_per_commit",
            after.wal_bytes.saturating_sub(before.wal_bytes),
        ),
        (
            "storage.group_commit_batches_per_commit",
            d.group_commit_batches,
        ),
        (
            "storage.disk_writes_per_commit",
            after.disk_writes - before.disk_writes,
        ),
    ] {
        out.set(metric, per_commit(n));
    }
    for (metric, histogram) in [
        ("exec.cursor_lifetime_us", "exec.cursor_lifetime"),
        ("txn.publish_us", "mvcc.publish"),
        ("txn.snapshot_age_us", "txn.snapshot_age"),
        ("net.server_query_us", "net.query"),
        ("storage.page_read_us", "storage.page_read"),
        ("storage.wal_append_us", "wal.append"),
        ("storage.wal_fsync_us", "wal.fsync"),
    ] {
        out.set(metric, hist_delta(&before, &after, histogram).0);
    }
    out.set(
        "txn.lock_wait_us_per_op",
        hist_delta(&before, &after, "txn.lock_wait").1 / ops.max(1) as f64,
    );
    out.set(
        "txn.versions_retained",
        stats.versions_retained().get() as f64,
    );
    if d.net_rows_streamed > 0 {
        out.set(
            "exec.atoms_decoded_per_row",
            d.atoms_decoded as f64 / d.net_rows_streamed as f64,
        );
    }
    // Less the closing pings of `settle`, one frame each way.
    let frames_out = d.net_frames_out - d.net_pings;
    out.set("net.frames_out_per_op", per_op(frames_out));
    out.set(
        "net.frames_in_per_op",
        per_op(d.net_frames_in - d.net_pings),
    );
    out.set(
        "net.rows_per_frame",
        d.net_rows_streamed as f64 / frames_out.max(1) as f64,
    );
    if d.buf_hits + d.buf_misses > 0 {
        out.set(
            "storage.buf_hit_ratio",
            d.buf_hits as f64 / (d.buf_hits + d.buf_misses) as f64,
        );
    }
    // The two levels play the same statements, so their mean latencies
    // compare like for like even where the median sits between classes.
    out.set(
        "obs.trace_tax",
        traced_lat.mean_us() / untraced_lat.mean_us().max(1e-9) - 1.0,
    );

    // Server stage self times, from the flight recorder.
    let traces = stats.recorder().recent();
    let mut stage_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut unattributed_ns, mut query_traces, mut stages_within_root) = (0u64, 0u64, true);
    let by_id: BTreeMap<u64, u64> = traces.iter().map(|t| (t.trace_id, t.total_ns)).collect();
    for t in &traces {
        for (stage, ns) in &t.stages {
            *stage_ns.entry(stage).or_default() += ns;
        }
        stages_within_root &= t.stage_total_ns() <= t.total_ns;
        if t.root == "net.query" {
            unattributed_ns += t.total_ns - t.stage_total_ns().min(t.total_ns);
            query_traces += 1;
        }
    }
    for (stage, metric) in [
        ("admission", "obs.stage.admission_us"),
        ("parse", "obs.stage.parse_us"),
        ("plan", "obs.stage.plan_us"),
        ("lock_wait", "obs.stage.lock_wait_us"),
        ("exec", "obs.stage.exec_us"),
        ("cold_decode", "obs.stage.cold_decode_us"),
        ("row_stream", "obs.stage.row_stream_us"),
        ("wal_append", "obs.stage.wal_append_us"),
        ("wal_fsync", "obs.stage.wal_fsync_us"),
        ("commit", "obs.stage.commit_us"),
    ] {
        out.set(
            metric,
            stage_ns.get(stage).copied().unwrap_or(0) as f64 / 1e3 / ops.max(1) as f64,
        );
    }
    out.set(
        "obs.stage.unattributed_us",
        unattributed_ns as f64 / 1e3 / query_traces.max(1) as f64,
    );
    let (mut outside_ns, mut matched) = (0u64, 0u64);
    for (log, _) in &traced {
        for op in log.ops.iter().filter(|op| op.trace_id != 0) {
            if let Some(root) = by_id.get(&op.trace_id) {
                outside_ns += (op.lat.as_nanos() as u64).saturating_sub(*root);
                matched += 1;
            }
        }
    }
    out.set(
        "obs.client_outside_us",
        outside_ns as f64 / 1e3 / matched.max(1) as f64,
    );
    out.check(
        "server_stage_self_times_sum_within_the_root_span",
        stages_within_root && matched == ops,
        format!(
            "{} traces, {matched} of {ops} statements matched by id",
            traces.len()
        ),
    );

    // Harness spans: write them out, and check the recorder is sound.
    let mut jsonl = String::new();
    let mut gap: f64 = 0.0;
    for ((_, rec), conn) in traced.iter().zip(&inst.conns) {
        let rec = rec.as_ref().expect("spans were recorded");
        jsonl.push_str(&rec.to_jsonl(&format!("{name}/{}", conn.script.role)));
        gap = gap.max(span::worst_self_time_gap(rec.spans()));
    }
    let trace_file = engine::out_dir().join(format!("trace-{name}.jsonl"));
    std::fs::write(&trace_file, jsonl).map_err(|e| format!("{}: {e}", trace_file.display()))?;
    std::fs::write(
        engine::out_dir().join(format!("trace-{name}-server.jsonl")),
        stats.recorder().to_jsonl(),
    )
    .map_err(|e| e.to_string())?;
    out.set("client.span_self_gap", gap);
    out.check(
        "harness_span_self_times_sum_to_the_op",
        gap < 0.01,
        format!("worst gap {gap:.6}"),
    );

    probes::ping(&mut out, &mut inst.conns[0].client);

    // Level 2 and level 3, one script after the other.
    let mut session = Level::default();
    let mut core = Level::default();
    let mut probe_blocks: Vec<u64> = Vec::new();
    for conn in &mut inst.conns {
        let l = session_level(&shared, &mut conn.script, txns);
        session.stmt.extend(&l.stmt);
        session.commit.extend(&l.commit);
        session.wrong += l.wrong;
    }
    shared.with_db(|db| {
        for conn in &mut inst.conns {
            let (l, blocks) = core_level(db, &mut conn.script, txns);
            core.stmt.extend(&l.stmt);
            core.wrong += l.wrong;
            probe_blocks.extend(blocks);
        }
        probes::table_snapshot(&mut out, db, plan.tables[0].name);
    });
    out.set("txn.session_query_us", session.stmt.p50_us());
    out.set("txn.commit_us", session.commit.p50_us());
    out.set("core.query_us", core.stmt.p50_us());
    out.set("net.overhead_us", traced_p50 - session.stmt.p50_us());
    let max_probe_blocks = probe_blocks.iter().copied().max().unwrap_or(0);
    if !probe_blocks.is_empty() {
        out.set(
            "storage.blocks_decoded_per_probe",
            probe_blocks.iter().sum::<u64>() as f64 / probe_blocks.len() as f64,
        );
    }
    out.check(
        "in_process_levels_answer_correctly",
        session.wrong + core.wrong == 0,
        format!(
            "{} wrong at the session level, {} at the core level",
            session.wrong, core.wrong
        ),
    );
    for conn in &mut inst.conns {
        let verdict = run::verify_final_state(conn);
        out.check(
            &format!("final_state.{}", conn.script.role),
            verdict.is_ok(),
            verdict.err().unwrap_or_default(),
        );
    }

    // The killed directory: what a SIGKILL now would leave on disk is
    // the files as they stand (the OS cache survives a process), so a
    // copy of them opened cold is the crash recovery, in-process.
    if name == "open_recover" {
        let lost = crash_image(&mut inst, &mut out)?;
        out.set("durability.acked_commits_lost", lost);
    }

    // Set-up figures, and `Database::open` alone on the final directory.
    out.set("core.load_rows_per_s", setup.load_rows_per_s);
    out.set("core.compact_ms", setup.compact_ms);
    out.set("core.checkpoint_ms", setup.load_checkpoint_s * 1e3);
    out.set("net.connect_us", setup.connect_us);
    let cfg = engine::db_config(&inst.dir.path);
    let dir = inst.dir.path.clone();
    shared.checkpoint().map_err(|e| e.to_string())?;
    drop(shared);
    let dir_guard = {
        let run::Instance {
            dir, host, conns, ..
        } = inst;
        for c in conns {
            let _ = c.client.goodbye();
        }
        if let Host::Local(s) = host {
            s.stop();
        }
        dir
    };
    if out.get("core.open_ms") == 0.0 {
        let mut open_ms = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let db = Database::open(cfg.clone())
                .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
            open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(db);
        }
        out.set("core.open_ms", median(&open_ms));
    }
    drop(dir_guard);

    // Probes that need no server.
    let statements = distinct_statements(&plan, txns);
    let mut mem = oracle::memory_db(&plan.tables)?;
    probes::language(&mut out, &statements, &mut mem);
    let rows = probes::largest_result(&mut mem, &statements);
    probes::wire(&mut out, &rows, plan.fetch);
    probes::storage(&mut out, o.seed);
    probes::model(&mut out, &plan.tables[0].tuples);

    if name == "commit_dml" {
        let small = out.get("txn.commit_us");
        let big = commit_us_at(o.seed, BIG_ACCOUNTS, scaled(40, o.seconds))?;
        out.set("txn.commit_size_ratio", big / small.max(1e-9));
        out.detail
            .push(("commit_us_at_20000_rows".to_string(), Json::Num(big)));
    }

    layer_checks(name, &mut out, traced_p50, max_probe_blocks);
    out.detail.extend([
        ("peel_txns".to_string(), Json::Num(txns as f64)),
        ("peel_ops".to_string(), Json::Num(ops as f64)),
        (
            "untraced_p50_us".to_string(),
            Json::Num(untraced_lat.p50_us()),
        ),
        (
            "untraced_mean_us".to_string(),
            Json::Num(untraced_lat.mean_us()),
        ),
        ("traced_p50_us".to_string(), Json::Num(traced_p50)),
        (
            "traced_mean_us".to_string(),
            Json::Num(traced_lat.mean_us()),
        ),
        (
            "trace_file".to_string(),
            Json::str(trace_file.display().to_string()),
        ),
    ]);
    out.finish();
    Ok(out)
}

/// Copy the live directory as a kill would leave it, open the copy cold,
/// and hold what it recovers against the acknowledged history. Returns
/// the acknowledged updates the recovery did not keep.
fn crash_image(inst: &mut run::Instance, out: &mut Outcome) -> Result<f64, String> {
    let conn = &mut inst.conns[0];
    conn.client
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let at_checkpoint = conn.script.model.clone();
    let mut log = Log::default();
    let (_, history) = lifecycle::acked_updates(conn, &mut log, lifecycle::UPDATES_PER_PHASE);
    if log.ops.iter().any(|op| op.fail.is_some()) {
        return Err("an update failed before the crash image was taken".to_string());
    }
    let image = DataDir::fresh("crash-image")?;
    for entry in std::fs::read_dir(&inst.dir.path).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), image.path.join(entry.file_name()))
            .map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    let mut db = Database::open(engine::db_config(&image.path))
        .map_err(|e| format!("open the crash image: {e}"))?;
    out.set("core.open_ms", t.elapsed().as_secs_f64() * 1e3);
    out.set("storage.wal_replays", db.stats().wal_replays() as f64);
    let recovered = run::read_model_state(
        &mut |sql| {
            db.query(sql)
                .map(|(_, v)| v.tuples)
                .map_err(|e| e.to_string())
        },
        at_checkpoint.len(),
    )?;
    let kept = lifecycle::recovered_prefix(&at_checkpoint, &history, &recovered);
    out.check(
        "recovered_state_is_a_prefix_of_the_acked_history",
        kept.is_some(),
        format!("kept {kept:?} of {} post-checkpoint updates", history.len()),
    );
    Ok((history.len() - kept.unwrap_or(0)) as f64)
}

/// Layer separation: does each workload still load the layers it was
/// built to load, and bypass the ones it was built to bypass? A workload
/// that no longer does measures something else under the same name, so
/// a failed check makes the run incorrect.
fn layer_checks(name: &str, out: &mut Outcome, traced_p50: f64, max_probe_blocks: u64) {
    let overhead = out.get("net.overhead_us");
    let ping = out.get("net.ping_us");
    let lock_waits = out.get("txn.lock_waits_per_op");
    let misses = out.get("storage.buf_misses_per_op");
    let probe_blocks = out.get("storage.blocks_decoded_per_probe");
    match name {
        "serve_point" => {
            out.check(
                "net_overhead_is_most_of_p50",
                overhead >= 0.5 * traced_p50,
                format!("net.overhead_us {overhead:.1} of p50 {traced_p50:.1}"),
            );
            out.check("no_lock_waits", lock_waits == 0.0, format!("{lock_waits}"));
            out.check("no_buffer_misses", misses == 0.0, format!("{misses}"));
        }
        "scan_nf2" => {
            out.check(
                "serving_floor_is_negligible",
                ping <= 0.02 * traced_p50,
                format!("net.ping_us {ping:.1} of p50 {traced_p50:.1}"),
            );
            out.check(
                "larger_than_the_pool",
                misses > 0.0,
                format!("{misses:.1} misses per op"),
            );
        }
        "scan_flat" => {
            out.check(
                "fits_the_pool",
                misses == 0.0,
                format!("{misses} misses per op"),
            );
            out.check(
                "probe_decodes_at_most_one_block",
                max_probe_blocks <= 1,
                format!("mean {probe_blocks:.3}, most {max_probe_blocks} blocks per F1"),
            );
        }
        _ => {}
    }
}
