//! The benchmark's fixed vocabulary: workload and metric names, units,
//! directions, regression bounds, and the recorded prediction of which
//! end-to-end metric each per-layer metric should move.
//!
//! Later issues cite these names verbatim; `BENCHMARK.json` at the
//! repository root repeats them and a test keeps the two in step.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "serve_point",
        why: "paper fixture, 1 conn on one CPU, nine paper statements per read-only txn: tiny results, so net (admission, producer thread, framing, socket) does the work and exec/storage almost none",
    },
    Workload {
        name: "scan_nf2",
        why: "600-object NF2 DEPARTMENTS (~2.4 MB) over a 1 MB pool, 2PL heap reads: storage (buffer misses, Mini-Directory decode) and exec cursors do the work; larger than cache",
    },
    Workload {
        name: "scan_flat",
        why: "flat EVENTS, 20 cold columnar blocks plus a 2048-row hot tail, fits the pool: probe, range and unclustered filter exercise colstore, flatstore and the batch lane",
    },
    Workload {
        name: "commit_dml",
        why: "autocommit single-row UPDATE on a 5000-row table: txn (undo snapshot, whole-table re-snapshot, publish) does the work, the WAL is idle once every page is logged; no result rows",
    },
    Workload {
        name: "mixed_rw",
        why: "2 conns on one table: transfer txns beside bare MVCC snapshot reads with a balance-sum invariant: a commit-path gain paid for by the snapshot-read path shows as one side's loss",
    },
    Workload {
        name: "open_recover",
        why: "server child process cycled through acked updates, checkpoint, more updates, SIGKILL, restart: recovery time, checkpoint stall, space and durability, which no steady loop touches",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A worsening smaller than this, in the metric's own unit, is not a
    /// regression whatever its share: a 3 ms set-up may double.
    pub floor: f64,
    /// The workloads `bench compare` judges the metric on. The driver's
    /// contract wants every metric on every workload, so every run prints
    /// all twelve, each under its one definition; on the other workloads
    /// a metric repeats what another already says (one statement is one
    /// transaction on `commit_dml`) or measures an idle path (a checkpoint
    /// with nothing dirty).
    pub on: &'static [&'static str],
    pub what: &'static str,
}

const ALL: &[&str] = &[
    "serve_point",
    "scan_nf2",
    "scan_flat",
    "commit_dml",
    "mixed_rw",
    "open_recover",
];
const READS: &[&str] = &["serve_point", "scan_nf2", "scan_flat", "mixed_rw"];
const WRITES: &[&str] = &["commit_dml", "mixed_rw"];

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: 0.25,
        on: ALL,
        what: "empty directory to first answered query: load, compact, checkpoint, close, reopen, snapshot resync, server start, connect; median of the run's set-ups",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
        floor: 0.0,
        on: READS,
        what: "statements answered correctly per second (the reader's on mixed_rw); median of five windows, each on a server of its own",
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
        floor: 0.0,
        on: READS,
        what: "client-side statement latency, send to last frame reassembled: the median over each window's ops, then the median of the five windows",
    },
    EndToEnd {
        name: "p95_us",
        unit: "us",
        better: "lower",
        bound: 0.15,
        floor: 0.0,
        on: READS,
        what: "95th percentile of the same latencies in each window, then the median of the five windows",
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
        floor: 0.0,
        on: &["scan_nf2", "scan_flat", "mixed_rw"],
        what: "rows the replies carried per second: result rows reassembled by the client, rows reported affected by an update; median of five windows",
    },
    EndToEnd {
        name: "commits_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
        floor: 0.0,
        on: WRITES,
        what: "acknowledged transactions per second, a begin-commit bracket or an autocommit statement (the writer's on mixed_rw); median of five windows",
    },
    EndToEnd {
        name: "commit_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
        floor: 0.0,
        on: WRITES,
        what: "first statement sent to commit acknowledged: the median in each window, then the median of the five windows",
    },
    EndToEnd {
        name: "commit_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.15,
        floor: 0.0,
        on: WRITES,
        what: "95th percentile of the same in each window, then the median of the five windows",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
        floor: 0.0,
        on: ALL,
        what: "VmHWM of a server child process when it is stopped or killed; median over the run's servers (one per window; one per cycle on open_recover)",
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: 0.1,
        on: &["open_recover"],
        what: "SIGKILL of the server, then respawn on the same directory to first answered query: after 24 unflushed updates on open_recover, right after set-up elsewhere; median",
    },
    EndToEnd {
        name: "checkpoint_s",
        unit: "s",
        better: "lower",
        bound: 0.15,
        floor: 0.0,
        on: &["open_recover"],
        what: "one Checkpoint verb, sent to acknowledged: after 24 updates on open_recover, with nothing dirty (right after set-up) elsewhere; median",
    },
    EndToEnd {
        name: "disk_bytes_per_user_byte",
        unit: "ratio",
        better: "lower",
        bound: 0.02,
        floor: 0.0,
        on: &["open_recover"],
        what: "bytes in the data directory after the last checkpoint divided by the encode_tuple bytes of the loaded tuples",
    },
];

/// The two end-to-end figures the driver's contract cannot carry (they
/// read 0 when all is well, and a contract metric is never 0). Every
/// result file holds them and `bench compare` judges them: neither may
/// increase at all.
pub struct Exact {
    pub name: &'static str,
    pub unit: &'static str,
    pub on: &'static [&'static str],
    pub what: &'static str,
}

pub const EXACT: [Exact; 2] = [
    Exact {
        name: "fail_ratio",
        unit: "ratio",
        on: ALL,
        what: "(errored + refused + shed + retried + wrong-answer ops) / attempted; the result line's failed / attempted",
    },
    Exact {
        name: "acked_commits_lost",
        unit: "count",
        on: &["open_recover"],
        what: "acknowledged post-checkpoint updates not visible after SIGKILL and restart, per cycle (median); reported, not asserted zero: the undo-only WAL's floor is the last checkpoint",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// How the number is taken.
    pub from: &'static str,
    /// The recorded prediction: which end-to-end metric it should move,
    /// on which workload.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    from: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        from,
        moves,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    pl("lang.parse_us", "us", "lower", "probe: parse_stmt, mean per statement", "p50_us @ serve_point"),
    pl("exec.plan_us", "us", "lower", "probe: Evaluator::plan_query, mean per read statement", "p50_us @ serve_point"),
    pl("exec.objects_decoded_per_op", "count", "lower", "Stats delta over the traced pass", "rows_per_s @ scan_nf2"),
    pl("exec.atoms_decoded_per_row", "count", "lower", "Stats delta / rows streamed", "rows_per_s @ scan_nf2"),
    pl("exec.early_exits_per_op", "count", "higher", "cursor_early_exits delta", "p50_us @ scan_nf2 (N3)"),
    pl("exec.cursor_lifetime_us", "us", "lower", "exec.cursor_lifetime histogram mean", "p50_us @ scan_nf2, scan_flat"),
    pl("core.query_us", "us", "lower", "Database::query/execute in-process, median", "p50_us @ scan_nf2, scan_flat; about none @ serve_point"),
    pl("core.load_rows_per_s", "1/s", "higher", "insert_tuple timing during set-up", "setup_s (all)"),
    pl("core.compact_ms", "ms", "lower", "compact_table timing during set-up", "setup_s @ scan_flat"),
    pl("core.checkpoint_ms", "ms", "lower", "Database::checkpoint at the end of loading, median over set-ups", "checkpoint_s"),
    pl("core.open_ms", "ms", "lower", "Database::open alone (on a copy of the live directory, as a kill would leave it, for open_recover)", "recovery_s"),
    pl("txn.session_query_us", "us", "lower", "Session::query/execute in-process, median", "p50_us @ serve_point, mixed_rw"),
    pl("txn.commit_us", "us", "lower", "Session::execute(UPDATE) + commit in-process, median", "commit_p50_us @ commit_dml"),
    pl("txn.commit_size_ratio", "ratio", "lower", "txn.commit_us on a 20000-row copy / on the 5000-row table (1.0 = flat)", "commit_p50_us @ commit_dml"),
    pl("txn.table_snapshot_us", "us", "lower", "probe: Database::snapshot_table_keyed", "commit_p50_us @ commit_dml, mixed_rw"),
    pl("txn.publish_us", "us", "lower", "mvcc.publish histogram mean", "commit_p50_us @ commit_dml"),
    pl("txn.versions_published_per_commit", "count", "lower", "mvcc_versions_published delta", "commit_p50_us @ commit_dml"),
    pl("txn.lock_waits_per_op", "count", "lower", "lock_waits delta", "commit_p95_us, p95_us @ mixed_rw; 0 @ serve_point"),
    pl("txn.lock_wait_us_per_op", "us", "lower", "txn.lock_wait histogram sum / ops", "commit_p95_us, p95_us @ mixed_rw"),
    pl("txn.snapshot_reads_per_op", "count", "lower", "snapshot_reads delta", "sanity: bare reads took the MVCC path"),
    pl("txn.versions_retained", "count", "lower", "mvcc.versions_retained gauge at the end of the pass", "peak_rss_mb @ mixed_rw"),
    pl("txn.gc_reclaimed_per_commit", "count", "higher", "mvcc_gc_reclaimed delta", "peak_rss_mb @ mixed_rw"),
    pl("txn.snapshot_age_us", "us", "lower", "txn.snapshot_age histogram mean", "peak_rss_mb @ mixed_rw"),
    pl("net.ping_us", "us", "lower", "probe: Client::ping round trip, median", "p50_us @ serve_point: the floor of socket + frame + thread wake"),
    pl("net.overhead_us", "us", "lower", "traced p50 - txn.session_query_us", "p50_us @ serve_point (most of it)"),
    pl("net.encode_us_per_row", "us", "lower", "probe: Response::encode + write_frame of captured rows", "rows_per_s @ scan_nf2, scan_flat"),
    pl("net.decode_us_per_row", "us", "lower", "probe: read_frame + Response::decode of the same", "rows_per_s @ scan_nf2, scan_flat"),
    pl("net.frames_out_per_op", "count", "lower", "net_frames_out delta", "p50_us @ serve_point (coalescing)"),
    pl("net.frames_in_per_op", "count", "lower", "net_frames_in delta", "p50_us @ serve_point"),
    pl("net.rows_per_frame", "count", "higher", "net_rows_streamed / net_frames_out", "rows_per_s @ scan_nf2, scan_flat"),
    pl("net.connect_us", "us", "lower", "Client::connect, median over set-ups", "setup_s; reconnect cost"),
    pl("net.server_query_us", "us", "lower", "net.query histogram mean", "p50_us @ serve_point"),
    pl("net.shed_per_op", "count", "lower", "net_load_shed delta", "fail_ratio (all; expected 0)"),
    pl("net.retries_per_op", "count", "lower", "net_retries delta", "fail_ratio (all; expected 0)"),
    pl("net.deadline_exceeded_per_op", "count", "lower", "net_deadline_exceeded delta", "fail_ratio (all; expected 0)"),
    pl("storage.buf_hit_ratio", "ratio", "higher", "buf_hits / (buf_hits + buf_misses) deltas", "rows_per_s @ scan_nf2"),
    pl("storage.buf_misses_per_op", "count", "lower", "buf_misses delta", "rows_per_s @ scan_nf2; 0 @ scan_flat, serve_point"),
    pl("storage.page_read_us", "us", "lower", "storage.page_read histogram mean", "rows_per_s @ scan_nf2"),
    pl("storage.page_writes_per_commit", "count", "lower", "page_writes delta", "commit_p50_us @ commit_dml; checkpoint_s"),
    pl("storage.object_read_us.ss1", "us", "lower", "probe: ObjectStore::read_object, SS1 on MemDisk", "guards paper fidelity"),
    pl("storage.object_read_us.ss2", "us", "lower", "probe: same, SS2", "guards paper fidelity"),
    pl("storage.object_read_us.ss3", "us", "lower", "probe: same, SS3", "rows_per_s @ scan_nf2"),
    pl("storage.subtuple_reads_per_object", "count", "lower", "subtuple_reads delta of the SS3 probe", "rows_per_s @ scan_nf2"),
    pl("storage.flat_read_us", "us", "lower", "probe: FlatStore::read", "p95_us @ scan_flat"),
    pl("storage.colstore_decode_block_us", "us", "lower", "probe: colstore::decode_block of a 1024-row block", "p95_us @ scan_flat"),
    pl("storage.blocks_pruned_per_op", "count", "higher", "colstore_blocks_pruned delta", "p50_us @ scan_flat"),
    pl("storage.blocks_decoded_per_op", "count", "lower", "colstore_blocks_decoded delta", "p50_us @ scan_flat"),
    pl("storage.blocks_decoded_per_probe", "count", "lower", "colstore_blocks_decoded delta over the F1 statements of the core level", "p50_us @ scan_flat (must stay <= 1)"),
    pl("storage.values_scanned_per_op", "count", "lower", "colstore_values_scanned delta", "p50_us @ scan_flat"),
    pl("storage.wal_appends_per_commit", "count", "lower", "wal_appends delta", "commit_p50_us @ commit_dml"),
    pl("storage.wal_bytes_per_commit", "B", "lower", "WAL file growth over the fixed-count pass", "commit_p50_us @ commit_dml; write amplification"),
    pl("storage.wal_append_us", "us", "lower", "wal.append histogram mean", "commit_p50_us @ commit_dml"),
    pl("storage.wal_fsync_us", "us", "lower", "wal.fsync histogram mean", "commit_p50_us @ commit_dml"),
    pl("storage.group_commit_batches_per_commit", "count", "lower", "group_commit_batches delta", "commit_p50_us @ commit_dml"),
    pl("storage.disk_writes_per_commit", "count", "lower", "FaultInjector::observer().writes() delta", "commit_p50_us @ commit_dml"),
    pl("storage.wal_replays", "count", "lower", "wal_replays counter after reopening the killed directory", "recovery_s @ open_recover"),
    pl("model.encode_us_per_tuple", "us", "lower", "probe: encode_tuple", "rows_per_s @ scan_nf2"),
    pl("model.decode_us_per_tuple", "us", "lower", "probe: decode_tuple", "rows_per_s @ scan_nf2"),
    pl("obs.trace_tax", "ratio", "lower", "traced p50 / untraced p50 - 1, same fixed-count pass", "bounds ROADMAP item 5(c) '< 3 %'"),
    pl("obs.stage.admission_us", "us", "lower", "flight-recorder stage self time, mean per op", "p50_us (server's own breakdown)"),
    pl("obs.stage.parse_us", "us", "lower", "same", "p50_us"),
    pl("obs.stage.plan_us", "us", "lower", "same", "p50_us"),
    pl("obs.stage.lock_wait_us", "us", "lower", "same", "p95_us, commit_p95_us @ mixed_rw"),
    pl("obs.stage.exec_us", "us", "lower", "same", "p50_us @ scan_nf2, scan_flat"),
    pl("obs.stage.cold_decode_us", "us", "lower", "same", "p95_us @ scan_flat"),
    pl("obs.stage.row_stream_us", "us", "lower", "same", "p50_us @ serve_point"),
    pl("obs.stage.wal_append_us", "us", "lower", "same", "commit_p50_us"),
    pl("obs.stage.wal_fsync_us", "us", "lower", "same", "commit_p50_us"),
    pl("obs.stage.commit_us", "us", "lower", "same", "commit_p50_us"),
    pl("obs.stage.unattributed_us", "us", "lower", "root span - sum of stages, mean per op", "a layer without a stage yet (wire encode, pool fetch)"),
    pl("obs.client_outside_us", "us", "lower", "client latency - server root span, mean per op", "socket + client decode"),
    pl("client.span_self_gap", "ratio", "lower", "worst |sum of harness span self times - root span| / root span", "must stay < 0.01: the recorder is sound"),
    pl("client.fail_ratio", "ratio", "lower", "failed / attempted ops of the traced pass", "fail_ratio (expected 0)"),
    pl("durability.acked_commits_lost", "count", "lower", "acked updates after the last checkpoint that opening the crash image did not keep", "acked_commits_lost @ open_recover (DESIGN 7b undo-only WAL: the floor is the last checkpoint)"),
];

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Check the vocabulary against the driver's limits.
pub fn validate() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(EXACT.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for n in names {
        if !name_ok(n) {
            return Err(format!("bad name {n:?}"));
        }
        if !seen.insert(n) {
            return Err(format!("name {n:?} used twice"));
        }
    }
    if WORKLOADS.len() > 8 || END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        return Err("too many workloads or metrics".to_string());
    }
    if let Some(w) = WORKLOADS.iter().find(|w| w.why.len() > 200) {
        return Err(format!("why of {} is over 200 characters", w.name));
    }
    if let Some(m) = END_TO_END.iter().find(|m| !(0.0..=0.25).contains(&m.bound)) {
        return Err(format!("bound of {} out of range", m.name));
    }
    let known = |on: &[&str]| on.iter().all(|w| ALL.contains(w));
    if !END_TO_END.iter().all(|m| known(m.on)) || !EXACT.iter().all(|m| known(m.on)) {
        return Err("a metric is judged on an unknown workload".to_string());
    }
    Ok(())
}

/// The contract part of the vocabulary, as `BENCHMARK.json` holds it.
pub fn contract() -> Json {
    Json::obj(vec![
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The command the driver runs; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 15;

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(EXACT.iter().map(|m| (m.name, m.unit)))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_is_within_the_drivers_limits() {
        validate().unwrap();
        assert_eq!(WORKLOADS.len(), 6);
        assert!(WORKLOADS.iter().map(|w| w.name).eq(ALL.iter().copied()));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == "lower"
            && m.bound == 0.25));
    }
}
