//! The closed-loop client: set the system up, drive it over the socket
//! one transaction at a time, and turn what came back into numbers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aim2::DbConfig;
use aim2_model::Tuple;
use aim2_net::Client;

use crate::engine::{self, DataDir, LoadStats, Served, ServerProc};
use crate::gen::{Script, TxnMode};
use crate::oracle::{self, FailKind};
use crate::span::SpanRecorder;
use crate::summary::{fifths, median, Latencies};
use crate::workloads::Plan;

/// One connection: a client, the script it plays, and the delay
/// `--plant net:…` adds on the client side of every statement.
pub struct Conn {
    pub client: Client,
    pub script: Script,
    pub fetch: u32,
    pub plant: Duration,
}

pub struct OpRecord {
    pub done: Instant,
    pub lat: Duration,
    /// Result rows received, or rows an update reported affected.
    pub rows: u64,
    pub class: &'static str,
    pub fail: Option<FailKind>,
    /// The id the client minted for the statement (0 when untraced).
    pub trace_id: u64,
}

pub struct TxnRecord {
    pub done: Instant,
    /// First statement sent to commit acknowledged.
    pub lat: Duration,
    pub ok: bool,
}

#[derive(Default)]
pub struct Log {
    pub ops: Vec<OpRecord>,
    pub txns: Vec<TxnRecord>,
}

macro_rules! spanned {
    ($rec:expr, $name:literal, $body:expr) => {{
        if let Some(r) = $rec.as_deref_mut() {
            r.enter($name);
        }
        let out = $body;
        if let Some(r) = $rec.as_deref_mut() {
            r.exit();
        }
        out
    }};
}

impl Conn {
    /// Play the script's next transaction and log what happened. With a
    /// recorder, every call into the client library gets a span.
    pub fn run_txn(&mut self, log: &mut Log, mut rec: Option<&mut SpanRecorder>) {
        let txn = self.script.next_txn();
        if let Some(r) = rec.as_deref_mut() {
            r.set_op(log.txns.len() as u64);
            r.enter("txn");
        }
        let explicit = txn.mode != TxnMode::Auto;
        let mut ok = true;
        if explicit {
            let begun = spanned!(
                rec,
                "begin",
                self.client.begin(txn.mode == TxnMode::ReadOnly)
            );
            ok = begun.is_ok();
        }
        let started = Instant::now();
        for stmt in &txn.stmts {
            if !ok {
                break;
            }
            if let Some(r) = rec.as_deref_mut() {
                r.enter("stmt");
            }
            let redials = self.client.retries() + self.client.reconnects();
            let sent = Instant::now();
            let reply = spanned!(rec, "query_fetch", {
                if !self.plant.is_zero() {
                    engine::spin(self.plant);
                }
                self.client.query_fetch(&stmt.sql, self.fetch)
            });
            let lat = sent.elapsed();
            let verdict = spanned!(rec, "verify", {
                match &reply {
                    Ok(_) if self.client.retries() + self.client.reconnects() != redials => {
                        Err(FailKind::Retried)
                    }
                    Ok(out) => oracle::check(out, &stmt.expect),
                    Err(e) => Err(FailKind::of_error(e)),
                }
            });
            if let Some(r) = rec.as_deref_mut() {
                r.exit();
            }
            let trace_id = if self.client.tracing() {
                self.client.last_client_trace().map_or(0, |t| t.trace_id)
            } else {
                0
            };
            log.ops.push(OpRecord {
                done: Instant::now(),
                lat,
                rows: *verdict.as_ref().unwrap_or(&0),
                class: stmt.class,
                fail: verdict.err(),
                trace_id,
            });
            // A failed statement leaves an explicit transaction in an
            // unknown state: abandon it rather than guess.
            ok = verdict.is_ok() || !explicit;
        }
        if explicit {
            if ok {
                ok = spanned!(rec, "commit", self.client.commit()).is_ok();
            } else {
                let _ = self.client.rollback();
            }
        } else {
            ok = log.ops.last().is_some_and(|o| o.fail.is_none());
        }
        let lat = started.elapsed();
        if let Some(r) = rec {
            r.exit();
        }
        log.txns.push(TxnRecord {
            done: Instant::now(),
            lat,
            ok,
        });
    }
}

/// Where the server runs.
pub enum Host {
    /// Its own process (`bench serve`): the timed run. Nothing of the
    /// harness is in its resident set.
    Child(ServerProc),
    /// This process: the peel pass, which reads the engine's counters
    /// and calls below the socket.
    Local(Served),
}

impl Host {
    pub fn addr(&self) -> std::net::SocketAddr {
        match self {
            Host::Child(p) => p.addr,
            Host::Local(s) => s.addr,
        }
    }
}

/// A loaded, reopened, served database with its connected clients.
pub struct Instance {
    pub dir: DataDir,
    pub host: Host,
    pub conns: Vec<Conn>,
    pub load: LoadStats,
    /// Empty directory to first answered query.
    pub setup_s: f64,
    /// One `Checkpoint` verb right after set-up, nothing dirty (child
    /// host only).
    pub checkpoint_s: f64,
    /// `SIGKILL` after that, respawn to first answered query (child host
    /// only).
    pub recovery_s: f64,
    pub connect_us: f64,
}

/// Load, checkpoint, close, reopen, serve, connect, ask one question.
/// With `tune`, the server runs in this process under the tuned
/// configuration; without, in a child under `DbConfig::default()`, which
/// is then checkpointed, killed and restarted once, so that every
/// workload has a `checkpoint_s` and a `recovery_s` of its own.
pub fn set_up(
    plan: &Plan,
    plant: Duration,
    tune: Option<&dyn Fn(&mut DbConfig)>,
) -> Result<Instance, String> {
    let started = Instant::now();
    let dir = DataDir::fresh(plan.name)?;
    let mut cfg = engine::db_config(&dir.path);
    if let Some(tune) = tune {
        tune(&mut cfg);
    }
    let load = engine::load_dir(&dir.path, cfg.clone(), &plan.tables)?;
    let host = match tune {
        Some(_) => Host::Local(Served::open(cfg)?),
        None => Host::Child(ServerProc::spawn(&dir.path)?),
    };
    let mut conns = Vec::new();
    let mut connect_us = Vec::new();
    for script in &plan.scripts {
        let t = Instant::now();
        let client = engine::connect(host.addr(), script.role)?;
        connect_us.push(crate::summary::micros(t.elapsed()));
        conns.push(Conn {
            client,
            script: script.clone(),
            fetch: plan.fetch,
            plant,
        });
    }
    conns[0]
        .client
        .query_fetch(plan.first_query, plan.fetch)
        .map_err(|e| format!("first query: {e}"))?;
    let mut inst = Instance {
        dir,
        host,
        conns,
        load,
        setup_s: started.elapsed().as_secs_f64(),
        checkpoint_s: 0.0,
        recovery_s: 0.0,
        connect_us: median(&connect_us),
    };
    if tune.is_none() {
        inst.checkpoint_s = inst.checkpoint()?;
        inst.recovery_s = inst.kill_and_restart(plan)?;
    }
    Ok(inst)
}

impl Instance {
    /// One `Checkpoint` verb over the first connection; seconds from
    /// sending it to its acknowledgement.
    pub fn checkpoint(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        self.conns[0]
            .client
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        Ok(t.elapsed().as_secs_f64())
    }

    /// `SIGKILL` the server child, respawn it on the same directory,
    /// reconnect every client and ask the first query again. Returns the
    /// seconds from respawn to that answer.
    pub fn kill_and_restart(&mut self, plan: &Plan) -> Result<f64, String> {
        let Host::Child(server) = &mut self.host else {
            return Err("only a server child process can be killed".to_string());
        };
        server.kill();
        let t = Instant::now();
        *server = ServerProc::spawn(&self.dir.path)?;
        for conn in &mut self.conns {
            conn.client = engine::connect(server.addr, conn.script.role)?;
        }
        self.conns[0]
            .client
            .query_fetch(plan.first_query, plan.fetch)
            .map_err(|e| format!("first query after restart: {e}"))?;
        Ok(t.elapsed().as_secs_f64())
    }

    /// `VmHWM` of the server child, in MiB.
    pub fn server_peak_rss_mb(&self) -> f64 {
        match &self.host {
            Host::Child(p) => p.peak_rss_mb(),
            Host::Local(_) => 0.0,
        }
    }

    pub fn tear_down(self) {
        for c in self.conns {
            let _ = c.client.goodbye();
        }
        match self.host {
            Host::Child(p) => p.stop(),
            Host::Local(s) => s.stop(),
        }
    }
}

/// One figure over a run's set-ups: the median, and the repetitions
/// folded into fifths for its spread.
#[derive(Debug, Clone, Default)]
pub struct Repeated {
    pub median: f64,
    pub fifths: Vec<f64>,
}

impl Repeated {
    pub fn of(values: &[f64]) -> Repeated {
        Repeated {
            median: median(values),
            fifths: fifths(values),
        }
    }
}

/// What a run's set-ups measured.
#[derive(Debug, Clone, Default)]
pub struct SetupSummary {
    pub setup_s: Repeated,
    pub recovery_s: Repeated,
    pub checkpoint_s: Repeated,
    pub disk_bytes_per_user_byte: Repeated,
    /// `Database::checkpoint` at the end of loading, in-process.
    pub load_checkpoint_s: f64,
    pub load_rows_per_s: f64,
    pub compact_ms: f64,
    pub connect_us: f64,
    pub reps: usize,
}

/// Fewest set-ups per run.
pub const MIN_SETUPS: usize = 5;
/// A set-up of a few milliseconds is repeated until this much time has
/// gone into set-ups, so that its median is steady too.
const SETUP_BUDGET: f64 = 1.0;
const MAX_SETUPS: usize = 201;

/// The set-ups of one run, and what they measured.
pub struct Setups<'a> {
    plan: &'a Plan,
    plant: Duration,
    tune: Option<&'a dyn Fn(&mut DbConfig)>,
    /// One column per figure, one value per set-up, oldest first.
    cols: [Vec<f64>; 8],
    spent_s: f64,
}

impl<'a> Setups<'a> {
    pub fn new(
        plan: &'a Plan,
        plant: Duration,
        tune: Option<&'a dyn Fn(&mut DbConfig)>,
    ) -> Setups<'a> {
        Setups {
            plan,
            plant,
            tune,
            cols: Default::default(),
            spent_s: 0.0,
        }
    }

    /// Set the workload up once more, on a fresh directory.
    pub fn one_more(&mut self) -> Result<Instance, String> {
        let inst = set_up(self.plan, self.plant, self.tune)?;
        for (col, v) in self.cols.iter_mut().zip([
            inst.setup_s,
            inst.recovery_s,
            inst.checkpoint_s,
            inst.load.disk_bytes as f64 / inst.load.user_bytes as f64,
            inst.load.checkpoint_s,
            inst.load.rows as f64 / inst.load.insert_s,
            inst.load.compact_s * 1e3,
            inst.connect_us,
        ]) {
            col.push(v);
        }
        self.spent_s += inst.setup_s + inst.checkpoint_s + inst.recovery_s;
        Ok(inst)
    }

    /// Whether the figures still want more set-ups behind them.
    pub fn wants_more(&self) -> bool {
        let n = self.cols[0].len();
        n < MIN_SETUPS || (self.spent_s < SETUP_BUDGET && n < MAX_SETUPS)
    }

    /// Set up until the figures are steady; keep the last instance.
    pub fn last(&mut self) -> Result<Instance, String> {
        loop {
            let inst = self.one_more()?;
            if !self.wants_more() {
                return Ok(inst);
            }
            inst.tear_down();
        }
    }

    pub fn summary(&self) -> SetupSummary {
        let cols = &self.cols;
        SetupSummary {
            setup_s: Repeated::of(&cols[0]),
            recovery_s: Repeated::of(&cols[1]),
            checkpoint_s: Repeated::of(&cols[2]),
            disk_bytes_per_user_byte: Repeated::of(&cols[3]),
            load_checkpoint_s: median(&cols[4]),
            load_rows_per_s: median(&cols[5]),
            compact_ms: median(&cols[6]),
            connect_us: median(&cols[7]),
            reps: cols[0].len(),
        }
    }
}

/// Set the workload up until its set-up figures are steady; keep the
/// last instance for the run.
pub fn set_up_repeatedly(
    plan: &Plan,
    plant: Duration,
    tune: Option<&dyn Fn(&mut DbConfig)>,
) -> Result<(Instance, SetupSummary), String> {
    let mut setups = Setups::new(plan, plant, tune);
    let inst = setups.last()?;
    Ok((inst, setups.summary()))
}

/// `windows` windows of `window` each, every one on a server instance of
/// its own (fresh directory, fresh process) after a warm-up of `warmup`.
///
/// One server per window, because a server process carries a state of
/// its own that outlasts any window: on this sandbox two instances of
/// the same workload differ by up to 8 % for as long as they live
/// (`mixed_rw`: five 12 s windows at 402–417 ops/s on one instance,
/// 424–441 on the next), so windows of one instance agree with each
/// other and say nothing about that. Five instances make the windows
/// independent replicates: their median outvotes an odd instance and
/// their spread is the noise a second run would meet.
#[derive(Debug, Clone, Copy)]
pub struct WindowPlan {
    pub warmup: Duration,
    pub windows: usize,
    pub window: Duration,
}

impl WindowPlan {
    /// `seconds` of measurement in five windows; the warm-ups (caches
    /// fill, snapshots resync) add a tenth of that.
    pub fn for_seconds(seconds: f64) -> WindowPlan {
        WindowPlan {
            warmup: Duration::from_secs_f64(seconds / 50.0),
            windows: 5,
            window: Duration::from_secs_f64(seconds / 5.0),
        }
    }
}

/// Drive every connection, one thread each, through the warm-up and one
/// window. Returns each connection's log and the instant timing started.
pub fn timed_window(conns: &mut [Conn], plan: WindowPlan) -> (Vec<Log>, Instant) {
    let timed_from = Instant::now() + plan.warmup;
    let end = timed_from + plan.window;
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut log = Log::default();
                    while Instant::now() < end {
                        conn.run_txn(&mut log, None);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, timed_from)
}

/// A windowed rate: the median window, and the window values.
#[derive(Debug, Clone, Default)]
pub struct Rate {
    pub per_s: f64,
    pub windows: Vec<f64>,
}

impl Rate {
    fn of(windows: Vec<f64>) -> Rate {
        Rate {
            per_s: median(&windows),
            windows,
        }
    }
}

/// The share of an op that ran over `[done − lat, done]` which fell
/// inside the window `[from, from + window]`. Completions are counted in
/// continuous time: an op that straddles a window's edge counts by the
/// share of its duration spent inside. Whole-op counting would quantize a
/// window of twenty 100 ms transactions into 5 % steps.
fn share_inside(from: Instant, window: Duration, done: Instant, lat: Duration) -> f64 {
    let end = done
        .checked_duration_since(from)
        .map_or(-1.0, |d| d.as_secs_f64());
    let start = end - lat.as_secs_f64();
    let hi = window.as_secs_f64();
    if lat.is_zero() {
        return if (0.0..hi).contains(&end) { 1.0 } else { 0.0 };
    }
    ((end.min(hi) - start.max(0.0)) / (end - start)).max(0.0)
}

/// What the timed windows measured.
#[derive(Debug, Default)]
pub struct Timed {
    pub ops: Rate,
    pub rows: Rate,
    pub commits: Rate,
    /// Latencies by the window each op or commit completed in.
    pub op_lat_windows: Vec<Latencies>,
    pub commit_lat_windows: Vec<Latencies>,
    pub attempted: u64,
    pub failed: u64,
    pub fails: BTreeMap<&'static str, u64>,
    /// `(class, ops, p50_us)` for each statement class.
    pub classes: Vec<(&'static str, usize, f64)>,
}

/// Fold the windows' logs (one `(logs, timed_from)` per window, one log
/// per script) into the figures. Ops and transactions that finished in a
/// warm-up or after their window are not counted.
pub fn summarize(scripts: &[Script], windows: &[(Vec<Log>, Instant)], window: Duration) -> Timed {
    let mut out = Timed::default();
    let (mut ops, mut rows, mut commits) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_class: BTreeMap<&'static str, Latencies> = BTreeMap::new();
    for (logs, timed_from) in windows {
        let inside = |done: Instant| {
            done.checked_duration_since(*timed_from)
                .is_some_and(|since| since < window)
        };
        let (mut n_ops, mut n_rows, mut n_commits) = (0.0, 0.0, 0.0);
        let (mut op_lat, mut commit_lat) = (Latencies::default(), Latencies::default());
        for (script, log) in scripts.iter().zip(logs) {
            for op in log.ops.iter().filter(|op| inside(op.done)) {
                out.attempted += 1;
                if let Some(kind) = op.fail {
                    out.failed += 1;
                    *out.fails.entry(kind.name()).or_default() += 1;
                } else if script.counts_ops {
                    op_lat.push(op.lat);
                    by_class.entry(op.class).or_default().push(op.lat);
                }
            }
            if script.counts_ops {
                for op in log.ops.iter().filter(|op| op.fail.is_none()) {
                    let share = share_inside(*timed_from, window, op.done, op.lat);
                    n_ops += share;
                    n_rows += share * op.rows as f64;
                }
            }
            if script.counts_commits {
                for txn in log.txns.iter().filter(|t| t.ok) {
                    n_commits += share_inside(*timed_from, window, txn.done, txn.lat);
                    if inside(txn.done) {
                        commit_lat.push(txn.lat);
                    }
                }
            }
        }
        for (counts, n) in [
            (&mut ops, n_ops),
            (&mut rows, n_rows),
            (&mut commits, n_commits),
        ] {
            counts.push(n / window.as_secs_f64());
        }
        out.op_lat_windows.push(op_lat);
        out.commit_lat_windows.push(commit_lat);
    }
    out.ops = Rate::of(ops);
    out.rows = Rate::of(rows);
    out.commits = Rate::of(commits);
    out.classes = by_class
        .into_iter()
        .map(|(c, l)| (c, l.len(), l.p50_us()))
        .collect();
    out
}

/// One statement's result rows over the socket.
pub fn rows_over(client: &mut Client, fetch: u32, sql: &str) -> Result<Vec<Tuple>, String> {
    match client.query_fetch(sql, fetch) {
        Ok(aim2_net::QueryOutcome::Table(_, value)) => Ok(value.tuples),
        Ok(_) => Err(format!("{sql}: no table came back")),
        Err(e) => Err(format!("{sql}: {e}")),
    }
}

/// Read back, through `query`, every value a writer's model tracks:
/// `BAL` by account `ID`, then (for `open_recover`) `BUDGET` by
/// department.
pub fn read_model_state(
    query: &mut dyn FnMut(&str) -> Result<Vec<Tuple>, String>,
    model_len: usize,
) -> Result<Vec<i64>, String> {
    let mut state: Vec<Option<i64>> = vec![None; model_len];
    let mut read = |sql: &str, base: i64, offset: usize| -> Result<(), String> {
        for t in query(sql)? {
            let int = |i: usize| t.fields.get(i)?.as_atom()?.as_int();
            let (Some(key), Some(v)) = (int(0), int(1)) else {
                return Err(format!("{sql}: row is not (INTEGER, INTEGER)"));
            };
            let slot = usize::try_from(key - base)
                .ok()
                .and_then(|i| state.get_mut(offset + i))
                .ok_or_else(|| format!("{sql}: unexpected key {key}"))?;
            if slot.replace(v).is_some() {
                return Err(format!("{sql}: key {key} came back twice"));
            }
        }
        Ok(())
    };
    read("SELECT x.ID, x.BAL FROM x IN ACCOUNTS", 0, 0)?;
    if model_len > crate::gen::ACCOUNTS {
        read(
            "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS",
            crate::gen::FIRST_DNO,
            crate::gen::ACCOUNTS,
        )?;
    }
    state
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.ok_or_else(|| format!("row {i} of the model is missing from the table")))
        .collect()
}

/// After the run, the tables must hold exactly what the acknowledged
/// updates imply. Returns the first disagreement.
pub fn verify_final_state(conn: &mut Conn) -> Result<(), String> {
    if conn.script.model.is_empty() {
        return Ok(());
    }
    let (client, fetch) = (&mut conn.client, conn.fetch);
    let state = read_model_state(
        &mut |sql| rows_over(client, fetch, sql),
        conn.script.model.len(),
    )?;
    match state
        .iter()
        .zip(&conn.script.model)
        .position(|(a, b)| a != b)
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "row {i} holds {}, acknowledged updates imply {}",
            state[i], conn.script.model[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straddling_ops_count_by_the_share_inside_the_window() {
        let t0 = Instant::now();
        let window = Duration::from_secs(1);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let share = |done_ms: u64, lat_ms: u64| {
            share_inside(t0, window, at(done_ms), Duration::from_millis(lat_ms))
        };
        // Wholly inside.
        assert!((share(500, 100) - 1.0).abs() < 1e-9);
        // Began in the warm-up: only the timed quarter counts.
        assert!((share(100, 400) - 0.25).abs() < 1e-9);
        // Ended after the window: only the part inside counts.
        assert!((share(1_300, 600) - 0.5).abs() < 1e-9);
        // Wholly after it, and wholly before it.
        assert_eq!(share(1_500, 200), 0.0);
        assert_eq!(
            share_inside(at(1_000), window, at(900), Duration::from_millis(50)),
            0.0
        );
        // A zero-length op lands where it completed.
        assert_eq!(share(500, 0), 1.0);
        assert_eq!(share(1_000, 0), 0.0);
    }

    #[test]
    fn windows_fold_into_rates_and_per_window_latencies() {
        let script = Script::serve_point(1);
        let t0 = Instant::now();
        let window = Duration::from_secs(1);
        let op = |done_ms: u64, lat_ms: u64, rows: u64| OpRecord {
            done: t0 + Duration::from_millis(done_ms),
            lat: Duration::from_millis(lat_ms),
            rows,
            class: "P1",
            fail: None,
            trace_id: 0,
        };
        let log = |ops: Vec<OpRecord>| Log {
            ops,
            txns: Vec::new(),
        };
        // Two ops in the first window, four in the second.
        let windows = vec![
            (vec![log(vec![op(300, 100, 2), op(800, 200, 4)])], t0),
            (
                vec![log((1..=4).map(|i| op(i * 200, 100, 1)).collect())],
                t0,
            ),
        ];
        let t = summarize(&[script], &windows, window);
        assert_eq!(t.ops.windows, [2.0, 4.0]);
        assert_eq!(t.ops.per_s, 3.0);
        assert_eq!(t.rows.windows, [6.0, 4.0]);
        assert_eq!((t.attempted, t.failed), (6, 0));
        assert_eq!(t.op_lat_windows[0].p50_us(), 100_000.0);
        assert_eq!(t.op_lat_windows[1].len(), 4);
    }
}
