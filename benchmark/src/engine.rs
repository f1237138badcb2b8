//! Setting the system under test up: load a data directory, reopen it,
//! serve it on a loopback socket, connect.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use aim2::{Database, DbConfig};
use aim2_model::encode::encode_tuple;
use aim2_net::{Client, Server, ServerConfig, ServerHandle};
use aim2_txn::SharedDatabase;

use crate::gen::TableData;

/// Result rows per `Rows` frame on the point workload.
pub const FETCH_POINT: u32 = 64;
/// Result rows per `Rows` frame on every other workload.
pub const FETCH_SCAN: u32 = 256;

/// Everything the benchmark writes lives under `benchmark/out/`, inside
/// the checkout: result files, trace files and data directories.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty data directory, removed again on drop.
pub struct DataDir {
    pub path: PathBuf,
}

impl DataDir {
    pub fn fresh(tag: &str) -> Result<DataDir, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = out_dir()
            .join("data")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(DataDir { path })
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

pub fn db_config(dir: &Path) -> DbConfig {
    DbConfig {
        data_dir: Some(dir.to_path_buf()),
        ..DbConfig::default()
    }
}

/// What loading a data directory cost and produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadStats {
    pub rows: u64,
    /// `encode_tuple` bytes of every loaded tuple.
    pub user_bytes: u64,
    pub insert_s: f64,
    pub compact_s: f64,
    pub checkpoint_s: f64,
    /// Bytes in the directory after the checkpoint.
    pub disk_bytes: u64,
}

/// Create the tables in `db` and insert their rows, compacting where
/// the table asks for it.
pub fn load_tables(db: &mut Database, tables: &[TableData]) -> Result<LoadStats, String> {
    let mut stats = LoadStats::default();
    let mut scratch = Vec::new();
    for t in tables {
        db.execute(t.ddl).map_err(|e| e.to_string())?;
        let split = t.compact_after.unwrap_or(t.tuples.len());
        let (first, rest) = t.tuples.split_at(split);
        for (part, compact) in [(first, t.compact_after.is_some()), (rest, false)] {
            let started = Instant::now();
            for tuple in part {
                scratch.clear();
                encode_tuple(tuple, &mut scratch);
                stats.user_bytes += scratch.len() as u64;
                db.insert_tuple(t.name, tuple.clone())
                    .map_err(|e| e.to_string())?;
            }
            stats.rows += part.len() as u64;
            stats.insert_s += started.elapsed().as_secs_f64();
            if compact {
                let started = Instant::now();
                db.compact_table(t.name).map_err(|e| e.to_string())?;
                stats.compact_s += started.elapsed().as_secs_f64();
            }
        }
    }
    Ok(stats)
}

/// Load `tables` into a fresh file-backed database in `dir`, checkpoint
/// it and close it.
pub fn load_dir(dir: &Path, cfg: DbConfig, tables: &[TableData]) -> Result<LoadStats, String> {
    let mut db = Database::with_config(cfg);
    let mut stats = load_tables(&mut db, tables)?;
    let started = Instant::now();
    db.checkpoint().map_err(|e| e.to_string())?;
    stats.checkpoint_s = started.elapsed().as_secs_f64();
    drop(db);
    stats.disk_bytes = dir_bytes(dir);
    Ok(stats)
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A database opened and served in this process.
pub struct Served {
    pub shared: SharedDatabase,
    pub handle: ServerHandle,
    pub addr: SocketAddr,
}

impl Served {
    /// Open the checkpointed database in `cfg.data_dir` and serve it.
    pub fn open(cfg: DbConfig) -> Result<Served, String> {
        let db = Database::open(cfg).map_err(|e| e.to_string())?;
        let shared = SharedDatabase::new(db);
        let handle =
            Server::start(shared.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
        let addr = handle.local_addr();
        Ok(Served {
            shared,
            handle,
            addr,
        })
    }

    pub fn stop(mut self) {
        self.handle.shutdown();
    }
}

/// The line a `bench serve` child prints once it accepts connections.
const LISTENING: &str = "listening on ";

/// Body of `bench serve --data DIR`: open the directory (running crash
/// recovery if its log asks for it), serve it on an ephemeral loopback
/// port, say so on standard output, and serve until standard input
/// closes. A parent that dies closes the pipe, so no child outlives it.
pub fn serve(dir: &Path) -> Result<(), String> {
    let served = Served::open(db_config(dir))?;
    println!("{LISTENING}{}", served.addr);
    let mut line = String::new();
    while std::io::stdin().read_line(&mut line).is_ok_and(|n| n > 0) {
        line.clear();
    }
    served.stop();
    Ok(())
}

/// The system under test as its own process: this executable re-run as
/// `bench serve`. Its peak resident set is the server's alone, and it
/// can be killed without warning.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn spawn(dir: &Path) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--data")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix(LISTENING)
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc { child, stdin, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server child did not start (said {line:?})"))
            }
        }
    }

    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id())
    }

    /// SIGKILL: no shutdown handshake, no flush. Returns once the
    /// process has ended.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Close its standard input and wait for it to drain and exit.
    pub fn stop(mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // A child still running here is on an error path: `kill` and
        // `stop` wait for it. Never leave one behind.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

pub fn connect(addr: SocketAddr, name: &str) -> Result<Client, String> {
    Client::connect(addr, name).map_err(|e| format!("connect {addr}: {e}"))
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, from `/proc`.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on, as `/proc/self/status` lists them
/// (`0-1`, `1`, …).
pub fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

extern "C" {
    /// `sched_setaffinity(2)`; `mask` points at `cpusetsize` bytes of CPU
    /// bits. The standard library has no affinity call.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this process — and every thread and child it starts from here on
/// — to the highest-numbered CPU it is allowed, and return the CPU list
/// it then runs on. Fails rather than run unpinned: an unpinned result
/// does not compare with a pinned one.
///
/// A closed loop over one connection has one runnable thread at a time,
/// so one CPU loses nothing. Every hop between client, connection thread
/// and producer thread is still a thread wake-up and a context switch;
/// what pinning removes is the cross-CPU interrupt under them, which on a
/// 2-vCPU sandbox costs more than a point statement itself (`serve_point`
/// p50 220 µs unpinned, 132 µs pinned) and moved by 2× from run to run,
/// far beyond the 10 % a change is judged against.
pub fn pin_to_one_cpu() -> Result<String, String> {
    let allowed = cpus_allowed();
    let cpu = allowed
        .split([',', '-'])
        .filter_map(|n| n.parse::<usize>().ok())
        .max()
        .filter(|cpu| *cpu < 1024)
        .ok_or_else(|| format!("cannot pin: allowed CPUs read {allowed:?}"))?;
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of exactly the
    // `size_of_val(&mask)` bytes passed as its length; the call only
    // reads it. Pid 0 is the calling thread, here the only one.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    let now = cpus_allowed();
    if rc != 0 || now != cpu.to_string() {
        return Err(format!(
            "cannot pin to CPU {cpu}: sched_setaffinity returned {rc} ({}), allowed CPUs now {now}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(now)
}

/// Busy-wait: `--plant` uses it to add a known delay on the client side
/// of the socket without yielding the core.
pub fn spin(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}
