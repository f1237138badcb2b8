//! Probes: one layer's public function at a time, timed from here with
//! nothing else in the way. They give the floor each layer contributes,
//! for the level differences of the peel pass to be read against.

use std::hint::black_box;
use std::time::Instant;

use aim2::Database;
use aim2_exec::Evaluator;
use aim2_lang::ast::Stmt as AstStmt;
use aim2_model::encode::{decode_tuple, encode_tuple};
use aim2_model::{fixtures, Tuple};
use aim2_net::{read_frame, write_frame, Client, Response, DEFAULT_MAX_FRAME};
use aim2_storage::buffer::BufferPool;
use aim2_storage::colstore::{self, BLOCK_ROWS};
use aim2_storage::disk::MemDisk;
use aim2_storage::flatstore::FlatStore;
use aim2_storage::minidir::LayoutKind;
use aim2_storage::object::ObjectStore;
use aim2_storage::segment::Segment;
use aim2_storage::stats::Stats;

use crate::gen;
use crate::outcome::Outcome;
use crate::summary::{micros, Latencies};

/// Mean microseconds per call of `f` over `reps` rounds of `n` calls.
fn mean_us(reps: usize, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for _ in 0..reps {
        for i in 0..n {
            f(i);
        }
    }
    micros(started.elapsed()) / (reps * n).max(1) as f64
}

fn mem_segment(stats: Stats) -> Segment {
    Segment::new(BufferPool::new(Box::new(MemDisk::new(4096)), 256, stats))
}

/// Parse and plan: every distinct statement of the workload.
pub fn language(out: &mut Outcome, statements: &[String], db: &mut Database) {
    if statements.is_empty() {
        return;
    }
    out.set(
        "lang.parse_us",
        mean_us(20, statements.len(), |i| {
            black_box(aim2_lang::parse_stmt(&statements[i]).is_ok());
        }),
    );
    let queries: Vec<_> = statements
        .iter()
        .filter_map(|s| match aim2_lang::parse_stmt(s) {
            Ok(AstStmt::Query(q)) => Some(q),
            _ => None,
        })
        .collect();
    if !queries.is_empty() {
        out.set(
            "exec.plan_us",
            mean_us(20, queries.len(), |i| {
                black_box(Evaluator::new(db).plan_query(&queries[i]).is_ok());
            }),
        );
    }
}

/// Wire codec: the rows of the workload's largest result, framed as the
/// server frames them (`fetch` rows to a `Rows` frame) into a buffer,
/// then read back.
pub fn wire(out: &mut Outcome, rows: &[Tuple], fetch: u32) {
    if rows.is_empty() {
        return;
    }
    let frames: Vec<Response> = rows
        .chunks(fetch.max(1) as usize)
        .map(|c| Response::Rows {
            done: false,
            rows: c.to_vec(),
        })
        .collect();
    let reps = (20_000 / rows.len()).clamp(3, 200);
    let mut buf = Vec::new();
    let started = Instant::now();
    for _ in 0..reps {
        buf.clear();
        for f in &frames {
            write_frame(&mut buf, &f.encode()).expect("write to a Vec");
        }
    }
    let per_row = |d: std::time::Duration| micros(d) / (reps * rows.len()) as f64;
    out.set("net.encode_us_per_row", per_row(started.elapsed()));
    let started = Instant::now();
    for _ in 0..reps {
        let mut r = buf.as_slice();
        while let Ok(Some(payload)) = read_frame(&mut r, DEFAULT_MAX_FRAME) {
            black_box(Response::decode(&payload).is_ok());
        }
    }
    out.set("net.decode_us_per_row", per_row(started.elapsed()));
}

/// The floor of a round trip: socket, one frame each way, thread wake.
pub fn ping(out: &mut Outcome, client: &mut Client) {
    let mut lat = Latencies::default();
    for _ in 0..300 {
        let t = Instant::now();
        if client.ping().is_err() {
            return;
        }
        lat.push(t.elapsed());
    }
    out.set("net.ping_us", lat.p50_us());
}

/// `ObjectStore::read_object` under each of the paper's three storage
/// structures, `FlatStore::read`, and `colstore::decode_block`, all on
/// `MemDisk` so that no file system is in the number.
pub fn storage(out: &mut Outcome, seed: u64) {
    let schema = fixtures::departments_schema();
    let objects = gen::departments(seed, 48).tuples;
    for (layout, name) in [
        (LayoutKind::Ss1, "storage.object_read_us.ss1"),
        (LayoutKind::Ss2, "storage.object_read_us.ss2"),
        (LayoutKind::Ss3, "storage.object_read_us.ss3"),
    ] {
        let stats = Stats::new();
        let mut store = ObjectStore::new(mem_segment(stats.clone()), layout);
        let handles: Vec<_> = objects
            .iter()
            .filter_map(|t| store.insert_object(&schema, t).ok())
            .collect();
        if handles.len() != objects.len() {
            continue;
        }
        let before = stats.subtuple_reads();
        let reps = 10;
        out.set(
            name,
            mean_us(reps, handles.len(), |i| {
                black_box(store.read_object(&schema, handles[i]).is_ok());
            }),
        );
        if layout == LayoutKind::Ss3 {
            out.set(
                "storage.subtuple_reads_per_object",
                (stats.subtuple_reads() - before) as f64 / (reps * handles.len()) as f64,
            );
        }
    }

    let events = gen::events(seed).tuples;
    let block_rows = &events[..BLOCK_ROWS];
    let mut flat = FlatStore::new(mem_segment(Stats::new()));
    let tids: Vec<_> = block_rows
        .iter()
        .filter_map(|t| flat.insert(t).ok())
        .collect();
    if tids.len() == block_rows.len() {
        out.set(
            "storage.flat_read_us",
            mean_us(5, tids.len(), |i| {
                black_box(flat.read(tids[i]).is_ok());
            }),
        );
    }
    if let Ok((bytes, _)) = colstore::build_block(block_rows) {
        out.set(
            "storage.colstore_decode_block_us",
            mean_us(30, 1, |_| {
                black_box(colstore::decode_block(&bytes).is_ok());
            }),
        );
    }
}

/// `encode_tuple` / `decode_tuple` over the workload's own rows.
pub fn model(out: &mut Outcome, tuples: &[Tuple]) {
    let sample = &tuples[..tuples.len().min(256)];
    if sample.is_empty() {
        return;
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); sample.len()];
    out.set(
        "model.encode_us_per_tuple",
        mean_us(20, sample.len(), |i| {
            bufs[i].clear();
            encode_tuple(&sample[i], &mut bufs[i]);
        }),
    );
    out.set(
        "model.decode_us_per_tuple",
        mean_us(20, sample.len(), |i| {
            let mut pos = 0;
            black_box(decode_tuple(&bufs[i], &mut pos).is_ok());
        }),
    );
}

/// `Database::snapshot_table_keyed`: what a statement-write commit pays
/// to republish its table.
pub fn table_snapshot(out: &mut Outcome, db: &mut Database, table: &str) {
    let mut lat = Latencies::default();
    for _ in 0..5 {
        let t = Instant::now();
        if db.snapshot_table_keyed(table).is_err() {
            return;
        }
        lat.push(t.elapsed());
    }
    out.set("txn.table_snapshot_us", lat.p50_us());
}

/// Rows for the wire probe: the largest result among `statements`.
pub fn largest_result(db: &mut Database, statements: &[String]) -> Vec<Tuple> {
    statements
        .iter()
        .filter(|s| s.trim_start().starts_with("SELECT"))
        .filter_map(|s| db.query(s).ok())
        .map(|(_, v)| v.tuples)
        .max_by_key(Vec::len)
        .unwrap_or_default()
}
