//! Cursor conformance: one generic check of the scan protocol, run
//! against every [`TableProvider`] in the tree.
//!
//! [`conforms`] holds for any provider and any request: pulls of 1, 3
//! and [`BATCH_ROWS`] rows return the same rows in the same order; the
//! cursor's `pulled()` / `exhausted()` accounting tracks keys consumed,
//! not rows returned (a provider may rule rows out, so an empty batch
//! is not end-of-scan); `None` is sticky; and a cursor closed after one
//! pull of many is an early exit. The per-provider tests below add what
//! only they can see: the `cursor.early-exits` counter, `scan_all`, and
//! the session's lock count.

use aim2::{Database, DbConfig};
use aim2_bench::StoreProvider;
use aim2_exec::{MemProvider, ScanRequest, TableProvider, BATCH_ROWS};
use aim2_model::value::build::a;
use aim2_model::{fixtures, Atom, Date, Path, Tuple};
use aim2_storage::buffer::BufferPool;
use aim2_storage::colstore::BLOCK_ROWS;
use aim2_storage::disk::MemDisk;
use aim2_storage::flatstore::FlatStore;
use aim2_storage::minidir::LayoutKind;
use aim2_storage::object::ObjectStore;
use aim2_storage::segment::Segment;
use aim2_storage::stats::Stats;
use aim2_txn::SharedDatabase;

const NF2_DDL: &str = "CREATE TABLE DEPARTMENTS ( DNO INTEGER, MGRNO INTEGER,
    PROJECTS { PNO INTEGER, PNAME STRING,
               MEMBERS { EMPNO INTEGER, FUNCTION STRING } },
    BUDGET INTEGER, EQUIP { QU INTEGER, TYPE STRING } )";

/// Drain `req` with pulls of `max_rows`, checking the cursor's
/// accounting after every pull.
fn drain<P: TableProvider>(p: &mut P, req: &ScanRequest, max_rows: usize) -> Vec<Tuple> {
    let mut cur = p.open_scan(req).unwrap();
    let len = cur.len();
    assert_eq!(cur.pulled(), 0);
    assert_eq!(cur.exhausted(), len == 0);
    let mut rows = Vec::new();
    let mut pulls = 0;
    while let Some(batch) = p.next_batch(&mut cur, max_rows).unwrap() {
        pulls += 1;
        assert!(batch.len() <= max_rows);
        assert_eq!(cur.pulled(), len.min(pulls * max_rows));
        assert_eq!(cur.exhausted(), cur.pulled() == len);
        rows.extend(batch);
    }
    assert_eq!(pulls, len.div_ceil(max_rows));
    assert!(cur.exhausted());
    assert!(p.next_batch(&mut cur, max_rows).unwrap().is_none());
    p.close_scan(cur);
    rows
}

/// The protocol check. Ends with exactly one early exit — one pull of
/// a cursor over at least two keys, then close — and returns the rows.
fn conforms<P: TableProvider>(p: &mut P, req: &ScanRequest) -> Vec<Tuple> {
    let rows = drain(p, req, 1);
    for max_rows in [3, BATCH_ROWS] {
        assert_eq!(drain(p, req, max_rows), rows, "pulls of {max_rows}");
    }
    let mut cur = p.open_scan(req).unwrap();
    assert!(cur.len() >= 2, "give the early exit something to skip");
    assert!(p.next_batch(&mut cur, 1).unwrap().is_some());
    assert_eq!(cur.pulled(), 1);
    assert!(!cur.exhausted());
    p.close_scan(cur);
    rows
}

/// [`conforms`] over a full scan, which must also agree with `scan_all`.
fn conforms_full<P: TableProvider>(p: &mut P, table: &str, asof: Option<Date>) -> Vec<Tuple> {
    let rows = conforms(p, &ScanRequest::full(table, asof));
    assert_eq!(p.scan_all(table, asof).unwrap().tuples, rows);
    rows
}

/// Run `check` and assert it closed exactly one cursor early.
fn one_early_exit<R>(stats: &Stats, check: impl FnOnce() -> R) -> R {
    let before = stats.snapshot().cursor_early_exits;
    let out = check();
    assert_eq!(stats.snapshot().cursor_early_exits - before, 1);
    out
}

fn date(s: &str) -> Date {
    Date::parse_iso(s).unwrap()
}

fn departments_db(layout: LayoutKind) -> Database {
    let mut db = Database::with_config(DbConfig {
        default_layout: layout,
        ..DbConfig::default()
    });
    db.execute(NF2_DDL).unwrap();
    for t in fixtures::departments_value().tuples {
        db.insert_tuple("DEPARTMENTS", t).unwrap();
    }
    db
}

/// `SNAP` holds three rows as of 1984 and a changed first row since 1985.
fn add_versioned(db: &mut Database) {
    db.execute("CREATE TABLE SNAP ( K INTEGER, V INTEGER ) WITH VERSIONS")
        .unwrap();
    db.set_today(date("1984-01-01"));
    for k in 1..=3 {
        db.execute(&format!("INSERT INTO SNAP VALUES ({k}, {})", k * 10))
            .unwrap();
    }
    db.set_today(date("1985-01-01"));
    db.execute("UPDATE s IN SNAP SET s.V = 99 WHERE s.K = 1")
        .unwrap();
}

#[test]
fn mem_provider_live_and_asof() {
    let mut p = MemProvider::with_paper_fixtures();
    assert_eq!(conforms_full(&mut p, "MEMBERS-1NF", None).len(), 17);
    p.add_snapshot(
        "DEPARTMENTS",
        date("1984-01-01"),
        fixtures::departments_value(),
    );
    let old = conforms_full(&mut p, "DEPARTMENTS", Some(date("1984-06-01")));
    assert_eq!(old, fixtures::departments_value().tuples);
}

#[test]
fn database_nf2_layouts_and_index_restriction() {
    for layout in [LayoutKind::Ss1, LayoutKind::Ss2, LayoutKind::Ss3] {
        let mut db = departments_db(layout);
        let stats = db.stats().clone();
        let all = one_early_exit(&stats, || conforms_full(&mut db, "DEPARTMENTS", None));
        assert_eq!(all, fixtures::departments_value().tuples);
    }
    // An index answers the pushed conjunct: the cursor ranges over the
    // candidate objects only, under the same protocol.
    let mut db = departments_db(LayoutKind::Ss3);
    db.insert_tuple(
        "DEPARTMENTS",
        fixtures::departments_value().tuples[0].clone(),
    )
    .unwrap();
    db.execute("CREATE INDEX pidx ON DEPARTMENTS (PROJECTS.PNO)")
        .unwrap();
    let req = ScanRequest {
        conjuncts: vec![(Path::parse("PROJECTS.PNO"), Atom::Int(17))],
        ..ScanRequest::full("DEPARTMENTS", None)
    };
    let cur = db.open_scan(&req).unwrap();
    assert!(
        cur.access_path.starts_with("index pidx"),
        "{}",
        cur.access_path
    );
    db.close_scan(cur);
    let stats = db.stats().clone();
    let candidates = one_early_exit(&stats, || conforms(&mut db, &req));
    assert_eq!(candidates.len(), 2, "both copies of department 314");
}

#[test]
fn database_flat_tiers_and_asof() {
    let mut db = Database::in_memory();
    db.execute("CREATE TABLE NUMS ( K INTEGER, V INTEGER )")
        .unwrap();
    let row = |k: i64| Tuple::new(vec![a(k), a(2 * k)]);
    let total = BLOCK_ROWS as i64 + 8;
    for k in 0..BLOCK_ROWS as i64 + 5 {
        db.insert_tuple("NUMS", row(k)).unwrap();
    }
    let stats = db.stats().clone();
    // Hot only.
    let hot = one_early_exit(&stats, || conforms_full(&mut db, "NUMS", None));
    assert_eq!(hot.len(), BLOCK_ROWS + 5);
    // Two cold blocks (one full, one of five rows) under a hot tail:
    // pulls of 3 straddle the block boundary, the second pull of
    // BATCH_ROWS straddles the tier boundary.
    assert_eq!(db.compact_table("NUMS").unwrap().0, 2);
    for k in BLOCK_ROWS as i64 + 5..total {
        db.insert_tuple("NUMS", row(k)).unwrap();
    }
    let tiered = one_early_exit(&stats, || conforms_full(&mut db, "NUMS", None));
    assert_eq!(tiered, (0..total).map(row).collect::<Vec<_>>());

    // Dictionary miss: V = 3 lies inside the first block's zone (V is
    // even there) but not in its dictionary, so that cold run comes
    // back empty — and the scan goes on to the hot rows, which only the
    // evaluator filters. The second block's zone excludes 3: its keys
    // never enter the cursor.
    let req = ScanRequest {
        conjuncts: vec![(Path::parse("V"), Atom::Int(3))],
        ..ScanRequest::full("NUMS", None)
    };
    let mut cur = db.open_scan(&req).unwrap();
    assert_eq!(cur.len(), BLOCK_ROWS + 3, "one block pruned by its zone");
    let first = db.next_batch(&mut cur, BATCH_ROWS).unwrap();
    assert_eq!(first, Some(Vec::new()), "empty batch, not end of scan");
    assert!(!cur.exhausted());
    db.close_scan(cur);
    let survivors = conforms(&mut db, &req);
    assert_eq!(
        survivors,
        (BLOCK_ROWS as i64 + 5..total).map(row).collect::<Vec<_>>()
    );

    // ASOF: the cursor holds the reconstructed state.
    add_versioned(&mut db);
    let old = one_early_exit(&stats, || {
        conforms_full(&mut db, "SNAP", Some(date("1984-06-01")))
    });
    assert_eq!(old[0], Tuple::new(vec![a(1i64), a(10i64)]));
    let now = conforms_full(&mut db, "SNAP", None);
    assert_eq!(now[0], Tuple::new(vec![a(1i64), a(99i64)]));
}

#[test]
fn session_two_phase_snapshot_and_asof() {
    let mut db = departments_db(LayoutKind::Ss3);
    add_versioned(&mut db);
    let shared = SharedDatabase::new(db);
    let stats = shared.stats();
    let expected = fixtures::departments_value().tuples;

    // 2PL: every keyed read goes through the table's S lock.
    let mut s = shared.session();
    s.begin().unwrap();
    let rows = one_early_exit(&stats, || conforms_full(&mut s, "DEPARTMENTS", None));
    assert_eq!(rows, expected);
    assert!(s.lock_acquisitions() > 0);
    s.commit().unwrap();

    // Read-only snapshot: the cursor holds the epoch version's rows.
    let mut r = shared.session();
    r.begin_read_only().unwrap();
    let rows = one_early_exit(&stats, || conforms_full(&mut r, "DEPARTMENTS", None));
    assert_eq!(rows, expected);
    assert_eq!(r.lock_acquisitions(), 0, "snapshot scans take no lock");
    r.commit().unwrap();

    // A strictly-past ASOF inside a 2PL transaction reads immutable
    // history: no lock either.
    let mut h = shared.session();
    h.begin().unwrap();
    let asof = Some(date("1984-06-01"));
    let old = one_early_exit(&stats, || {
        conforms(&mut h, &ScanRequest::full("SNAP", asof))
    });
    assert_eq!(h.lock_acquisitions(), 0, "historical scans take no lock");
    assert_eq!(old[0], Tuple::new(vec![a(1i64), a(10i64)]));
    assert_eq!(h.scan_all("SNAP", asof).unwrap().tuples, old);
    h.commit().unwrap();
}

#[test]
fn store_provider_nf2_and_flat() {
    let stats = Stats::new();
    let segment = || {
        Segment::new(BufferPool::new(
            Box::new(MemDisk::new(4096)),
            64,
            stats.clone(),
        ))
    };
    let schema = fixtures::departments_schema();
    let mut os = ObjectStore::new(segment(), LayoutKind::Ss3);
    for t in &fixtures::departments_value().tuples {
        os.insert_object(&schema, t).unwrap();
    }
    let mut fs = FlatStore::new(segment());
    fs.load(&fixtures::members_1nf_value()).unwrap();
    let mut p = StoreProvider::single("DEPARTMENTS", schema, os);
    p.add_flat("MEMBERS-1NF", fixtures::members_1nf_schema(), fs);

    let nf2 = one_early_exit(&stats, || conforms_full(&mut p, "DEPARTMENTS", None));
    assert_eq!(nf2, fixtures::departments_value().tuples);
    let flat = one_early_exit(&stats, || conforms_full(&mut p, "MEMBERS-1NF", None));
    assert_eq!(flat, fixtures::members_1nf_value().tuples);
}
