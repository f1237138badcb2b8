//! Bit-rot sweep: detection, containment, and salvage under single-bit
//! corruption of a checkpointed database.
//!
//! For all four table layouts (SS1/SS2/SS3 Mini-Directory stores and
//! the flat 1NF heap) the suite builds a checkpointed on-disk database
//! with a main table, an attribute index, and a side table, then flips
//! one bit in every page of every segment file and asserts three
//! properties per flip:
//!
//! * **detection** — [`Database::integrity_check`] reports the damage
//!   whenever the page carries a stamped checksum (pages never written
//!   since allocation carry none and legitimately escape);
//! * **containment** — the untouched table still scans cleanly, and the
//!   corrupted table either scans its surviving rows (quarantined
//!   objects are skipped) or fails with a typed error — never a panic;
//! * **recovery** — [`Database::salvage`] rebuilds a clean database
//!   whose rows are a subset of the committed state.
//!
//! Everything is deterministic: flip positions derive from the page
//! number, and no clock or RNG is involved.

use aim2::{Database, DbConfig};
use aim2_model::{fixtures, TableKind, TableValue};
use aim2_storage::minidir::LayoutKind;
use aim2_storage::CheckKind;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const PAGE: usize = 1024;

const NF2_DDL: &str = "CREATE TABLE DEPARTMENTS ( DNO INTEGER, MGRNO INTEGER,
    PROJECTS { PNO INTEGER, PNAME STRING,
               MEMBERS { EMPNO INTEGER, FUNCTION STRING } },
    BUDGET INTEGER, EQUIP { QU INTEGER, TYPE STRING } )";

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Nf2(LayoutKind),
    Flat,
}

impl Variant {
    fn layout(self) -> LayoutKind {
        match self {
            Variant::Nf2(l) => l,
            Variant::Flat => LayoutKind::Ss3,
        }
    }

    fn table(self) -> &'static str {
        match self {
            Variant::Nf2(_) => "DEPARTMENTS",
            Variant::Flat => "DEPTS",
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aim2_rot_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, layout: LayoutKind) -> DbConfig {
    DbConfig {
        page_size: PAGE,
        buffer_frames: 4,
        default_layout: layout,
        data_dir: Some(dir.to_path_buf()),
        fault: None,
        ..DbConfig::default()
    }
}

/// Build the checkpointed reference database; returns the committed
/// contents of the main and side tables.
fn build(dir: &Path, v: Variant) -> (TableValue, TableValue) {
    let mut db = Database::with_config(config(dir, v.layout()));
    match v {
        Variant::Nf2(_) => {
            db.execute(NF2_DDL).unwrap();
            for t in fixtures::departments_value().tuples {
                db.insert_tuple("DEPARTMENTS", t).unwrap();
            }
            db.execute("CREATE INDEX pidx ON DEPARTMENTS (PROJECTS.PNO)")
                .unwrap();
        }
        Variant::Flat => {
            db.execute("CREATE TABLE DEPTS ( DNO INTEGER, MGRNO INTEGER, BUDGET INTEGER )")
                .unwrap();
            for t in fixtures::departments_1nf_value().tuples {
                db.insert_tuple("DEPTS", t).unwrap();
            }
            // Enough rows to spread the heap over several pages.
            for i in 0..120i64 {
                db.execute(&format!(
                    "INSERT INTO DEPTS VALUES ({}, {}, {})",
                    900 + i,
                    11111 + i,
                    50000 + i * 100
                ))
                .unwrap();
            }
        }
    }
    db.execute("CREATE TABLE SIDE ( K INTEGER, V STRING )")
        .unwrap();
    db.execute("INSERT INTO SIDE VALUES (1, 'alpha')").unwrap();
    db.execute("INSERT INTO SIDE VALUES (2, 'beta')").unwrap();
    db.checkpoint().unwrap();
    let main = db.query(&format!("SELECT * FROM {}", v.table())).unwrap().1;
    let side = db.query("SELECT * FROM SIDE").unwrap().1;
    (main, side)
}

/// Segment files of the data directory, in stable order.
fn seg_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    out.sort();
    out
}

fn flip_bit(path: &Path, off: u64, bit: u8) {
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(off)).unwrap();
    f.read_exact(&mut b).unwrap();
    b[0] ^= 1 << bit;
    f.seek(SeekFrom::Start(off)).unwrap();
    f.write_all(&b).unwrap();
}

/// One tuple-level semantic subset check (Relations are order-free).
fn is_subset_of(sub: &TableValue, sup: &TableValue) -> bool {
    sub.tuples.iter().all(|t| {
        sup.tuples.iter().any(|o| {
            TableValue {
                kind: TableKind::Relation,
                tuples: vec![t.clone()],
            }
            .semantically_eq(&TableValue {
                kind: TableKind::Relation,
                tuples: vec![o.clone()],
            })
        })
    })
}

/// A clean checkpointed database reports clean, with every storage-level
/// check actually exercised.
fn assert_clean(dir: &Path, v: Variant) {
    let mut db = Database::open(config(dir, v.layout())).unwrap();
    let report = db.integrity_check().unwrap();
    assert!(
        report.is_clean(),
        "{}: fresh DB must be clean:\n{report}",
        v.table()
    );
    for k in [
        CheckKind::PageChecksum,
        CheckKind::MdShape,
        CheckKind::MiniTid,
        CheckKind::PageAccounting,
    ] {
        assert!(
            report.checked(k) > 0,
            "{}: check {} never ran",
            v.table(),
            k.name()
        );
    }
    if let Variant::Nf2(_) = v {
        // Flat heaps have no MD entry groups and no attribute index, so
        // these two only run for NF² variants.
        assert!(report.checked(CheckKind::OrderedSubtable) > 0);
        assert!(report.checked(CheckKind::IndexLiveness) > 0);
    }
    assert!(db.quarantined().is_empty());
}

fn sweep(tag: &str, v: Variant) {
    let dir = temp_dir(tag);
    let (main_rows, side_rows) = build(&dir, v);
    assert_clean(&dir, v);

    let salvage_dir = temp_dir(&format!("{tag}_salv"));
    let mut flips = 0usize;
    let mut detected = 0usize;
    for seg in seg_files(&dir) {
        let len = std::fs::metadata(&seg).unwrap().len() as usize;
        let seg_is_side = seg.file_name().unwrap().to_string_lossy().contains("_SIDE");
        for p in 0..len / PAGE {
            // Deterministic position past the 4-byte checksum header.
            let off = (p * PAGE) as u64 + 7 + (p as u64 * 131) % 900;
            let bit = (p % 8) as u8;
            let raw = std::fs::read(&seg).unwrap();
            let stamped = raw[p * PAGE..p * PAGE + 4] != [0, 0, 0, 0];
            flip_bit(&seg, off, bit);
            flips += 1;

            let mut db = Database::open(config(&dir, v.layout()))
                .unwrap_or_else(|e| panic!("{tag}: open after flip must succeed: {e}"));
            let report = db
                .integrity_check()
                .unwrap_or_else(|e| panic!("{tag}: walker must not die on rot: {e}"));
            if stamped {
                assert!(
                    !report.is_clean(),
                    "{tag}: page {p} of {} carries a checksum; the flip must be detected",
                    seg.display()
                );
                detected += 1;
            }
            // Containment: the *other* table is untouched and must serve.
            let other = if seg_is_side { v.table() } else { "SIDE" };
            let other_ref = if seg_is_side { &main_rows } else { &side_rows };
            let (_, rows) = db
                .query(&format!("SELECT * FROM {other}"))
                .unwrap_or_else(|e| panic!("{tag}: untouched table {other} must scan: {e}"));
            assert!(
                rows.semantically_eq(other_ref),
                "{tag}: untouched table {other} changed contents"
            );
            // The corrupted table scans its survivors or fails typed.
            let hit = if seg_is_side { "SIDE" } else { v.table() };
            let hit_ref = if seg_is_side { &side_rows } else { &main_rows };
            match db.query(&format!("SELECT * FROM {hit}")) {
                Ok((_, rows)) => assert!(
                    rows.len() <= hit_ref.len(),
                    "{tag}: corrupted table serves phantom rows"
                ),
                Err(e) => {
                    let _ = e.to_string(); // typed, printable, no panic
                }
            }
            // Recovery: salvage a clean database from the survivors.
            if p % 4 == 0 {
                let _ = std::fs::remove_dir_all(&salvage_dir);
                let (mut fresh, carried) = db
                    .salvage(&salvage_dir)
                    .unwrap_or_else(|e| panic!("{tag}: salvage must succeed under rot: {e}"));
                let fresh_report = fresh.integrity_check().unwrap();
                assert!(
                    fresh_report.is_clean(),
                    "{tag}: salvaged DB must be clean:\n{fresh_report}"
                );
                let (_, salvaged) = fresh.query(&format!("SELECT * FROM {hit}")).unwrap();
                assert!(
                    is_subset_of(&salvaged, hit_ref),
                    "{tag}: salvage invented rows"
                );
                assert!(carried <= main_rows.len() + side_rows.len() + 120);
                if report.is_clean() {
                    assert!(
                        salvaged.semantically_eq(hit_ref),
                        "{tag}: clean DB must salvage completely"
                    );
                }
            }
            drop(db);
            flip_bit(&seg, off, bit); // heal for the next iteration
        }
    }
    eprintln!("{tag}: {flips} flips, {detected} stamped pages detected");
    assert!(detected > 0, "{tag}: sweep never hit a stamped page");
    // Healed database is clean again.
    assert_clean(&dir, v);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&salvage_dir);
}

#[test]
fn bit_rot_sweep_ss1() {
    sweep("ss1", Variant::Nf2(LayoutKind::Ss1));
}

#[test]
fn bit_rot_sweep_ss2() {
    sweep("ss2", Variant::Nf2(LayoutKind::Ss2));
}

#[test]
fn bit_rot_sweep_ss3() {
    sweep("ss3", Variant::Nf2(LayoutKind::Ss3));
}

#[test]
fn bit_rot_sweep_flat() {
    sweep("flat", Variant::Flat);
}

/// Bit-rot over the tiered cold store: after `compact_table` froze the
/// heap into columnar blocks, a flip anywhere in the table's segment —
/// block payload pages included — must be **detected** (page checksum
/// or block CRC), **contained** (the block's home TID is quarantined;
/// the table keeps serving its other blocks and hot rows), and
/// **salvageable** (the survivors rebuild into a clean database).
#[test]
fn corrupt_cold_block_sweep() {
    let dir = temp_dir("coldrot");
    let committed;
    {
        let mut db = Database::with_config(config(&dir, LayoutKind::Ss3));
        db.execute("CREATE TABLE COLD ( K INTEGER, V INTEGER )")
            .unwrap();
        for i in 0..1100i64 {
            db.execute(&format!("INSERT INTO COLD VALUES ({i}, {})", i * 3))
                .unwrap();
        }
        let (blocks, rows) = db.compact_table("COLD").unwrap();
        assert_eq!((blocks, rows), (2, 1100));
        // A hot tail on top of the frozen blocks.
        for i in 1100..1160i64 {
            db.execute(&format!("INSERT INTO COLD VALUES ({i}, {})", i * 3))
                .unwrap();
        }
        db.checkpoint().unwrap();
        committed = db.query("SELECT * FROM COLD").unwrap().1;
        assert!(db.integrity_check().unwrap().is_clean());
    }

    let seg = seg_files(&dir)
        .into_iter()
        .find(|p| p.file_name().unwrap().to_string_lossy().contains("COLD"))
        .expect("COLD segment file");
    let len = std::fs::metadata(&seg).unwrap().len() as usize;
    let mut detected = 0usize;
    let mut contained_scans = 0usize;
    let mut quarantines = 0usize;
    for p in 0..len / PAGE {
        let off = (p * PAGE) as u64 + 7 + (p as u64 * 131) % 900;
        let bit = (p % 8) as u8;
        let raw = std::fs::read(&seg).unwrap();
        let stamped = raw[p * PAGE..p * PAGE + 4] != [0, 0, 0, 0];
        flip_bit(&seg, off, bit);

        let mut db = Database::open(config(&dir, LayoutKind::Ss3))
            .unwrap_or_else(|e| panic!("open after cold flip must succeed: {e}"));
        let report = db
            .integrity_check()
            .unwrap_or_else(|e| panic!("walker must not die on cold rot: {e}"));
        if stamped {
            assert!(
                !report.is_clean(),
                "page {p}: stamped page flip must be detected"
            );
            detected += 1;
        }
        quarantines += usize::from(!db.quarantined().is_empty());
        // Containment: the table serves its survivors (quarantined
        // blocks skipped) or fails typed — never panics, never invents.
        match db.query("SELECT * FROM COLD") {
            Ok((_, rows)) => {
                assert!(rows.len() <= committed.len(), "phantom rows under rot");
                assert!(is_subset_of(&rows, &committed), "rot fabricated a row");
                contained_scans += 1;
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
        // Recovery: a sample of flips goes through full salvage.
        if p % 8 == 0 {
            let salvage_dir = temp_dir("coldrot_salv");
            let (mut fresh, _) = db
                .salvage(&salvage_dir)
                .unwrap_or_else(|e| panic!("salvage must succeed under cold rot: {e}"));
            assert!(fresh.integrity_check().unwrap().is_clean());
            let (_, rows) = fresh.query("SELECT * FROM COLD").unwrap();
            assert!(is_subset_of(&rows, &committed), "salvage invented rows");
            drop(fresh);
            let _ = std::fs::remove_dir_all(&salvage_dir);
        }
        drop(db);
        flip_bit(&seg, off, bit);
    }
    assert!(detected > 0, "sweep never hit a stamped cold page");
    assert!(
        contained_scans > 0,
        "no flip left the table serving survivors"
    );
    assert!(quarantines > 0, "no flip was ever quarantined");
    // Healed: clean report, full contents, tiers intact.
    let mut db = Database::open(config(&dir, LayoutKind::Ss3)).unwrap();
    assert!(db.integrity_check().unwrap().is_clean());
    let (_, rows) = db.query("SELECT * FROM COLD").unwrap();
    assert!(rows.semantically_eq(&committed));
    let tiers = db.table_tiers().unwrap();
    let cold = tiers.iter().find(|t| t.0 == "COLD").unwrap();
    assert_eq!((cold.2, cold.3), (2, 1100), "tiers survive the sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one bit in the first page of `table`'s segment for which
/// `damaged` holds on the reopened database; returns that database.
/// Pages the predicate rejects are healed again.
fn rot_one_page(dir: &Path, v: Variant, damaged: impl Fn(&mut Database) -> bool) -> Database {
    let seg = seg_files(dir)
        .into_iter()
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.ends_with(&format!("_{}.seg", v.table()))
        })
        .expect("main table segment file");
    let len = std::fs::metadata(&seg).unwrap().len() as usize;
    for p in 0..len / PAGE {
        let off = (p * PAGE) as u64 + 7 + (p as u64 * 131) % 900;
        flip_bit(&seg, off, 3);
        let mut db = Database::open(config(dir, v.layout())).unwrap();
        if damaged(&mut db) {
            return db;
        }
        drop(db);
        flip_bit(&seg, off, 3);
    }
    panic!("no page of {} gave the wanted damage", seg.display());
}

/// A quarantined hot row of a flat table is skipped by every consumer
/// of the table walk, not only by SELECT: DML on the surviving rows and
/// the transaction layer's undo snapshot keep working around it.
#[test]
fn quarantined_hot_flat_row_does_not_block_dml() {
    let dir = temp_dir("flat_dml");
    let (main_rows, _) = build(&dir, Variant::Flat);
    let mut db = rot_one_page(&dir, Variant::Flat, |db| {
        db.integrity_check().unwrap();
        let q = db.quarantined().len();
        0 < q && q < 100
    });
    let lost = db.quarantined().len();
    let (_, survivors) = db.query("SELECT * FROM DEPTS").unwrap();
    assert_eq!(survivors.len(), main_rows.len() - lost);
    let dno = |t: &aim2_model::Tuple| t.fields[0].as_atom().unwrap().clone();
    let (first, second) = (dno(&survivors.tuples[0]), dno(&survivors.tuples[1]));

    // Autocommit.
    let n = db
        .execute(&format!(
            "UPDATE x IN DEPTS SET x.BUDGET = 1 WHERE x.DNO = {first}"
        ))
        .unwrap();
    assert_eq!(n.count(), Some(1));
    assert_eq!(db.snapshot_table("DEPTS").unwrap().len(), survivors.len());
    assert_eq!(
        db.snapshot_table_keyed("DEPTS").unwrap().len(),
        survivors.len()
    );

    // Inside a transaction: the undo snapshot is taken around the
    // quarantined rows, and rollback restores exactly the survivors.
    let before = db.query("SELECT * FROM DEPTS").unwrap().1;
    let shared = aim2_txn::SharedDatabase::new(db);
    let mut s = shared.session();
    s.begin().unwrap();
    let n = s
        .execute(&format!(
            "UPDATE x IN DEPTS SET x.BUDGET = 2 WHERE x.DNO = {second}"
        ))
        .unwrap();
    assert_eq!(n.count(), Some(1));
    s.rollback().unwrap();
    let after = s.query("SELECT * FROM DEPTS").unwrap().1;
    assert!(after.semantically_eq(&before));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt object first met by a *scan* is quarantined by that scan:
/// the first query surfaces the typed storage error, every later one
/// answers from the surviving objects.
#[test]
fn scan_quarantines_the_corrupt_object_it_meets() {
    let v = Variant::Nf2(LayoutKind::Ss3);
    let dir = temp_dir("scan_quar");
    let (main_rows, _) = build(&dir, v);
    // A page whose damage fails the scan but not the open, and that the
    // read attributes to exactly one object.
    let mut db = rot_one_page(&dir, v, |db| {
        matches!(
            db.query("SELECT * FROM DEPARTMENTS"),
            Err(aim2::DbError::Exec(aim2_exec::ExecError::Storage(_)))
        ) && db.quarantined().len() == 1
    });
    assert_eq!(db.stats().snapshot().objects_quarantined, 1);
    let (_, rows) = db.query("SELECT * FROM DEPARTMENTS").unwrap();
    assert_eq!(rows.len(), main_rows.len() - 1);
    assert!(is_subset_of(&rows, &main_rows));
    assert_eq!(db.stats().snapshot().objects_quarantined, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn salvage_roundtrips_an_uncorrupted_database() {
    let dir = temp_dir("salv_rt");
    let (main_rows, side_rows) = build(&dir, Variant::Nf2(LayoutKind::Ss3));
    let mut db = Database::open(config(&dir, LayoutKind::Ss3)).unwrap();
    let dest = temp_dir("salv_rt_out");
    let (mut fresh, carried) = db.salvage(&dest).unwrap();
    assert_eq!(carried, main_rows.len() + side_rows.len());
    assert!(db.stats().snapshot().salvaged_objects >= carried as u64);
    let (_, rows) = fresh.query("SELECT * FROM DEPARTMENTS").unwrap();
    assert!(rows.semantically_eq(&main_rows));
    let (_, rows) = fresh.query("SELECT * FROM SIDE").unwrap();
    assert!(rows.semantically_eq(&side_rows));
    // The salvaged copy recreated the attribute index and checkpointed:
    // reopen it cold and query through the index path.
    drop(fresh);
    let mut re = Database::open(config(&dest, LayoutKind::Ss3)).unwrap();
    let (_, rows) = re
        .query("SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : y.PNO = 17")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert!(re.integrity_check().unwrap().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dest);
}

#[test]
fn corrupt_catalog_fails_typed_never_panics() {
    let dir = temp_dir("cat");
    build(&dir, Variant::Flat);
    let cat = dir.join("catalog.aim2");
    let len = std::fs::metadata(&cat).unwrap().len();
    for off in [9u64, len / 2, len - 2] {
        flip_bit(&cat, off, 3);
        match Database::open(config(&dir, LayoutKind::Ss3)) {
            Ok(mut db) => {
                // A flip the reader tolerates (e.g. inside free-page
                // padding) must still leave a walkable database.
                let _ = db.integrity_check().unwrap();
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
        flip_bit(&cat, off, 3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
