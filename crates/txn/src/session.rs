//! Concurrent sessions over one shared database.
//!
//! AIM-II's run-time system served several application programs at once:
//! set-oriented SQL requests and checked-out complex objects both went
//! through one database process. [`SharedDatabase`] reproduces that
//! integration point for threads: it owns the single [`Database`]
//! behind a mutex (physical access is serialized — the prototype was a
//! single database machine too) and hands out [`Session`]s, whose
//! *logical* isolation comes from the [`LockManager`]:
//!
//! * a statement (`SELECT` / DML / DDL) locks whole **tables** — S for
//!   reads, X for writes;
//! * the check-out API ([`Session::checkout`],
//!   [`Session::update_atoms`], ...) locks one **object** (root TID): IX
//!   on the table plus X on the object, so writers on different objects
//!   of one table run concurrently while a table reader still excludes
//!   them.
//!
//! Transactions are strict 2PL with rollback from logical before-images
//! (a table snapshot for statement writes, per-subtuple atom images for
//! object writes) and a **group-committed** WAL sync at commit: every
//! commit flushes its touched tables' pages — appending page
//! before-images to the WAL — and then joins
//! [`GroupCommit::sync_through`], where one leader's `fsync` covers all
//! concurrently committing sessions.
//!
//! Two documented caveats keep the undo machinery honest and simple:
//! a transaction may write a given table *either* through statements
//! *or* through the object API, not both (mixing returns
//! [`TxnError::State`]); and DDL is not undone by rollback.
//!
//! **MVCC snapshot reads.** Read-only transactions opened with
//! [`Session::begin_read_only`] do not participate in 2PL at all: they
//! pin the current commit epoch in the [`SnapshotManager`] and every
//! read — statement queries through the cursor pipeline as well as
//! `handles`/`read_object` — resolves against the immutable epoch
//! versions committing writers published, with **zero S/IS lock
//! acquisitions** and no database-mutex traffic on the per-row path.
//! Writers stay strict-2PL among themselves and publish their touched
//! tables' new versions at commit (object-granularity commits patch
//! the previous version; statement/DDL commits re-snapshot under their
//! X table locks), so a pinned snapshot keeps reading the exact state
//! it began with while later commits, checkpoints and GC proceed
//! around it.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use aim2::{Database, ExecResult};
use aim2_exec::{Evaluator, ObjectCursor, ScanRequest, ScanSource, TableProvider};
use aim2_lang::ast::{self, NamedValue, SelectItem, Source, Stmt};
use aim2_model::{Atom, Date, TableSchema, TableValue, Tuple};
use aim2_storage::object::{ElemLoc, ObjectHandle};
use aim2_storage::stats::Stats;
use aim2_storage::tid::Tid;
use aim2_storage::wal::{GroupCommit, SharedWal};
use aim2_time::TableVersion;

use crate::error::{Result, TxnError};
use crate::lock::{LockKey, LockManager, LockMode, TxnId};
use crate::snapshot::{Published, SnapshotManager};

// ====================================================================
// Shared database
// ====================================================================

struct Shared {
    db: Mutex<Database>,
    locks: LockManager,
    gc: GroupCommit,
    stats: Stats,
    next_txn: AtomicU64,
    snapshots: SnapshotManager,
}

/// A database opened for concurrent use: wrap a [`Database`] once, then
/// clone handles and open a [`Session`] per thread.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<Shared>,
}

impl SharedDatabase {
    /// Take ownership of `db` and make it shareable. Seeds the MVCC
    /// snapshot store with every table's current state as epoch 1.
    pub fn new(mut db: Database) -> SharedDatabase {
        let stats = db.stats().clone();
        let snapshots = SnapshotManager::new(stats.clone());
        snapshots.resync(&mut db);
        SharedDatabase {
            inner: Arc::new(Shared {
                locks: LockManager::new(stats.clone()),
                gc: GroupCommit::new(stats.clone()),
                stats,
                next_txn: AtomicU64::new(1),
                snapshots,
                db: Mutex::new(db),
            }),
        }
    }

    /// Open a new session. Sessions are cheap; one per thread.
    pub fn session(&self) -> Session {
        Session {
            shared: self.inner.clone(),
            txn: None,
            lock_acquisitions: 0,
        }
    }

    /// Run `f` with exclusive access to the raw database — for
    /// administrative work (initial DDL, checkpoints) outside any
    /// transaction. Skips the lock manager entirely: do not interleave
    /// with writing sessions. The snapshot store is resynced afterwards
    /// so DDL or bulk loads through the raw handle become visible to
    /// read-only snapshot sessions.
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut db = self.inner.db.lock().expect("database mutex poisoned");
        let r = f(&mut db);
        self.inner.snapshots.resync(&mut db);
        r
    }

    /// The newest committed MVCC epoch (diagnostics, tests).
    pub fn current_epoch(&self) -> u64 {
        self.inner.snapshots.current_epoch()
    }

    /// Number of transactions currently parked in lock-manager wait
    /// queues. A rendezvous point for deterministic interleaving tests:
    /// after issuing a request that must block, poll this until the
    /// requester is provably parked before taking the next step.
    pub fn lock_waiters(&self) -> usize {
        self.inner.locks.waiter_count()
    }

    /// Checkpoint the database (quiesces through the database mutex).
    pub fn checkpoint(&self) -> Result<()> {
        self.with_db(|db| db.checkpoint()).map_err(TxnError::Db)
    }

    /// Run the full integrity walker (quiesces through the database
    /// mutex) and quarantine every object it attributes damage to.
    /// Sessions touching a quarantined object afterwards get
    /// [`aim2::DbError::ObjectQuarantined`]; the rest of each table
    /// keeps serving.
    pub fn integrity_check(&self) -> Result<aim2::IntegrityReport> {
        self.with_db(|db| db.integrity_check())
            .map_err(TxnError::Db)
    }

    /// Freeze a flat table's hot rows into immutable columnar cold
    /// blocks (quiesces through the database mutex, like
    /// [`SharedDatabase::checkpoint`]). The snapshot store is resynced
    /// afterwards, so read-only sessions opened later see the tiered
    /// table under its new cold-row keys. Returns `(blocks, rows)`.
    pub fn compact_table(&self, table: &str) -> Result<(usize, u64)> {
        self.with_db(|db| db.compact_table(table))
            .map_err(TxnError::Db)
    }

    /// Per-table tiering report: `(table, hot rows, cold blocks, cold
    /// rows)` — NF² tables report their object count as "hot".
    pub fn tiers(&self) -> Result<Vec<(String, usize, usize, u64)>> {
        self.with_db(|db| db.table_tiers()).map_err(TxnError::Db)
    }

    /// The shared statistics block (lock waits, deadlock aborts, group
    /// commit batches, and all storage counters).
    pub fn stats(&self) -> Stats {
        self.inner.stats.clone()
    }

    /// Point-in-time metrics exposition — every counter, gauge and
    /// latency histogram — straight off the shared stats block. Unlike
    /// [`SharedDatabase::with_db`] admin paths this takes no mutex, so
    /// a server's metrics endpoint can poll it under load.
    pub fn metrics(&self) -> aim2_storage::stats::MetricsSnapshot {
        self.inner.stats.metrics_snapshot()
    }

    /// Immutable copy of the engine counters, for grouped display and
    /// delta computations (the server's `Stats` admin verb). Lock-free.
    pub fn stats_snapshot(&self) -> aim2_storage::stats::StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Unwrap back into the owned [`Database`]. Fails (returns `self`)
    /// while sessions are still alive.
    pub fn try_into_inner(self) -> std::result::Result<Database, SharedDatabase> {
        match Arc::try_unwrap(self.inner) {
            Ok(shared) => Ok(shared.db.into_inner().expect("database mutex poisoned")),
            Err(inner) => Err(SharedDatabase { inner }),
        }
    }
}

// ====================================================================
// Undo log
// ====================================================================

/// Logical before-images, undone in reverse order on rollback.
enum Undo {
    /// Statement-level write: whole-table snapshot taken before the
    /// transaction's first statement write to `table`.
    TableSnapshot { table: String, tuples: Vec<Tuple> },
    /// Object-level atom update: the atoms at `loc` before this
    /// transaction first overwrote them. Undo is another in-place
    /// update, so the object handle stays stable — a waiter blocked on
    /// this object's lock still holds a valid handle after the abort.
    Atoms {
        table: String,
        handle: ObjectHandle,
        loc: ElemLoc,
        atoms: Vec<Atom>,
    },
    /// Object-level delete: reinsert the saved tuple. The object comes
    /// back under a *new* handle (root TIDs are not recycled); the old
    /// handle is kept so the rollback can re-key the table's published
    /// MVCC version to the reinserted object.
    Reinsert {
        table: String,
        handle: ObjectHandle,
        tuple: Tuple,
    },
}

/// How a transaction has written a table so far — statement writes use
/// table-snapshot undo, object writes use per-subtuple undo; the two
/// cannot be mixed on one table inside one transaction.
#[derive(PartialEq, Clone, Copy)]
enum WriteMode {
    Statement,
    Object,
}

/// (table, handle, loc-steps) identifying one atom-image undo site.
type AtomImageKey = (String, ObjectHandle, Vec<(usize, usize)>);

/// A pinned MVCC snapshot: the commit epoch a read-only transaction
/// resolves every read against, plus when it was pinned (the
/// `txn.snapshot_age` histogram records the span at release).
struct SnapshotPin {
    epoch: u64,
    pinned_at: Instant,
}

struct Txn {
    id: TxnId,
    undo: Vec<Undo>,
    write_mode: BTreeMap<String, WriteMode>,
    /// Sites whose atom before-image is already recorded — only the
    /// first touch matters.
    atom_images: HashSet<AtomImageKey>,
    /// Tables whose pages must be flushed (with WAL logging) at commit.
    touched: BTreeSet<String>,
    /// True for snapshot transactions: no locks, no writes, all reads
    /// resolve at the pinned epoch.
    read_only: bool,
    /// The pinned epoch of a read-only transaction.
    snapshot: Option<SnapshotPin>,
    /// Object-mode write set per table (packed root TIDs): the keys a
    /// committing transaction patches into the table's next MVCC
    /// version instead of re-snapshotting the whole table (which would
    /// leak other transactions' uncommitted in-place writes).
    obj_updates: BTreeMap<String, BTreeSet<u64>>,
    /// Object-mode delete set per table (packed root TIDs).
    obj_deletes: BTreeMap<String, BTreeSet<u64>>,
}

impl Txn {
    fn new(id: TxnId, read_only: bool, snapshot: Option<SnapshotPin>) -> Txn {
        Txn {
            id,
            undo: Vec::new(),
            write_mode: BTreeMap::new(),
            atom_images: HashSet::new(),
            touched: BTreeSet::new(),
            read_only,
            snapshot,
            obj_updates: BTreeMap::new(),
            obj_deletes: BTreeMap::new(),
        }
    }
}

// ====================================================================
// Session
// ====================================================================

/// One client of a [`SharedDatabase`]: runs statements and checks out
/// objects inside strict-2PL transactions.
///
/// A transaction starts implicitly at the first operation (or explicit
/// [`Session::begin`]) and ends with [`Session::commit`] or
/// [`Session::rollback`]. Dropping a session with an open transaction
/// rolls it back.
pub struct Session {
    shared: Arc<Shared>,
    txn: Option<Txn>,
    /// Lock-manager acquisitions issued by the current (or most
    /// recently begun) transaction — every mode, including reentrant
    /// re-grants. The observable a read-only session asserts stays at
    /// zero; reset at each `begin`.
    lock_acquisitions: u64,
}

impl Session {
    // ---------------- transaction boundaries ----------------

    /// Explicitly start a transaction. Errors if one is already open.
    pub fn begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(TxnError::State("transaction already open".into()));
        }
        self.ensure_txn();
        Ok(())
    }

    /// Start a **read-only snapshot transaction**: pins the current
    /// commit epoch and serves every read of the transaction from the
    /// immutable versions published at or before it — repeatable reads
    /// with zero lock acquisitions. Writes return
    /// [`TxnError::ReadOnly`]. Ends through the usual
    /// [`Session::commit`] / [`Session::rollback`] (equivalent for a
    /// reader: both release the pin).
    pub fn begin_read_only(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(TxnError::State("transaction already open".into()));
        }
        let id = self.shared.next_txn.fetch_add(1, Ordering::Relaxed);
        let pin = SnapshotPin {
            epoch: self.shared.snapshots.pin(),
            pinned_at: Instant::now(),
        };
        self.txn = Some(Txn::new(id, true, Some(pin)));
        self.lock_acquisitions = 0;
        Ok(())
    }

    /// The open transaction's id, if any (tests, diagnostics).
    pub fn txn_id(&self) -> Option<TxnId> {
        self.txn.as_ref().map(|t| t.id)
    }

    /// The pinned commit epoch, when a read-only snapshot transaction
    /// is open.
    pub fn snapshot_epoch(&self) -> Option<u64> {
        self.ro_epoch()
    }

    /// True while a read-only snapshot transaction is open.
    pub fn is_read_only(&self) -> bool {
        self.txn.as_ref().is_some_and(|t| t.read_only)
    }

    /// Lock-manager acquisitions issued by the current (or most
    /// recently begun) transaction — a read-only snapshot transaction
    /// keeps this at zero.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions
    }

    fn ensure_txn(&mut self) -> TxnId {
        if self.txn.is_none() {
            let id = self.shared.next_txn.fetch_add(1, Ordering::Relaxed);
            self.txn = Some(Txn::new(id, false, None));
            self.lock_acquisitions = 0;
        }
        self.txn.as_ref().expect("just ensured").id
    }

    /// The pinned epoch when the open transaction is read-only.
    fn ro_epoch(&self) -> Option<u64> {
        self.txn
            .as_ref()
            .filter(|t| t.read_only)
            .and_then(|t| t.snapshot.as_ref())
            .map(|p| p.epoch)
    }

    /// Counted lock acquisition — every lock the session ever takes
    /// goes through here.
    fn acquire(&mut self, id: TxnId, key: &LockKey, mode: LockMode) -> Result<()> {
        self.lock_acquisitions += 1;
        self.shared.locks.acquire(id, key, mode)
    }

    /// End a read-only transaction: release the epoch pin (running GC
    /// if it was the oldest) and record how long the snapshot lived.
    fn finish_read_only(&mut self, txn: Txn) -> Result<()> {
        if let Some(pin) = txn.snapshot {
            self.shared.snapshots.unpin(pin.epoch);
            self.shared
                .stats
                .record_snapshot_age(pin.pinned_at.elapsed().as_nanos() as u64);
        }
        debug_assert_eq!(
            self.shared.locks.held_count(txn.id),
            0,
            "read-only transaction held locks"
        );
        Ok(())
    }

    /// Commit: append WAL before-images for every touched table's dirty
    /// pages, group-commit the log sync, release all locks. (Pages
    /// reach disk later through the WAL-safe eviction and checkpoint
    /// paths — the log always hits stable storage first.)
    pub fn commit(&mut self) -> Result<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| TxnError::State("commit without open transaction".into()))?;
        if txn.read_only {
            return self.finish_read_only(txn);
        }
        let _t = self.shared.stats.time_commit();
        let mut max_seq = None;
        let mut wal: Option<SharedWal> = None;
        let flush_res: aim2::Result<()> = (|| {
            let mut db = self.shared.db.lock().expect("database mutex poisoned");
            for table in &txn.touched {
                if let Some(seq) = db.log_table_dirty(table)? {
                    max_seq = Some(max_seq.map_or(seq, |m: u64| seq.max(m)));
                }
            }
            wal = db.shared_wal();
            Ok(())
        })();
        // The WAL fsync happens *outside* the database mutex: commits
        // serialize their page writes but share the disk sync.
        let sync_res = match (&wal, max_seq) {
            (Some(wal), Some(seq)) => self
                .shared
                .gc
                .sync_through(wal, seq)
                .map_err(|e| TxnError::Db(aim2::DbError::Storage(e))),
            _ => Ok(()),
        };
        // Publish this commit's epoch versions before the locks release
        // and behind a fresh database-mutex hold, so the [build, publish]
        // pair stays atomic against every other committer (an object-mode
        // patch must see the base its rivals just published). This step
        // runs *after* the WAL batch on purpose: building the versions
        // re-reads the table, and in a tiny buffer pool those reads evict
        // the commit's own dirty pages — whose WAL-safe eviction would
        // otherwise fsync the log early and steal the group commit.
        // Snapshot visibility tracks the in-place heap (which 2PL readers
        // see the instant the locks drop), so a failed sync must not skip
        // the publish.
        let publish_res: aim2::Result<()> = if flush_res.is_ok() {
            (|| {
                let mut db = self.shared.db.lock().expect("database mutex poisoned");
                let updates = build_commit_updates(&mut db, &txn, &self.shared.snapshots)?;
                if !updates.is_empty() {
                    self.shared.snapshots.publish(updates);
                }
                Ok(())
            })()
        } else {
            Ok(())
        };
        self.shared.locks.release_all(txn.id);
        flush_res.map_err(TxnError::Db)?;
        publish_res.map_err(TxnError::Db)?;
        sync_res
    }

    /// Roll back: apply the undo log in reverse, release all locks.
    /// DDL executed inside the transaction is *not* undone.
    ///
    /// Rollback leaves the *logical* state exactly as committed, but
    /// undo can move physical keys (restoring a table or reinserting a
    /// deleted object assigns fresh TIDs). The snapshot store keys
    /// future object-granularity patches by those TIDs, so affected
    /// tables republish a content-identical *refresh* version here —
    /// safe because this transaction still holds its X locks (a
    /// statement-undo table is X-locked whole; a reinserted object's
    /// table could host other writers, so only its keys are renamed).
    pub fn rollback(&mut self) -> Result<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| TxnError::State("rollback without open transaction".into()))?;
        if txn.read_only {
            return self.finish_read_only(txn);
        }
        let res: aim2::Result<()> = (|| {
            let mut db = self.shared.db.lock().expect("database mutex poisoned");
            let mut renames: BTreeMap<String, BTreeMap<u64, u64>> = BTreeMap::new();
            for undo in txn.undo.iter().rev() {
                match undo {
                    Undo::TableSnapshot { table, tuples } => {
                        db.restore_table(table, tuples.clone())?;
                    }
                    Undo::Atoms {
                        table,
                        handle,
                        loc,
                        atoms,
                    } => {
                        db.update_object_atoms(table, *handle, loc, atoms)?;
                    }
                    Undo::Reinsert {
                        table,
                        handle,
                        tuple,
                    } => {
                        let key = db.insert_tuple(table, tuple.clone())?;
                        if let Some(new) = key.handle() {
                            renames
                                .entry(table.clone())
                                .or_default()
                                .insert(handle.0.to_u64(), new.0.to_u64());
                        }
                    }
                }
            }
            let mut updates: Vec<(String, Published)> = Vec::new();
            for table in &txn.touched {
                if db.schema(table).is_err() {
                    // DDL is not undone: a table dropped in this
                    // transaction stays dropped.
                    updates.push((table.clone(), None));
                    continue;
                }
                match txn.write_mode.get(table) {
                    Some(WriteMode::Object) => {
                        if let Some(map) = renames.get(table) {
                            if let Some(base) = self.shared.snapshots.latest(table) {
                                updates.push((table.clone(), Some(Arc::new(base.rekeyed(map)))));
                            }
                        }
                        // In-place atom undos kept every key stable:
                        // the published version is already correct.
                    }
                    // Statement undo reinserted the whole table under
                    // fresh keys (and DDL effects persist): republish
                    // under the X lock this transaction still holds.
                    _ => updates.push((
                        table.clone(),
                        Some(Arc::new(TableVersion::new(
                            db.schema(table)?,
                            db.snapshot_table_keyed(table)?,
                        ))),
                    )),
                }
            }
            if !updates.is_empty() {
                self.shared.snapshots.publish(updates);
            }
            Ok(())
        })();
        self.shared.locks.release_all(txn.id);
        res.map_err(TxnError::Db)
    }

    // ---------------- statement interface (table granularity) --------

    /// Execute one statement inside the transaction. Read tables are
    /// locked S, written tables X (in sorted order, so identical
    /// statement mixes cannot deadlock against each other); the first
    /// statement write to a table snapshots it for undo. Tables read
    /// *only* through a historical `ASOF` binding are not locked at
    /// all — past version states are immutable, so those reads route
    /// around 2PL like snapshot reads do. In a read-only snapshot
    /// transaction the whole statement evaluates against the pinned
    /// epoch instead (writes error).
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult> {
        let stmt = aim2_lang::parse_stmt(sql).map_err(|e| TxnError::Db(aim2::DbError::Parse(e)))?;
        if self.is_read_only() {
            return self.execute_read_only(&stmt);
        }
        let (mut reads, writes, asof_reads) = stmt_tables(&stmt);
        if !asof_reads.is_empty() {
            // An ASOF date strictly before the logical clock names an
            // immutable state: no lock. Same-or-future dates (and
            // unparseable ones, left for the evaluator to reject) read
            // live data and keep the S lock.
            let today = self.with_db(|db| Ok(db.today()))?;
            for (table, date) in &asof_reads {
                let historical = Date::parse_iso(date).map(|d| d < today).unwrap_or(false);
                if !historical {
                    reads.insert(table.clone());
                }
            }
        }
        let id = self.ensure_txn();

        for table in reads.union(&writes).cloned().collect::<Vec<_>>() {
            let mode = if writes.contains(&table) {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            self.acquire(id, &LockKey::table(&table), mode)?;
        }

        let is_ddl = matches!(
            stmt,
            Stmt::CreateTable(_) | Stmt::CreateIndex(_) | Stmt::DropTable(_)
        );
        let mut db = self.shared.db.lock().expect("database mutex poisoned");
        let txn = self.txn.as_mut().expect("txn ensured above");
        for table in &writes {
            if is_ddl {
                // DDL is executed in place and not undone by rollback.
                txn.touched.insert(table.clone());
                continue;
            }
            match txn.write_mode.get(table) {
                Some(WriteMode::Object) => {
                    return Err(TxnError::State(format!(
                        "table {table} already written through the object API \
                         in this transaction; statement writes cannot be mixed in"
                    )));
                }
                Some(WriteMode::Statement) => {}
                None => {
                    let tuples = db.snapshot_table(table).map_err(TxnError::Db)?;
                    txn.undo.push(Undo::TableSnapshot {
                        table: table.clone(),
                        tuples,
                    });
                    txn.write_mode.insert(table.clone(), WriteMode::Statement);
                }
            }
            txn.touched.insert(table.clone());
        }
        db.execute_stmt(&stmt).map_err(TxnError::Db)
    }

    /// Run a query (S table locks; zero locks in a read-only snapshot
    /// transaction) and materialize the result.
    pub fn query(&mut self, sql: &str) -> Result<(TableSchema, TableValue)> {
        match self.execute(sql)?.into_table() {
            Ok(t) => Ok(t),
            Err(e) => Err(TxnError::Db(e)),
        }
    }

    /// Evaluate `sql`, streaming query rows into `sink` as they are
    /// produced instead of materializing a result table — the network
    /// server's row path. Returns `Ok(None)` when the statement was a
    /// query (the result went to the sink); any other statement runs
    /// exactly like [`Session::execute`] and returns `Ok(Some(result))`.
    ///
    /// Locking matches [`Session::execute`]: in a read-only snapshot
    /// transaction every scan resolves lock-free against the pinned
    /// epoch; otherwise the statement's whole S lock set is acquired up
    /// front in sorted order (so streaming cannot introduce lock orders
    /// plain execution wouldn't), and per-row pulls re-take the database
    /// mutex briefly rather than holding it across the stream — a
    /// suspended consumer parks the session holding table locks, never
    /// the engine mutex.
    pub fn query_streamed(
        &mut self,
        sql: &str,
        sink: &mut dyn aim2_exec::RowSink,
    ) -> Result<Option<ExecResult>> {
        self.query_streamed_deadline(sql, sink, None)
    }

    /// [`Session::query_streamed`] with a per-statement wall-clock
    /// budget. The deadline is checked at the evaluator's cursor-pull
    /// choke point, so it also covers time a streamed result spends
    /// suspended waiting for the consumer; expiry surfaces as a
    /// retryable `DeadlineExceeded` and the statement unwinds through
    /// the normal rollback path.
    pub fn query_streamed_deadline(
        &mut self,
        sql: &str,
        sink: &mut dyn aim2_exec::RowSink,
        deadline: Option<aim2_exec::Deadline>,
    ) -> Result<Option<ExecResult>> {
        let stmt = aim2_lang::parse_stmt(sql).map_err(|e| TxnError::Db(aim2::DbError::Parse(e)))?;
        if !matches!(stmt, Stmt::Query(_)) {
            return self.execute(sql).map(Some);
        }
        if !self.is_read_only() {
            let (mut reads, _writes, asof_reads) = stmt_tables(&stmt);
            if !asof_reads.is_empty() {
                // Same ASOF routing as `execute`: strictly-historical
                // dates read immutable states and skip the S lock.
                let today = self.with_db(|db| Ok(db.today()))?;
                for (table, date) in &asof_reads {
                    let historical = Date::parse_iso(date).map(|d| d < today).unwrap_or(false);
                    if !historical {
                        reads.insert(table.clone());
                    }
                }
            }
            let id = self.ensure_txn();
            for table in reads {
                self.acquire(id, &LockKey::table(&table), LockMode::Shared)?;
            }
        }
        let Stmt::Query(q) = &stmt else {
            unreachable!()
        };
        let _t = self.shared.stats.time_query();
        let mut ev = Evaluator::new(self);
        ev.set_deadline(deadline);
        ev.eval_query_streamed(q, sink)
            .map_err(|e| TxnError::Db(aim2::DbError::from(e)))?;
        Ok(None)
    }

    /// Evaluate a statement against the pinned snapshot: queries run
    /// the full cursor pipeline with this session as the provider (so
    /// every scan resolves at the pinned epoch, lock-free); anything
    /// that writes is rejected.
    fn execute_read_only(&mut self, stmt: &Stmt) -> Result<ExecResult> {
        match stmt {
            Stmt::Query(q) => {
                let _t = self.shared.stats.time_query();
                let (schema, value) = Evaluator::new(self)
                    .eval_query(q)
                    .map_err(|e| TxnError::Db(aim2::DbError::from(e)))?;
                Ok(ExecResult::Table(schema, value))
            }
            Stmt::Explain(q) => {
                let plan = Evaluator::new(self)
                    .plan_query(q)
                    .map_err(|e| TxnError::Db(aim2::DbError::from(e)))?;
                Ok(ExecResult::Ok(plan.to_string().trim_end().to_string()))
            }
            _ => Err(TxnError::ReadOnly(
                "statement writes are not allowed in a read-only snapshot transaction".into(),
            )),
        }
    }

    // ---------------- check-out interface (object granularity) -------

    /// All object handles of an NF² table (IS lock: intent to read
    /// individual objects below; lock-free against the pinned epoch in
    /// a read-only snapshot transaction).
    pub fn handles(&mut self, table: &str) -> Result<Vec<ObjectHandle>> {
        if let Some(epoch) = self.ro_epoch() {
            let v = self.resolve_snapshot(table, epoch)?;
            if v.schema.is_flat() {
                return Err(TxnError::Db(aim2::DbError::Catalog(format!(
                    "table {table} is flat (no object handles)"
                ))));
            }
            self.shared.stats.inc_snapshot_read();
            return Ok(v
                .rows
                .iter()
                .map(|(k, _)| ObjectHandle(Tid::from_u64(*k)))
                .collect());
        }
        let id = self.ensure_txn();
        self.acquire(id, &LockKey::table(table), LockMode::IntentShared)?;
        self.with_db(|db| db.handles(table))
    }

    /// Check an object out for reading: IS on the table, S on the
    /// object, and the materialized tuple comes back. In a read-only
    /// snapshot transaction the object is served from the pinned epoch
    /// version — no locks, no heap access.
    pub fn read_object(&mut self, table: &str, handle: ObjectHandle) -> Result<Tuple> {
        if let Some(epoch) = self.ro_epoch() {
            let v = self.resolve_snapshot(table, epoch)?;
            let key = handle.0.to_u64();
            let tuple = v
                .rows
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, t)| Tuple::clone(t))
                .ok_or_else(|| {
                    TxnError::Db(aim2::DbError::Catalog(format!(
                        "no such object in snapshot of {table}"
                    )))
                })?;
            self.shared.stats.inc_snapshot_read();
            return Ok(tuple);
        }
        let id = self.ensure_txn();
        self.acquire(id, &LockKey::table(table), LockMode::IntentShared)?;
        self.acquire(id, &LockKey::object(table, handle), LockMode::Shared)?;
        self.with_db(|db| db.read_object(table, handle))
    }

    /// Check an object out for writing: IX on the table, X on the
    /// object. Returns the current tuple — the caller's local copy, as
    /// in the paper's application-process workspaces.
    pub fn checkout(&mut self, table: &str, handle: ObjectHandle) -> Result<Tuple> {
        self.reject_read_only("checkout")?;
        let id = self.ensure_txn();
        self.lock_object_x(id, table, handle)?;
        self.with_db(|db| db.read_object(table, handle))
    }

    /// Overwrite the atoms at `loc` of a checked-out object (takes the
    /// IX+X locks itself if [`Session::checkout`] was skipped). The
    /// first write to each subtuple records its before-image; an abort
    /// restores it in place, so the handle survives rollback.
    pub fn update_atoms(
        &mut self,
        table: &str,
        handle: ObjectHandle,
        loc: &ElemLoc,
        atoms: &[Atom],
    ) -> Result<()> {
        self.reject_read_only("update_atoms")?;
        let id = self.ensure_txn();
        self.lock_object_x(id, table, handle)?;
        self.note_object_write(table)?;
        let mut db = self.shared.db.lock().expect("database mutex poisoned");
        let txn = self.txn.as_mut().expect("txn ensured above");
        txn.obj_updates
            .entry(table.to_string())
            .or_default()
            .insert(handle.0.to_u64());
        let image_key = (table.to_string(), handle, loc.steps.clone());
        if !txn.atom_images.contains(&image_key) {
            let before = db
                .read_object_atoms(table, handle, loc)
                .map_err(TxnError::Db)?;
            txn.undo.push(Undo::Atoms {
                table: table.to_string(),
                handle,
                loc: loc.clone(),
                atoms: before,
            });
            txn.atom_images.insert(image_key);
        }
        db.update_object_atoms(table, handle, loc, atoms)
            .map_err(TxnError::Db)?;
        txn.touched.insert(table.to_string());
        Ok(())
    }

    /// Delete a checked-out object. Rollback reinserts it under a new
    /// handle (root TIDs are never recycled).
    pub fn delete_object(&mut self, table: &str, handle: ObjectHandle) -> Result<()> {
        self.reject_read_only("delete_object")?;
        let id = self.ensure_txn();
        self.lock_object_x(id, table, handle)?;
        self.note_object_write(table)?;
        let mut db = self.shared.db.lock().expect("database mutex poisoned");
        let txn = self.txn.as_mut().expect("txn ensured above");
        let tuple = db.read_object(table, handle).map_err(TxnError::Db)?;
        db.delete_object(table, handle).map_err(TxnError::Db)?;
        txn.undo.push(Undo::Reinsert {
            table: table.to_string(),
            handle,
            tuple,
        });
        let key = handle.0.to_u64();
        txn.obj_deletes
            .entry(table.to_string())
            .or_default()
            .insert(key);
        if let Some(ups) = txn.obj_updates.get_mut(table) {
            ups.remove(&key);
        }
        txn.touched.insert(table.to_string());
        Ok(())
    }

    // ---------------- internals ----------------

    fn lock_object_x(&mut self, id: TxnId, table: &str, handle: ObjectHandle) -> Result<()> {
        self.acquire(id, &LockKey::table(table), LockMode::IntentExclusive)?;
        self.acquire(id, &LockKey::object(table, handle), LockMode::Exclusive)
    }

    fn reject_read_only(&self, op: &str) -> Result<()> {
        if self.is_read_only() {
            return Err(TxnError::ReadOnly(format!(
                "{op} is not allowed in a read-only snapshot transaction"
            )));
        }
        Ok(())
    }

    /// The pinned-epoch version of `table` for a read-only read.
    fn resolve_snapshot(&self, table: &str, epoch: u64) -> Result<Arc<TableVersion>> {
        self.shared
            .snapshots
            .resolve(table, epoch)
            .ok_or_else(|| TxnError::Db(aim2::DbError::Catalog(format!("no such table: {table}"))))
    }

    fn note_object_write(&mut self, table: &str) -> Result<()> {
        let txn = self.txn.as_mut().expect("caller ensured txn");
        match txn.write_mode.get(table) {
            Some(WriteMode::Statement) => Err(TxnError::State(format!(
                "table {table} already written through statements in this \
                 transaction; object writes cannot be mixed in"
            ))),
            Some(WriteMode::Object) => Ok(()),
            None => {
                txn.write_mode.insert(table.to_string(), WriteMode::Object);
                Ok(())
            }
        }
    }

    /// The database under `table`'s S lock, for one current-epoch read.
    /// The lock is reentrant within the transaction, and the mutex is
    /// held only for the read itself — rows stream without holding it
    /// across the evaluator's per-row work.
    fn locked_db(&mut self, table: &str) -> aim2_exec::Result<MutexGuard<'_, Database>> {
        let id = self.ensure_txn();
        self.acquire(id, &LockKey::table(table), LockMode::Shared)
            .map_err(exec_err)?;
        Ok(self.shared.db.lock().expect("database mutex poisoned"))
    }

    fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> aim2::Result<R>) -> Result<R> {
        let mut db = self.shared.db.lock().expect("database mutex poisoned");
        f(&mut db).map_err(TxnError::Db)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.txn.is_some() && !std::thread::panicking() {
            let _ = self.rollback();
        }
    }
}

/// Queries evaluate against a session like against a raw database: the
/// provider takes S table locks on the way through, so
/// [`aim2_exec::Evaluator`] plans run with full transactional
/// isolation. Three read classes route *around* the lock manager:
/// read-only snapshot transactions resolve every call against their
/// pinned epoch version (zero locks, and pulls never touch the database
/// mutex either — the cursor holds the version's rows), and historical
/// `ASOF` scans — in any transaction — read immutable version-chain
/// states.
impl TableProvider for Session {
    fn table_schema(&mut self, name: &str) -> aim2_exec::Result<TableSchema> {
        if let Some(epoch) = self.ro_epoch() {
            return match self.shared.snapshots.resolve(name, epoch) {
                Some(v) => Ok(v.schema.clone()),
                None => Err(aim2_exec::ExecError::NoSuchTable(name.to_string())),
            };
        }
        TableProvider::table_schema(&mut *self.locked_db(name)?, name)
    }

    fn open_scan(&mut self, req: &ScanRequest) -> aim2_exec::Result<ObjectCursor> {
        if let Some(epoch) = self.ro_epoch() {
            if req.asof.is_some() {
                // Historical reconstruction comes from the immutable
                // version chains; still zero lock acquisitions.
                let mut db = self.shared.db.lock().expect("database mutex poisoned");
                return TableProvider::open_scan(&mut *db, req);
            }
            let Some(v) = self.shared.snapshots.resolve(&req.table, epoch) else {
                return Err(aim2_exec::ExecError::NoSuchTable(req.table.clone()));
            };
            self.shared.stats.inc_snapshot_read();
            let path = format!("snapshot scan @ epoch {epoch}");
            return Ok(ObjectCursor::new(
                req,
                &path,
                ScanSource::Rows(v.rows.clone()),
            ));
        }
        if let Some(d) = req.asof {
            // ASOF inside a 2PL transaction: a strictly-past date names
            // an immutable state — route through the version machinery
            // without the S lock current-epoch reads take.
            let mut db = self.shared.db.lock().expect("database mutex poisoned");
            if d < db.today() {
                return TableProvider::open_scan(&mut *db, req);
            }
        }
        TableProvider::open_scan(&mut *self.locked_db(&req.table)?, req)
    }

    fn next_batch(
        &mut self,
        cur: &mut ObjectCursor,
        max_rows: usize,
    ) -> aim2_exec::Result<Option<Vec<Tuple>>> {
        // Only a keyed read re-enters storage: snapshot and ASOF cursors
        // hold their rows, so their pulls take no lock and no database
        // mutex — which is what lets snapshot readers scale past the
        // single writer pipeline.
        cur.pull(max_rows, |req, keys| {
            Ok(self.locked_db(&req.table)?.read_keys(req, keys)?)
        })
    }

    fn close_scan(&mut self, cur: ObjectCursor) {
        // Close-time accounting only needs the shared stats block, so
        // no cursor class pays for the database mutex here.
        if cur.pulled() > 0 && !cur.exhausted() {
            self.shared.stats.inc_cursor_early_exit();
        }
        self.shared.stats.record_cursor_lifetime(cur.age_ns());
    }

    fn decode_counters(&mut self) -> (u64, u64) {
        (
            self.shared.stats.objects_decoded(),
            self.shared.stats.atoms_decoded(),
        )
    }

    fn colstore_counters(&mut self) -> (u64, u64, u64) {
        (
            self.shared.stats.colstore_blocks_pruned(),
            self.shared.stats.colstore_blocks_decoded(),
            self.shared.stats.colstore_values_scanned(),
        )
    }

    fn note_values_scanned(&mut self, n: u64) {
        self.shared.stats.add_colstore_values_scanned(n);
    }
}

fn exec_err(e: TxnError) -> aim2_exec::ExecError {
    aim2_exec::ExecError::Semantic(e.to_string())
}

// ====================================================================
// Commit-time MVCC publishing
// ====================================================================

/// The epoch versions one committing transaction publishes, built under
/// the database mutex (serialized against every other committer).
///
/// * Tables written through **statements** (or DDL'd, or created this
///   transaction) are re-snapshotted whole: the transaction holds their
///   X table lock, so the heap state is exactly its committed writes.
/// * Tables written through the **object API** only patch this
///   transaction's own written/deleted objects into the previous
///   version — a concurrent object writer may hold uncommitted
///   in-place changes on *other* objects of the same table, which a
///   whole-table snapshot would leak to snapshot readers.
/// * Tables dropped by this transaction publish a tombstone.
fn build_commit_updates(
    db: &mut Database,
    txn: &Txn,
    snaps: &SnapshotManager,
) -> aim2::Result<Vec<(String, Published)>> {
    let mut updates = Vec::new();
    for table in &txn.touched {
        let Ok(schema) = db.schema(table) else {
            updates.push((table.clone(), None));
            continue;
        };
        let published = match (txn.write_mode.get(table), snaps.latest(table)) {
            (Some(WriteMode::Object), Some(base)) => {
                let mut ups: BTreeMap<u64, Tuple> = BTreeMap::new();
                if let Some(keys) = txn.obj_updates.get(table) {
                    for &k in keys {
                        ups.insert(k, db.read_object(table, ObjectHandle(Tid::from_u64(k)))?);
                    }
                }
                let dels = txn.obj_deletes.get(table).cloned().unwrap_or_default();
                Some(Arc::new(base.patched(&ups, &dels)))
            }
            // No published base means the table is brand new in this
            // transaction — its creator holds the X table lock, so the
            // whole-table snapshot below is clean too.
            _ => Some(Arc::new(TableVersion::new(
                schema,
                db.snapshot_table_keyed(table)?,
            ))),
        };
        updates.push((table.clone(), published));
    }
    Ok(updates)
}

// ====================================================================
// Statement lock analysis
// ====================================================================

/// Stored tables a statement reads and writes (table granularity — the
/// conservative statement-level lock set), plus `(table, date)` pairs
/// for tables read *only* through `ASOF` bindings: those name immutable
/// historical states when the date is strictly past, and
/// [`Session::execute`] routes them around 2PL entirely.
fn stmt_tables(
    stmt: &Stmt,
) -> (
    BTreeSet<String>,
    BTreeSet<String>,
    BTreeSet<(String, String)>,
) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    let mut asof = BTreeSet::new();
    match stmt {
        Stmt::Query(q) | Stmt::Explain(q) => query_tables(q, &mut reads, &mut asof),
        Stmt::CreateTable(ct) => {
            writes.insert(ct.name.clone());
        }
        Stmt::CreateIndex(ci) => {
            writes.insert(ci.table.clone());
        }
        Stmt::DropTable(name) => {
            writes.insert(name.clone());
        }
        Stmt::Insert(ins) => {
            if let Source::Table(t) = &ins.target {
                writes.insert(t.clone());
            }
            // Partial inserts locate parents through bindings — those
            // parents are modified, so their tables lock X (ASOF is
            // meaningless on a write binding; DML rejects it below).
            write_bindings_tables(&ins.from, &mut writes);
            if let Some(e) = &ins.where_ {
                expr_tables(e, &mut reads, &mut asof);
            }
        }
        Stmt::Update(u) => {
            write_bindings_tables(&u.from, &mut writes);
            if let Some(e) = &u.where_ {
                expr_tables(e, &mut reads, &mut asof);
            }
        }
        Stmt::Delete(d) => {
            write_bindings_tables(&d.from, &mut writes);
            if let Some(e) = &d.where_ {
                expr_tables(e, &mut reads, &mut asof);
            }
        }
    }
    // A table both read and written locks X only.
    for w in &writes {
        reads.remove(w);
    }
    // A table also read or written at the current epoch keeps its lock;
    // only pure-ASOF tables are candidates for lock-free routing.
    asof.retain(|(t, _)| !reads.contains(t) && !writes.contains(t));
    (reads, writes, asof)
}

fn query_tables(q: &ast::Query, out: &mut BTreeSet<String>, asof: &mut BTreeSet<(String, String)>) {
    bindings_tables(&q.from, out, asof);
    if let Some(e) = &q.where_ {
        expr_tables(e, out, asof);
    }
    for item in &q.select {
        if let SelectItem::Named {
            value: NamedValue::Subquery(sq),
            ..
        } = item
        {
            query_tables(sq, out, asof);
        }
    }
}

fn bindings_tables(
    bindings: &[ast::Binding],
    out: &mut BTreeSet<String>,
    asof: &mut BTreeSet<(String, String)>,
) {
    for b in bindings {
        binding_table(b, out, asof);
    }
}

/// Write-position bindings: X-lock the table regardless of any ASOF
/// clause (DML rejects ASOF itself; the conservative lock is free).
fn write_bindings_tables(bindings: &[ast::Binding], out: &mut BTreeSet<String>) {
    for b in bindings {
        if let Source::Table(t) = &b.source {
            out.insert(t.clone());
        }
    }
}

fn binding_table(
    b: &ast::Binding,
    out: &mut BTreeSet<String>,
    asof: &mut BTreeSet<(String, String)>,
) {
    if let Source::Table(t) = &b.source {
        match &b.asof {
            Some(d) => {
                asof.insert((t.clone(), d.clone()));
            }
            None => {
                out.insert(t.clone());
            }
        }
    }
}

fn expr_tables(e: &ast::Expr, out: &mut BTreeSet<String>, asof: &mut BTreeSet<(String, String)>) {
    use ast::Expr::*;
    match e {
        PathRef { .. } | Subscript { .. } | Lit(_) => {}
        Cmp { lhs, rhs, .. } => {
            expr_tables(lhs, out, asof);
            expr_tables(rhs, out, asof);
        }
        And(a, b) | Or(a, b) => {
            expr_tables(a, out, asof);
            expr_tables(b, out, asof);
        }
        Not(a) => expr_tables(a, out, asof),
        Exists { binding, pred } => {
            binding_table(binding, out, asof);
            if let Some(p) = pred {
                expr_tables(p, out, asof);
            }
        }
        Forall { binding, pred } => {
            binding_table(binding, out, asof);
            expr_tables(pred, out, asof);
        }
        Contains { expr, .. } => expr_tables(expr, out, asof),
    }
}
