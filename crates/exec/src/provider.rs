//! Table access abstraction: the scan path's storage boundary.
//!
//! The evaluator pulls rows through a [`TableProvider`]; the database
//! facade implements it over object stores (with projection and
//! predicate pushdown), while [`MemProvider`] serves the executor's own
//! tests and the algebra benches.
//!
//! The contract is open/pull/close:
//!
//! * [`TableProvider::open_scan`] receives a [`ScanRequest`] carrying
//!   the *pushdown contract* — the needed-paths set (projection) and
//!   the indexable/CONTAINS/range conjuncts the provider may use to
//!   pre-restrict candidates — and returns an [`ObjectCursor`] over
//!   one of two sources: keys the provider must read, or rows the
//!   cursor already holds;
//! * [`TableProvider::next_batch`] is the one pull: up to `max_rows`
//!   row-major tuples per call. Quantifiers pull with `max_rows = 1`,
//!   so they stop decoding the moment they are decided;
//! * [`TableProvider::close_scan`] lets the provider account for early
//!   exits (a cursor closed before exhaustion never decoded the rest).

use crate::analysis::Referenced;
use crate::error::ExecError;
use crate::Result;
use aim2_model::{Date, TableSchema, TableValue, Tuple};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One immutable, shareable row set: `(row key, row)` pairs in scan
/// order. MVCC snapshot providers hand the same `Arc` to every cursor
/// opened over one epoch version, so a scan borrows the committed state
/// without copying it and without holding any storage-side latch.
pub type SharedRows = Arc<Vec<(u64, Arc<Tuple>)>>;

/// What the evaluator asks of a scan: the table, the version date, and
/// the pushdown contract.
#[derive(Debug, Clone, Default)]
pub struct ScanRequest {
    pub table: String,
    pub asof: Option<Date>,
    /// Needed-paths set (projection pushdown): when present, subtable
    /// attributes whose path the set rejects may come back empty — the
    /// evaluator only omits paths it will never touch, realizing the
    /// paper's partial retrieval.
    pub projection: Option<Referenced>,
    /// Indexable equality conjuncts (`path = atom`) of the query's
    /// WHERE, rooted at this binding. A provider with a matching index
    /// may restrict the cursor to candidate objects (a superset of the
    /// qualifying ones — the evaluator re-checks the full predicate).
    pub conjuncts: Vec<(aim2_model::Path, aim2_model::Atom)>,
    /// Top-level `attr CONTAINS 'mask'` conjuncts, for text indexes.
    pub contains: Vec<(aim2_model::Path, String)>,
    /// Top-level range conjuncts (`path < atom`, `path >= atom`, …) of
    /// the query's WHERE, rooted at this binding. Providers with zone
    /// maps may skip blocks whose min/max cannot intersect the range
    /// (a superset restriction — the evaluator re-checks).
    pub ranges: Vec<(aim2_model::Path, RangePred)>,
}

/// One conjunctive range over a single attribute: optional lower and
/// upper bounds, each with an inclusivity flag.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RangePred {
    pub lo: Option<(aim2_model::Atom, bool)>,
    pub hi: Option<(aim2_model::Atom, bool)>,
}

impl ScanRequest {
    /// A full scan with nothing pushed down.
    pub fn full(table: &str, asof: Option<Date>) -> ScanRequest {
        ScanRequest {
            table: table.to_string(),
            asof,
            ..ScanRequest::default()
        }
    }
}

/// Rows per pull of a draining scan (matches the cold store's block
/// size, so a whole cold block arrives in one pull).
pub const BATCH_ROWS: usize = 1024;

/// Where a cursor's rows come from.
#[derive(Debug)]
pub enum ScanSource {
    /// Opaque row keys the provider must read (object handles / TIDs /
    /// cold-row keys packed into `u64`s, or plain indices).
    Keys(Vec<u64>),
    /// Rows the cursor already holds — an ASOF state or an MVCC epoch
    /// version. Pulls clone tuples out and never re-enter the
    /// provider's storage, so concurrent snapshot readers share one
    /// version without synchronizing.
    Rows(SharedRows),
}

/// A scan in progress: passive state handed back to the provider on
/// every [`TableProvider::next_batch`] call. Holding the cursor does
/// not borrow the provider, so the evaluator can interleave pulls from
/// several cursors and run predicates between them.
#[derive(Debug)]
pub struct ObjectCursor {
    /// The request the scan was opened with; providers that read per
    /// pull re-apply its projection and equality conjuncts.
    pub req: ScanRequest,
    /// Human-readable access path ("full scan", "index f on …").
    pub access_path: String,
    /// The plan node this cursor feeds (EXPLAIN ANALYZE attribution);
    /// set by the evaluator after opening.
    pub plan_node: Option<usize>,
    source: ScanSource,
    pos: usize,
    opened: Instant,
}

impl ObjectCursor {
    /// A cursor at the start of `source`, opened for `req`.
    pub fn new(req: &ScanRequest, access_path: &str, source: ScanSource) -> ObjectCursor {
        ObjectCursor {
            req: req.clone(),
            access_path: access_path.to_string(),
            plan_node: None,
            source,
            pos: 0,
            opened: Instant::now(),
        }
    }

    /// Total rows/keys the cursor was opened over.
    pub fn len(&self) -> usize {
        match &self.source {
            ScanSource::Keys(v) => v.len(),
            ScanSource::Rows(v) => v.len(),
        }
    }

    /// True when the cursor was opened over nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows/keys consumed so far.
    pub fn pulled(&self) -> usize {
        self.pos
    }

    /// True once every row has been pulled.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.len()
    }

    /// Advance by up to `max_rows` (at least one) and return that
    /// run's rows; `None` once exhausted. Held rows are served by the
    /// cursor itself; a run of keys goes to `read` together with the
    /// scan's request. `read` may return fewer rows than keys — a
    /// provider can rule rows out without materializing them — so an
    /// empty batch is not end-of-scan.
    pub fn pull(
        &mut self,
        max_rows: usize,
        read: impl FnOnce(&ScanRequest, &[u64]) -> Result<Vec<Tuple>>,
    ) -> Result<Option<Vec<Tuple>>> {
        let run = self.pos..self.len().min(self.pos + max_rows.max(1));
        if run.is_empty() {
            return Ok(None);
        }
        self.pos = run.end;
        match &self.source {
            ScanSource::Keys(keys) => read(&self.req, &keys[run]).map(Some),
            ScanSource::Rows(rows) => Ok(Some(
                rows[run].iter().map(|(_, t)| Tuple::clone(t)).collect(),
            )),
        }
    }

    /// Nanoseconds since the cursor was opened (cursor lifetime at
    /// close time).
    pub fn age_ns(&self) -> u64 {
        self.opened.elapsed().as_nanos() as u64
    }
}

/// What the evaluator needs from the storage layer.
pub trait TableProvider {
    /// Schema of a stored table.
    fn table_schema(&mut self, name: &str) -> Result<TableSchema>;

    /// Open a cursor over a stored table, honoring as much of the
    /// request's pushdown contract as the backing storage supports.
    fn open_scan(&mut self, req: &ScanRequest) -> Result<ObjectCursor>;

    /// Pull the next batch of up to `max_rows` row-major tuples;
    /// `None` when exhausted. A batch may hold fewer rows than asked
    /// for — even none, when the provider ruled a whole run out — so
    /// only `None` ends the scan. Implementations delegate to
    /// [`ObjectCursor::pull`] and supply the keyed read.
    fn next_batch(&mut self, cur: &mut ObjectCursor, max_rows: usize)
        -> Result<Option<Vec<Tuple>>>;

    /// Close a cursor. Providers with stats count an early exit when
    /// rows were pulled but the cursor is not exhausted.
    fn close_scan(&mut self, cur: ObjectCursor) {
        let _ = cur;
    }

    /// Current `(objects_decoded, atoms_decoded)` totals, for EXPLAIN
    /// ANALYZE per-operator deltas. Providers without decode accounting
    /// report zeros (the analyzed plan then shows no decode columns
    /// moving, which is accurate: nothing was decoded from storage).
    fn decode_counters(&mut self) -> (u64, u64) {
        (0, 0)
    }

    /// Current `(blocks_pruned, blocks_decoded, values_scanned)`
    /// cold-store totals, for ColumnarScan attribution. Providers
    /// without a cold tier report zeros.
    fn colstore_counters(&mut self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Credit `n` values tested by a vectorized filter to the
    /// provider's stats (no-op for stats-less providers).
    fn note_values_scanned(&mut self, n: u64) {
        let _ = n;
    }

    /// Drain a full scan into a `TableValue` — the materializing
    /// convenience used by DML helpers and tests.
    fn scan_all(&mut self, name: &str, asof: Option<Date>) -> Result<TableValue> {
        let kind = self.table_schema(name)?.kind;
        let mut cur = self.open_scan(&ScanRequest::full(name, asof))?;
        let mut tuples = Vec::with_capacity(cur.len());
        while let Some(rows) = self.next_batch(&mut cur, BATCH_ROWS)? {
            tuples.extend(rows);
        }
        self.close_scan(cur);
        Ok(TableValue { kind, tuples })
    }
}

/// In-memory provider backed by `TableValue`s. Pulls clone the tuples
/// of one run, never whole tables.
#[derive(Default)]
pub struct MemProvider {
    tables: HashMap<String, (TableSchema, TableValue)>,
    /// Historical snapshots per table, date-ascending.
    history: HashMap<String, Vec<(Date, TableValue)>>,
}

impl MemProvider {
    /// An empty provider (register tables with [`MemProvider::add`]).
    pub fn new() -> MemProvider {
        MemProvider::default()
    }

    /// Register a table.
    pub fn add(&mut self, schema: TableSchema, value: TableValue) -> &mut Self {
        self.tables.insert(schema.name.clone(), (schema, value));
        self
    }

    /// Register a historical snapshot (for ASOF tests).
    pub fn add_snapshot(&mut self, table: &str, at: Date, value: TableValue) -> &mut Self {
        let v = self.history.entry(table.to_string()).or_default();
        v.push((at, value));
        v.sort_by_key(|(d, _)| *d);
        self
    }

    /// Load all paper fixtures (Tables 1–8).
    pub fn with_paper_fixtures() -> MemProvider {
        use aim2_model::fixtures as fx;
        let mut p = MemProvider::new();
        p.add(fx::departments_schema(), fx::departments_value());
        p.add(fx::departments_1nf_schema(), fx::departments_1nf_value());
        p.add(fx::projects_1nf_schema(), fx::projects_1nf_value());
        p.add(fx::members_1nf_schema(), fx::members_1nf_value());
        p.add(fx::equip_1nf_schema(), fx::equip_1nf_value());
        p.add(fx::employees_1nf_schema(), fx::employees_1nf_value());
        p.add(fx::reports_schema(), fx::reports_value());
        p
    }

    /// The live rows (or the ASOF snapshot's rows) of `name`.
    fn rows(&self, name: &str, asof: Option<Date>) -> Result<&[Tuple]> {
        if let Some(t) = asof {
            let snaps = self
                .history
                .get(name)
                .ok_or_else(|| ExecError::Semantic(format!("table {name} is not versioned")))?;
            let idx = snaps.partition_point(|(d, _)| *d <= t);
            if idx == 0 {
                return Ok(&[]);
            }
            return Ok(&snaps[idx - 1].1.tuples);
        }
        self.tables
            .get(name)
            .map(|(_, v)| v.tuples.as_slice())
            .ok_or_else(|| ExecError::NoSuchTable(name.to_string()))
    }
}

impl TableProvider for MemProvider {
    fn table_schema(&mut self, name: &str) -> Result<TableSchema> {
        self.tables
            .get(name)
            .map(|(s, _)| s.clone())
            .ok_or_else(|| ExecError::NoSuchTable(name.to_string()))
    }

    fn open_scan(&mut self, req: &ScanRequest) -> Result<ObjectCursor> {
        let n = self.rows(&req.table, req.asof)?.len();
        let keys = (0..n as u64).collect();
        Ok(ObjectCursor::new(req, "full scan", ScanSource::Keys(keys)))
    }

    fn next_batch(
        &mut self,
        cur: &mut ObjectCursor,
        max_rows: usize,
    ) -> Result<Option<Vec<Tuple>>> {
        cur.pull(max_rows, |req, keys| {
            let rows = self.rows(&req.table, req.asof)?;
            Ok(keys
                .iter()
                .filter_map(|&i| rows.get(i as usize).cloned())
                .collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_load() {
        let mut p = MemProvider::with_paper_fixtures();
        assert_eq!(p.table_schema("DEPARTMENTS").unwrap().depth(), 3);
        assert_eq!(p.scan_all("REPORTS", None).unwrap().len(), 3);
        assert!(p.table_schema("NOPE").is_err());
    }

    #[test]
    fn asof_snapshots() {
        let mut p = MemProvider::with_paper_fixtures();
        let old = aim2_model::fixtures::departments_value();
        p.add_snapshot(
            "DEPARTMENTS",
            Date::parse_iso("1984-01-01").unwrap(),
            old.clone(),
        );
        let got = p
            .scan_all("DEPARTMENTS", Some(Date::parse_iso("1984-01-15").unwrap()))
            .unwrap();
        assert_eq!(got, old);
        let before = p
            .scan_all("DEPARTMENTS", Some(Date::parse_iso("1983-01-01").unwrap()))
            .unwrap();
        assert!(before.is_empty());
    }
}
