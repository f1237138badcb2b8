//! The [`Database`] facade.

use crate::catalog::{Catalog, IndexEntry, TableEntry, TableStorage, TextIndexEntry};
use crate::error::DbError;
use crate::slowlog::{SlowLog, SlowQueryRecord};
use crate::Result;
use aim2_exec::analysis::Referenced;
use aim2_exec::provider::{
    ObjectCursor, RangePred, ScanRequest, ScanSource, SharedRows, TableProvider,
};
use aim2_exec::{AnalyzedPlan, Evaluator};
use aim2_index::address::Scheme;
use aim2_index::NfIndex;
use aim2_lang::ast::{self, AttrDecl, Binding, Source, Stmt};
use aim2_lang::parser::parse_stmt;
use aim2_model::{
    Atom, AtomType, AttrKind, Date, Path, TableKind, TableSchema, TableValue, Tuple, Value,
};
use aim2_obs::MetricsSnapshot;
use aim2_storage::buffer::BufferPool;
use aim2_storage::colstore::{
    cold_key, split_cold_key, zone_may_contain, zone_may_intersect, BLOCK_ROWS,
};
use aim2_storage::disk::{Disk, FileDisk, MemDisk};
use aim2_storage::faultdisk::{FaultDisk, FaultInjector};
use aim2_storage::flatstore::FlatStore;
use aim2_storage::minidir::LayoutKind;
use aim2_storage::object::{ElemLoc, ObjectHandle, ObjectStore};
use aim2_storage::segment::Segment;
use aim2_storage::stats::Stats;
use aim2_storage::tid::Tid;
use aim2_storage::wal::{SharedWal, Wal, WAL_FILE};
use aim2_text::TextIndex;
use aim2_time::VersionedTable;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Database configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Page size in bytes (AIM-II era: small pages; default 4096).
    pub page_size: usize,
    /// Buffer pool frames per segment.
    pub buffer_frames: usize,
    /// Storage structure for new NF² tables without a `USING` clause —
    /// SS3, as AIM-II chose.
    pub default_layout: LayoutKind,
    /// When set, segments are files under this directory; else memory.
    pub data_dir: Option<PathBuf>,
    /// When set, every write (data pages, WAL appends, the catalog temp
    /// file) is routed through this deterministic fault injector — the
    /// crash-consistency harness's handle on the database.
    pub fault: Option<FaultInjector>,
    /// When set, queries running at least this long are recorded in the
    /// slow-query log ([`Database::slow_log`]) with their plan, stats
    /// delta, and span tree.
    pub slow_query_threshold: Option<Duration>,
    /// When true, every query mints a sampled trace context and records
    /// its completed span tree in the flight recorder
    /// (`stats().recorder()`); the shell's `.trace` renders it.
    pub trace_queries: bool,
    /// Capacity of the flight-recorder ring holding completed traces.
    pub flight_recorder_capacity: usize,
}

impl Default for DbConfig {
    fn default() -> DbConfig {
        DbConfig {
            page_size: 4096,
            buffer_frames: 256,
            default_layout: LayoutKind::Ss3,
            data_dir: None,
            fault: None,
            slow_query_threshold: None,
            trace_queries: false,
            flight_recorder_capacity: aim2_obs::DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// Result of [`Database::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// A query result.
    Table(TableSchema, TableValue),
    /// Rows/objects affected by DML.
    Count(usize),
    /// DDL acknowledgement.
    Ok(String),
}

impl ExecResult {
    /// The result table, if this was a query.
    pub fn into_table(self) -> Result<(TableSchema, TableValue)> {
        match self {
            ExecResult::Table(s, v) => Ok((s, v)),
            other => Err(DbError::Catalog(format!("not a query result: {other:?}"))),
        }
    }

    /// The affected-count, if this was DML.
    pub fn count(&self) -> Option<usize> {
        match self {
            ExecResult::Count(n) => Some(*n),
            _ => None,
        }
    }
}

/// The integrated DBMS.
pub struct Database {
    config: DbConfig,
    catalog: Catalog,
    stats: Stats,
    /// Logical clock for version recording (the prototype's transaction
    /// timestamps; tests and examples advance it explicitly).
    today: Date,
    seg_counter: u32,
    /// Human-readable description of the last query's access path.
    last_plan: String,
    /// Write-ahead log shared by every buffer pool (file-backed only).
    wal: Option<SharedWal>,
    /// Checkpoint epoch currently in progress. The on-disk catalog
    /// always records the previously committed epoch (`epoch - 1`).
    epoch: u32,
    /// Objects [`Database::integrity_check`] found corrupt, keyed by
    /// `(table, root TID)`. Reads of a quarantined object return
    /// [`DbError::ObjectQuarantined`]; scans skip it; everything else
    /// keeps serving. In-memory state — rebuilt by re-running the check.
    quarantine: BTreeSet<(String, Tid)>,
    /// Ring of queries that exceeded `slow_query_threshold`.
    slow_log: SlowLog,
    /// Statement text currently executing (slow-log attribution).
    current_sql: String,
}

/// What [`Database::walk_keys`] found: the live rows' scan keys plus
/// the tier counts an access-path description reports.
#[derive(Default)]
struct TableWalk {
    keys: Vec<u64>,
    /// Cold blocks the table holds, pruned or not.
    cold_blocks: usize,
    /// Cold blocks zone maps ruled out.
    pruned: usize,
    /// Hot rows / objects among `keys`.
    hot: usize,
}

/// One qualified DML target combination.
struct DmlMatch {
    handle: Option<ObjectHandle>,
    flat_tid: Option<Tid>,
    frames: Vec<(String, TableSchema, Tuple)>,
    locs: Vec<(String, ElemLoc)>,
}

impl Database {
    /// An in-memory database with default configuration.
    pub fn in_memory() -> Database {
        Database::with_config(DbConfig::default())
    }

    /// A database with explicit configuration.
    pub fn with_config(config: DbConfig) -> Database {
        let stats = Stats::with_flight_capacity(config.flight_recorder_capacity);
        Database {
            config,
            catalog: Catalog::new(),
            stats,
            today: Date::from_ymd(1986, 5, 28).expect("valid date"), // SIGMOD '86
            seg_counter: 0,
            last_plan: String::new(),
            wal: None,
            epoch: 1,
            quarantine: BTreeSet::new(),
            slow_log: SlowLog::default(),
            current_sql: String::new(),
        }
    }

    /// Shared access counters (buffer hits/misses, subtuple traffic, ...).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The logical date used for version recording.
    pub fn today(&self) -> Date {
        self.today
    }

    /// Advance the logical clock (versioned tables timestamp mutations
    /// with this).
    pub fn set_today(&mut self, d: Date) {
        self.today = d;
    }

    /// Table names in creation order.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.table_names()
    }

    /// Lazily create the write-ahead log (file-backed databases only).
    /// Must happen before any segment exists so every pool can attach.
    pub(crate) fn ensure_wal(&mut self) -> Result<()> {
        if self.wal.is_some() {
            return Ok(());
        }
        let Some(dir) = &self.config.data_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir).map_err(aim2_storage::StorageError::Io)?;
        let wal = Wal::create(
            dir.join(WAL_FILE),
            self.epoch,
            self.config.page_size,
            self.stats.clone(),
            self.config.fault.clone(),
        )?;
        self.wal = Some(Arc::new(Mutex::new(wal)));
        Ok(())
    }

    /// Wrap a raw disk in the configured fault injector, if any.
    fn maybe_faulted(&self, disk: Box<dyn Disk>) -> Box<dyn Disk> {
        match &self.config.fault {
            Some(inj) => Box::new(FaultDisk::new(disk, inj.clone())),
            None => disk,
        }
    }

    fn make_segment(&mut self, hint: &str) -> Result<(Segment, Option<String>)> {
        self.ensure_wal()?;
        self.seg_counter += 1;
        let mut file_name = None;
        let disk: Box<dyn Disk> = match &self.config.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(aim2_storage::StorageError::Io)?;
                let name = format!("{:04}_{}.seg", self.seg_counter, sanitize(hint));
                let file = dir.join(&name);
                file_name = Some(name);
                Box::new(FileDisk::open(file, self.config.page_size)?)
            }
            None => Box::new(MemDisk::new(self.config.page_size)),
        };
        let pool = BufferPool::new(
            self.maybe_faulted(disk),
            self.config.buffer_frames,
            self.stats.clone(),
        );
        if let (Some(wal), Some(name)) = (&self.wal, &file_name) {
            pool.attach_wal(wal.clone(), name.clone());
        }
        Ok((Segment::new(pool), file_name))
    }

    /// Open an existing segment file (catalog reload).
    fn open_segment(&self, name: &str) -> Result<Segment> {
        let dir = self
            .config
            .data_dir
            .as_ref()
            .ok_or_else(|| DbError::Catalog("reopening segments requires a data_dir".into()))?;
        let disk = FileDisk::open(dir.join(name), self.config.page_size)?;
        let pool = BufferPool::new(
            self.maybe_faulted(Box::new(disk)),
            self.config.buffer_frames,
            self.stats.clone(),
        );
        if let Some(wal) = &self.wal {
            pool.attach_wal(wal.clone(), name);
        }
        Ok(Segment::new(pool))
    }

    // =================================================================
    // Statement execution
    // =================================================================

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult> {
        let stmt = parse_stmt(sql)?;
        self.current_sql = sql.trim().to_string();
        let out = self.execute_stmt(&stmt);
        self.current_sql.clear();
        out
    }

    /// Execute a pre-parsed statement.
    pub fn execute_stmt(&mut self, stmt: &Stmt) -> Result<ExecResult> {
        match stmt {
            Stmt::Query(q) => {
                let (schema, value) = self.run_query(q)?;
                Ok(ExecResult::Table(schema, value))
            }
            Stmt::Explain(q) => Ok(ExecResult::Ok(self.explain_query(q)?)),
            Stmt::CreateTable(ct) => self.create_table_stmt(ct),
            Stmt::CreateIndex(ci) => self.create_index_stmt(ci),
            Stmt::DropTable(name) => {
                self.catalog.remove(name)?;
                Ok(ExecResult::Ok(format!("dropped table {name}")))
            }
            Stmt::Insert(ins) => self.insert_stmt(ins),
            Stmt::Update(up) => self.update_stmt(up),
            Stmt::Delete(del) => self.delete_stmt(del),
        }
    }

    /// Run several `;`-separated statements; returns the last result.
    pub fn execute_script(&mut self, sql: &str) -> Result<ExecResult> {
        let mut last = ExecResult::Ok("empty script".into());
        for stmt in split_statements(sql) {
            last = self.execute(&stmt)?;
        }
        Ok(last)
    }

    /// Convenience: run a query and get its result table.
    pub fn query(&mut self, sql: &str) -> Result<(TableSchema, TableValue)> {
        self.execute(sql)?.into_table()
    }

    // =================================================================
    // DDL
    // =================================================================

    fn create_table_stmt(&mut self, ct: &ast::CreateTable) -> Result<ExecResult> {
        let (schema, layout, versioned) = self.schema_from_create(ct)?;
        self.create_table(schema, layout, versioned)?;
        Ok(ExecResult::Ok(format!("created table {}", ct.name)))
    }

    /// Derive `(schema, layout, versioned)` from a CREATE TABLE AST
    /// (shared by execution and catalog reload).
    pub(crate) fn schema_from_create(
        &self,
        ct: &ast::CreateTable,
    ) -> Result<(TableSchema, LayoutKind, bool)> {
        let kind = if ct.ordered {
            TableKind::List
        } else {
            TableKind::Relation
        };
        let schema = build_schema(&ct.name, kind, &ct.attrs)?;
        let layout = match ct.using.as_deref() {
            None => self.config.default_layout,
            Some("SS1") | Some("ss1") => LayoutKind::Ss1,
            Some("SS2") | Some("ss2") => LayoutKind::Ss2,
            Some("SS3") | Some("ss3") => LayoutKind::Ss3,
            Some(other) => {
                return Err(DbError::Catalog(format!(
                    "unknown storage structure `{other}` (expected SS1, SS2 or SS3)"
                )))
            }
        };
        Ok((schema, layout, ct.versioned))
    }

    /// Programmatic table creation.
    pub fn create_table(
        &mut self,
        schema: TableSchema,
        layout: LayoutKind,
        versioned: bool,
    ) -> Result<()> {
        let (seg, seg_file) = self.make_segment(&schema.name)?;
        // §4.1: flat (1NF) tables have no Mini Directories at all — they
        // get plain heap storage; NF² tables get complex-object storage.
        let storage = if schema.is_flat() {
            TableStorage::Flat(FlatStore::new(seg))
        } else {
            TableStorage::Nf2(ObjectStore::new(seg, layout))
        };
        let versions = versioned.then(|| VersionedTable::new(schema.kind));
        self.catalog.add(TableEntry {
            schema,
            storage,
            indexes: Vec::new(),
            text_indexes: Vec::new(),
            versions,
            layout,
            seg_file,
        })
    }

    fn create_index_stmt(&mut self, ci: &ast::CreateIndex) -> Result<ExecResult> {
        if ci.text {
            return self.create_text_index(&ci.name, &ci.table, &ci.path);
        }
        let scheme = match ci.using.as_deref().map(str::to_ascii_uppercase).as_deref() {
            None | Some("HIERARCHICAL") => Scheme::Hierarchical,
            Some("ROOTTID") => Scheme::RootTid,
            Some("DATATID") => Scheme::DataTid,
            Some("MDPATH") => Scheme::MdPath,
            Some(other) => {
                return Err(DbError::Catalog(format!(
                    "unknown address scheme `{other}`"
                )))
            }
        };
        let (seg, seg_file) = self.make_segment(&format!("idx_{}", ci.name))?;
        let entry = self.catalog.require_mut(&ci.table)?;
        let schema = entry.schema.clone();
        let os = entry.nf2_mut()?;
        let mut index = NfIndex::create(seg, &schema, &ci.path, scheme)?;
        index.build(os, &schema)?;
        entry.indexes.push(IndexEntry {
            name: ci.name.clone(),
            index,
            seg_file,
        });
        Ok(ExecResult::Ok(format!(
            "created index {} on {} ({})",
            ci.name, ci.table, ci.path
        )))
    }

    fn create_text_index(&mut self, name: &str, table: &str, attr: &Path) -> Result<ExecResult> {
        let entry = self.catalog.require_mut(table)?;
        let schema = entry.schema.clone();
        if attr.len() != 1 {
            return Err(DbError::Catalog(
                "text indexes cover first-level TEXT attributes".into(),
            ));
        }
        let def = schema
            .attr(&attr.segments()[0])
            .ok_or_else(|| DbError::Catalog(format!("no attribute {attr} on {table}")))?;
        match def.kind {
            AttrKind::Atomic(AtomType::Text) | AttrKind::Atomic(AtomType::Str) => {}
            _ => {
                return Err(DbError::Catalog(format!(
                    "attribute {attr} is not text-indexable"
                )))
            }
        }
        let (keys, rows) = self.live_rows(table, Some(Referenced::default()))?;
        let index = build_text_index(&schema, attr, &keys, &rows);
        let entry = self.catalog.require_mut(table)?;
        entry.text_indexes.push(TextIndexEntry {
            name: name.to_string(),
            attr: attr.clone(),
            index,
        });
        Ok(ExecResult::Ok(format!(
            "created text index {name} on {table} ({attr})"
        )))
    }

    /// Masked text search via a table's text index (§5); returns the
    /// matching objects' first-level atoms plus the number of candidates
    /// verified (the bench metric).
    pub fn text_search(
        &mut self,
        table: &str,
        attr: &Path,
        mask: &str,
    ) -> Result<(Vec<Vec<Atom>>, usize)> {
        let entry = self.catalog.require_mut(table)?;
        let tix = entry
            .text_indexes
            .iter()
            .find(|t| &t.attr == attr)
            .ok_or_else(|| DbError::Catalog(format!("no text index on {table}({attr})")))?;
        let pattern = aim2_text::Pattern::parse(mask);
        let (hits, verified) = tix.index.search(&pattern);
        let schema = entry.schema.clone();
        let mut keys = self.walk_keys(table, None, &[], &[])?.keys;
        keys.retain(|k| hits.contains(k));
        let req = ScanRequest {
            projection: Some(Referenced::default()),
            ..ScanRequest::full(table, None)
        };
        let out = self
            .read_keys(&req, &keys)?
            .iter()
            .map(|t| t.atomic_fields(&schema).into_iter().cloned().collect())
            .collect();
        Ok((out, verified))
    }

    // =================================================================
    // DML
    // =================================================================

    fn insert_stmt(&mut self, ins: &ast::Insert) -> Result<ExecResult> {
        match &ins.target {
            Source::Table(table) => {
                let schema = self
                    .catalog
                    .get(table)
                    .ok_or_else(|| DbError::Catalog(format!("no such table: {table}")))?
                    .schema
                    .clone();
                let tuple = aim2_exec::value::lit_tuple(&schema, &ins.values)?;
                self.insert_tuple(table, tuple)?;
                Ok(ExecResult::Count(1))
            }
            Source::PathOf { var, path } => {
                // Partial insert: add an element to a subtable of every
                // qualifying object (§5: insert parts of complex tuples).
                let matches = self.collect_matches(&ins.from, ins.where_.as_ref())?;
                let root_table = root_table_name(&ins.from)?;
                let mut count = 0;
                for m in matches {
                    let (_, _, loc, level_schema) = locate_var(&m, var)?;
                    let attr_idx = level_schema
                        .attr_index(&single_segment(path)?)
                        .ok_or_else(|| DbError::Catalog(format!("no attribute {path} at {var}")))?;
                    let sub_schema = level_schema.attrs[attr_idx]
                        .kind
                        .as_table()
                        .ok_or_else(|| DbError::Catalog(format!("{path} is not a subtable")))?
                        .clone();
                    let elem = aim2_exec::value::lit_tuple(&sub_schema, &ins.values)?;
                    let handle = m.handle.ok_or_else(|| {
                        DbError::Catalog("partial insert requires an NF² table".into())
                    })?;
                    self.mutate_object(&root_table, handle, |schema, os| {
                        os.insert_element(schema, handle, &loc, attr_idx, &elem)
                            .map_err(Into::into)
                    })?;
                    count += 1;
                }
                Ok(ExecResult::Count(count))
            }
        }
    }

    /// Programmatic whole-tuple insert.
    pub fn insert_tuple(&mut self, table: &str, tuple: Tuple) -> Result<ObjectHandleOrTid> {
        let entry = self.catalog.require_mut(table)?;
        let schema = entry.schema.clone();
        let value_for_versions = tuple.clone();
        let key = match &mut entry.storage {
            TableStorage::Nf2(os) => {
                let h = os.insert_object(&schema, &tuple)?;
                ObjectHandleOrTid::Handle(h)
            }
            TableStorage::Flat(fs) => ObjectHandleOrTid::Tid(fs.insert(&tuple)?),
        };
        // Maintain indexes and text indexes.
        if let ObjectHandleOrTid::Handle(h) = key {
            Self::index_all(entry, &schema, h)?;
        }
        Self::text_index_row(entry, &schema, key, Some(&value_for_versions));
        // Version recording (flat rows version under their TID-derived
        // handle — a TID is exactly as stable as an object handle here).
        if let Some(v) = &mut entry.versions {
            let h = match key {
                ObjectHandleOrTid::Handle(h) => h,
                ObjectHandleOrTid::Tid(tid) => ObjectHandle(tid),
            };
            v.record_state(h, self.today, value_for_versions);
        }
        Ok(key)
    }

    fn update_stmt(&mut self, up: &ast::Update) -> Result<ExecResult> {
        let root_table = root_table_name(&up.from)?;
        self.melt_if_cold(&root_table)?;
        let matches = self.collect_matches(&up.from, up.where_.as_ref())?;
        let mut count = 0;
        for m in &matches {
            // Group SET items per target variable so multiple assignments
            // to the same (sub)object compose instead of clobbering each
            // other's writes.
            let mut var_order: Vec<&String> = Vec::new();
            for (var, _, _) in &up.set {
                if !var_order.contains(&var) {
                    var_order.push(var);
                }
            }
            for var in var_order {
                let (_, frame_tuple, loc, level_schema) = locate_var(m, var)?;
                match (m.handle, m.flat_tid) {
                    (Some(handle), _) => {
                        let mut atoms: Vec<Atom> = frame_tuple
                            .atomic_fields(&level_schema)
                            .into_iter()
                            .cloned()
                            .collect();
                        for (v, path, lit) in &up.set {
                            if v != var {
                                continue;
                            }
                            let (pos, new_atom) = set_item(&level_schema, var, path, lit)?;
                            atoms[pos] = new_atom;
                            count += 1;
                        }
                        let loc = loc.clone();
                        self.mutate_object(&root_table, handle, |schema, os| {
                            os.update_atoms(schema, handle, &loc, &atoms)
                                .map_err(Into::into)
                        })?;
                    }
                    (None, Some(tid)) => {
                        let mut t = frame_tuple.clone();
                        for (v, path, lit) in &up.set {
                            if v != var {
                                continue;
                            }
                            let attr = single_segment(path)?;
                            let attr_idx = level_schema.attr_index(&attr).ok_or_else(|| {
                                DbError::Catalog(format!("no attribute {attr} at {var}"))
                            })?;
                            let (_, new_atom) = set_item(&level_schema, var, path, lit)?;
                            t.fields[attr_idx] = Value::Atom(new_atom);
                            count += 1;
                        }
                        let today = self.today;
                        let entry = self.catalog.require_mut(&root_table)?;
                        match &mut entry.storage {
                            TableStorage::Flat(fs) => fs.update(tid, &t)?,
                            TableStorage::Nf2(_) => unreachable!(),
                        }
                        if let Some(v) = &mut entry.versions {
                            v.record_state(ObjectHandle(tid), today, t);
                        }
                    }
                    _ => unreachable!("match has a key"),
                }
            }
        }
        Ok(ExecResult::Count(count))
    }

    fn delete_stmt(&mut self, del: &ast::Delete) -> Result<ExecResult> {
        let root_table = root_table_name(&del.from)?;
        self.melt_if_cold(&root_table)?;
        let matches = self.collect_matches(&del.from, del.where_.as_ref())?;
        let root_var = &del.from[0].var;
        let mut count = 0;
        if &del.var == root_var {
            // Whole-object deletes; deduplicate handles (a multi-binding
            // FROM can qualify the same object repeatedly).
            let mut seen = Vec::new();
            for m in &matches {
                match (m.handle, m.flat_tid) {
                    (Some(h), _) if !seen.contains(&h.0) => {
                        seen.push(h.0);
                        self.delete_object(&root_table, h)?;
                        count += 1;
                    }
                    (None, Some(tid)) if !seen.contains(&tid) => {
                        seen.push(tid);
                        self.delete_flat_row(&root_table, tid)?;
                        count += 1;
                    }
                    _ => {}
                }
            }
        } else {
            // Element deletes: group by (handle, parent loc, attr) and
            // delete in descending element order so ordinals stay valid.
            let mut targets: Vec<(ObjectHandle, ElemLoc, usize, usize)> = Vec::new();
            for m in &matches {
                let (_, _, loc, _) = locate_var(m, &del.var)?;
                let handle = m.handle.ok_or_else(|| {
                    DbError::Catalog("element delete requires an NF² table".into())
                })?;
                let Some(&(attr_idx, elem_idx)) = loc.steps.last() else {
                    return Err(DbError::Catalog(format!(
                        "`{}` does not identify a subtable element",
                        del.var
                    )));
                };
                let parent = ElemLoc {
                    steps: loc.steps[..loc.steps.len() - 1].to_vec(),
                };
                if !targets.iter().any(|(h, p, a, e)| {
                    *h == handle && p == &parent && *a == attr_idx && *e == elem_idx
                }) {
                    targets.push((handle, parent, attr_idx, elem_idx));
                }
            }
            targets.sort_by_key(|t| std::cmp::Reverse(t.3)); // descending elem idx
            for (handle, parent, attr_idx, elem_idx) in targets {
                self.mutate_object(&root_table, handle, |schema, os| {
                    os.delete_element(schema, handle, &parent, attr_idx, elem_idx)
                        .map_err(Into::into)
                })?;
                count += 1;
            }
        }
        Ok(ExecResult::Count(count))
    }

    /// Delete one whole object, maintaining indexes, text docs, and
    /// versions.
    pub fn delete_object(&mut self, table: &str, handle: ObjectHandle) -> Result<()> {
        self.check_quarantine(table, handle.0)?;
        let entry = self.catalog.require_mut(table)?;
        let schema = entry.schema.clone();
        Self::unindex_all(entry, &schema, handle)?;
        for tix in &mut entry.text_indexes {
            tix.index.remove_document(handle.0.to_u64());
        }
        let os = entry.nf2_mut()?;
        os.delete_object(handle)?;
        if let Some(v) = &mut entry.versions {
            v.record_delete(handle, self.today);
        }
        Ok(())
    }

    /// Delete one heap row of a flat table, recording the delete on a
    /// versioned one.
    fn delete_flat_row(&mut self, table: &str, tid: Tid) -> Result<()> {
        let today = self.today;
        let entry = self.catalog.require_mut(table)?;
        if let TableStorage::Flat(fs) = &mut entry.storage {
            fs.delete(tid)?;
        }
        if let Some(v) = &mut entry.versions {
            v.record_delete(ObjectHandle(tid), today);
        }
        Ok(())
    }

    /// Apply a mutation to one object with index/text/version
    /// maintenance wrapped around it.
    fn mutate_object(
        &mut self,
        table: &str,
        handle: ObjectHandle,
        f: impl FnOnce(&TableSchema, &mut ObjectStore) -> Result<()>,
    ) -> Result<()> {
        let today = self.today;
        let entry = self.catalog.require_mut(table)?;
        let schema = entry.schema.clone();
        Self::unindex_all(entry, &schema, handle)?;
        {
            let os = entry.nf2_mut()?;
            f(&schema, os)?;
        }
        Self::index_all(entry, &schema, handle)?;
        let new_state = entry.nf2_mut()?.read_object(&schema, handle)?;
        Self::text_index_row(
            entry,
            &schema,
            ObjectHandleOrTid::Handle(handle),
            Some(&new_state),
        );
        if let Some(v) = &mut entry.versions {
            v.record_state(handle, today, new_state);
        }
        Ok(())
    }

    fn unindex_all(entry: &mut TableEntry, schema: &TableSchema, h: ObjectHandle) -> Result<()> {
        let TableEntry {
            storage, indexes, ..
        } = entry;
        if let TableStorage::Nf2(os) = storage {
            for ie in indexes {
                ie.index.unindex_object(os, schema, h)?;
            }
        }
        Ok(())
    }

    fn index_all(entry: &mut TableEntry, schema: &TableSchema, h: ObjectHandle) -> Result<()> {
        let TableEntry {
            storage, indexes, ..
        } = entry;
        if let TableStorage::Nf2(os) = storage {
            for ie in indexes {
                ie.index.index_object(os, schema, h)?;
            }
        }
        Ok(())
    }

    fn text_index_row(
        entry: &mut TableEntry,
        schema: &TableSchema,
        key: ObjectHandleOrTid,
        state: Option<&Tuple>,
    ) {
        if entry.text_indexes.is_empty() {
            return;
        }
        let id = match key {
            ObjectHandleOrTid::Handle(h) => h.0.to_u64(),
            ObjectHandleOrTid::Tid(t) => t.to_u64(),
        };
        for tix in &mut entry.text_indexes {
            match state {
                Some(tuple) => {
                    if let Some(text) = text_of(schema, &tix.attr, tuple) {
                        tix.index.add_document(id, text);
                    }
                }
                None => tix.index.remove_document(id),
            }
        }
    }

    // =================================================================
    // DML binding enumeration
    // =================================================================

    /// Enumerate qualifying binding combinations for DML.
    fn collect_matches(
        &mut self,
        from: &[Binding],
        where_: Option<&ast::Expr>,
    ) -> Result<Vec<DmlMatch>> {
        if from.is_empty() {
            return Err(DbError::Catalog("DML requires a FROM binding".into()));
        }
        let root = &from[0];
        let Source::Table(table) = &root.source else {
            return Err(DbError::Catalog(
                "the first DML binding must range over a stored table".into(),
            ));
        };
        if from.iter().any(|b| b.asof.is_some()) {
            return Err(DbError::Catalog("DML cannot target ASOF states".into()));
        }
        for (i, b) in from.iter().enumerate() {
            if from[..i].iter().any(|p| p.var == b.var) {
                return Err(DbError::Catalog(format!(
                    "duplicate DML binding variable `{}`",
                    b.var
                )));
            }
        }
        // Root rows with their identities (quarantined objects are not
        // DML-addressable). Callers melted the cold tier first, so
        // every key of a flat table is a heap TID.
        let (keys, rows) = self.live_rows(table, None)?;
        let entry = self.catalog.require_mut(table)?;
        let schema = entry.schema.clone();
        let nf2 = matches!(entry.storage, TableStorage::Nf2(_));
        // Expand the binding chain into combinations with element locs.
        let mut combos: Vec<DmlMatch> = Vec::new();
        for (key, tuple) in keys.into_iter().zip(rows) {
            let tid = Tid::from_u64(key);
            let seed = DmlMatch {
                handle: nf2.then_some(ObjectHandle(tid)),
                flat_tid: (!nf2).then_some(tid),
                frames: vec![(root.var.clone(), schema.clone(), tuple)],
                locs: vec![(root.var.clone(), ElemLoc::object())],
            };
            expand_bindings(&from[1..], seed, &mut combos)?;
        }
        // Filter by predicate.
        match where_ {
            None => Ok(combos),
            Some(pred) => {
                let mut out = Vec::new();
                for m in combos {
                    let keep = Evaluator::new(self).eval_predicate(&m.frames, pred)?;
                    if keep {
                        out.push(m);
                    }
                }
                Ok(out)
            }
        }
    }
}

/// Identity of an inserted row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectHandleOrTid {
    Handle(ObjectHandle),
    Tid(Tid),
}

impl ObjectHandleOrTid {
    /// The NF² object handle, if applicable.
    pub fn handle(self) -> Option<ObjectHandle> {
        match self {
            ObjectHandleOrTid::Handle(h) => Some(h),
            ObjectHandleOrTid::Tid(_) => None,
        }
    }
}

fn expand_bindings(rest: &[Binding], m: DmlMatch, out: &mut Vec<DmlMatch>) -> Result<()> {
    let Some((b, tail)) = rest.split_first() else {
        out.push(m);
        return Ok(());
    };
    let Source::PathOf { var, path } = &b.source else {
        return Err(DbError::Catalog(
            "secondary DML bindings must range over attributes of earlier variables".into(),
        ));
    };
    let (_, level_schema, tuple, loc) = {
        let (v, t, l, s) = locate_var(&m, var)?;
        (v, s, t.clone(), l)
    };
    let attr = single_segment(path)?;
    let attr_idx = level_schema
        .attr_index(&attr)
        .ok_or_else(|| DbError::Catalog(format!("no attribute {attr} at {var}")))?;
    let sub_schema = level_schema.attrs[attr_idx]
        .kind
        .as_table()
        .ok_or_else(|| DbError::Catalog(format!("{attr} is not a subtable")))?
        .clone();
    let Some(Value::Table(tv)) = tuple.fields.get(attr_idx) else {
        return Err(DbError::Catalog("schema/value mismatch".into()));
    };
    for (i, elem) in tv.tuples.iter().enumerate() {
        let mut next = DmlMatch {
            handle: m.handle,
            flat_tid: m.flat_tid,
            frames: m.frames.clone(),
            locs: m.locs.clone(),
        };
        next.frames
            .push((b.var.clone(), sub_schema.clone(), elem.clone()));
        next.locs
            .push((b.var.clone(), loc.clone().then(attr_idx, i)));
        expand_bindings(tail, next, out)?;
    }
    Ok(())
}

/// Find a variable's frame, loc, and schema level within a match.
fn locate_var<'m>(m: &'m DmlMatch, var: &str) -> Result<(String, &'m Tuple, ElemLoc, TableSchema)> {
    let frame = m
        .frames
        .iter()
        .find(|(v, _, _)| v == var)
        .ok_or_else(|| DbError::Catalog(format!("unknown variable `{var}` in DML")))?;
    let loc = m
        .locs
        .iter()
        .find(|(v, _)| v == var)
        .map(|(_, l)| l.clone())
        .expect("frame implies loc");
    Ok((var.to_string(), &frame.2, loc, frame.1.clone()))
}

/// Resolve one SET item against a schema level: the position of the
/// target attribute among the level's atomic attributes, and the coerced
/// new atom.
fn set_item(
    level_schema: &TableSchema,
    var: &str,
    path: &Path,
    lit: &ast::Lit,
) -> Result<(usize, Atom)> {
    let attr = single_segment(path)?;
    let attr_idx = level_schema
        .attr_index(&attr)
        .ok_or_else(|| DbError::Catalog(format!("no attribute {attr} at {var}")))?;
    let AttrKind::Atomic(ty) = level_schema.attrs[attr_idx].kind else {
        return Err(DbError::Catalog(format!(
            "SET targets atomic attributes; {attr} is a subtable"
        )));
    };
    let new_atom = match (lit, ty) {
        (ast::Lit::Str(s), AtomType::Date) => Atom::Date(Date::parse_iso(s)?),
        (ast::Lit::Str(s), AtomType::Text) => Atom::Text(s.clone()),
        _ => aim2_exec::value::lit_atom(lit)?,
    }
    .coerce(ty)?;
    let pos = level_schema
        .atomic_indices()
        .iter()
        .position(|&i| i == attr_idx)
        .expect("atomic attr");
    Ok((pos, new_atom))
}

fn single_segment(path: &Path) -> Result<String> {
    match path.segments() {
        [one] => Ok(one.clone()),
        _ => Err(DbError::Catalog(format!(
            "`{path}`: bind intermediate subtables with their own variables"
        ))),
    }
}

fn root_table_name(from: &[Binding]) -> Result<String> {
    match from.first().map(|b| &b.source) {
        Some(Source::Table(t)) => Ok(t.clone()),
        _ => Err(DbError::Catalog(
            "the first DML binding must range over a stored table".into(),
        )),
    }
}

/// Column index of a first-level (single-segment) attribute path.
fn column_of(schema: &TableSchema, path: &Path) -> Option<usize> {
    match path.segments() {
        [one] => schema.attr_index(one),
        _ => None,
    }
}

/// The text of first-level attribute `attr` in `row`.
fn text_of<'r>(schema: &TableSchema, attr: &Path, row: &'r Tuple) -> Option<&'r str> {
    row.fields
        .get(column_of(schema, attr)?)?
        .as_atom()?
        .as_str()
}

/// A text index over `attr` of `rows`. A row's document id is its scan
/// key, so index hits name keys the keyed read understands.
fn build_text_index(schema: &TableSchema, attr: &Path, keys: &[u64], rows: &[Tuple]) -> TextIndex {
    let mut index = TextIndex::new();
    for (key, row) in keys.iter().zip(rows) {
        if let Some(text) = text_of(schema, attr, row) {
            index.add_document(*key, text);
        }
    }
    index
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

fn split_statements(sql: &str) -> Vec<String> {
    // Split on `;` outside string literals.
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for ch in sql.chars() {
        match ch {
            '\'' => {
                in_str = !in_str;
                cur.push(ch);
            }
            ';' if !in_str => {
                if !cur.trim().is_empty() {
                    out.push(std::mem::take(&mut cur));
                } else {
                    cur.clear();
                }
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

fn build_schema(name: &str, kind: TableKind, decls: &[AttrDecl]) -> Result<TableSchema> {
    let mut attrs = Vec::with_capacity(decls.len());
    for d in decls {
        match d {
            AttrDecl::Atomic { name, ty } => {
                let ty = AtomType::parse_keyword(ty)
                    .ok_or_else(|| DbError::Catalog(format!("unknown type `{ty}`")))?;
                attrs.push(aim2_model::AttrDef::atomic(name.clone(), ty));
            }
            AttrDecl::Table {
                name,
                ordered,
                attrs: inner,
            } => {
                let sub_kind = if *ordered {
                    TableKind::List
                } else {
                    TableKind::Relation
                };
                let sub = build_schema(name, sub_kind, inner)?;
                attrs.push(aim2_model::AttrDef::table(name.clone(), sub));
            }
        }
    }
    TableSchema::new(name, kind, attrs).map_err(DbError::Model)
}

// =====================================================================
// Access-path selection (the §4.2 machinery applied to whole queries)
// =====================================================================

impl Database {
    /// A description of the access path chosen for the last query
    /// ("full scan of DEPARTMENTS" / "index f: 3 candidates of 200").
    pub fn last_plan(&self) -> &str {
        &self.last_plan
    }

    /// Describe the physical plan a query would take, without running
    /// it: the operator tree, the access path the provider would choose
    /// for the root scan, and — per scan — which subtable paths partial
    /// retrieval will skip.
    pub fn explain_query(&mut self, q: &ast::Query) -> Result<String> {
        let plan = Evaluator::new(self).plan_query(q)?;
        Ok(plan.to_string().trim_end().to_string())
    }

    /// Evaluate a query through the cursor pipeline, recording its
    /// rendered physical plan in [`Database::last_plan`]. Index
    /// pre-restriction happens inside [`TableProvider::open_scan`]
    /// (§4.2's point: hierarchical index addresses identify candidate
    /// objects; the evaluator re-checks the full predicate on that
    /// superset).
    fn run_query(&mut self, q: &ast::Query) -> Result<(TableSchema, TableValue)> {
        self.last_plan = "full scan".to_string();
        let threshold = self.config.slow_query_threshold;
        let trace = self
            .config
            .trace_queries
            .then(aim2_obs::TraceContext::sampled);
        let capture = trace.is_some() || threshold.is_some();
        let before = capture.then(|| self.stats.snapshot());
        if capture {
            aim2_obs::begin_capture();
            aim2_obs::set_trace_context(trace);
        }
        let started = Instant::now();
        let out = {
            let _t = self.stats.time_query();
            let (out, plan) = {
                let mut ev = Evaluator::new(self);
                let out = ev.eval_query(q);
                (out, ev.take_plan())
            };
            if let Some(p) = plan {
                self.last_plan = p.to_string().trim_end().to_string();
            }
            out
        };
        if capture {
            let elapsed = started.elapsed();
            let spans = aim2_obs::end_capture();
            aim2_obs::set_trace_context(None);
            let delta = before
                .expect("snapshot taken while capturing")
                .delta(&self.stats.snapshot());
            let slow = threshold.is_some_and(|t| elapsed >= t);
            if let Some(ctx) = trace {
                let mut t = aim2_obs::Trace::from_spans(
                    ctx,
                    self.current_sql.as_str(),
                    spans.clone(),
                    delta.objects_decoded,
                    delta.atoms_decoded,
                );
                t.slow = slow;
                self.stats.recorder().record(t);
            }
            if slow {
                self.slow_log.push(SlowQueryRecord {
                    statement: self.current_sql.clone(),
                    plan: self.last_plan.clone(),
                    elapsed,
                    delta,
                    spans,
                    trace_id: trace.map_or(0, |c| c.trace_id),
                });
            }
        }
        Ok(out?)
    }

    /// Run a query with EXPLAIN ANALYZE instrumentation: the result
    /// table plus the physical plan annotated with per-operator row
    /// counts, decode deltas, and wall times. The timing-free rendering
    /// also becomes [`Database::last_plan`].
    pub fn analyze(&mut self, sql: &str) -> Result<(TableSchema, TableValue, AnalyzedPlan)> {
        let stmt = parse_stmt(sql)?;
        match &stmt {
            Stmt::Query(q) | Stmt::Explain(q) => self.analyze_query(q),
            _ => Err(DbError::Catalog("ANALYZE takes a query".into())),
        }
    }

    /// [`Database::analyze`] for a pre-parsed query.
    pub fn analyze_query(
        &mut self,
        q: &ast::Query,
    ) -> Result<(TableSchema, TableValue, AnalyzedPlan)> {
        let started = Instant::now();
        let (out, analysis) = {
            let _t = self.stats.time_query();
            let mut ev = Evaluator::new(self);
            ev.enable_analyze();
            let out = ev.eval_query(q);
            (out, ev.take_analysis())
        };
        let (schema, value) = out?;
        let mut ap = analysis.unwrap_or_default();
        ap.total_wall_ns = started.elapsed().as_nanos() as u64;
        self.last_plan = ap.render(false).trim_end().to_string();
        Ok((schema, value, ap))
    }

    /// Point-in-time engine metrics: every Stats counter, the derived
    /// gauges, and the latency histograms — serializable to JSON and
    /// Prometheus text (the shell's `.metrics`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.stats.metrics_snapshot()
    }

    /// The slow-query log (populated when
    /// [`DbConfig::slow_query_threshold`] is set).
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// Mutable slow-query log (the shell's `.slow off` clears it).
    pub fn slow_log_mut(&mut self) -> &mut SlowLog {
        &mut self.slow_log
    }

    /// Change the slow-query threshold at run time (`None` disables
    /// recording; existing records are kept).
    pub fn set_slow_query_threshold(&mut self, t: Option<Duration>) {
        self.config.slow_query_threshold = t;
    }

    /// Toggle per-query tracing at run time (see
    /// [`DbConfig::trace_queries`]). Completed traces land in
    /// `stats().recorder()`; the shell's `.trace` renders them.
    pub fn set_tracing(&mut self, on: bool) {
        self.config.trace_queries = on;
    }

    /// Whether queries currently mint trace contexts.
    pub fn tracing(&self) -> bool {
        self.config.trace_queries
    }

    /// If a scan request carries conjuncts an index on its table can
    /// answer, return the candidate handles (a superset of the
    /// qualifying objects) and the access-path description.
    fn pick_index_restriction(
        &mut self,
        table: &str,
        conjuncts: &[(Path, Atom)],
        contains: &[(Path, String)],
    ) -> Result<Option<(Vec<ObjectHandle>, String)>> {
        if conjuncts.is_empty() && contains.is_empty() {
            return Ok(None);
        }
        let Some(entry) = self.catalog.get_mut(table) else {
            return Ok(None);
        };
        let total = match &mut entry.storage {
            TableStorage::Nf2(os) => os.handles()?.len(),
            TableStorage::Flat(_) => return Ok(None),
        };
        for (path, key) in conjuncts {
            for ie in &mut entry.indexes {
                if &ie.index.attr_path() == path {
                    let addrs = ie.index.lookup(key)?;
                    let mut handles: Vec<ObjectHandle> = addrs
                        .iter()
                        .filter_map(|a| a.root().map(ObjectHandle))
                        .collect();
                    if handles.len() != addrs.len() {
                        continue; // data-TID scheme: roots unknown
                    }
                    handles.sort();
                    handles.dedup();
                    let plan = format!(
                        "index {} on {table}({path}) = {key}: {} candidate object(s) of {total}",
                        ie.name,
                        handles.len()
                    );
                    return Ok(Some((handles, plan)));
                }
            }
        }
        // §5: "(the query) will be supported by the text index in case
        // that one has been created on TITLE" — a top-level CONTAINS
        // conjunct restricts candidates via the word-fragment index.
        for (attr, mask) in contains {
            let Some(tix) = entry.text_indexes.iter().find(|t| &t.attr == attr) else {
                continue;
            };
            let pattern = aim2_text::Pattern::parse(mask);
            let (hits, _) = tix.index.search(&pattern);
            let TableStorage::Nf2(os) = &mut entry.storage else {
                continue;
            };
            let mut handles: Vec<ObjectHandle> = Vec::new();
            for h in os.handles()? {
                if hits.contains(&h.0.to_u64()) {
                    handles.push(h);
                }
            }
            let plan = format!(
                "text index {} on {table}({attr}) CONTAINS '{mask}': {} candidate object(s) of {total}",
                tix.name,
                handles.len()
            );
            return Ok(Some((handles, plan)));
        }
        Ok(None)
    }
}

// =====================================================================
// The evaluator's table provider (cursor pipeline endpoint)
// =====================================================================

impl TableProvider for Database {
    fn table_schema(&mut self, name: &str) -> aim2_exec::Result<TableSchema> {
        self.catalog
            .get(name)
            .map(|t| t.schema.clone())
            .ok_or_else(|| aim2_exec::ExecError::NoSuchTable(name.to_string()))
    }

    fn open_scan(&mut self, req: &ScanRequest) -> aim2_exec::Result<ObjectCursor> {
        let name = req.table.as_str();
        let entry = self
            .catalog
            .get(name)
            .ok_or_else(|| aim2_exec::ExecError::NoSuchTable(name.to_string()))?;
        if let Some(t) = req.asof {
            // Version snapshots are reconstructed tables: the cursor
            // holds them (no page-level pull to push into).
            let versions = entry.versions.as_ref().ok_or_else(|| {
                aim2_exec::ExecError::Semantic(format!(
                    "table {name} was not declared WITH VERSIONS"
                ))
            })?;
            let rows: SharedRows = Arc::new(
                (0u64..)
                    .zip(versions.table_asof(t).tuples)
                    .map(|(i, t)| (i, Arc::new(t)))
                    .collect(),
            );
            return Ok(ObjectCursor::new(
                req,
                "full scan (version snapshot)",
                ScanSource::Rows(rows),
            ));
        }
        // Conjuncts pushed down with the request may be answered by an
        // index: restrict the cursor to candidate objects.
        let (candidates, plan) = self
            .pick_index_restriction(name, &req.conjuncts, &req.contains)
            .map_err(|e| aim2_exec::ExecError::Semantic(e.to_string()))?
            .unzip();
        let walk = self.walk_keys(name, candidates, &req.conjuncts, &req.ranges)?;
        let path = match plan {
            Some(plan) => plan,
            None if walk.cold_blocks == 0 => "full scan".to_string(),
            None => format!(
                "columnar scan: {} cold blocks ({} pruned by zone maps) + {} hot rows",
                walk.cold_blocks, walk.pruned, walk.hot
            ),
        };
        Ok(ObjectCursor::new(req, &path, ScanSource::Keys(walk.keys)))
    }

    fn next_batch(
        &mut self,
        cur: &mut ObjectCursor,
        max_rows: usize,
    ) -> aim2_exec::Result<Option<Vec<Tuple>>> {
        cur.pull(max_rows, |req, keys| Ok(self.read_keys(req, keys)?))
    }

    fn close_scan(&mut self, cur: ObjectCursor) {
        // A cursor abandoned mid-scan is an early termination: rows
        // after the exit point were never decoded. (A cursor closed
        // without pulls — e.g. EXPLAIN's access-path probe — is not.)
        if cur.pulled() > 0 && !cur.exhausted() {
            self.stats.inc_cursor_early_exit();
        }
        self.stats.record_cursor_lifetime(cur.age_ns());
    }

    fn decode_counters(&mut self) -> (u64, u64) {
        (self.stats.objects_decoded(), self.stats.atoms_decoded())
    }

    fn colstore_counters(&mut self) -> (u64, u64, u64) {
        (
            self.stats.colstore_blocks_pruned(),
            self.stats.colstore_blocks_decoded(),
            self.stats.colstore_values_scanned(),
        )
    }

    fn note_values_scanned(&mut self, n: u64) {
        self.stats.add_colstore_values_scanned(n);
    }
}

impl Database {
    /// The active configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    pub(crate) fn seg_counter(&self) -> u32 {
        self.seg_counter
    }

    pub(crate) fn set_seg_counter(&mut self, v: u32) {
        self.seg_counter = v;
    }

    pub(crate) fn open_segment_pub(&self, name: &str) -> Result<Segment> {
        self.open_segment(name)
    }

    /// The checkpoint epoch currently in progress. The on-disk catalog
    /// always records `epoch() - 1` (the last committed one).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    pub(crate) fn set_epoch(&mut self, e: u32) {
        self.epoch = e;
    }

    pub(crate) fn wal_handle(&self) -> Option<SharedWal> {
        self.wal.clone()
    }

    /// The shared write-ahead log, if this database is file-backed (the
    /// transaction layer's group committer batches syncs on it).
    pub fn shared_wal(&self) -> Option<SharedWal> {
        self.wal.clone()
    }

    /// Run `f` over every buffer pool of the database: each table's data
    /// segment and all of its index segments.
    pub(crate) fn for_each_pool(
        &mut self,
        mut f: impl FnMut(&mut BufferPool) -> aim2_storage::Result<()>,
    ) -> Result<()> {
        for name in self.catalog.table_names() {
            let entry = self.catalog.require_mut(&name)?;
            match &mut entry.storage {
                TableStorage::Nf2(os) => f(os.segment_mut().pool_mut())?,
                TableStorage::Flat(fs) => f(fs.segment_mut().pool_mut())?,
            }
            for ie in &mut entry.indexes {
                f(ie.index.segment_mut().pool_mut())?;
            }
        }
        Ok(())
    }

    /// Flush one table's buffer pools (table segment + its indexes).
    pub(crate) fn flush_table(&mut self, name: &str) -> Result<()> {
        let entry = self.catalog.require_mut(name)?;
        match &mut entry.storage {
            TableStorage::Nf2(os) => os.segment_mut().pool_mut().flush_all()?,
            TableStorage::Flat(fs) => fs.segment_mut().pool_mut().flush_all()?,
        }
        for ie in &mut entry.indexes {
            ie.index.segment_mut().pool_mut().flush_all()?;
        }
        Ok(())
    }

    /// Append WAL before-images for one table's dirty pages (table
    /// segment + its indexes) with the log sync *deferred*: returns the
    /// highest WAL sequence appended, which a committing transaction
    /// hands to [`aim2_storage::wal::GroupCommit::sync_through`] so
    /// concurrent commits share one physical `fsync`. The pages
    /// themselves stay in the buffer pools and reach disk through the
    /// WAL-safe eviction and checkpoint paths.
    pub fn log_table_dirty(&mut self, name: &str) -> Result<Option<u64>> {
        let mut max_seq = None;
        let entry = self.catalog.require_mut(name)?;
        let mut bump = |seq: Option<u64>| {
            if let Some(s) = seq {
                max_seq = Some(max_seq.map_or(s, |m: u64| m.max(s)));
            }
        };
        match &mut entry.storage {
            TableStorage::Nf2(os) => bump(os.segment_mut().pool_mut().log_dirty()?),
            TableStorage::Flat(fs) => bump(fs.segment_mut().pool_mut().log_dirty()?),
        }
        for ie in &mut entry.indexes {
            bump(ie.index.segment_mut().pool_mut().log_dirty()?);
        }
        Ok(max_seq)
    }

    /// (Re)build a text index over a table's current rows (catalog
    /// reload; text indexes are derived state).
    pub(crate) fn rebuild_text_index(
        &mut self,
        table: &str,
        name: &str,
        attr: &Path,
    ) -> Result<()> {
        self.create_text_index(name, table, attr)?;
        Ok(())
    }

    /// Direct access to a table's NF² object store (benches, planner).
    pub fn object_store_mut(&mut self, table: &str) -> Result<&mut ObjectStore> {
        self.catalog.require_mut(table)?.nf2_mut()
    }

    /// Direct access to a named attribute index (benches, planner).
    pub fn index_mut(&mut self, table: &str, index_name: &str) -> Result<&mut NfIndex> {
        let entry = self.catalog.require_mut(table)?;
        entry
            .indexes
            .iter_mut()
            .find(|i| i.name == index_name)
            .map(|i| &mut i.index)
            .ok_or_else(|| DbError::Catalog(format!("no such index: {index_name}")))
    }

    /// A table's schema.
    pub fn schema(&self, table: &str) -> Result<TableSchema> {
        self.catalog
            .get(table)
            .map(|t| t.schema.clone())
            .ok_or_else(|| DbError::Catalog(format!("no such table: {table}")))
    }

    /// Handles of an NF² table's objects.
    pub fn handles(&mut self, table: &str) -> Result<Vec<ObjectHandle>> {
        Ok(self.catalog.require_mut(table)?.nf2_mut()?.handles()?)
    }

    /// Objects currently quarantined, as `(table, root TID)` pairs.
    pub fn quarantined(&self) -> Vec<(String, Tid)> {
        self.quarantine.iter().cloned().collect()
    }

    /// Whether one object is quarantined.
    pub fn is_quarantined(&self, table: &str, object: Tid) -> bool {
        self.quarantine.contains(&(table.to_string(), object))
    }

    /// Lift a table's quarantine entries (after salvage or repair).
    pub fn clear_quarantine(&mut self, table: &str) {
        self.quarantine.retain(|(t, _)| t != table);
    }

    pub(crate) fn quarantine_insert(&mut self, table: &str, object: Tid) -> bool {
        let fresh = self.quarantine.insert((table.to_string(), object));
        if fresh {
            self.stats.inc_object_quarantined();
        }
        fresh
    }

    /// Quarantined root TIDs of one table.
    pub(crate) fn quarantined_in(&self, table: &str) -> BTreeSet<Tid> {
        self.quarantine
            .iter()
            .filter(|(t, _)| t == table)
            .map(|(_, o)| *o)
            .collect()
    }

    fn check_quarantine(&self, table: &str, object: Tid) -> Result<()> {
        if self.is_quarantined(table, object) {
            return Err(DbError::ObjectQuarantined {
                table: table.to_string(),
                object,
            });
        }
        Ok(())
    }

    /// Auto-quarantine on corruption-class read failures: the first read
    /// surfaces the storage error, every later one skips the unit (scans)
    /// or gets the typed quarantine error (object reads) without touching
    /// the damaged pages again. `unit` is the root TID of a heap row or
    /// object, or the home TID of a cold block — a block is one record,
    /// damaged as a unit, and its CRC guards the whole record, so for
    /// `cold` units a checksum mismatch counts as well.
    fn note_read_error(
        &mut self,
        table: &str,
        unit: Tid,
        cold: bool,
        e: &aim2_storage::StorageError,
    ) {
        use aim2_storage::StorageError as SE;
        if matches!(
            e,
            SE::Corrupt(_) | SE::CorruptPage { .. } | SE::CorruptData(_)
        ) || (cold && matches!(e, SE::ChecksumMismatch(_)))
        {
            self.quarantine_insert(table, unit);
        }
    }

    /// Read one whole object of an NF² table — the "check-out" read the
    /// paper's local address spaces (§4.1) enable, and the unit the
    /// transaction layer locks on.
    pub fn read_object(&mut self, table: &str, handle: ObjectHandle) -> Result<Tuple> {
        self.check_quarantine(table, handle.0)?;
        let entry = self.catalog.require_mut(table)?;
        let schema = entry.schema.clone();
        let out = entry.nf2_mut()?.read_object(&schema, handle);
        if let Err(e) = &out {
            self.note_read_error(table, handle.0, false, e);
        }
        Ok(out?)
    }

    /// Read just the atomic attributes at `loc` inside an object — the
    /// before-image the transaction layer records so an aborted update
    /// can be undone *in place* (the handle stays stable for waiters).
    pub fn read_object_atoms(
        &mut self,
        table: &str,
        handle: ObjectHandle,
        loc: &ElemLoc,
    ) -> Result<Vec<Atom>> {
        self.check_quarantine(table, handle.0)?;
        let entry = self.catalog.require_mut(table)?;
        let schema = entry.schema.clone();
        let out = entry.nf2_mut()?.read_atoms_at(&schema, handle, loc);
        if let Err(e) = &out {
            self.note_read_error(table, handle.0, false, e);
        }
        Ok(out?)
    }

    /// Update the atomic attributes of one (sub)tuple of an object, with
    /// index/text/version maintenance — the object-granularity write the
    /// transaction layer exposes through checked-out sessions.
    pub fn update_object_atoms(
        &mut self,
        table: &str,
        handle: ObjectHandle,
        loc: &ElemLoc,
        atoms: &[Atom],
    ) -> Result<()> {
        self.check_quarantine(table, handle.0)?;
        self.mutate_object(table, handle, |schema, os| {
            os.update_atoms(schema, handle, loc, atoms)
                .map_err(Into::into)
        })
    }

    /// The one table walk: scan keys of every live row of `table` in
    /// scan order — cold keys of unquarantined blocks first (they hold
    /// the oldest rows, so every consumer sees insertion order), then
    /// hot TIDs / object handles minus quarantine. `candidates`, when
    /// an index restricted the scan, stands in for an NF² table's full
    /// handle list. Pushed single-attribute `conjuncts` and `ranges`
    /// check each cold block's zone maps *before* any decode: a block
    /// whose min/max cannot satisfy them is skipped wholesale.
    fn walk_keys(
        &mut self,
        table: &str,
        candidates: Option<Vec<ObjectHandle>>,
        conjuncts: &[(Path, Atom)],
        ranges: &[(Path, RangePred)],
    ) -> Result<TableWalk> {
        let quarantined = self.quarantined_in(table);
        let TableEntry {
            schema, storage, ..
        } = self.catalog.require_mut(table)?;
        let mut walk = TableWalk::default();
        let hot = match storage {
            TableStorage::Nf2(os) => match candidates {
                Some(handles) => handles,
                None => os.handles()?,
            }
            .into_iter()
            .map(|h| h.0)
            .collect(),
            TableStorage::Flat(fs) => {
                let eqs: Vec<_> = conjuncts
                    .iter()
                    .filter_map(|(p, a)| Some((column_of(schema, p)?, a)))
                    .collect();
                let ranges: Vec<_> = ranges
                    .iter()
                    .filter_map(|(p, r)| Some((column_of(schema, p)?, r)))
                    .collect();
                walk.cold_blocks = fs.cold_blocks().len();
                for (ord, meta) in fs.cold_blocks().iter().enumerate() {
                    if quarantined.contains(&meta.tid) {
                        continue; // unreadable; salvage is the way back
                    }
                    let admitted = eqs
                        .iter()
                        .all(|(i, a)| meta.zones.get(*i).is_none_or(|z| zone_may_contain(z, a)))
                        && ranges.iter().all(|(i, r)| {
                            meta.zones
                                .get(*i)
                                .is_none_or(|z| zone_may_intersect(z, r.lo.as_ref(), r.hi.as_ref()))
                        });
                    if !admitted {
                        walk.pruned += 1;
                        self.stats.inc_colstore_block_pruned();
                        continue;
                    }
                    walk.keys
                        .extend((0..meta.rows).map(|row| cold_key(ord, row)));
                }
                fs.tids().to_vec()
            }
        };
        let cold_rows = walk.keys.len();
        walk.keys.extend(
            hot.into_iter()
                .filter(|t| !quarantined.contains(t))
                .map(Tid::to_u64),
        );
        walk.hot = walk.keys.len() - cold_rows;
        Ok(walk)
    }

    /// The one keyed read: the rows behind a run of scan keys, in key
    /// order. The catalog entry and schema are resolved once per call
    /// and each cold block is decoded once per consecutive run of its
    /// keys. The request's projection prunes NF² subtables; a pushed
    /// `attr = lit` whose literal is absent from a cold block's
    /// dictionary rules out every row of that block without touching a
    /// code, so fewer rows than keys may come back. A corruption-class
    /// failure quarantines the unit that failed before the error
    /// surfaces — the next scan skips it.
    pub fn read_keys(&mut self, req: &ScanRequest, keys: &[u64]) -> Result<Vec<Tuple>> {
        let table = req.table.as_str();
        let TableEntry {
            schema, storage, ..
        } = self.catalog.require_mut(table)?;
        let stats = &self.stats;
        let keep = |p: &Path| req.projection.as_ref().is_none_or(|r| r.keep(p));
        let mut rows = Vec::with_capacity(keys.len());
        // The quarantine unit being read: (home TID, is a cold block).
        let mut unit = None;
        let mut read = || -> aim2_storage::Result<()> {
            let mut rest = keys;
            while let Some(&key) = rest.first() {
                match (&mut *storage, split_cold_key(key)) {
                    (storage, None) => {
                        let tid = Tid::from_u64(key);
                        unit = Some((tid, false));
                        rows.push(match storage {
                            TableStorage::Nf2(os) => {
                                os.read_object_projected(schema, ObjectHandle(tid), &keep)?
                            }
                            TableStorage::Flat(fs) => fs.read(tid)?,
                        });
                        rest = &rest[1..];
                    }
                    (TableStorage::Flat(fs), Some((block, _))) => {
                        let len = rest
                            .iter()
                            .take_while(|&&k| split_cold_key(k).is_some_and(|(b, _)| b == block))
                            .count();
                        let (run, tail) = rest.split_at(len);
                        rest = tail;
                        unit = fs.cold_blocks().get(block).map(|m| (m.tid, true));
                        let decoded = fs.read_cold_block(block)?;
                        let ruled_out = req.conjuncts.iter().any(|(p, a)| {
                            column_of(schema, p)
                                .and_then(|i| decoded.columns.get(i))
                                .is_some_and(|c| c.code_of(a).is_none())
                        });
                        if ruled_out {
                            continue;
                        }
                        for &k in run {
                            let (_, row) = split_cold_key(k).expect("a run of cold keys");
                            rows.push(decoded.row(row as usize)?);
                        }
                        // Decode accounting parity with heap reads: one
                        // object and `arity` atoms per materialized row.
                        stats.add_objects_decoded(run.len() as u64);
                        stats.add_atoms_decoded((run.len() * decoded.columns.len()) as u64);
                    }
                    (TableStorage::Nf2(_), Some(_)) => {
                        unit = None;
                        return Err(aim2_storage::StorageError::Corrupt(format!(
                            "cold row key on NF² table {table}"
                        )));
                    }
                }
            }
            Ok(())
        };
        let out = read();
        if let (Err(e), Some((tid, cold))) = (&out, unit) {
            self.note_read_error(table, tid, cold, e);
        }
        out?;
        Ok(rows)
    }

    /// Every live row of `table` paired with its scan key, through the
    /// one walk and the one keyed read.
    fn live_rows(
        &mut self,
        table: &str,
        projection: Option<Referenced>,
    ) -> Result<(Vec<u64>, Vec<Tuple>)> {
        let keys = self.walk_keys(table, None, &[], &[])?.keys;
        let req = ScanRequest {
            projection,
            ..ScanRequest::full(table, None)
        };
        let rows = self.read_keys(&req, &keys)?;
        Ok((keys, rows))
    }

    /// The logical contents of a table (whole tuples, storage-agnostic)
    /// — the transaction layer's undo snapshot.
    pub fn snapshot_table(&mut self, table: &str) -> Result<Vec<Tuple>> {
        Ok(self.live_rows(table, None)?.1)
    }

    /// Like [`Database::snapshot_table`], but each tuple is paired with
    /// its storage key (root TID packed to `u64`) in scan order — the
    /// whole-table state a committing transaction publishes to the MVCC
    /// epoch store, keyed so later object-granularity commits can patch
    /// individual rows instead of re-snapshotting.
    pub fn snapshot_table_keyed(&mut self, table: &str) -> Result<Vec<(u64, Tuple)>> {
        let (keys, rows) = self.live_rows(table, None)?;
        Ok(keys.into_iter().zip(rows).collect())
    }

    /// Replace a table's contents with a previous [`Database::snapshot_table`]
    /// — transaction rollback. Every live row/object is deleted and
    /// the snapshot reinserted through the regular maintenance paths, so
    /// attribute indexes and text indexes stay consistent. NF² object
    /// handles are reassigned; on versioned tables the restored states
    /// re-record under the current date, overwriting the aborted same-date
    /// entries.
    pub fn restore_table(&mut self, table: &str, tuples: Vec<Tuple>) -> Result<()> {
        // Rollback rewrites the heap row-wise; thaw any cold tier first
        // so the delete loop below sees every live row.
        self.melt_if_cold(table)?;
        // Delete what the snapshot saw: the live rows. Quarantined ones
        // were not part of it and stay where they are.
        let keys = self.walk_keys(table, None, &[], &[])?.keys;
        let nf2 = matches!(
            self.catalog.require_mut(table)?.storage,
            TableStorage::Nf2(_)
        );
        for tid in keys.into_iter().map(Tid::from_u64) {
            if nf2 {
                self.delete_object(table, ObjectHandle(tid))?;
            } else {
                self.delete_flat_row(table, tid)?;
            }
        }
        for t in tuples {
            self.insert_tuple(table, t)?;
        }
        Ok(())
    }

    /// Restore one NF² object to a previous state (object-granularity
    /// rollback): the current object is deleted and the old state
    /// reinserted, yielding a fresh handle.
    pub fn restore_object(
        &mut self,
        table: &str,
        handle: ObjectHandle,
        old: Tuple,
    ) -> Result<ObjectHandle> {
        self.delete_object(table, handle)?;
        let key = self.insert_tuple(table, old)?;
        key.handle()
            .ok_or_else(|| DbError::Catalog("restore_object on a flat table".into()))
    }

    // =================================================================
    // Tiered cold store (columnar blocks)
    // =================================================================

    /// Freeze a flat table's hot heap rows into immutable columnar cold
    /// blocks of up to [`BLOCK_ROWS`] rows each. The blocks ride the
    /// table's own segment (same buffer pool, WAL, checkpoint), the
    /// per-column zone maps land in the catalog, and text indexes are
    /// rebuilt over the hot+cold union. Returns `(blocks built, rows
    /// frozen)`. Refused for NF² and versioned tables — version
    /// recording rewrites rows, which cold blocks cannot do in place.
    pub fn compact_table(&mut self, table: &str) -> Result<(usize, u64)> {
        let entry = self.catalog.require_mut(table)?;
        if entry.versions.is_some() {
            return Err(DbError::Catalog(format!(
                "cannot compact versioned table {table}"
            )));
        }
        let TableStorage::Flat(fs) = &mut entry.storage else {
            return Err(DbError::Catalog(format!(
                "compact targets flat (1NF) tables; {table} is NF²"
            )));
        };
        let (blocks, rows) = {
            let _t = self.stats.time_colstore_compact();
            fs.freeze(BLOCK_ROWS)?
        };
        if blocks > 0 {
            self.rebuild_flat_text_indexes(table)?;
            self.log_table_dirty(table)?;
        }
        Ok((blocks, rows))
    }

    /// Per-table tier occupancy: `(table, hot rows/objects, cold
    /// blocks, cold rows)`. NF² tables report their object count as hot
    /// and an empty cold tier.
    pub fn table_tiers(&mut self) -> Result<Vec<(String, usize, usize, u64)>> {
        let mut out = Vec::new();
        for name in self.catalog.table_names() {
            let entry = self.catalog.require_mut(&name)?;
            let row = match &mut entry.storage {
                TableStorage::Flat(fs) => (
                    name.clone(),
                    fs.len(),
                    fs.cold_blocks().len(),
                    fs.cold_row_count(),
                ),
                TableStorage::Nf2(os) => (name.clone(), os.handles()?.len(), 0, 0),
            };
            out.push(row);
        }
        Ok(out)
    }

    /// Thaw a table's cold tier before row-wise DML ("melt on write"):
    /// cold blocks are immutable, so updates and deletes first return
    /// every frozen row to the heap. No-op for hot-only and NF² tables.
    fn melt_if_cold(&mut self, table: &str) -> Result<()> {
        let Some(entry) = self.catalog.get_mut(table) else {
            return Ok(()); // DML reports the missing table itself
        };
        let TableStorage::Flat(fs) = &mut entry.storage else {
            return Ok(());
        };
        if fs.cold_blocks().is_empty() {
            return Ok(());
        }
        fs.melt()?;
        self.clear_quarantine(table);
        self.rebuild_flat_text_indexes(table)?;
        self.log_table_dirty(table)?;
        Ok(())
    }

    /// Recompute every text index of a flat table from its current
    /// hot+cold contents. Cold rows register under their packed cold
    /// key, hot rows under their TID doc id; tier moves invalidate
    /// both, so compaction and melting rebuild rather than patch.
    fn rebuild_flat_text_indexes(&mut self, table: &str) -> Result<()> {
        if self.catalog.require_mut(table)?.text_indexes.is_empty() {
            return Ok(());
        }
        let (keys, rows) = self.live_rows(table, None)?;
        let TableEntry {
            schema,
            text_indexes,
            ..
        } = self.catalog.require_mut(table)?;
        for tix in text_indexes {
            tix.index = build_text_index(schema, &tix.attr, &keys, &rows);
        }
        Ok(())
    }

    /// The version store of a versioned table (walk-through-time lives
    /// at this API level, as in the paper).
    pub fn versions(&self, table: &str) -> Result<&VersionedTable> {
        self.catalog
            .get(table)
            .ok_or_else(|| DbError::Catalog(format!("no such table: {table}")))?
            .versions
            .as_ref()
            .ok_or_else(|| DbError::Catalog(format!("table {table} is not versioned")))
    }
}

#[cfg(test)]
mod send_tests {
    /// The transaction layer wraps `Database` in `Mutex` inside an `Arc`
    /// and hands sessions to worker threads — that only works if the
    /// whole object graph (pools, disks, WAL handle) is `Send`.
    #[test]
    fn database_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<super::Database>();
    }
}
