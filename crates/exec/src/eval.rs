//! The streaming evaluator.
//!
//! Nested-loop evaluation of SELECT-FROM-WHERE: FROM bindings are
//! enumerated left to right (later bindings may range over attributes of
//! earlier variables — "a good mental model ... is to associate them
//! with a loop which runs over all tuples of the relation they are bound
//! to", §3); WHERE filters each combination; SELECT items (including
//! correlated subqueries) build each result tuple.
//!
//! Execution is a pull-based cursor pipeline over one primitive,
//! [`TableProvider::next_batch`], with the pushdown contract
//! (projection + indexable conjuncts) carried down in the
//! [`ScanRequest`]. The outermost stored-table binding pulls
//! [`BATCH_ROWS`] rows at a time and filters each batch before fanning
//! it into the nested loops; stored-table quantifiers pull one row at
//! a time, so `EXISTS` and `FORALL` stop reading pages the moment they
//! are decided. Inner join bindings materialize once into a per-query
//! scan cache (a join partner is enumerated many times; re-decoding it
//! per outer row would be worse than the paper's own design). Setting
//! [`Evaluator::materialize`] selects the reference
//! materialize-then-evaluate behavior — the oracle the equivalence
//! suite compares against.

use crate::analysis::{referenced_paths, Referenced};
use crate::analyze::{AnalyzedPlan, OpMetrics};
use crate::error::ExecError;
use crate::infer::{infer_query_schema, SchemaEnv};
use crate::plan::{collect_subscripts, render_expr, PhysOp, PhysicalPlan};
use crate::provider::{ObjectCursor, RangePred, ScanRequest, TableProvider, BATCH_ROWS};
use crate::value::{compare, resolve, EvalValue};
use crate::Result;
use aim2_lang::ast::{Binding, Expr, NamedValue, Query, SelectItem, Source};
use aim2_model::{Atom, AttrKind, Date, Path, TableKind, TableSchema, TableValue, Tuple, Value};
use aim2_text::Pattern;
use std::collections::HashMap;
use std::time::Instant;

/// Row-at-a-time consumer for [`Evaluator::eval_query_streamed`].
///
/// `on_start` is called exactly once with the inferred result schema
/// and kind before any row; `on_row` is called per result row in
/// production order. Returning an error from either aborts evaluation
/// immediately — cursors close through the normal unwind path — which
/// is how a slow or departed consumer (e.g. a network client that
/// cancelled) stops a query without draining it.
pub trait RowSink {
    fn on_start(&mut self, schema: &TableSchema, kind: TableKind) -> Result<()>;
    fn on_row(&mut self, row: Tuple) -> Result<()>;
}

/// Vectorized filter for the head scan: *exact* top-level conjuncts of
/// the WHERE (single-attribute equality / range / CONTAINS on the head
/// variable), applied to each batch before rows fan out into the
/// nested-loop pipeline. Exactness matters: a dropped row
/// never reaches the re-checking Filter, so only conjuncts that are
/// unconditionally required may appear here. Anything the filter is
/// unsure about (non-atom value, type mismatch) is kept and left to
/// the row-wise predicate, which also owns error reporting.
struct VecFilter {
    var: String,
    eqs: Vec<(String, Atom)>,
    ranges: Vec<(String, RangePred)>,
    contains: Vec<(String, Pattern)>,
}

impl VecFilter {
    /// Test one field against an equality key: `false` only when the
    /// row provably fails the conjunct.
    fn eq_keeps(v: &Value, key: &Atom) -> bool {
        match v {
            Value::Atom(a) => !matches!(
                a.partial_cmp_same(key),
                Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Greater)
            ),
            Value::Table(_) => true,
        }
    }

    fn range_keeps(v: &Value, pred: &RangePred) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let Value::Atom(a) = v else { return true };
        if let Some((lo, inclusive)) = &pred.lo {
            match a.partial_cmp_same(lo) {
                Some(Less) => return false,
                Some(Equal) if !inclusive => return false,
                _ => {}
            }
        }
        if let Some((hi, inclusive)) = &pred.hi {
            match a.partial_cmp_same(hi) {
                Some(Greater) => return false,
                Some(Equal) if !inclusive => return false,
                _ => {}
            }
        }
        true
    }

    fn contains_keeps(v: &Value, p: &Pattern) -> bool {
        match v {
            Value::Atom(a) => match a.as_str() {
                Some(text) => aim2_text::tokenize(text).iter().any(|w| p.matches(w)),
                None => true,
            },
            Value::Table(_) => true,
        }
    }
}

/// One bound tuple variable.
#[derive(Debug, Clone)]
struct Frame {
    var: String,
    schema: TableSchema,
    tuple: Tuple,
}

/// The evaluation environment: a stack of frames.
#[derive(Debug, Clone, Default)]
struct Env {
    frames: Vec<Frame>,
}

impl Env {
    fn lookup(&self, var: &str) -> Option<&Frame> {
        self.frames.iter().rev().find(|f| f.var == var)
    }
}

/// Key of one cached stored-table scan: table name, ASOF date, and —
/// for pruned scans — the binding variable whose referenced paths
/// shaped the projection.
type ScanKey = (String, Option<Date>, Option<String>);

/// Query evaluator over a [`TableProvider`].
pub struct Evaluator<'p, P: TableProvider> {
    provider: &'p mut P,
    /// Per-query cache of materialized stored-table scans, so a join
    /// binding does not rescan per outer combination. Pruned
    /// (projected) scans are keyed by the binding variable as well, so
    /// a partial materialization is never served to a binding (e.g. in
    /// a subquery) that needs more of the table.
    scan_cache: HashMap<ScanKey, (TableSchema, TableValue)>,
    /// Whether to push projection down into the provider (partial
    /// retrieval). On by default; benches toggle it to measure the gain.
    pub projection_pushdown: bool,
    /// Reference materializing mode: drain every scan fully before
    /// evaluating, with no pushdown and no early exits — the
    /// pre-cursor behavior the equivalence suite compares against.
    pub materialize: bool,
    /// Referenced-path analysis of the current query (projection
    /// pushdown contract), keyed by binding variable.
    refs: HashMap<String, Referenced>,
    /// Predicate pushdown for the current query's root binding:
    /// the single stored-table binding the indexable/CONTAINS conjuncts
    /// unambiguously constrain, if any.
    pushed_var: Option<String>,
    pushed_conjuncts: Vec<(Path, Atom)>,
    pushed_contains: Vec<(Path, String)>,
    pushed_ranges: Vec<(Path, RangePred)>,
    /// Vectorized filter for the current query's head scan, when its
    /// WHERE has exact single-attribute conjuncts on the head variable.
    vec_filter: Option<VecFilter>,
    /// The operator tree of the current query; scans record their
    /// provider-chosen access path as their cursors open.
    plan: Option<PhysicalPlan>,
    /// EXPLAIN ANALYZE mode: attribute rows, decode-counter deltas and
    /// wall time to plan operators while executing.
    analyze: bool,
    /// Per-operator metrics, parallel to `plan.nodes` (empty when not
    /// analyzing).
    ops: Vec<OpMetrics>,
    /// AST binding address → plan node, recorded during lowering. The
    /// query is borrowed unmoved for the whole evaluation, so node
    /// addresses are stable keys — and unlike variable names they stay
    /// unambiguous when subqueries reuse a variable.
    binding_nodes: HashMap<usize, usize>,
    /// AST query address → (Filter node, Project node).
    query_nodes: HashMap<usize, (Option<usize>, usize)>,
    /// Wall-clock budget for the current statement, checked at the
    /// cursor-pull choke point. `None` means no deadline.
    deadline: Option<crate::deadline::Deadline>,
}

impl<'p, P: TableProvider> Evaluator<'p, P> {
    pub fn new(provider: &'p mut P) -> Evaluator<'p, P> {
        Evaluator {
            provider,
            scan_cache: HashMap::new(),
            projection_pushdown: true,
            materialize: false,
            refs: HashMap::new(),
            pushed_var: None,
            pushed_conjuncts: Vec::new(),
            pushed_contains: Vec::new(),
            pushed_ranges: Vec::new(),
            vec_filter: None,
            plan: None,
            analyze: false,
            ops: Vec::new(),
            binding_nodes: HashMap::new(),
            query_nodes: HashMap::new(),
            deadline: None,
        }
    }

    /// Bound the statement's total wall time: once the deadline passes,
    /// the next cursor pull raises [`ExecError::DeadlineExceeded`] and
    /// evaluation unwinds through the normal cursor-closing path.
    pub fn set_deadline(&mut self, deadline: Option<crate::deadline::Deadline>) {
        self.deadline = deadline;
    }

    /// Attribute runtime metrics (rows, decode deltas, wall time) to
    /// plan operators while executing — EXPLAIN ANALYZE. Collect the
    /// result with [`Evaluator::take_analysis`] after `eval_query`.
    pub fn enable_analyze(&mut self) {
        self.analyze = true;
    }

    /// The annotated plan of the last query evaluated with analysis
    /// enabled (`total_wall_ns` is left for the caller, which owns the
    /// end-to-end clock).
    pub fn take_analysis(&mut self) -> Option<AnalyzedPlan> {
        if !self.analyze {
            return None;
        }
        let plan = self.plan.take()?;
        let mut ops = std::mem::take(&mut self.ops);
        ops.resize(plan.nodes.len(), OpMetrics::default());
        Some(AnalyzedPlan {
            plan,
            ops,
            total_wall_ns: 0,
        })
    }

    /// Stable attribution key for a FROM/quantifier binding (the
    /// monomorphic parameter forces `&Box<Binding>` callers through
    /// deref coercion, so every site keys the same heap address).
    fn baddr(b: &Binding) -> usize {
        b as *const Binding as usize
    }

    /// Stable attribution key for a (sub)query.
    fn qaddr(q: &Query) -> usize {
        q as *const Query as usize
    }

    /// Evaluate a predicate against explicit variable bindings — the
    /// entry point DML uses to qualify objects and elements (the frames
    /// are the UPDATE/DELETE binding chain).
    pub fn eval_predicate(
        &mut self,
        frames: &[(String, TableSchema, Tuple)],
        e: &Expr,
    ) -> Result<bool> {
        self.refs.clear();
        self.pushed_var = None;
        self.pushed_conjuncts.clear();
        self.pushed_contains.clear();
        self.pushed_ranges.clear();
        self.vec_filter = None;
        let mut env = Env {
            frames: frames
                .iter()
                .map(|(var, schema, tuple)| Frame {
                    var: var.clone(),
                    schema: schema.clone(),
                    tuple: tuple.clone(),
                })
                .collect(),
        };
        self.eval_pred(e, &mut env)
    }

    /// The physical plan of the last evaluated query.
    pub fn physical_plan(&self) -> Option<&PhysicalPlan> {
        self.plan.as_ref()
    }

    /// Take ownership of the last query's physical plan.
    pub fn take_plan(&mut self) -> Option<PhysicalPlan> {
        self.plan.take()
    }

    /// Compute pushdown state and the operator tree for `q` without
    /// executing it.
    fn prepare(&mut self, q: &Query) {
        self.scan_cache.clear();
        self.refs = if self.projection_pushdown && !self.materialize {
            referenced_paths(q)
        } else {
            HashMap::new()
        };
        self.pushed_var = None;
        self.pushed_conjuncts.clear();
        self.pushed_contains.clear();
        self.pushed_ranges.clear();
        self.vec_filter = None;
        if !self.materialize {
            if let Some((var, conj, cont, ranges)) = compute_pushdown(q) {
                self.pushed_var = Some(var);
                self.pushed_conjuncts = conj;
                self.pushed_contains = cont;
                self.pushed_ranges = ranges;
            }
            if let (Some(b), Some(w)) = (q.from.first(), q.where_.as_ref()) {
                if matches!(b.source, Source::Table(_)) {
                    let eqs = crate::planner::eq_conditions(w, &b.var);
                    let ranges = crate::planner::range_conditions(w, &b.var);
                    let contains = crate::planner::contains_conditions(w, &b.var);
                    if !(eqs.is_empty() && ranges.is_empty() && contains.is_empty()) {
                        self.vec_filter = Some(VecFilter {
                            var: b.var.clone(),
                            eqs: eqs.into_iter().map(|(p, a)| (p.to_string(), a)).collect(),
                            ranges: ranges
                                .into_iter()
                                .map(|(p, r)| (p.to_string(), r))
                                .collect(),
                            contains: contains
                                .into_iter()
                                .map(|(p, m)| (p.to_string(), Pattern::parse(&m)))
                                .collect(),
                        });
                    }
                }
            }
        }
        self.binding_nodes.clear();
        self.query_nodes.clear();
        let plan = self.lower_plan(q);
        self.ops.clear();
        if self.analyze {
            self.ops = vec![OpMetrics::default(); plan.nodes.len()];
        }
        self.plan = Some(plan);
    }

    /// The one pull: up to `max_rows` rows from `cur`. Every evaluator
    /// pull goes through here, so the statement deadline is checked
    /// here and, when analyzing, the pull's decode and cold-store
    /// counter deltas and wall time are attributed to the cursor's plan
    /// node — summing the per-operator `objects` deltas always
    /// reproduces the query's total Stats delta. (Deltas use saturating
    /// subtraction: the counters are process-shared, so a concurrent
    /// session can only over-attribute, never underflow.)
    fn pull(&mut self, cur: &mut ObjectCursor, max_rows: usize) -> Result<Option<Vec<Tuple>>> {
        if let Some(d) = self.deadline {
            if d.expired() {
                aim2_obs::note_event("deadline.exceeded");
                return Err(ExecError::DeadlineExceeded);
            }
        }
        if !self.analyze {
            return self.provider.next_batch(cur, max_rows);
        }
        let t0 = Instant::now();
        let (obj0, atom0) = self.provider.decode_counters();
        let (_, dec0, val0) = self.provider.colstore_counters();
        let batch = self.provider.next_batch(cur, max_rows);
        let (obj1, atom1) = self.provider.decode_counters();
        let (_, dec1, val1) = self.provider.colstore_counters();
        let node = cur
            .plan_node
            .unwrap_or_else(|| self.plan.as_ref().map_or(0, |p| p.root));
        if let Some(m) = self.ops.get_mut(node) {
            m.objects_decoded += obj1.saturating_sub(obj0);
            m.atoms_decoded += atom1.saturating_sub(atom0);
            m.blocks_decoded += dec1.saturating_sub(dec0);
            m.values_scanned += val1.saturating_sub(val0);
            m.wall_ns += t0.elapsed().as_nanos() as u64;
            if let Ok(Some(rows)) = &batch {
                m.rows_out += rows.len() as u64;
            }
        }
        batch
    }

    /// Note a cursor open against its plan node: one more loop, and the
    /// candidate set it was opened over flows in.
    fn note_open(&mut self, node: Option<usize>, candidates: usize) {
        if !self.analyze {
            return;
        }
        if let Some(m) = node.and_then(|i| self.ops.get_mut(i)) {
            m.loops += 1;
            m.rows_in += candidates as u64;
        }
    }

    /// Note one result tuple flowing through a Project node.
    fn note_project(&mut self, node: Option<usize>, t0: Option<Instant>) {
        if let Some(m) = node.and_then(|i| self.ops.get_mut(i)) {
            m.rows_in += 1;
            m.rows_out += 1;
            if let Some(t0) = t0 {
                m.wall_ns += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Note an ordered-list subscript evaluation against its
    /// OrderedSubscript plan node (matched by rendered expression).
    fn note_subscript(&mut self, e: &Expr) {
        let rendered = render_expr(e);
        let idx = self.plan.as_ref().and_then(|p| {
            p.nodes.iter().position(
                |n| matches!(&n.op, PhysOp::OrderedSubscript { expr } if *expr == rendered),
            )
        });
        if let Some(m) = idx.and_then(|i| self.ops.get_mut(i)) {
            m.rows_in += 1;
            m.rows_out += 1;
        }
    }

    /// Build the physical plan for `q`, opening (and immediately
    /// closing) the root cursor so the plan records the access path the
    /// provider would choose — EXPLAIN without execution.
    pub fn plan_query(&mut self, q: &Query) -> Result<PhysicalPlan> {
        self.prepare(q);
        if let Some(b) = q.from.first() {
            if matches!(b.source, Source::Table(_)) {
                let (_, cur) = self.open_table_cursor(b, true, true)?;
                self.provider.close_scan(cur);
            }
        }
        Ok(self.plan.take().unwrap_or_default())
    }

    /// Evaluate a whole query; returns the inferred result schema and
    /// the result table.
    pub fn eval_query(&mut self, q: &Query) -> Result<(TableSchema, TableValue)> {
        let schema = infer_query_schema(q, self.provider, &mut SchemaEnv::new(), "RESULT")?;
        self.prepare(q);
        let mut env = Env::default();
        let value = self.eval_query_env(q, &mut env, true)?;
        Ok((schema, value))
    }

    /// Evaluate a whole query, delivering rows to `sink` as they are
    /// produced instead of materializing a result table. The sink sees
    /// `on_start` (inferred schema + result kind) exactly once, then
    /// `on_row` per result row in production order; a sink error aborts
    /// evaluation and propagates (this is how a network peer cancels a
    /// half-streamed query).
    pub fn eval_query_streamed(&mut self, q: &Query, sink: &mut dyn RowSink) -> Result<()> {
        let schema = infer_query_schema(q, self.provider, &mut SchemaEnv::new(), "RESULT")?;
        {
            let _plan = aim2_obs::capture_span("exec.plan");
            self.prepare(q);
        }
        let mut env = Env::default();
        let kind = self.query_kind(q, &env)?;
        sink.on_start(&schema, kind)?;
        self.eval_query_rows(q, &mut env, true, &mut |row| sink.on_row(row))
    }

    /// The kind of a query's result: `SELECT *` keeps the source's kind
    /// (a list stays a list), everything else builds a relation. Also
    /// enforces the `SELECT *` shape rule. Only consults bindings bound
    /// *outside* `q` (its own first binding cannot be in scope for
    /// itself), so this is stable whether asked before or after the
    /// enumeration loop.
    fn query_kind(&mut self, q: &Query, env: &Env) -> Result<TableKind> {
        let star = q.select.iter().any(|i| matches!(i, SelectItem::Star));
        if star && (q.select.len() != 1 || q.from.len() != 1) {
            return Err(ExecError::Semantic(
                "`SELECT *` requires exactly one item and one binding".into(),
            ));
        }
        if star {
            self.binding_kind(&q.from[0], env)
        } else {
            Ok(TableKind::Relation)
        }
    }

    fn eval_query_env(&mut self, q: &Query, env: &mut Env, top: bool) -> Result<TableValue> {
        let kind = self.query_kind(q, env)?;
        let mut tuples = Vec::new();
        self.eval_query_rows(q, env, top, &mut |row| {
            tuples.push(row);
            Ok(())
        })?;
        Ok(TableValue { kind, tuples })
    }

    /// Core enumeration: run `q`'s binding loops and hand each result
    /// row to `out`. Shared by the materializing path ([`Self::eval_query`],
    /// subqueries) and the streaming path ([`Self::eval_query_streamed`]).
    fn eval_query_rows(
        &mut self,
        q: &Query,
        env: &mut Env,
        top: bool,
        out: &mut dyn FnMut(Tuple) -> Result<()>,
    ) -> Result<()> {
        // Projection pushdown and head streaming apply to the top-level
        // query's bindings only; subquery scans materialize in full (a
        // correlated subquery re-runs per outer row — its scan must be
        // cacheable and unpruned).
        let use_refs = top && self.projection_pushdown && !self.materialize;
        let stream_head = top && !self.materialize;
        // EXPLAIN ANALYZE attribution for this (sub)query's Filter and
        // Project nodes. Wall times are inclusive: a Filter's clock
        // covers the quantifier pulls its predicate triggers, which the
        // child Scan nodes also account — standard ANALYZE semantics.
        let qn = self.query_nodes.get(&Self::qaddr(q)).copied();
        let filter_node = qn.and_then(|(f, _)| f);
        let project_node = qn.map(|(_, p)| p);
        self.for_each_combination(
            q.from.as_slice(),
            env,
            use_refs,
            stream_head,
            &mut |me, env| {
                if let Some(w) = &q.where_ {
                    let t0 = me.analyze.then(Instant::now);
                    let pass = me.eval_pred(w, env)?;
                    if let Some(m) = filter_node.and_then(|i| me.ops.get_mut(i)) {
                        m.rows_in += 1;
                        if pass {
                            m.rows_out += 1;
                        }
                        if let Some(t0) = t0 {
                            m.wall_ns += t0.elapsed().as_nanos() as u64;
                        }
                    }
                    if !pass {
                        return Ok(());
                    }
                }
                let t0 = me.analyze.then(Instant::now);
                let mut fields = Vec::with_capacity(q.select.len());
                for item in &q.select {
                    match item {
                        SelectItem::Star => {
                            let f = env.lookup(&q.from[0].var).expect("bound");
                            let row = f.tuple.clone();
                            out(row)?;
                            me.note_project(project_node, t0);
                            return Ok(());
                        }
                        SelectItem::Expr(e) => {
                            fields.push(me.eval_value(e, env)?.simplified().into_value()?);
                        }
                        SelectItem::Named { value, .. } => match value {
                            NamedValue::Expr(e) => {
                                fields.push(me.eval_value(e, env)?.simplified().into_value()?)
                            }
                            NamedValue::Subquery(sub) => {
                                let tv = me.eval_query_env(sub, env, false)?;
                                fields.push(Value::Table(tv));
                            }
                        },
                    }
                }
                out(Tuple::new(fields))?;
                me.note_project(project_node, t0);
                Ok(())
            },
        )
    }

    /// The kind (relation/list) of the table a binding ranges over.
    fn binding_kind(&mut self, b: &Binding, env: &Env) -> Result<TableKind> {
        match &b.source {
            Source::Table(name) => Ok(self.provider.table_schema(name)?.kind),
            Source::PathOf { var, path } => {
                let frame = env
                    .lookup(var)
                    .ok_or_else(|| ExecError::UnknownVar(var.clone()))?;
                match resolve(&frame.schema, &frame.tuple, path, var)? {
                    (_, AttrKind::Table(sub)) => Ok(sub.kind),
                    _ => Err(ExecError::Type(format!(
                        "`{var}.{path}` is not table-valued"
                    ))),
                }
            }
        }
    }

    fn parse_asof(b: &Binding) -> Result<Option<Date>> {
        match &b.asof {
            Some(s) => Date::parse_iso(s)
                .map(Some)
                .map_err(|e| ExecError::Semantic(format!("bad ASOF date '{s}': {e}"))),
            None => Ok(None),
        }
    }

    /// Open a cursor over a stored-table binding, carrying the pushdown
    /// contract: the projection (when `use_refs`) and — for the root
    /// binding the conjuncts constrain — the indexable/CONTAINS
    /// conditions.
    fn open_table_cursor(
        &mut self,
        b: &Binding,
        use_refs: bool,
        root: bool,
    ) -> Result<(TableSchema, ObjectCursor)> {
        let Source::Table(name) = &b.source else {
            return Err(ExecError::Semantic("cursor over non-stored source".into()));
        };
        let asof = Self::parse_asof(b)?;
        let schema = self.provider.table_schema(name)?;
        let projection = if use_refs {
            self.refs.get(&b.var).cloned()
        } else {
            None
        };
        let (conjuncts, contains, ranges) =
            if root && asof.is_none() && self.pushed_var.as_deref() == Some(b.var.as_str()) {
                (
                    self.pushed_conjuncts.clone(),
                    self.pushed_contains.clone(),
                    self.pushed_ranges.clone(),
                )
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };
        let req = ScanRequest {
            table: name.clone(),
            asof,
            projection,
            conjuncts,
            contains,
            ranges,
        };
        // Zone-map pruning happens while the scan opens (block skips
        // are decided before any decode), so sample the pruning counter
        // around the open and attribute the delta to the scan node.
        let pruned0 = self.analyze.then(|| self.provider.colstore_counters().0);
        let mut cur = self.provider.open_scan(&req)?;
        if let Some(plan) = &mut self.plan {
            plan.set_access_path(&b.var, &cur.access_path);
        }
        cur.plan_node = self.binding_nodes.get(&Self::baddr(b)).copied();
        if let Some(p0) = pruned0 {
            let p1 = self.provider.colstore_counters().0;
            let node = cur
                .plan_node
                .unwrap_or_else(|| self.plan.as_ref().map_or(0, |p| p.root));
            if let Some(m) = self.ops.get_mut(node) {
                m.blocks_pruned += p1.saturating_sub(p0);
            }
        }
        self.note_open(cur.plan_node, cur.len());
        Ok((schema, cur))
    }

    /// The table a binding ranges over, fully materialized (and cached,
    /// for stored tables) in the current environment.
    fn binding_table(
        &mut self,
        b: &Binding,
        env: &Env,
        use_refs: bool,
    ) -> Result<(TableSchema, TableValue)> {
        match &b.source {
            Source::Table(name) => {
                let asof = Self::parse_asof(b)?;
                let refs = if use_refs {
                    self.refs.get(&b.var).cloned()
                } else {
                    None
                };
                let key = (name.clone(), asof, refs.as_ref().map(|_| b.var.clone()));
                if let Some(hit) = self.scan_cache.get(&key) {
                    return Ok(hit.clone());
                }
                let req = ScanRequest {
                    table: name.clone(),
                    asof,
                    projection: refs,
                    conjuncts: Vec::new(),
                    contains: Vec::new(),
                    ranges: Vec::new(),
                };
                let schema = self.provider.table_schema(name)?;
                let mut cur = self.provider.open_scan(&req)?;
                if let Some(plan) = &mut self.plan {
                    plan.set_access_path(&b.var, &cur.access_path);
                }
                cur.plan_node = self.binding_nodes.get(&Self::baddr(b)).copied();
                self.note_open(cur.plan_node, cur.len());
                let mut tuples = Vec::with_capacity(cur.len());
                while let Some(rows) = self.pull(&mut cur, BATCH_ROWS)? {
                    tuples.extend(rows);
                }
                self.provider.close_scan(cur);
                let value = TableValue {
                    kind: schema.kind,
                    tuples,
                };
                self.scan_cache.insert(key, (schema.clone(), value.clone()));
                Ok((schema, value))
            }
            Source::PathOf { var, path } => {
                if b.asof.is_some() {
                    return Err(ExecError::Semantic(
                        "ASOF applies to stored tables, not inner tables".into(),
                    ));
                }
                let frame = env
                    .lookup(var)
                    .ok_or_else(|| ExecError::UnknownVar(var.clone()))?;
                let (value, kind) = resolve(&frame.schema, &frame.tuple, path, var)?;
                match (value, kind) {
                    (Value::Table(tv), AttrKind::Table(sub)) => Ok((sub.clone(), tv.clone())),
                    _ => Err(ExecError::Type(format!(
                        "`{var}.{path}` is not table-valued"
                    ))),
                }
            }
        }
    }

    /// Enumerate all combinations of the bindings, invoking `f` per
    /// combination. When `stream_head` is set, the first stored-table
    /// binding is pulled through a cursor batch by batch instead of
    /// materializing the table.
    fn for_each_combination(
        &mut self,
        bindings: &[Binding],
        env: &mut Env,
        use_refs: bool,
        stream_head: bool,
        f: &mut dyn FnMut(&mut Self, &mut Env) -> Result<()>,
    ) -> Result<()> {
        match bindings.split_first() {
            None => f(self, env),
            Some((b, rest)) => {
                if stream_head && matches!(b.source, Source::Table(_)) {
                    let (schema, mut cur) = self.open_table_cursor(b, use_refs, true)?;
                    // Batch-at-a-time: pull a batch, run the vectorized
                    // filter (when the WHERE gave us exact head
                    // conjuncts), then fan the survivors into the
                    // nested-loop pipeline. Errors abort between
                    // batches, so a failing query prefetches at most
                    // one batch too many.
                    let vf = self.vec_filter.take().filter(|v| v.var == b.var);
                    let mut res = Ok(());
                    'scan: loop {
                        let batch = match self.pull(&mut cur, BATCH_ROWS) {
                            Ok(Some(batch)) => batch,
                            Ok(None) => break,
                            Err(e) => {
                                res = Err(e);
                                break;
                            }
                        };
                        let rows = self.apply_vec_filter(vf.as_ref(), &schema, batch, &cur);
                        for t in rows {
                            env.frames.push(Frame {
                                var: b.var.clone(),
                                schema: schema.clone(),
                                tuple: t,
                            });
                            let r = self.for_each_combination(rest, env, use_refs, false, f);
                            env.frames.pop();
                            if let Err(e) = r {
                                res = Err(e);
                                break 'scan;
                            }
                        }
                    }
                    self.provider.close_scan(cur);
                    return res;
                }
                let (schema, value) = self.binding_table(b, env, use_refs)?;
                // A PathOf binding is a NestEval operator: it restarts
                // per outer row, passing the inner table's rows through.
                if self.analyze && matches!(b.source, Source::PathOf { .. }) {
                    if let Some(m) = self
                        .binding_nodes
                        .get(&Self::baddr(b))
                        .and_then(|&i| self.ops.get_mut(i))
                    {
                        m.loops += 1;
                        m.rows_in += value.tuples.len() as u64;
                        m.rows_out += value.tuples.len() as u64;
                    }
                }
                for t in value.tuples {
                    env.frames.push(Frame {
                        var: b.var.clone(),
                        schema: schema.clone(),
                        tuple: t,
                    });
                    let r = self.for_each_combination(rest, env, use_refs, false, f);
                    env.frames.pop();
                    r?;
                }
                Ok(())
            }
        }
    }

    /// Run the vectorized filter over one head batch and hand back the
    /// surviving rows. Each row meets the conjuncts in a fixed order —
    /// equalities, ranges, CONTAINS — and stops at the first it fails;
    /// every test made is credited to the provider's
    /// `colstore.values_scanned` counter and, when analyzing, to the
    /// scan operator. With no filter (or a batch whose shape doesn't
    /// match the schema — e.g. a provider that projects columns away)
    /// the batch passes through untouched.
    fn apply_vec_filter(
        &mut self,
        vf: Option<&VecFilter>,
        schema: &TableSchema,
        mut batch: Vec<Tuple>,
        cur: &ObjectCursor,
    ) -> Vec<Tuple> {
        let Some(vf) = vf else {
            return batch;
        };
        if batch
            .first()
            .is_none_or(|t| t.fields.len() != schema.attrs.len())
        {
            return batch;
        }
        fn columns<'v, K>(
            schema: &TableSchema,
            conjuncts: &'v [(String, K)],
        ) -> Vec<(usize, &'v K)> {
            conjuncts
                .iter()
                .filter_map(|(attr, k)| Some((schema.attr_index(attr)?, k)))
                .collect()
        }
        let eqs = columns(schema, &vf.eqs);
        let ranges = columns(schema, &vf.ranges);
        let contains = columns(schema, &vf.contains);
        let mut tested: u64 = 0;
        batch.retain(|row| {
            let mut test = |keeps: bool| {
                tested += 1;
                keeps
            };
            eqs.iter()
                .all(|(c, key)| test(VecFilter::eq_keeps(&row.fields[*c], key)))
                && ranges
                    .iter()
                    .all(|(c, pred)| test(VecFilter::range_keeps(&row.fields[*c], pred)))
                && contains
                    .iter()
                    .all(|(c, p)| test(VecFilter::contains_keeps(&row.fields[*c], p)))
        });
        self.provider.note_values_scanned(tested);
        if self.analyze {
            let node = cur
                .plan_node
                .unwrap_or_else(|| self.plan.as_ref().map_or(0, |p| p.root));
            if let Some(m) = self.ops.get_mut(node) {
                m.values_scanned += tested;
            }
        }
        batch
    }

    /// Evaluate a quantifier over a stored table by streaming its
    /// cursor: pulls stop at the first witness (EXISTS) or violation
    /// (FORALL), and the provider counts the early exit.
    fn stream_quantifier(
        &mut self,
        binding: &Binding,
        env: &mut Env,
        pred: Option<&Expr>,
        exists: bool,
    ) -> Result<bool> {
        let use_refs = self.projection_pushdown;
        let (schema, mut cur) = self.open_table_cursor(binding, use_refs, false)?;
        // EXISTS starts false and flips on a witness; FORALL starts
        // true and flips on a violation.
        let mut res = Ok(!exists);
        loop {
            // One row per pull: nothing past the deciding object is read.
            let t = match self.pull(&mut cur, 1) {
                Ok(Some(mut rows)) => match rows.pop() {
                    Some(t) => t,
                    None => continue,
                },
                Ok(None) => break,
                Err(e) => {
                    res = Err(e);
                    break;
                }
            };
            env.frames.push(Frame {
                var: binding.var.clone(),
                schema: schema.clone(),
                tuple: t,
            });
            let hit = match pred {
                Some(p) => self.eval_pred(p, env),
                None => Ok(true),
            };
            env.frames.pop();
            match hit {
                Ok(h) if h == exists => {
                    res = Ok(exists);
                    break; // decided: stop pulling
                }
                Ok(_) => {}
                Err(e) => {
                    res = Err(e);
                    break;
                }
            }
        }
        self.provider.close_scan(cur);
        res
    }

    /// Evaluate a predicate to a boolean.
    fn eval_pred(&mut self, e: &Expr, env: &mut Env) -> Result<bool> {
        match e {
            Expr::And(a, b) => Ok(self.eval_pred(a, env)? && self.eval_pred(b, env)?),
            Expr::Or(a, b) => Ok(self.eval_pred(a, env)? || self.eval_pred(b, env)?),
            Expr::Not(x) => Ok(!self.eval_pred(x, env)?),
            Expr::Cmp { op, lhs, rhs } => {
                let l = self.eval_value(lhs, env)?;
                let r = self.eval_value(rhs, env)?;
                compare(*op, l, r)
            }
            Expr::Exists { binding, pred } => {
                if !self.materialize && matches!(binding.source, Source::Table(_)) {
                    return self.stream_quantifier(binding, env, pred.as_deref(), true);
                }
                let (schema, value) = self.binding_table(binding, env, false)?;
                for t in value.tuples {
                    env.frames.push(Frame {
                        var: binding.var.clone(),
                        schema: schema.clone(),
                        tuple: t,
                    });
                    let hit = match pred {
                        Some(p) => self.eval_pred(p, env)?,
                        None => true,
                    };
                    env.frames.pop();
                    if hit {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Expr::Forall { binding, pred } => {
                if !self.materialize && matches!(binding.source, Source::Table(_)) {
                    return self.stream_quantifier(binding, env, Some(pred), false);
                }
                let (schema, value) = self.binding_table(binding, env, false)?;
                for t in value.tuples {
                    env.frames.push(Frame {
                        var: binding.var.clone(),
                        schema: schema.clone(),
                        tuple: t,
                    });
                    let ok = self.eval_pred(pred, env)?;
                    env.frames.pop();
                    if !ok {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Expr::Contains { expr, pattern } => {
                let v = self.eval_value(expr, env)?.simplified();
                let EvalValue::Atom(a) = v else {
                    return Err(ExecError::Type("CONTAINS requires a text value".into()));
                };
                let Some(text) = a.as_str() else {
                    return Err(ExecError::Type(format!(
                        "CONTAINS requires a text value, got {}",
                        a.atom_type()
                    )));
                };
                let p = Pattern::parse(pattern);
                Ok(aim2_text::tokenize(text).iter().any(|w| p.matches(w)))
            }
            Expr::Lit(l) => match crate::value::lit_atom(l)? {
                Atom::Bool(b) => Ok(b),
                other => Err(ExecError::Type(format!(
                    "predicate must be boolean, got {}",
                    other.atom_type()
                ))),
            },
            Expr::PathRef { .. } | Expr::Subscript { .. } => {
                match self.eval_value(e, env)?.simplified() {
                    EvalValue::Atom(Atom::Bool(b)) => Ok(b),
                    other => Err(ExecError::Type(format!(
                        "predicate must be boolean, got {other:?}"
                    ))),
                }
            }
        }
    }

    /// Evaluate a value expression.
    fn eval_value(&mut self, e: &Expr, env: &mut Env) -> Result<EvalValue> {
        match e {
            Expr::Lit(l) => Ok(EvalValue::Atom(crate::value::lit_atom(l)?)),
            Expr::PathRef { var, path } => {
                let frame = env
                    .lookup(var)
                    .ok_or_else(|| ExecError::UnknownVar(var.clone()))?;
                if path.is_root() {
                    return Ok(EvalValue::Row(frame.tuple.clone(), frame.schema.clone()));
                }
                let (value, _) = resolve(&frame.schema, &frame.tuple, path, var)?;
                Ok(match value {
                    Value::Atom(a) => EvalValue::Atom(a.clone()),
                    Value::Table(t) => EvalValue::Table(t.clone()),
                })
            }
            Expr::Subscript {
                var,
                path,
                index,
                rest,
            } => {
                if self.analyze {
                    self.note_subscript(e);
                }
                let frame = env
                    .lookup(var)
                    .ok_or_else(|| ExecError::UnknownVar(var.clone()))?;
                let (value, kind) = resolve(&frame.schema, &frame.tuple, path, var)?;
                let (Value::Table(tv), AttrKind::Table(sub)) = (value, kind) else {
                    return Err(ExecError::Type(format!("`{var}.{path}` is not a list")));
                };
                let row = match tv.subscript(*index) {
                    Ok(r) => r,
                    // Out of range on a list: the row has no such
                    // element — comparisons treat this as non-matching.
                    Err(aim2_model::ModelError::BadSubscript { .. })
                        if tv.kind == aim2_model::TableKind::List && *index >= 1 =>
                    {
                        return Ok(EvalValue::Missing)
                    }
                    // Subscripting a relation (or [0]) is a misuse.
                    Err(e) => return Err(ExecError::Semantic(e.to_string())),
                };
                if rest.is_root() {
                    Ok(EvalValue::Row(row.clone(), sub.clone()))
                } else {
                    let (v, _) = resolve(sub, row, rest, var)?;
                    Ok(match v {
                        Value::Atom(a) => EvalValue::Atom(a.clone()),
                        Value::Table(t) => EvalValue::Table(t.clone()),
                    })
                }
            }
            // Predicates used in value position evaluate to booleans.
            other => Ok(EvalValue::Atom(Atom::Bool(self.eval_pred(other, env)?))),
        }
    }

    // =================================================================
    // Plan lowering
    // =================================================================

    /// Lower `q` into its operator tree.
    fn lower_plan(&mut self, q: &Query) -> PhysicalPlan {
        let mut plan = PhysicalPlan::default();
        let root = self.lower_into(&mut plan, q);
        plan.root = root;
        plan
    }

    fn lower_into(&mut self, plan: &mut PhysicalPlan, q: &Query) -> usize {
        // Bindings chain with the outermost scan as the deepest leaf:
        // later bindings (and then Filter, then Project) wrap it.
        let mut chain: Option<usize> = None;
        for b in &q.from {
            let op = match &b.source {
                Source::Table(name) => self.scan_op(b, name),
                Source::PathOf { var, path } => PhysOp::NestEval {
                    var: b.var.clone(),
                    source: format!("{var}.{path}"),
                },
            };
            let children: Vec<usize> = chain.take().into_iter().collect();
            let idx = plan.push(op, children);
            self.binding_nodes.insert(Self::baddr(b), idx);
            chain = Some(idx);
        }
        let mut top = chain;
        let mut filter_node = None;
        if let Some(w) = &q.where_ {
            let mut children: Vec<usize> = top.take().into_iter().collect();
            self.lower_quantifier_scans(plan, w, &mut children);
            let mut subs = Vec::new();
            collect_subscripts(w, &mut subs);
            for s in subs {
                children.push(plan.push(PhysOp::OrderedSubscript { expr: s }, vec![]));
            }
            let idx = plan.push(
                PhysOp::Filter {
                    pred: render_expr(w),
                },
                children,
            );
            filter_node = Some(idx);
            top = Some(idx);
        }
        let mut items = Vec::new();
        let mut children: Vec<usize> = top.take().into_iter().collect();
        for item in &q.select {
            match item {
                SelectItem::Star => items.push("*".to_string()),
                SelectItem::Expr(e) => {
                    items.push(render_expr(e));
                    let mut subs = Vec::new();
                    collect_subscripts(e, &mut subs);
                    for s in subs {
                        children.push(plan.push(PhysOp::OrderedSubscript { expr: s }, vec![]));
                    }
                }
                SelectItem::Named { name, value } => match value {
                    NamedValue::Expr(e) => items.push(format!("{name} = {}", render_expr(e))),
                    NamedValue::Subquery(sub) => {
                        items.push(format!("{name} = (subquery)"));
                        children.push(self.lower_into(plan, sub));
                    }
                },
            }
        }
        let project = plan.push(PhysOp::Project { items }, children);
        self.query_nodes
            .insert(Self::qaddr(q), (filter_node, project));
        project
    }

    /// A Scan operator with the pushdown contract it will be opened
    /// with: pushed conjuncts (root binding only) and the kept/pruned
    /// subtable split of the projection.
    fn scan_op(&mut self, b: &Binding, name: &str) -> PhysOp {
        let mut pushed = Vec::new();
        if b.asof.is_none() && self.pushed_var.as_deref() == Some(b.var.as_str()) {
            for (p, a) in &self.pushed_conjuncts {
                pushed.push(format!("{p} = {a}"));
            }
            for (p, m) in &self.pushed_contains {
                pushed.push(format!("{p} CONTAINS '{m}'"));
            }
            for (p, r) in &self.pushed_ranges {
                if let Some((a, inc)) = &r.lo {
                    pushed.push(format!("{p} >{} {a}", if *inc { "=" } else { "" }));
                }
                if let Some((a, inc)) = &r.hi {
                    pushed.push(format!("{p} <{} {a}", if *inc { "=" } else { "" }));
                }
            }
        }
        let mut kept = Vec::new();
        let mut pruned = Vec::new();
        if let Some(r) = self.refs.get(&b.var) {
            if let Ok(schema) = self.provider.table_schema(name) {
                for (path, _) in schema.walk_subtables() {
                    if path.is_root() {
                        continue;
                    }
                    if r.keep(&path) {
                        kept.push(path.to_string());
                    } else {
                        pruned.push(path.to_string());
                    }
                }
            }
        }
        PhysOp::Scan {
            var: b.var.clone(),
            table: name.to_string(),
            asof: b.asof.clone(),
            access_path: "full scan".to_string(),
            pushed,
            kept,
            pruned,
        }
    }

    /// Stored-table quantifier bindings inside a WHERE clause show up
    /// as Scan children of the Filter (they open their own cursors).
    fn lower_quantifier_scans(&mut self, plan: &mut PhysicalPlan, e: &Expr, out: &mut Vec<usize>) {
        match e {
            Expr::Exists { binding, pred } => {
                if let Source::Table(name) = &binding.source {
                    let op = self.scan_op(binding, &name.clone());
                    let idx = plan.push(op, vec![]);
                    self.binding_nodes.insert(Self::baddr(binding), idx);
                    out.push(idx);
                }
                if let Some(p) = pred {
                    self.lower_quantifier_scans(plan, p, out);
                }
            }
            Expr::Forall { binding, pred } => {
                if let Source::Table(name) = &binding.source {
                    let op = self.scan_op(binding, &name.clone());
                    let idx = plan.push(op, vec![]);
                    self.binding_nodes.insert(Self::baddr(binding), idx);
                    out.push(idx);
                }
                self.lower_quantifier_scans(plan, pred, out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                self.lower_quantifier_scans(plan, a, out);
                self.lower_quantifier_scans(plan, b, out);
            }
            Expr::Not(x) => self.lower_quantifier_scans(plan, x, out),
            Expr::Cmp { lhs, rhs, .. } => {
                self.lower_quantifier_scans(plan, lhs, out);
                self.lower_quantifier_scans(plan, rhs, out);
            }
            Expr::Contains { expr, .. } => self.lower_quantifier_scans(plan, expr, out),
            Expr::Lit(_) | Expr::PathRef { .. } | Expr::Subscript { .. } => {}
        }
    }
}

/// Pushdown payload: target binding variable, indexable equality
/// conjuncts, CONTAINS conjuncts, range conjuncts.
type Pushdown = (
    String,
    Vec<(Path, Atom)>,
    Vec<(Path, String)>,
    Vec<(Path, RangePred)>,
);

/// If the query has a single stored-table binding (no ASOF) and a WHERE
/// clause, its indexable equality conjuncts, top-level CONTAINS
/// conjuncts and top-level range conjuncts unambiguously constrain that
/// binding's objects — the predicate pushdown the `ScanRequest` carries
/// to the provider.
fn compute_pushdown(q: &Query) -> Option<Pushdown> {
    let mut table_bindings = q
        .from
        .iter()
        .filter(|b| matches!(b.source, Source::Table(_)));
    let (Some(first), None) = (table_bindings.next(), table_bindings.next()) else {
        return None;
    };
    if first.asof.is_some() {
        return None;
    }
    let where_ = q.where_.as_ref()?;
    let conjuncts = crate::planner::indexable_conditions(where_);
    let contains = crate::planner::contains_conditions(where_, &first.var);
    let ranges = crate::planner::range_conditions(where_, &first.var);
    if conjuncts.is_empty() && contains.is_empty() && ranges.is_empty() {
        return None;
    }
    Some((first.var.clone(), conjuncts, contains, ranges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::MemProvider;
    use aim2_lang::parser::parse_query;
    use aim2_model::fixtures;

    fn run(src: &str) -> (TableSchema, TableValue) {
        let q = parse_query(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let mut p = MemProvider::with_paper_fixtures();
        Evaluator::new(&mut p)
            .eval_query(&q)
            .unwrap_or_else(|e| panic!("{src}\n→ {e}"))
    }

    #[test]
    fn example_1_star_returns_table5() {
        let (_, v) = run("SELECT * FROM DEPARTMENTS");
        assert!(v.semantically_eq(&fixtures::departments_value()));
    }

    #[test]
    fn example_1_long_form_equals_star() {
        let (_, v) =
            run("SELECT x.DNO, x.MGRNO, x.PROJECTS, x.BUDGET, x.EQUIP FROM x IN DEPARTMENTS");
        assert!(v.semantically_eq(&fixtures::departments_value()));
    }

    #[test]
    fn example_2_explicit_structure_returns_table5() {
        let (schema, v) = run("SELECT x.DNO, x.MGRNO, \
               PROJECTS = (SELECT y.PNO, y.PNAME, \
                 MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS) \
                 FROM y IN x.PROJECTS), \
               x.BUDGET, \
               EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP) \
             FROM x IN DEPARTMENTS");
        assert_eq!(schema.depth(), 3);
        assert!(v.semantically_eq(&fixtures::departments_value()));
    }

    #[test]
    fn example_3_nest_from_flat_tables_builds_table5() {
        let (_, v) = run("SELECT x.DNO, x.MGRNO, \
               PROJECTS = (SELECT y.PNO, y.PNAME, \
                 MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN MEMBERS-1NF \
                            WHERE z.PNO = y.PNO AND z.DNO = y.DNO) \
                 FROM y IN PROJECTS-1NF WHERE y.DNO = x.DNO), \
               x.BUDGET, \
               EQUIP = (SELECT v.QU, v.TYPE FROM v IN EQUIP-1NF WHERE v.DNO = x.DNO) \
             FROM x IN DEPARTMENTS-1NF");
        assert!(
            v.semantically_eq(&fixtures::departments_value()),
            "nest(Tables 1-4) = Table 5"
        );
    }

    #[test]
    fn example_4_unnest_returns_table7() {
        let (schema, v) = run(
            "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION \
             FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS",
        );
        assert!(schema.is_flat());
        assert!(v.semantically_eq(&fixtures::table7_value()), "Table 7");
    }

    #[test]
    fn example_4_flat_join_form_agrees() {
        let (_, v) = run(
            "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION \
             FROM x IN DEPARTMENTS-1NF, y IN PROJECTS-1NF, z IN MEMBERS-1NF \
             WHERE x.DNO = y.DNO AND y.PNO = z.PNO AND y.DNO = z.DNO",
        );
        assert!(v.semantically_eq(&fixtures::table7_value()));
    }

    #[test]
    fn example_5_exists_pc_at() {
        let (_, v) = run("SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS \
             WHERE EXISTS y IN x.EQUIP : y.TYPE = 'PC/AT'");
        let mut dnos: Vec<i64> = v
            .tuples
            .iter()
            .map(|t| t.fields[0].as_atom().unwrap().as_int().unwrap())
            .collect();
        dnos.sort_unstable();
        assert_eq!(dnos, vec![218, 314]);
    }

    #[test]
    fn example_6_all_consultants_is_empty() {
        let (_, v) = run("SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS \
             WHERE ALL y IN x.PROJECTS : ALL z IN y.MEMBERS : z.FUNCTION = 'Consultant'");
        assert!(v.is_empty(), "the paper: the result set is empty");
    }

    #[test]
    fn all_is_vacuously_true_on_empty_subtables() {
        // A department with no projects satisfies the ALL condition.
        let mut p = MemProvider::with_paper_fixtures();
        use aim2_model::value::build::{a, rel, tup};
        let mut depts = fixtures::departments_value();
        depts
            .tuples
            .push(tup(vec![a(999), a(1), rel(vec![]), a(0), rel(vec![])]));
        p.add(fixtures::departments_schema(), depts);
        let q = parse_query(
            "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS \
             WHERE ALL y IN x.PROJECTS : ALL z IN y.MEMBERS : z.FUNCTION = 'Consultant'",
        )
        .unwrap();
        let (_, v) = Evaluator::new(&mut p).eval_query(&q).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.tuples[0].fields[0].as_atom().unwrap().as_int(), Some(999));
    }

    #[test]
    fn sec42_query_1_departments_with_consultant() {
        let (_, v) = run("SELECT x.DNO FROM x IN DEPARTMENTS \
             WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'");
        let mut dnos: Vec<i64> = v
            .tuples
            .iter()
            .map(|t| t.fields[0].as_atom().unwrap().as_int().unwrap())
            .collect();
        dnos.sort_unstable();
        assert_eq!(dnos, vec![218, 314], "§4.2: DNOs 314 and 218");
    }

    #[test]
    fn sec42_query_2_projects_with_consultant() {
        let (_, v) = run("SELECT y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS \
             WHERE EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'");
        let mut pnos: Vec<i64> = v
            .tuples
            .iter()
            .map(|t| t.fields[0].as_atom().unwrap().as_int().unwrap())
            .collect();
        pnos.sort_unstable();
        assert_eq!(pnos, vec![17, 25], "§4.2: PNOs 17 and 25");
    }

    #[test]
    fn sec42_query_3_conjunctive() {
        let (_, v) = run("SELECT x.DNO FROM x IN DEPARTMENTS \
             WHERE EXISTS y IN x.PROJECTS : y.PNO = 17 AND \
                   EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'");
        let dnos: Vec<i64> = v
            .tuples
            .iter()
            .map(|t| t.fields[0].as_atom().unwrap().as_int().unwrap())
            .collect();
        assert_eq!(dnos, vec![314]);
    }

    #[test]
    fn example_7_fig4_join_groups_by_department() {
        let (_, v) = run("SELECT x.DNO, x.MGRNO, \
               EMPLOYEES = (SELECT z.EMPNO, u.LNAME, u.FNAME, u.SEX, z.FUNCTION \
                            FROM y IN x.PROJECTS, z IN y.MEMBERS, u IN EMPLOYEES-1NF \
                            WHERE z.EMPNO = u.EMPNO) \
             FROM x IN DEPARTMENTS");
        assert_eq!(v.len(), 3, "one row per department");
        // Dept 314 has 7 members, all resolved with names.
        let d314 = v
            .tuples
            .iter()
            .find(|t| t.fields[0].as_atom().unwrap().as_int() == Some(314))
            .unwrap();
        let emps = d314.fields[2].as_table().unwrap();
        assert_eq!(emps.len(), 7);
        let krause = emps
            .tuples
            .iter()
            .find(|t| t.fields[0].as_atom().unwrap().as_int() == Some(39582))
            .unwrap();
        assert_eq!(krause.fields[1].as_atom().unwrap().as_str(), Some("Krause"));
        assert_eq!(krause.fields[4].as_atom().unwrap().as_str(), Some("Leader"));
    }

    #[test]
    fn fig5_manager_join_instead_of_mgrno() {
        let (_, v) = run("SELECT x.DNO, m.LNAME, m.SEX, \
               EMPLOYEES = (SELECT z.EMPNO, u.LNAME, u.FNAME, u.SEX, z.FUNCTION \
                            FROM y IN x.PROJECTS, z IN y.MEMBERS, u IN EMPLOYEES-1NF \
                            WHERE z.EMPNO = u.EMPNO) \
             FROM x IN DEPARTMENTS, m IN EMPLOYEES-1NF \
             WHERE x.MGRNO = m.EMPNO");
        assert_eq!(v.len(), 3);
        let d314 = v
            .tuples
            .iter()
            .find(|t| t.fields[0].as_atom().unwrap().as_int() == Some(314))
            .unwrap();
        assert_eq!(d314.fields[1].as_atom().unwrap().as_str(), Some("Schmidt"));
        assert_eq!(d314.fields[2].as_atom().unwrap().as_str(), Some("male"));
    }

    #[test]
    fn example_8_first_author_subscript() {
        let (schema, v) =
            run("SELECT x.AUTHORS, x.TITLE FROM x IN REPORTS WHERE x.AUTHORS[1] = 'Jones A.'");
        assert_eq!(v.len(), 1, "only report 0179 has Jones as FIRST author");
        assert_eq!(
            v.tuples[0].fields[1].as_atom().unwrap().as_str(),
            Some("Concurrency and Concurrency Control")
        );
        // "the resulting table is not flat because AUTHORS is non-atomic"
        assert!(!schema.is_flat());
        let authors = v.tuples[0].fields[0].as_table().unwrap();
        assert_eq!(authors.kind, TableKind::List);
    }

    #[test]
    fn sec5_text_query() {
        let (_, v) = run("SELECT x.REPNO, x.AUTHORS, x.TITLE FROM x IN REPORTS \
             WHERE x.TITLE CONTAINS '*comput*' AND EXISTS y IN x.AUTHORS : y.NAME = 'Jones A.'");
        assert_eq!(v.len(), 1);
        assert_eq!(
            v.tuples[0].fields[0].as_atom().unwrap().as_str(),
            Some("0291")
        );
    }

    #[test]
    fn sec5_asof_query() {
        let mut p = MemProvider::with_paper_fixtures();
        // History: on 1984-01-01 dept 314 had projects {17 CGA, 11 DOC}.
        use aim2_model::value::build::{a, rel, tup};
        let old = TableValue {
            kind: TableKind::Relation,
            tuples: vec![tup(vec![
                a(314),
                a(56194),
                aim2_model::Value::Table(fixtures::departments_314_projects_asof_1984()),
                a(280_000),
                rel(vec![tup(vec![a(2), a("3278")])]),
            ])],
        };
        p.add_snapshot("DEPARTMENTS", Date::parse_iso("1984-01-01").unwrap(), old);
        let q = parse_query(
            "SELECT y.PNO, y.PNAME FROM x IN DEPARTMENTS ASOF '1984-01-15', y IN x.PROJECTS \
             WHERE x.DNO = 314",
        )
        .unwrap();
        let (_, v) = Evaluator::new(&mut p).eval_query(&q).unwrap();
        let pnos: Vec<i64> = v
            .tuples
            .iter()
            .map(|t| t.fields[0].as_atom().unwrap().as_int().unwrap())
            .collect();
        assert_eq!(pnos, vec![17, 11], "projects of dept 314 on 1984-01-15");
    }

    #[test]
    fn exists_without_predicate_means_nonempty() {
        let (_, v) = run("SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS");
        assert_eq!(v.len(), 3, "every department has projects");
    }

    #[test]
    fn comparison_operators() {
        let (_, v) = run("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET >= 360000");
        assert_eq!(v.len(), 2);
        let (_, v) = run("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET < 360000");
        assert_eq!(v.len(), 1);
        let (_, v) = run("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO <> 314");
        assert_eq!(v.len(), 2);
        let (_, v) =
            run("SELECT x.DNO FROM x IN DEPARTMENTS WHERE NOT (x.DNO = 314 OR x.DNO = 218)");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn table_equality_in_predicates() {
        // Departments whose EQUIP equals dept 314's EQUIP: only 314.
        let (_, v) = run("SELECT x.DNO FROM x IN DEPARTMENTS, y IN DEPARTMENTS \
             WHERE y.DNO = 314 AND x.EQUIP = y.EQUIP");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn type_errors_reported() {
        let q = parse_query("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 'abc'").unwrap();
        let mut p = MemProvider::with_paper_fixtures();
        assert!(matches!(
            Evaluator::new(&mut p).eval_query(&q),
            Err(ExecError::Type(_))
        ));
        let q =
            parse_query("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.EQUIP CONTAINS '*x*'").unwrap();
        assert!(Evaluator::new(&mut p).eval_query(&q).is_err());
    }

    #[test]
    fn subscript_in_select_position() {
        // AUTHORS[1] simplifies to its NAME atom (infer and eval agree).
        let (schema, v) = run("SELECT x.AUTHORS[1], x.REPNO FROM x IN REPORTS");
        assert!(schema.is_flat());
        assert_eq!(v.len(), 3);
        let first_authors: Vec<&str> = v
            .tuples
            .iter()
            .map(|t| t.fields[0].as_atom().unwrap().as_str().unwrap())
            .collect();
        assert!(first_authors.contains(&"Jones A."));
        // Rest-path form evaluates too.
        let (_, v) = run("SELECT x.REPNO FROM x IN REPORTS WHERE x.AUTHORS[2].NAME = 'Meyer P.'");
        assert_eq!(v.len(), 1);
        assert_eq!(
            v.tuples[0].fields[0].as_atom().unwrap().as_str(),
            Some("0291")
        );
    }

    #[test]
    fn subscript_on_relation_is_an_error() {
        let q = parse_query("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.PROJECTS[1] = 17").unwrap();
        let mut p = MemProvider::with_paper_fixtures();
        assert!(matches!(
            Evaluator::new(&mut p).eval_query(&q),
            Err(ExecError::Semantic(_))
        ));
    }

    #[test]
    fn subscript_out_of_range_semantics() {
        // In a predicate: rows without a 9th author simply don't match.
        let (_, v) = run("SELECT x.TITLE FROM x IN REPORTS WHERE x.AUTHORS[9] = 'X'");
        assert!(v.is_empty());
        // Mixed arities: only 0291 has a 3rd author.
        let (_, v) = run("SELECT x.REPNO FROM x IN REPORTS WHERE x.AUTHORS[3] = 'Jones A.'");
        assert_eq!(v.len(), 1);
        // In SELECT position an out-of-range subscript is an error.
        let q = parse_query("SELECT x.AUTHORS[9] FROM x IN REPORTS").unwrap();
        let mut p = MemProvider::with_paper_fixtures();
        assert!(matches!(
            Evaluator::new(&mut p).eval_query(&q),
            Err(ExecError::Semantic(_))
        ));
    }

    #[test]
    fn materialize_mode_agrees_with_streaming() {
        for src in [
            "SELECT * FROM DEPARTMENTS",
            "SELECT x.DNO FROM x IN DEPARTMENTS \
             WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'",
            "SELECT x.DNO, x.MGRNO, y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS",
        ] {
            let q = parse_query(src).unwrap();
            let mut p = MemProvider::with_paper_fixtures();
            let streamed = Evaluator::new(&mut p).eval_query(&q).unwrap();
            let mut ev = Evaluator::new(&mut p);
            ev.materialize = true;
            let reference = ev.eval_query(&q).unwrap();
            assert_eq!(streamed.1, reference.1, "{src}");
        }
    }

    #[test]
    fn physical_plan_shows_operators() {
        let q = parse_query(
            "SELECT x.DNO FROM x IN DEPARTMENTS, y IN x.PROJECTS \
             WHERE EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'",
        )
        .unwrap();
        let mut p = MemProvider::with_paper_fixtures();
        let mut ev = Evaluator::new(&mut p);
        ev.eval_query(&q).unwrap();
        let plan = ev.take_plan().expect("plan built");
        let shown = plan.to_string();
        assert!(shown.contains("Project [x.DNO]"), "{shown}");
        assert!(shown.contains("Filter"), "{shown}");
        assert!(shown.contains("NestEval y IN x.PROJECTS"), "{shown}");
        assert!(shown.contains("Scan DEPARTMENTS as x"), "{shown}");
        assert!(shown.contains("full scan"), "{shown}");
        assert!(shown.contains("partial retrieval skips [EQUIP]"), "{shown}");
    }
}
