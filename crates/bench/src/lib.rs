//! # aim2-bench — workloads and harness support
//!
//! The paper has no quantitative evaluation section — its evidence is
//! worked examples (Tables 1–8) and design arguments (Figures 6–8). The
//! reproduction therefore provides:
//!
//! * `cargo run -p aim2-bench --bin reproduce` — regenerates **every**
//!   table and figure artifact of the paper, with the measured
//!   counter-level facts that back each §4 design claim;
//! * Criterion benches (one per claim; see `benches/`) that measure the
//!   claims at scale, on synthetic workloads generated here.
//!
//! The generator produces DEPARTMENTS-shaped hierarchies with tunable
//! fan-outs — the paper's own scale observation is that "a complex
//! object or subobject will usually have just a few non-atomic
//! attributes (say up to 10) whereas a subtable may consist of thousands
//! of tuples", which the `WorkloadSpec` knobs reproduce.

use aim2_model::value::build::{a, rel, tup};
use aim2_model::{fixtures, TableKind, TableSchema, TableValue, Tuple};
use aim2_storage::buffer::BufferPool;
use aim2_storage::disk::MemDisk;
use aim2_storage::minidir::LayoutKind;
use aim2_storage::object::{ClusterPolicy, ObjectStore};
use aim2_storage::segment::Segment;
use aim2_storage::stats::Stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size knobs for a synthetic DEPARTMENTS-like workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub departments: usize,
    pub projects_per_dept: usize,
    pub members_per_project: usize,
    pub equip_per_dept: usize,
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec {
            departments: 100,
            projects_per_dept: 5,
            members_per_project: 8,
            equip_per_dept: 4,
            seed: 0xA1_42,
        }
    }
}

const FUNCTIONS: [&str; 5] = ["Leader", "Consultant", "Secretary", "Staff", "Engineer"];
const EQUIP_TYPES: [&str; 6] = ["3278", "3179", "PC", "PC/XT", "PC/AT", "4361"];

/// The DEPARTMENTS schema (same shape as the paper's Table 5).
pub fn departments_schema() -> TableSchema {
    fixtures::departments_schema()
}

/// Generate a synthetic DEPARTMENTS table per `spec`.
pub fn gen_departments(spec: &WorkloadSpec) -> TableValue {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut tuples = Vec::with_capacity(spec.departments);
    let mut empno = 10_000i64;
    for d in 0..spec.departments {
        let dno = 100 + d as i64;
        let mut projects = Vec::with_capacity(spec.projects_per_dept);
        for p in 0..spec.projects_per_dept {
            let pno = (d * spec.projects_per_dept + p) as i64;
            let mut members = Vec::with_capacity(spec.members_per_project);
            for _ in 0..spec.members_per_project {
                empno += 1;
                let func = FUNCTIONS[rng.gen_range(0..FUNCTIONS.len())];
                members.push(tup(vec![a(empno), a(func)]));
            }
            projects.push(tup(vec![a(pno), a(format!("P{pno:05}")), rel(members)]));
        }
        let mut equip = Vec::with_capacity(spec.equip_per_dept);
        for _ in 0..spec.equip_per_dept {
            equip.push(tup(vec![
                a(rng.gen_range(1..5) as i64),
                a(EQUIP_TYPES[rng.gen_range(0..EQUIP_TYPES.len())]),
            ]));
        }
        tuples.push(tup(vec![
            a(dno),
            a(50_000 + d as i64),
            rel(projects),
            a(rng.gen_range(100..900) as i64 * 1000),
            rel(equip),
        ]));
    }
    TableValue {
        kind: TableKind::Relation,
        tuples,
    }
}

/// The flat (1NF) projection of a generated DEPARTMENTS table — the
/// paper's Tables 1–3 shape, used by the materialized-join bench.
pub fn flatten_departments(nf2: &TableValue) -> (TableValue, TableValue, TableValue) {
    let mut depts = Vec::new();
    let mut projects = Vec::new();
    let mut members = Vec::new();
    for d in &nf2.tuples {
        let dno = d.fields[0].clone();
        let mgr = d.fields[1].clone();
        let budget = d.fields[3].clone();
        depts.push(Tuple::new(vec![dno.clone(), mgr.clone(), budget]));
        for p in &d.fields[2].as_table().unwrap().tuples {
            let pno = p.fields[0].clone();
            let pname = p.fields[1].clone();
            projects.push(Tuple::new(vec![pno.clone(), pname, dno.clone()]));
            for m in &p.fields[2].as_table().unwrap().tuples {
                members.push(Tuple::new(vec![
                    m.fields[0].clone(),
                    pno.clone(),
                    dno.clone(),
                    m.fields[1].clone(),
                ]));
            }
        }
    }
    let mk = |tuples| TableValue {
        kind: TableKind::Relation,
        tuples,
    };
    (mk(depts), mk(projects), mk(members))
}

/// A fresh in-memory segment with its own stats.
pub fn fresh_segment(page_size: usize, frames: usize) -> Segment {
    Segment::new(BufferPool::new(
        Box::new(MemDisk::new(page_size)),
        frames,
        Stats::new(),
    ))
}

/// An object store loaded with `value`, returning the handles.
pub fn loaded_store(
    layout: LayoutKind,
    policy: ClusterPolicy,
    page_size: usize,
    frames: usize,
    schema: &TableSchema,
    value: &TableValue,
) -> (ObjectStore, Vec<aim2_storage::object::ObjectHandle>) {
    let mut os = ObjectStore::new(fresh_segment(page_size, frames), layout).with_policy(policy);
    let handles = value
        .tuples
        .iter()
        .map(|t| os.insert_object(schema, t).expect("insert"))
        .collect();
    (os, handles)
}

/// Storage behind one [`StoreProvider`] table.
pub enum StoreBacking {
    /// NF² complex-object storage (SS1/SS2/SS3 layouts).
    Nf2(ObjectStore),
    /// Flat (1NF) heap storage.
    Flat(aim2_storage::flatstore::FlatStore),
}

/// A [`aim2_exec::TableProvider`] over raw stores — lets benches drive
/// the full cursor pipeline against real storage (NF² object stores or
/// flat heaps) with projection pushdown on or off, and measure decode
/// counters per layout.
#[derive(Default)]
pub struct StoreProvider {
    tables: Vec<(String, TableSchema, StoreBacking)>,
}

impl StoreProvider {
    /// A provider over a single NF² table.
    pub fn single(name: &str, schema: TableSchema, store: ObjectStore) -> StoreProvider {
        let mut p = StoreProvider::default();
        p.add_nf2(name, schema, store);
        p
    }

    /// Register an NF² object store as table `name`.
    pub fn add_nf2(&mut self, name: &str, schema: TableSchema, store: ObjectStore) -> &mut Self {
        self.tables
            .push((name.to_string(), schema, StoreBacking::Nf2(store)));
        self
    }

    /// Register a flat heap as table `name`.
    pub fn add_flat(
        &mut self,
        name: &str,
        schema: TableSchema,
        store: aim2_storage::flatstore::FlatStore,
    ) -> &mut Self {
        self.tables
            .push((name.to_string(), schema, StoreBacking::Flat(store)));
        self
    }

    fn entry(&mut self, name: &str) -> aim2_exec::Result<&mut (String, TableSchema, StoreBacking)> {
        self.tables
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| aim2_exec::ExecError::NoSuchTable(name.to_string()))
    }
}

impl aim2_exec::TableProvider for StoreProvider {
    fn table_schema(&mut self, name: &str) -> aim2_exec::Result<TableSchema> {
        self.entry(name).map(|(_, s, _)| s.clone())
    }

    fn open_scan(
        &mut self,
        req: &aim2_exec::ScanRequest,
    ) -> aim2_exec::Result<aim2_exec::ObjectCursor> {
        if req.asof.is_some() {
            return Err(aim2_exec::ExecError::Semantic(
                "bench stores are not versioned".into(),
            ));
        }
        let (_, _, backing) = self.entry(&req.table)?;
        let keys: Vec<u64> = match backing {
            StoreBacking::Nf2(os) => os
                .handles()
                .map_err(aim2_exec::ExecError::Storage)?
                .into_iter()
                .map(|h| h.0.to_u64())
                .collect(),
            StoreBacking::Flat(fs) => fs.tids().iter().map(|t| t.to_u64()).collect(),
        };
        Ok(aim2_exec::ObjectCursor::new(
            req,
            "full scan",
            aim2_exec::ScanSource::Keys(keys),
        ))
    }

    fn next_batch(
        &mut self,
        cur: &mut aim2_exec::ObjectCursor,
        max_rows: usize,
    ) -> aim2_exec::Result<Option<Vec<Tuple>>> {
        cur.pull(max_rows, |req, keys| {
            let (_, schema, backing) = self.entry(&req.table)?;
            let keep = |p: &aim2_model::Path| req.projection.as_ref().is_none_or(|r| r.keep(p));
            keys.iter()
                .map(|&key| {
                    let tid = aim2_storage::tid::Tid::from_u64(key);
                    match backing {
                        StoreBacking::Nf2(os) => os.read_object_projected(
                            schema,
                            aim2_storage::object::ObjectHandle(tid),
                            &keep,
                        ),
                        StoreBacking::Flat(fs) => fs.read(tid),
                    }
                    .map_err(aim2_exec::ExecError::Storage)
                })
                .collect()
        })
    }

    fn close_scan(&mut self, cur: aim2_exec::ObjectCursor) {
        // Same rule as the engine: a cursor abandoned after at least one
        // pull but before exhaustion is an early exit (EXISTS found its
        // witness, FORALL its counterexample).
        if let Ok((_, _, backing)) = self.entry(&cur.req.table) {
            let stats = match backing {
                StoreBacking::Nf2(os) => os.stats(),
                StoreBacking::Flat(fs) => fs.segment_mut().stats().clone(),
            };
            if cur.pulled() > 0 && !cur.exhausted() {
                stats.inc_cursor_early_exit();
            }
            stats.record_cursor_lifetime(cur.age_ns());
        }
    }

    fn decode_counters(&mut self) -> (u64, u64) {
        let (mut objects, mut atoms) = (0, 0);
        for (_, _, backing) in &mut self.tables {
            let stats = match backing {
                StoreBacking::Nf2(os) => os.stats(),
                StoreBacking::Flat(fs) => fs.segment_mut().stats().clone(),
            };
            objects += stats.objects_decoded();
            atoms += stats.atoms_decoded();
        }
        (objects, atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_valid() {
        let spec = WorkloadSpec {
            departments: 10,
            ..WorkloadSpec::default()
        };
        let v1 = gen_departments(&spec);
        let v2 = gen_departments(&spec);
        assert_eq!(v1, v2, "seeded generation is reproducible");
        v1.validate(&departments_schema()).unwrap();
        assert_eq!(v1.len(), 10);
    }

    #[test]
    fn flattening_counts_line_up() {
        let spec = WorkloadSpec {
            departments: 7,
            projects_per_dept: 3,
            members_per_project: 4,
            ..WorkloadSpec::default()
        };
        let nf2 = gen_departments(&spec);
        let (d, p, m) = flatten_departments(&nf2);
        assert_eq!(d.len(), 7);
        assert_eq!(p.len(), 21);
        assert_eq!(m.len(), 84);
    }

    #[test]
    fn loaded_store_roundtrips() {
        let spec = WorkloadSpec {
            departments: 5,
            ..WorkloadSpec::default()
        };
        let schema = departments_schema();
        let v = gen_departments(&spec);
        let (mut os, handles) = loaded_store(
            LayoutKind::Ss3,
            ClusterPolicy::Clustered,
            1024,
            64,
            &schema,
            &v,
        );
        for (h, t) in handles.iter().zip(&v.tuples) {
            assert_eq!(&os.read_object(&schema, *h).unwrap(), t);
        }
    }
}
