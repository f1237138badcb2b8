//! Seeded inputs: every table and every statement constant.
//!
//! The engine sees only what this module generates. The same seed gives
//! byte-identical tables and statements; another seed gives the same
//! shapes (row counts, fan-outs, selectivities, statement classes) with
//! other constants, so results from two seeds are comparable.

use std::sync::Arc;

use aim2_model::value::build::{a, rel, tup};
use aim2_model::{fixtures, Tuple};

/// Default `--seed`: the paper's year.
pub const DEFAULT_SEED: u64 = 1986;

pub const NF2_OBJECTS: usize = 600;
pub const NF2_PROJECTS: usize = 4;
pub const NF2_MEMBERS: usize = 6;
pub const NF2_EQUIP: usize = 3;
/// Rows frozen into cold blocks (20 blocks of 1 024).
pub const EVENTS_COLD: usize = 20_480;
/// Rows inserted after compaction: the hot tail every scan also reads.
pub const EVENTS_HOT: usize = 2_048;
pub const EVENT_GROUPS: u64 = 100;
pub const ACCOUNTS: usize = 5_000;
pub const REGIONS: usize = 50;

const FUNCTIONS: [&str; 5] = ["Leader", "Consultant", "Secretary", "Staff", "Engineer"];
const EQUIP_TYPES: [&str; 6] = ["3278", "3179", "PC", "PC/XT", "PC/AT", "4361"];
const TAGS: [&str; 16] = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima", "mike", "november", "oscar", "papa",
];

/// SplitMix64: small, fast, and good enough to spread constants.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`, so one generator's
    /// draws never shift another's.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One table to create and load.
#[derive(Debug, Clone, PartialEq)]
pub struct TableData {
    pub name: &'static str,
    pub ddl: &'static str,
    pub tuples: Vec<Tuple>,
    /// Flat tables only: freeze the first `compact_after` rows into cold
    /// blocks, then insert the rest as the hot tail.
    pub compact_after: Option<usize>,
}

const DEPARTMENTS_DDL: &str = "CREATE TABLE DEPARTMENTS ( DNO INTEGER, MGRNO INTEGER,
    PROJECTS { PNO INTEGER, PNAME STRING, MEMBERS { EMPNO INTEGER, FUNCTION STRING } },
    BUDGET INTEGER, EQUIP { QU INTEGER, TYPE STRING } )";

/// The paper's own tables (Tables 5, 4 and 6), as `aim2_model::fixtures`
/// gives them. Not seeded: the paper fixes their contents.
pub fn paper_tables() -> Vec<TableData> {
    let table = |name, ddl, tuples| TableData {
        name,
        ddl,
        tuples,
        compact_after: None,
    };
    vec![
        table(
            "DEPARTMENTS",
            DEPARTMENTS_DDL,
            fixtures::departments_value().tuples,
        ),
        table(
            "EMPLOYEES-1NF",
            "CREATE TABLE EMPLOYEES-1NF ( EMPNO INTEGER, LNAME STRING, FNAME STRING, SEX STRING )",
            fixtures::employees_1nf_value().tuples,
        ),
        table(
            "REPORTS",
            "CREATE TABLE REPORTS ( REPNO STRING, AUTHORS < NAME STRING >, TITLE TEXT,
                DESCRIPTORS { WORD STRING, WEIGHT DOUBLE } )",
            fixtures::reports_value().tuples,
        ),
    ]
}

/// A DEPARTMENTS-shaped NF² table of `objects` complex objects, each
/// 4 projects × 6 members + 3 equipment rows. One department in eight
/// is staffed by a single function throughout, so the `ALL … ALL`
/// quantifier has answers.
pub fn departments(seed: u64, objects: usize) -> TableData {
    let mut rng = Rng::lane(seed, 1);
    let mut tuples = Vec::with_capacity(objects);
    let mut empno = 10_000i64;
    for d in 0..objects {
        let uniform = (rng.below(8) == 0).then(|| *rng.pick(&FUNCTIONS));
        let projects = (0..NF2_PROJECTS)
            .map(|p| {
                let pno = (d * NF2_PROJECTS + p) as i64;
                let members = (0..NF2_MEMBERS)
                    .map(|_| {
                        empno += 1;
                        let f = uniform.unwrap_or_else(|| *rng.pick(&FUNCTIONS));
                        tup(vec![a(empno), a(f)])
                    })
                    .collect();
                tup(vec![a(pno), a(format!("P{pno:05}")), rel(members)])
            })
            .collect();
        let equip = (0..NF2_EQUIP)
            .map(|_| tup(vec![a(1 + rng.below(4) as i64), a(*rng.pick(&EQUIP_TYPES))]))
            .collect();
        tuples.push(tup(vec![
            a(FIRST_DNO + d as i64),
            a(50_000 + rng.below(10_000) as i64),
            rel(projects),
            a((100 + rng.below(800) as i64) * 1_000),
            rel(equip),
        ]));
    }
    TableData {
        name: "DEPARTMENTS",
        ddl: DEPARTMENTS_DDL,
        tuples,
        compact_after: None,
    }
}

/// Flat `EVENTS(K, G, V, TAG)`: `K` ascending (the clustering key the
/// zone maps prune on), `G` an unclustered group id.
pub fn events(seed: u64) -> TableData {
    let mut rng = Rng::lane(seed, 2);
    let tuples = (0..EVENTS_COLD + EVENTS_HOT)
        .map(|k| {
            tup(vec![
                a(k as i64),
                a(rng.below(EVENT_GROUPS) as i64),
                a(rng.below(1_000_000) as i64),
                a(*rng.pick(&TAGS)),
            ])
        })
        .collect();
    TableData {
        name: "EVENTS",
        ddl: "CREATE TABLE EVENTS ( K INTEGER, G INTEGER, V INTEGER, TAG STRING )",
        tuples,
        compact_after: Some(EVENTS_COLD),
    }
}

/// Flat `ACCOUNTS(ID, OWNER, BAL, REGION)` with exactly `rows / REGIONS`
/// accounts per region.
pub fn accounts(seed: u64, rows: usize) -> TableData {
    let mut rng = Rng::lane(seed, 3);
    let shift = rng.below(REGIONS as u64) as usize;
    let tuples = (0..rows)
        .map(|id| {
            tup(vec![
                a(id as i64),
                a(format!("owner-{:05}", rng.below(100_000))),
                a(1_000 + rng.below(9_000) as i64),
                a(((id + shift) % REGIONS) as i64),
            ])
        })
        .collect();
    TableData {
        name: "ACCOUNTS",
        ddl: "CREATE TABLE ACCOUNTS ( ID INTEGER, OWNER STRING, BAL INTEGER, REGION INTEGER )",
        tuples,
        compact_after: None,
    }
}

fn int_column(table: &TableData, field: usize) -> Vec<i64> {
    table
        .tuples
        .iter()
        .map(|t| {
            t.fields[field]
                .as_atom()
                .and_then(|a| a.as_int())
                .expect("an integer column")
        })
        .collect()
}

/// `BAL` of every generated account by `ID`: the writers' starting model.
pub fn balances(accounts: &TableData) -> Vec<i64> {
    int_column(accounts, 2)
}

/// `BUDGET` of every generated department by `DNO - FIRST_DNO`.
pub fn budgets(departments: &TableData) -> Vec<i64> {
    int_column(departments, 3)
}

pub const FIRST_DNO: i64 = 1_000;

/// How a transaction is bracketed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnMode {
    /// `begin(read_only)` … `commit`: reads run on a pinned MVCC snapshot.
    ReadOnly,
    /// `begin(false)` … `commit`: reads take the 2PL heap path.
    ReadWrite,
    /// No verbs: each statement autocommits (a bare query reads an
    /// implicit snapshot).
    Auto,
}

/// What a correct reply to a statement looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A result the oracle computes: row count and order-insensitive
    /// checksum (see `oracle`).
    Rows { count: u64, checksum: u64 },
    /// A result whose row count is fixed but whose values move under
    /// concurrent writers.
    RowCount(u64),
    /// One integer column whose sum is invariant.
    ColumnSum(i64),
    /// DML acknowledging this many affected rows.
    Affected(u64),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Statement class, e.g. `N3` or `F1`; per-class results use it.
    pub class: &'static str,
    pub sql: String,
    pub expect: Expect,
}

impl Stmt {
    /// A read whose expectation the oracle fills in before the run.
    fn read(class: &'static str, sql: String) -> Stmt {
        Stmt {
            class,
            sql,
            expect: Expect::Rows {
                count: 0,
                checksum: 0,
            },
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Txn {
    pub mode: TxnMode,
    pub stmts: Vec<Arc<Stmt>>,
}

/// The statement stream of one connection.
///
/// Read statements come from a fixed `pool` (so the oracle evaluates
/// each distinct statement once); `next_txn` draws from it. Writers
/// generate their statements as they go and keep the model they imply.
#[derive(Debug, Clone)]
pub struct Script {
    pub role: &'static str,
    /// Statements count toward `ops_per_s` / `p50_us` / `rows_per_s`.
    pub counts_ops: bool,
    /// Transactions count toward `commits_per_s` / `commit_p50_us`.
    pub counts_commits: bool,
    pub pool: Vec<Arc<Stmt>>,
    /// Pool positions of each statement class.
    by_class: Vec<(&'static str, Vec<usize>)>,
    kind: Kind,
    seed: u64,
    rng: Rng,
    issued: u64,
    /// Writers: the value every acknowledged update implies, by account
    /// `ID`; `open_recover` appends each department's `BUDGET`.
    pub model: Vec<i64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    ServePoint,
    ScanNf2,
    ScanFlat,
    CommitDml,
    MixedWriter,
    MixedReader,
    Recover,
}

/// The nine §3/§5 statements of the paper.
pub const PAPER_STATEMENTS: [(&str, &str); 9] = [
    (
        "P1",
        "SELECT x.DNO, x.MGRNO, x.PROJECTS, x.BUDGET, x.EQUIP FROM x IN DEPARTMENTS",
    ),
    ("P2", "SELECT * FROM DEPARTMENTS"),
    (
        "P3",
        "SELECT x.DNO, x.MGRNO,
            PROJECTS = (SELECT y.PNO, y.PNAME,
                MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS)
                FROM y IN x.PROJECTS),
            x.BUDGET,
            EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP)
         FROM x IN DEPARTMENTS",
    ),
    (
        "P4",
        "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION
         FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS",
    ),
    (
        "P5",
        "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS
         WHERE EXISTS y IN x.EQUIP : y.TYPE = 'PC/AT'",
    ),
    (
        "P6",
        "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS
         WHERE ALL y IN x.PROJECTS : ALL z IN y.MEMBERS : z.FUNCTION = 'Consultant'",
    ),
    (
        "P7",
        "SELECT x.AUTHORS, x.TITLE FROM x IN REPORTS WHERE x.AUTHORS[1] = 'Jones A.'",
    ),
    (
        "P8",
        "SELECT x.DNO FROM x IN DEPARTMENTS
         WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS : z.FUNCTION = 'Consultant'",
    ),
    (
        "P9",
        "SELECT x.REPNO, x.AUTHORS, x.TITLE FROM x IN REPORTS
         WHERE x.TITLE CONTAINS '*comput*' AND EXISTS y IN x.AUTHORS : y.NAME = 'Jones A.'",
    ),
];

/// Variants per nested-scan class; the oracle evaluates each once.
const NF2_VARIANTS: usize = 4;
const F1_KEYS: usize = 64;
const F2_RANGES: usize = 8;
const F3_GROUPS: usize = 8;
/// Width of an F2 range: two cold blocks' worth of keys.
const F2_WIDTH: usize = 2_048;
/// One `scan_flat` transaction: 8 probes, 1 range, 1 group filter in a
/// fixed interleaving, so each class is an exact share of the ops
/// (16 : 2 : 2) and `p95_us` falls inside the scan classes, never on a
/// class boundary.
const FLAT_PATTERN: [&str; 10] = ["F1", "F1", "F1", "F1", "F2", "F1", "F1", "F1", "F1", "F3"];
/// Every this-many reads, `mixed_rw`'s reader checks the balance sum:
/// a tenth of its ops, so `p95_us` is the median of the full-table reads.
const SUM_CHECK_EVERY: u64 = 10;

impl Script {
    fn new(kind: Kind, role: &'static str, seed: u64, pool: Vec<Stmt>, model: Vec<i64>) -> Script {
        let mut by_class: Vec<(&'static str, Vec<usize>)> = Vec::new();
        for (i, s) in pool.iter().enumerate() {
            match by_class.iter_mut().find(|(c, _)| *c == s.class) {
                Some((_, at)) => at.push(i),
                None => by_class.push((s.class, vec![i])),
            }
        }
        Script {
            role,
            counts_ops: kind != Kind::MixedWriter,
            counts_commits: kind != Kind::MixedReader,
            pool: pool.into_iter().map(Arc::new).collect(),
            by_class,
            kind,
            seed,
            rng: Rng::lane(seed, 100 + kind as u64),
            issued: 0,
            model,
        }
    }

    pub fn serve_point(seed: u64) -> Script {
        let pool = PAPER_STATEMENTS
            .iter()
            .map(|(class, sql)| Stmt::read(class, sql.to_string()))
            .collect();
        Script::new(Kind::ServePoint, "client", seed, pool, Vec::new())
    }

    pub fn scan_nf2(seed: u64) -> Script {
        let mut rng = Rng::lane(seed, 10);
        // N1 twice (with and without naming the structure), so that it is
        // two fifths of the ops and `p50_us` falls inside one class
        // instead of on the boundary between two.
        let mut pool = vec![
            Stmt::read("N1", "SELECT * FROM DEPARTMENTS".to_string()),
            Stmt::read(
                "N1",
                "SELECT x.DNO, x.MGRNO, x.PROJECTS, x.BUDGET, x.EQUIP FROM x IN DEPARTMENTS"
                    .to_string(),
            ),
        ];
        for _ in 0..NF2_VARIANTS {
            // Half the departments, from a seeded offset: the constants
            // move with the seed, the selectivity does not.
            let lo = FIRST_DNO as u64 + rng.below(NF2_OBJECTS as u64 / 2);
            pool.push(Stmt::read(
                "N2",
                format!(
                    "SELECT x.DNO, y.PNO, z.EMPNO FROM x IN DEPARTMENTS, y IN x.PROJECTS, \
                     z IN y.MEMBERS WHERE z.FUNCTION = '{}' AND x.DNO >= {lo} AND x.DNO < {}",
                    rng.pick(&FUNCTIONS),
                    lo + NF2_OBJECTS as u64 / 2
                ),
            ));
        }
        for _ in 0..NF2_VARIANTS {
            pool.push(Stmt::read(
                "N3",
                format!(
                    "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS \
                     WHERE EXISTS y IN x.EQUIP : y.TYPE = '{}'",
                    rng.pick(&EQUIP_TYPES)
                ),
            ));
        }
        for _ in 0..NF2_VARIANTS {
            pool.push(Stmt::read(
                "N4",
                format!(
                    "SELECT x.DNO, x.MGRNO FROM x IN DEPARTMENTS WHERE ALL y IN x.PROJECTS : \
                     ALL z IN y.MEMBERS : z.FUNCTION = '{}'",
                    rng.pick(&FUNCTIONS)
                ),
            ));
        }
        Script::new(Kind::ScanNf2, "client", seed, pool, Vec::new())
    }

    pub fn scan_flat(seed: u64) -> Script {
        let mut rng = Rng::lane(seed, 11);
        let mut pool = Vec::new();
        for _ in 0..F1_KEYS {
            pool.push(Stmt::read(
                "F1",
                format!(
                    "SELECT x.K, x.V, x.TAG FROM x IN EVENTS WHERE x.K = {}",
                    rng.below(EVENTS_COLD as u64)
                ),
            ));
        }
        for _ in 0..F2_RANGES {
            let lo = rng.below((EVENTS_COLD - F2_WIDTH) as u64);
            pool.push(Stmt::read(
                "F2",
                format!(
                    "SELECT x.K, x.V FROM x IN EVENTS WHERE x.K >= {lo} AND x.K < {}",
                    lo + F2_WIDTH as u64
                ),
            ));
        }
        for _ in 0..F3_GROUPS {
            pool.push(Stmt::read(
                "F3",
                format!(
                    "SELECT x.K, x.V, x.TAG FROM x IN EVENTS WHERE x.G = {}",
                    rng.below(EVENT_GROUPS)
                ),
            ));
        }
        Script::new(Kind::ScanFlat, "client", seed, pool, Vec::new())
    }

    pub fn commit_dml(seed: u64, balances: Vec<i64>) -> Script {
        Script::new(Kind::CommitDml, "client", seed, Vec::new(), balances)
    }

    pub fn mixed_writer(seed: u64, balances: Vec<i64>) -> Script {
        Script::new(Kind::MixedWriter, "writer", seed, Vec::new(), balances)
    }

    pub fn mixed_reader(seed: u64, balances: &[i64]) -> Script {
        let per_region = (balances.len() / REGIONS) as u64;
        let mut pool: Vec<Stmt> = (0..REGIONS)
            .map(|r| Stmt {
                class: "R1",
                sql: format!("SELECT x.ID, x.BAL FROM x IN ACCOUNTS WHERE x.REGION = {r}"),
                expect: Expect::RowCount(per_region),
            })
            .collect();
        pool.push(Stmt {
            class: "R2",
            sql: "SELECT x.BAL FROM x IN ACCOUNTS".to_string(),
            expect: Expect::ColumnSum(balances.iter().sum()),
        });
        Script::new(Kind::MixedReader, "reader", seed, pool, Vec::new())
    }

    /// `open_recover`: autocommit single-row updates, seven on ACCOUNTS
    /// then one on DEPARTMENTS, so the log holds pages of both a flat
    /// and an NF² segment. The NF² update is five times the cost of the
    /// flat one; at an eighth of the ops `p95_us` falls inside its class.
    pub fn recover(seed: u64, balances: Vec<i64>, budgets: &[i64]) -> Script {
        let mut model = balances;
        model.extend_from_slice(budgets);
        Script::new(Kind::Recover, "client", seed, Vec::new(), model)
    }

    /// Restart the statement stream from its first transaction. Writers
    /// keep their model: the same keys and amounts replay against the
    /// balances as they now stand, so the sum invariant still holds.
    pub fn rewind(&mut self) {
        self.rng = Rng::lane(self.seed, 100 + self.kind as u64);
        self.issued = 0;
    }

    fn pooled(&self, class: &str, pick: u64) -> Arc<Stmt> {
        let (_, at) = self
            .by_class
            .iter()
            .find(|(c, _)| *c == class)
            .expect("class is in the pool");
        self.pool[at[(pick % at.len() as u64) as usize]].clone()
    }

    fn set_balance(&mut self, id: usize, bal: i64) -> Arc<Stmt> {
        self.model[id] = bal;
        Arc::new(Stmt {
            class: "W1",
            sql: format!("UPDATE x IN ACCOUNTS SET x.BAL = {bal} WHERE x.ID = {id}"),
            expect: Expect::Affected(1),
        })
    }

    fn set_budget(&mut self, dept: usize, budget: i64) -> Arc<Stmt> {
        self.model[ACCOUNTS + dept] = budget;
        Arc::new(Stmt {
            class: "W2",
            sql: format!(
                "UPDATE x IN DEPARTMENTS SET x.BUDGET = {budget} WHERE x.DNO = {}",
                FIRST_DNO + dept as i64
            ),
            expect: Expect::Affected(1),
        })
    }

    pub fn next_txn(&mut self) -> Txn {
        let n = self.issued;
        self.issued += 1;
        match self.kind {
            Kind::ServePoint => {
                let mut order: Vec<usize> = (0..self.pool.len()).collect();
                self.rng.shuffle(&mut order);
                Txn {
                    mode: TxnMode::ReadOnly,
                    stmts: order.into_iter().map(|i| self.pool[i].clone()).collect(),
                }
            }
            Kind::ScanNf2 => {
                // Both N1 forms once each, one seeded variant of the rest.
                let mut items = [
                    ("N1", Some(0)),
                    ("N1", Some(1)),
                    ("N2", None),
                    ("N3", None),
                    ("N4", None),
                ];
                self.rng.shuffle(&mut items);
                Txn {
                    mode: TxnMode::ReadWrite,
                    stmts: items
                        .iter()
                        .map(|(class, fixed)| {
                            let pick = fixed.unwrap_or_else(|| self.rng.next_u64());
                            self.pooled(class, pick)
                        })
                        .collect(),
                }
            }
            Kind::ScanFlat => Txn {
                mode: TxnMode::ReadWrite,
                stmts: FLAT_PATTERN
                    .iter()
                    .map(|c| {
                        let pick = self.rng.next_u64();
                        self.pooled(c, pick)
                    })
                    .collect(),
            },
            Kind::CommitDml => {
                let id = self.rng.below(self.model.len() as u64) as usize;
                let bal = self.rng.below(1_000_000) as i64;
                Txn {
                    mode: TxnMode::Auto,
                    stmts: vec![self.set_balance(id, bal)],
                }
            }
            Kind::MixedWriter => {
                let len = self.model.len() as u64;
                let from = self.rng.below(len) as usize;
                let to = ((from as u64 + 1 + self.rng.below(len - 1)) % len) as usize;
                let amount = 1 + self.rng.below(100) as i64;
                let (f, t) = (self.model[from] - amount, self.model[to] + amount);
                Txn {
                    mode: TxnMode::ReadWrite,
                    stmts: vec![self.set_balance(from, f), self.set_balance(to, t)],
                }
            }
            Kind::Recover => {
                let value = self.rng.below(1_000_000) as i64;
                let stmt = if n % 8 == 7 {
                    let dept = self.rng.below((self.model.len() - ACCOUNTS) as u64) as usize;
                    self.set_budget(dept, value)
                } else {
                    let id = self.rng.below(ACCOUNTS as u64) as usize;
                    self.set_balance(id, value)
                };
                Txn {
                    mode: TxnMode::Auto,
                    stmts: vec![stmt],
                }
            }
            Kind::MixedReader => {
                let stmt = if (n + 1).is_multiple_of(SUM_CHECK_EVERY) {
                    self.pooled("R2", 0)
                } else {
                    let pick = self.rng.next_u64();
                    self.pooled("R1", pick)
                };
                Txn {
                    mode: TxnMode::Auto,
                    stmts: vec![stmt],
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim2_model::encode::encode_tuple;

    fn table_bytes(t: &TableData) -> Vec<u8> {
        let mut out = Vec::new();
        for tuple in &t.tuples {
            encode_tuple(tuple, &mut out);
        }
        out
    }

    fn statements(mut s: Script, txns: usize) -> Vec<String> {
        (0..txns)
            .flat_map(|_| s.next_txn().stmts)
            .map(|st| format!("{}:{}", st.class, st.sql))
            .collect()
    }

    /// A statement with its literals blanked out: its shape.
    fn shape(sql: &str) -> String {
        let mut out = String::new();
        let mut in_quote = false;
        for c in sql.chars() {
            match c {
                '\'' => in_quote = !in_quote,
                _ if in_quote => {}
                c if c.is_ascii_digit() => {}
                c => out.push(c),
            }
        }
        out
    }

    fn scripts(seed: u64) -> Vec<Script> {
        let bal = balances(&accounts(seed, ACCOUNTS));
        vec![
            Script::serve_point(seed),
            Script::scan_nf2(seed),
            Script::scan_flat(seed),
            Script::commit_dml(seed, bal.clone()),
            Script::mixed_reader(seed, &bal),
            Script::mixed_writer(seed, bal.clone()),
            Script::recover(seed, bal, &budgets(&departments(seed, 20))),
        ]
    }

    #[test]
    fn same_seed_gives_identical_tables_and_statements() {
        for make in [
            |s| departments(s, 50),
            |s| events(s),
            |s| accounts(s, ACCOUNTS),
        ] {
            assert_eq!(table_bytes(&make(7)), table_bytes(&make(7)));
            assert_ne!(table_bytes(&make(7)), table_bytes(&make(8)));
            assert_eq!(make(7).tuples.len(), make(8).tuples.len());
        }
        for (x, y) in scripts(7).into_iter().zip(scripts(7)) {
            assert_eq!(statements(x, 30), statements(y, 30));
        }
    }

    #[test]
    fn another_seed_changes_constants_but_not_shapes() {
        for (x, y) in scripts(7).into_iter().zip(scripts(8)) {
            let role = x.role;
            let (sx, sy) = (statements(x, 30), statements(y, 30));
            assert_ne!(sx, sy, "{role}: seed must move the constants");
            assert_eq!(sx.len(), sy.len());
            let classes = |v: &[String]| {
                let mut c: Vec<String> = v.iter().map(|s| shape(s)).collect();
                c.sort();
                c
            };
            assert_eq!(classes(&sx), classes(&sy), "{role}: same statement shapes");
        }
    }

    #[test]
    fn rewind_replays_the_same_keys() {
        let bal = balances(&accounts(3, ACCOUNTS));
        let mut w = Script::mixed_writer(3, bal.clone());
        let first: Vec<Txn> = (0..5).map(|_| w.next_txn()).collect();
        w.rewind();
        let again: Vec<Txn> = (0..5).map(|_| w.next_txn()).collect();
        // Same accounts, balances moved on: the sum is still invariant.
        for (x, y) in first.iter().zip(&again) {
            let key = |s: &Arc<Stmt>| s.sql.split("WHERE").nth(1).map(str::to_string);
            assert_eq!(key(&x.stmts[0]), key(&y.stmts[0]));
        }
        assert_eq!(w.model.iter().sum::<i64>(), bal.iter().sum::<i64>());
    }

    #[test]
    fn flat_pattern_has_exact_class_shares() {
        let count = |c: &str| FLAT_PATTERN.iter().filter(|x| **x == c).count();
        assert_eq!((count("F1"), count("F2"), count("F3")), (8, 1, 1));
    }
}
