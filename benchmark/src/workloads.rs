//! The workloads as data: tables to load, one statement script per
//! connection, and fixed op counts for the peel pass. (`open_recover`
//! plays its script inside a kill-and-restart cycle; see `lifecycle`.)

use crate::engine::{FETCH_POINT, FETCH_SCAN};
use crate::gen::{self, Script, TableData};

pub struct Plan {
    pub name: &'static str,
    pub tables: Vec<TableData>,
    /// One script per connection, one client thread each.
    pub scripts: Vec<Script>,
    pub fetch: u32,
    /// A cheap statement; set-up ends when the server has answered it.
    pub first_query: &'static str,
    /// Transactions each connection replays per level of the peel pass
    /// (fixed, so counter deltas repeat exactly on one connection).
    pub peel_txns: u64,
}

const ACCOUNT_ZERO: &str = "SELECT x.BAL FROM x IN ACCOUNTS WHERE x.ID = 0";

pub fn plan(name: &str, seed: u64) -> Option<Plan> {
    Some(match name {
        "serve_point" => Plan {
            name: "serve_point",
            tables: gen::paper_tables(),
            scripts: vec![Script::serve_point(seed)],
            fetch: FETCH_POINT,
            first_query: "SELECT x.REPNO FROM x IN REPORTS",
            // 9 statements each: 1 008 ops.
            peel_txns: 112,
        },
        "scan_nf2" => Plan {
            name: "scan_nf2",
            tables: vec![gen::departments(seed, gen::NF2_OBJECTS)],
            scripts: vec![Script::scan_nf2(seed)],
            fetch: FETCH_SCAN,
            first_query: "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 1000",
            // 5 statements each: 50 ops.
            peel_txns: 10,
        },
        "scan_flat" => Plan {
            name: "scan_flat",
            tables: vec![gen::events(seed)],
            scripts: vec![Script::scan_flat(seed)],
            fetch: FETCH_SCAN,
            first_query: "SELECT x.V FROM x IN EVENTS WHERE x.K = 0",
            // 10 statements each: 200 ops.
            peel_txns: 20,
        },
        "commit_dml" => {
            let accounts = gen::accounts(seed, gen::ACCOUNTS);
            let balances = gen::balances(&accounts);
            Plan {
                name: "commit_dml",
                tables: vec![accounts],
                scripts: vec![Script::commit_dml(seed, balances)],
                fetch: FETCH_SCAN,
                first_query: ACCOUNT_ZERO,
                peel_txns: 150,
            }
        }
        "mixed_rw" => {
            let accounts = gen::accounts(seed, gen::ACCOUNTS);
            let balances = gen::balances(&accounts);
            Plan {
                name: "mixed_rw",
                tables: vec![accounts],
                scripts: vec![
                    Script::mixed_reader(seed, &balances),
                    Script::mixed_writer(seed, balances),
                ],
                fetch: FETCH_SCAN,
                first_query: ACCOUNT_ZERO,
                peel_txns: 100,
            }
        }
        "open_recover" => {
            let accounts = gen::accounts(seed, gen::ACCOUNTS);
            let departments = gen::departments(seed, gen::NF2_OBJECTS);
            let script =
                Script::recover(seed, gen::balances(&accounts), &gen::budgets(&departments));
            Plan {
                name: "open_recover",
                tables: vec![accounts, departments],
                scripts: vec![script],
                fetch: FETCH_SCAN,
                first_query: ACCOUNT_ZERO,
                peel_txns: 80,
            }
        }
        _ => return None,
    })
}
