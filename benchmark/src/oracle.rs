//! The answer oracle: what a correct reply looks like, and the check
//! every reply goes through.
//!
//! Before a run, each distinct read statement is evaluated in-process by
//! `Database::query` on an in-memory database loaded with the same
//! generated tables. Its row count and an order-insensitive checksum
//! become the statement's expectation; the reply that comes back over
//! the socket must match both.

use std::sync::Arc;

use aim2::Database;
use aim2_model::{Atom, TableKind, TableValue, Tuple, Value};
use aim2_net::{ErrorCode, NetError, QueryOutcome};

use crate::gen::{Expect, Stmt, TableData};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn atom_hash(h: u64, a: &Atom) -> u64 {
    match a {
        Atom::Int(v) => fnv(fnv(h, b"i"), &v.to_le_bytes()),
        Atom::Double(v) => fnv(fnv(h, b"d"), &v.to_bits().to_le_bytes()),
        Atom::Str(v) | Atom::Text(v) => fnv(fnv(h, b"s"), v.as_bytes()),
        Atom::Bool(v) => fnv(fnv(h, b"b"), &[u8::from(*v)]),
        Atom::Date(v) => fnv(fnv(h, b"t"), &v.0.to_le_bytes()),
    }
}

fn tuple_hash(t: &Tuple) -> u64 {
    let mut h = FNV_OFFSET;
    for f in &t.fields {
        h = match f {
            Value::Atom(a) => atom_hash(h, a),
            Value::Table(tv) => fnv(h, &table_hash(tv).to_le_bytes()),
        };
    }
    // Final avalanche, so that summing tuple hashes does not cancel.
    h ^= h >> 32;
    h.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Relations hash as a sum over their tuples (order does not matter, as
/// in the model); lists hash in order.
fn table_hash(t: &TableValue) -> u64 {
    match t.kind {
        TableKind::Relation => rows_checksum(&t.tuples),
        TableKind::List => t
            .tuples
            .iter()
            .fold(FNV_OFFSET, |h, tup| fnv(h, &tuple_hash(tup).to_le_bytes())),
    }
}

/// Order-insensitive checksum of a result's rows.
pub fn rows_checksum(rows: &[Tuple]) -> u64 {
    rows.iter()
        .fold(0u64, |acc, t| acc.wrapping_add(tuple_hash(t)))
}

/// An in-memory database holding `tables`, for the oracle and for the
/// probes that need no server.
pub fn memory_db(tables: &[TableData]) -> Result<Database, String> {
    let mut db = Database::in_memory();
    crate::engine::load_tables(&mut db, tables)?;
    Ok(db)
}

/// Fill in the expectation of every oracle-checked statement in `pool`.
pub fn fill(pool: &mut [Arc<Stmt>], db: &mut Database) -> Result<(), String> {
    for stmt in pool {
        if !matches!(stmt.expect, Expect::Rows { .. }) {
            continue;
        }
        let (_, value) = db
            .query(&stmt.sql)
            .map_err(|e| format!("oracle: {}: {e}", stmt.sql))?;
        Arc::make_mut(stmt).expect = Expect::Rows {
            count: value.tuples.len() as u64,
            checksum: rows_checksum(&value.tuples),
        };
    }
    Ok(())
}

/// Why an op counts as failed. Each kind is listed in the result file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailKind {
    WrongAnswer,
    /// The server refused the statement under load (admission, shed).
    Shed,
    DeadlineExceeded,
    /// Any other typed server error.
    ServerError,
    /// The connection was lost or the transport failed.
    Transport,
    /// The statement succeeded only after the client retried or redialed.
    Retried,
}

impl FailKind {
    pub fn name(self) -> &'static str {
        match self {
            FailKind::WrongAnswer => "wrong_answer",
            FailKind::Shed => "shed",
            FailKind::DeadlineExceeded => "deadline_exceeded",
            FailKind::ServerError => "server_error",
            FailKind::Transport => "transport",
            FailKind::Retried => "retried",
        }
    }

    pub fn of_error(e: &NetError) -> FailKind {
        match e {
            NetError::Server { code, .. } => match code {
                ErrorCode::Admission | ErrorCode::Degraded => FailKind::Shed,
                ErrorCode::DeadlineExceeded => FailKind::DeadlineExceeded,
                _ => FailKind::ServerError,
            },
            _ => FailKind::Transport,
        }
    }
}

fn int_column_sum(rows: &[Tuple]) -> Option<i64> {
    rows.iter()
        .map(|t| t.fields.first()?.as_atom()?.as_int())
        .sum()
}

/// Check one reply. `Ok(rows)` is the number of result rows (or rows
/// affected) the reply carried.
pub fn check(reply: &QueryOutcome, expect: &Expect) -> Result<u64, FailKind> {
    let ok = |good: bool, rows: u64| {
        if good {
            Ok(rows)
        } else {
            Err(FailKind::WrongAnswer)
        }
    };
    match (reply, expect) {
        (QueryOutcome::Table(_, v), Expect::Rows { count, checksum }) => {
            let n = v.tuples.len() as u64;
            ok(n == *count && rows_checksum(&v.tuples) == *checksum, n)
        }
        (QueryOutcome::Table(_, v), Expect::RowCount(count)) => {
            let n = v.tuples.len() as u64;
            ok(n == *count, n)
        }
        (QueryOutcome::Table(_, v), Expect::ColumnSum(sum)) => ok(
            int_column_sum(&v.tuples) == Some(*sum),
            v.tuples.len() as u64,
        ),
        (QueryOutcome::Count(n), Expect::Affected(want)) => ok(n == want, *n),
        _ => Err(FailKind::WrongAnswer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim2_model::value::build::{a, list, rel, tup};

    #[test]
    fn checksum_ignores_relation_order_but_not_list_order() {
        let r1 = tup(vec![
            a(1i64),
            rel(vec![tup(vec![a("x")]), tup(vec![a("y")])]),
        ]);
        let r2 = tup(vec![
            a(1i64),
            rel(vec![tup(vec![a("y")]), tup(vec![a("x")])]),
        ]);
        assert_eq!(
            rows_checksum(std::slice::from_ref(&r1)),
            rows_checksum(&[r2])
        );
        let l1 = tup(vec![list(vec![tup(vec![a("x")]), tup(vec![a("y")])])]);
        let l2 = tup(vec![list(vec![tup(vec![a("y")]), tup(vec![a("x")])])]);
        assert_ne!(
            rows_checksum(std::slice::from_ref(&l1)),
            rows_checksum(&[l2])
        );
        let other = tup(vec![a(2i64)]);
        assert_eq!(
            rows_checksum(&[r1.clone(), other.clone()]),
            rows_checksum(&[other.clone(), r1.clone()])
        );
        assert_ne!(
            rows_checksum(std::slice::from_ref(&r1)),
            rows_checksum(&[r1.clone(), other])
        );
        // A duplicated row does not cancel out.
        assert_ne!(rows_checksum(&[l1.clone(), l1]), 0);
    }
}
