//! Facade-level errors.

use std::fmt;
use std::path::PathBuf;

/// Anything that can go wrong executing a statement.
#[derive(Debug)]
pub enum DbError {
    Parse(aim2_lang::ParseError),
    Exec(aim2_exec::ExecError),
    Storage(aim2_storage::StorageError),
    Index(aim2_index::IndexError),
    Model(aim2_model::ModelError),
    /// Catalog-level problems (duplicate table, unknown table, bad DDL
    /// option, mutating a read path, ...).
    Catalog(String),
    /// [`Database::open`](crate::Database::open) was pointed at a data
    /// directory that does not exist.
    DataDirMissing(PathBuf),
    /// The data directory exists but holds no catalog file — it is not
    /// (yet) a database.
    NotADatabase(PathBuf),
    /// The object was quarantined by [`integrity_check`]
    /// (crate::Database::integrity_check) — its pages or metadata are
    /// corrupt, and reads would return garbage. Other objects of the
    /// same table keep serving.
    ObjectQuarantined {
        table: String,
        object: aim2_storage::tid::Tid,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::Exec(e) => write!(f, "{e}"),
            DbError::Storage(e) => write!(f, "{e}"),
            DbError::Index(e) => write!(f, "{e}"),
            DbError::Model(e) => write!(f, "{e}"),
            DbError::Catalog(m) => write!(f, "catalog error: {m}"),
            DbError::DataDirMissing(p) => {
                write!(f, "data directory does not exist: {}", p.display())
            }
            DbError::NotADatabase(p) => write!(
                f,
                "no database found in {} (missing catalog file)",
                p.display()
            ),
            DbError::ObjectQuarantined { table, object } => write!(
                f,
                "object {object} of table {table} is quarantined (corrupt; run salvage)"
            ),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Parse(e) => Some(e),
            DbError::Exec(e) => Some(e),
            DbError::Storage(e) => Some(e),
            DbError::Index(e) => Some(e),
            DbError::Model(e) => Some(e),
            DbError::Catalog(_)
            | DbError::DataDirMissing(_)
            | DbError::NotADatabase(_)
            | DbError::ObjectQuarantined { .. } => None,
        }
    }
}

impl From<aim2_lang::ParseError> for DbError {
    fn from(e: aim2_lang::ParseError) -> Self {
        DbError::Parse(e)
    }
}
impl From<aim2_exec::ExecError> for DbError {
    fn from(e: aim2_exec::ExecError) -> Self {
        DbError::Exec(e)
    }
}
/// Scan-path errors cross back into the evaluator typed: storage
/// failures stay storage failures (the wire layer maps them to their own
/// error code), everything else is reported by message.
impl From<DbError> for aim2_exec::ExecError {
    fn from(e: DbError) -> Self {
        match e {
            DbError::Exec(e) => e,
            DbError::Storage(e) => aim2_exec::ExecError::Storage(e),
            other => aim2_exec::ExecError::Semantic(other.to_string()),
        }
    }
}
impl From<aim2_storage::StorageError> for DbError {
    fn from(e: aim2_storage::StorageError) -> Self {
        DbError::Storage(e)
    }
}
impl From<aim2_index::IndexError> for DbError {
    fn from(e: aim2_index::IndexError) -> Self {
        DbError::Index(e)
    }
}
impl From<aim2_model::ModelError> for DbError {
    fn from(e: aim2_model::ModelError) -> Self {
        DbError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn display_catalog() {
        let e = super::DbError::Catalog("duplicate table T".into());
        assert!(e.to_string().contains("duplicate table"));
    }
}
