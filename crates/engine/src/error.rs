//! Engine-wide error type.

use std::fmt;

/// Errors produced by the storage, query, execution and optimizer layers.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A table name could not be resolved in the catalog.
    UnknownTable(String),
    /// A column name could not be resolved in a table.
    UnknownColumn {
        /// Table searched.
        table: String,
        /// Missing column name.
        column: String,
    },
    /// An alias used in a query does not refer to any `FROM` entry.
    UnknownAlias(String),
    /// A value or column had an unexpected data type.
    TypeMismatch {
        /// What the operation required.
        expected: &'static str,
        /// What it found instead.
        found: String,
    },
    /// The SQL-ish parser rejected the input.
    Parse(String),
    /// The executor exceeded its configured work budget.
    WorkLimitExceeded {
        /// The configured budget, in work units.
        limit: f64,
    },
    /// A plan was structurally invalid for the query it was executed against.
    InvalidPlan(String),
    /// The optimizer could not produce a plan (e.g. disconnected join graph
    /// with cross products disabled).
    NoPlanFound(String),
    /// A parallel worker thread panicked mid-morsel. The panic was
    /// contained by the pool; depending on configuration the query either
    /// surfaces this error or degrades to the serial execution path.
    WorkerFault {
        /// The operator the faulting morsel belonged to.
        op: String,
    },
    /// An operator input is too large for the `u32` row-id domain used by
    /// selection vectors and join chain links. Before this check, the
    /// `as u32` casts at batch construction silently truncated row ids
    /// beyond `u32::MAX`, producing wrong (not slow) answers.
    RowIdOverflow {
        /// The operator or input being materialized (e.g. `"scan"`,
        /// `"join build side"`).
        context: &'static str,
        /// The offending row count.
        rows: u64,
    },
    /// An operator's logical output count exceeds `usize`. Weighted
    /// intermediates reach such counts with few stored tuples; the count
    /// fails typed instead of wrapping.
    CountOverflow {
        /// The operator whose output overflowed (e.g. `"HashJoin"`).
        op: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            EngineError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            EngineError::UnknownAlias(a) => write!(f, "unknown alias: {a}"),
            EngineError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            EngineError::Parse(msg) => write!(f, "parse error: {msg}"),
            EngineError::WorkLimitExceeded { limit } => {
                write!(f, "executor exceeded work limit of {limit} units")
            }
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::NoPlanFound(msg) => write!(f, "no plan found: {msg}"),
            EngineError::WorkerFault { op } => {
                write!(f, "parallel worker fault during {op}")
            }
            EngineError::RowIdOverflow { context, rows } => {
                write!(
                    f,
                    "{context} input of {rows} rows exceeds the u32 row-id domain"
                )
            }
            EngineError::CountOverflow { op } => {
                write!(f, "{op} output count overflows the logical count domain")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Convenience alias used throughout the engine.
pub type Result<T> = std::result::Result<T, EngineError>;
