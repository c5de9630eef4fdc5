//! SPJ query representation: table references, predicates, equi-join
//! conditions, join graphs and a small SQL-ish parser.

pub mod expr;
pub mod join_graph;
pub mod key;
pub mod parser;
pub mod spj;
pub mod table_set;

pub use expr::{CmpOp, ColRef, JoinCond, Predicate, TableRef};
pub use join_graph::JoinGraph;
pub use key::{KeyHasher, SubqueryKey};
pub use parser::parse_query;
pub use spj::SpjQuery;
pub use table_set::TableSet;
