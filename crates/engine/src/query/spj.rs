//! The SPJ query: `SELECT COUNT(*) FROM … WHERE <joins AND filters>`.
//!
//! All workloads in the paper's benchmark section (JOB, STATS-CEB) are
//! count-star SPJ queries, which is exactly what cardinality estimation is
//! defined over, so the engine's query model is specialized to them.

use std::fmt::{self, Write as _};

use serde::{Deserialize, Serialize};

use crate::error::{EngineError, Result};
use crate::query::expr::{ColRef, JoinCond, Predicate, TableRef};
use crate::query::key::{self, KeyHasher, SubqueryKey};
use crate::query::table_set::TableSet;
use crate::types::DataType;
use crate::Catalog;

/// A select-project-join query over base tables with conjunctive
/// single-column filters and equi-joins. The implicit output is
/// `COUNT(*)` — i.e. the query's cardinality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpjQuery {
    /// `FROM` list; position in this vector is the table's identity in
    /// every [`TableSet`].
    pub tables: Vec<TableRef>,
    /// Equi-join conditions.
    pub joins: Vec<JoinCond>,
    /// Filter predicates.
    pub predicates: Vec<Predicate>,
}

impl SpjQuery {
    /// Create a query from parts.
    pub fn new(tables: Vec<TableRef>, joins: Vec<JoinCond>, predicates: Vec<Predicate>) -> Self {
        SpjQuery {
            tables,
            joins,
            predicates,
        }
    }

    /// Number of relations.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The set of all table positions.
    pub fn all_tables(&self) -> TableSet {
        TableSet::full(self.tables.len())
    }

    /// Resolve an alias to its position in `tables`.
    pub fn alias_pos(&self, alias: &str) -> Result<usize> {
        self.tables
            .iter()
            .position(|t| t.alias == alias)
            .ok_or_else(|| EngineError::UnknownAlias(alias.to_string()))
    }

    /// Position of the table a column reference lives on.
    pub fn col_pos(&self, col: &ColRef) -> Result<usize> {
        self.alias_pos(&col.alias)
    }

    /// Predicates filtering the table at `pos`.
    pub fn predicates_on(&self, pos: usize) -> Vec<&Predicate> {
        let alias = &self.tables[pos].alias;
        self.predicates
            .iter()
            .filter(|p| &p.col.alias == alias)
            .collect()
    }

    /// Join conditions whose both sides fall inside `set`.
    pub fn joins_within(&self, set: TableSet) -> Vec<&JoinCond> {
        self.joins
            .iter()
            .filter(|j| {
                let l = self.col_pos(&j.left);
                let r = self.col_pos(&j.right);
                matches!((l, r), (Ok(l), Ok(r)) if set.contains(l) && set.contains(r))
            })
            .collect()
    }

    /// Join conditions with one side in `left` and the other in `right`.
    pub fn joins_between(&self, left: TableSet, right: TableSet) -> Vec<&JoinCond> {
        self.joins
            .iter()
            .filter(|j| {
                let (Ok(l), Ok(r)) = (self.col_pos(&j.left), self.col_pos(&j.right)) else {
                    return false;
                };
                (left.contains(l) && right.contains(r)) || (left.contains(r) && right.contains(l))
            })
            .collect()
    }

    /// The sub-query induced by a subset of tables: keeps the tables in
    /// `set` (renumbered in increasing position order), all joins internal
    /// to `set`, and all predicates on members of `set`.
    pub fn induced(&self, set: TableSet) -> SpjQuery {
        let tables: Vec<TableRef> = set.iter().map(|p| self.tables[p].clone()).collect();
        let joins = self
            .joins_within(set)
            .into_iter()
            .cloned()
            .collect::<Vec<_>>();
        let aliases: Vec<&str> = tables.iter().map(|t| t.alias.as_str()).collect();
        let predicates = self
            .predicates
            .iter()
            .filter(|p| aliases.contains(&p.col.alias.as_str()))
            .cloned()
            .collect();
        SpjQuery {
            tables,
            joins,
            predicates,
        }
    }

    /// A canonical string uniquely identifying the semantics of the
    /// sub-query induced by `set`: the readable reference form of
    /// [`SpjQuery::subquery_key`], which every cache keys on instead.
    pub fn canonical_key(&self, set: TableSet) -> String {
        let mut tables: Vec<String> = set
            .iter()
            .map(|p| format!("{} {}", self.tables[p].table, self.tables[p].alias))
            .collect();
        tables.sort();
        let mut preds: Vec<String> = set
            .iter()
            .flat_map(|p| self.predicates_on(p))
            .map(|p| p.to_string())
            .collect();
        preds.sort();
        let mut joins: Vec<String> = self
            .joins_within(set)
            .iter()
            .map(|j| {
                // Order the two sides deterministically.
                let a = j.left.to_string();
                let b = j.right.to_string();
                if a <= b {
                    format!("{a}={b}")
                } else {
                    format!("{b}={a}")
                }
            })
            .collect();
        joins.sort();
        format!(
            "F[{}]J[{}]P[{}]",
            tables.join(","),
            joins.join(","),
            preds.join(",")
        )
    }

    /// The fixed-width key of the sub-query induced by `set`: equal for
    /// two sub-queries exactly when their [`SpjQuery::canonical_key`]s
    /// are (see [`crate::query::key`]). Hashes the same element texts
    /// `canonical_key` builds, without allocating.
    pub fn subquery_key(&self, set: TableSet) -> SubqueryKey {
        fn element(tag: u8, text: fmt::Arguments<'_>) -> SubqueryKey {
            let mut h = KeyHasher::new(tag);
            // Writing into a hasher cannot fail.
            let _ = h.write_fmt(text);
            h.finish()
        }
        /// The bytes of `c`'s `Display` text, `alias.column`.
        fn text(c: &ColRef) -> impl Iterator<Item = u8> + '_ {
            let dot = std::iter::once(b'.');
            c.alias.bytes().chain(dot).chain(c.column.bytes())
        }
        let mut key = SubqueryKey(0);
        for p in set.iter() {
            let t = &self.tables[p];
            key = key::add(key, element(b'F', format_args!("{} {}", t.table, t.alias)));
            for pred in self.predicates.iter().filter(|q| q.col.alias == t.alias) {
                key = key::add(key, element(b'P', format_args!("{pred}")));
            }
        }
        for j in &self.joins {
            let (Ok(l), Ok(r)) = (self.col_pos(&j.left), self.col_pos(&j.right)) else {
                continue;
            };
            if !(set.contains(l) && set.contains(r)) {
                continue;
            }
            // The two sides in the order of their texts, as canonical_key
            // orders them.
            let (a, b) = if text(&j.left).le(text(&j.right)) {
                (&j.left, &j.right)
            } else {
                (&j.right, &j.left)
            };
            key = key::add(key, element(b'J', format_args!("{a}={b}")));
        }
        key
    }

    /// Validate the query against a catalog: every table, alias and column
    /// must resolve; aliases must be unique; join columns must be integers.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        for (i, t) in self.tables.iter().enumerate() {
            catalog.table(&t.table)?;
            if self.tables[..i].iter().any(|o| o.alias == t.alias) {
                return Err(EngineError::Parse(format!("duplicate alias: {}", t.alias)));
            }
        }
        let check_col = |c: &ColRef, need_int: bool| -> Result<()> {
            let pos = self.alias_pos(&c.alias)?;
            let table = catalog.table(&self.tables[pos].table)?;
            let col = table.column_by_name(&c.column)?;
            if need_int && col.dtype() != DataType::Int {
                return Err(EngineError::TypeMismatch {
                    expected: "INT join column",
                    found: format!("{} for {c}", col.dtype()),
                });
            }
            Ok(())
        };
        for j in &self.joins {
            check_col(&j.left, true)?;
            check_col(&j.right, true)?;
        }
        for p in &self.predicates {
            check_col(&p.col, false)?;
        }
        Ok(())
    }
}

impl fmt::Display for SpjQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT COUNT(*) FROM ")?;
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if t.table == t.alias {
                write!(f, "{}", t.table)?;
            } else {
                write!(f, "{} {}", t.table, t.alias)?;
            }
        }
        let mut conds: Vec<String> = self.joins.iter().map(|j| j.to_string()).collect();
        conds.extend(self.predicates.iter().map(|p| p.to_string()));
        if !conds.is_empty() {
            write!(f, " WHERE {}", conds.join(" AND "))?;
        }
        write!(f, ";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::expr::CmpOp;
    use crate::table::TableBuilder;
    use crate::types::Value;

    fn two_table_query() -> SpjQuery {
        SpjQuery::new(
            vec![TableRef::new("a", "x"), TableRef::new("b", "y")],
            vec![JoinCond::new(
                ColRef::new("x", "id"),
                ColRef::new("y", "a_id"),
            )],
            vec![Predicate::new(
                ColRef::new("x", "id"),
                CmpOp::Gt,
                Value::Int(0),
            )],
        )
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("a")
                .int("id", vec![1, 2])
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("b")
                .int("id", vec![1])
                .int("a_id", vec![2])
                .float("score", vec![0.5])
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c
    }

    #[test]
    fn alias_resolution() {
        let q = two_table_query();
        assert_eq!(q.alias_pos("y").unwrap(), 1);
        assert!(q.alias_pos("z").is_err());
    }

    #[test]
    fn joins_within_and_between() {
        let q = two_table_query();
        assert_eq!(q.joins_within(TableSet::full(2)).len(), 1);
        assert_eq!(q.joins_within(TableSet::singleton(0)).len(), 0);
        assert_eq!(
            q.joins_between(TableSet::singleton(0), TableSet::singleton(1))
                .len(),
            1
        );
        assert_eq!(
            q.joins_between(TableSet::singleton(1), TableSet::singleton(0))
                .len(),
            1
        );
    }

    #[test]
    fn induced_subquery_keeps_local_parts() {
        let q = two_table_query();
        let sub = q.induced(TableSet::singleton(0));
        assert_eq!(sub.tables.len(), 1);
        assert_eq!(sub.joins.len(), 0);
        assert_eq!(sub.predicates.len(), 1);
    }

    #[test]
    fn canonical_key_is_order_insensitive() {
        let q = two_table_query();
        let mut q2 = q.clone();
        q2.tables.reverse();
        // Positions changed, but the full-set key must be identical.
        assert_eq!(
            q.canonical_key(q.all_tables()),
            q2.canonical_key(q2.all_tables())
        );
        assert_eq!(
            q.subquery_key(q.all_tables()),
            q2.subquery_key(q2.all_tables())
        );
    }

    #[test]
    fn subquery_key_tells_apart_what_canonical_key_does() {
        let q = two_table_query();
        let full = q.subquery_key(q.all_tables());
        // Join sides swapped: same sub-query.
        let mut swapped = q.clone();
        let j = &mut swapped.joins[0];
        std::mem::swap(&mut j.left, &mut j.right);
        assert_eq!(swapped.subquery_key(swapped.all_tables()), full);
        // A duplicated predicate is a different canonical key, and so a
        // different subquery key (an xor combination would cancel it).
        let mut dup = q.clone();
        dup.predicates.push(dup.predicates[0].clone());
        dup.predicates.push(dup.predicates[0].clone());
        assert_ne!(
            dup.canonical_key(dup.all_tables()),
            q.canonical_key(q.all_tables())
        );
        assert_ne!(dup.subquery_key(dup.all_tables()), full);
        // Subsets differ from the whole and from each other.
        let (x, y) = (TableSet::singleton(0), TableSet::singleton(1));
        assert_ne!(q.subquery_key(x), full);
        assert_ne!(q.subquery_key(x), q.subquery_key(y));
    }

    #[test]
    fn validate_checks_types_and_duplicates() {
        let c = catalog();
        let q = two_table_query();
        q.validate(&c).unwrap();

        // Join on a float column is rejected.
        let bad = SpjQuery::new(
            vec![TableRef::new("a", "x"), TableRef::new("b", "y")],
            vec![JoinCond::new(
                ColRef::new("x", "id"),
                ColRef::new("y", "score"),
            )],
            vec![],
        );
        assert!(bad.validate(&c).is_err());

        // Duplicate aliases are rejected.
        let dup = SpjQuery::new(
            vec![TableRef::new("a", "x"), TableRef::new("b", "x")],
            vec![],
            vec![],
        );
        assert!(dup.validate(&c).is_err());
    }

    #[test]
    fn display_is_sqlish() {
        let q = two_table_query();
        let s = q.to_string();
        assert!(s.starts_with("SELECT COUNT(*) FROM a x, b y WHERE "));
        assert!(s.contains("x.id = y.a_id"));
        assert!(s.contains("x.id > 0"));
    }
}
