//! Physical plans: join trees annotated with join algorithms.

use std::fmt::Write as _;

use crate::plan::logical::JoinTree;
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// Physical join algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgo {
    /// Build a hash table on the left input, probe with the right.
    Hash,
    /// Nested loops over both inputs (the only algorithm that can evaluate
    /// a cross product).
    NestedLoop,
    /// Sort both inputs on the join key, then merge.
    Merge,
}

impl JoinAlgo {
    /// All algorithms, in the stable order used by one-hot featurization.
    pub const ALL: [JoinAlgo; 3] = [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::Merge];

    /// Position in [`JoinAlgo::ALL`].
    pub fn index(self) -> usize {
        JoinAlgo::ALL.iter().position(|&a| a == self).unwrap()
    }

    /// The operator label used by `Display`, `EXPLAIN`, profiler phases
    /// and per-operator trace events.
    pub fn label(self) -> &'static str {
        match self {
            JoinAlgo::Hash => "HashJoin",
            JoinAlgo::NestedLoop => "NestedLoopJoin",
            JoinAlgo::Merge => "MergeJoin",
        }
    }
}

impl std::fmt::Display for JoinAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A physical plan node. Scans carry no predicate list: predicates are
/// looked up from the query at execution/costing time, which keeps plans
/// small and hashable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PhysNode {
    /// Scan of the table at `pos` in the query's `FROM` list, applying all
    /// of that table's filter predicates.
    Scan {
        /// Table position.
        pos: usize,
    },
    /// A join of two sub-plans.
    Join {
        /// Physical algorithm.
        algo: JoinAlgo,
        /// Left input (hash-join build side).
        left: Box<PhysNode>,
        /// Right input (hash-join probe side).
        right: Box<PhysNode>,
    },
}

impl PhysNode {
    /// Scan node helper.
    pub fn scan(pos: usize) -> PhysNode {
        PhysNode::Scan { pos }
    }

    /// Join node helper.
    pub fn join(algo: JoinAlgo, left: PhysNode, right: PhysNode) -> PhysNode {
        PhysNode::Join {
            algo,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Set of tables covered by this sub-plan.
    pub fn tables(&self) -> TableSet {
        match self {
            PhysNode::Scan { pos } => TableSet::singleton(*pos),
            PhysNode::Join { left, right, .. } => left.tables().union(right.tables()),
        }
    }

    /// Number of join nodes.
    pub fn num_joins(&self) -> usize {
        match self {
            PhysNode::Scan { .. } => 0,
            PhysNode::Join { left, right, .. } => 1 + left.num_joins() + right.num_joins(),
        }
    }

    /// Convert a logical join tree into a physical plan by assigning the
    /// same algorithm to every join.
    pub fn from_join_tree(tree: &JoinTree, algo: JoinAlgo) -> PhysNode {
        match tree {
            JoinTree::Leaf(p) => PhysNode::scan(*p),
            JoinTree::Join(l, r) => PhysNode::join(
                algo,
                PhysNode::from_join_tree(l, algo),
                PhysNode::from_join_tree(r, algo),
            ),
        }
    }

    /// Strip physical algorithm choices, returning the logical tree.
    pub fn join_tree(&self) -> JoinTree {
        match self {
            PhysNode::Scan { pos } => JoinTree::Leaf(*pos),
            PhysNode::Join { left, right, .. } => {
                JoinTree::join(left.join_tree(), right.join_tree())
            }
        }
    }

    /// Visit every sub-plan bottom-up (children before parents).
    pub fn visit_bottom_up<'a>(&'a self, f: &mut impl FnMut(&'a PhysNode)) {
        if let PhysNode::Join { left, right, .. } = self {
            left.visit_bottom_up(f);
            right.visit_bottom_up(f);
        }
        f(self);
    }

    /// A compact stable string identifying the plan's structure; used for
    /// deduplicating candidate plans in learned optimizers.
    pub fn fingerprint(&self) -> String {
        match self {
            PhysNode::Scan { pos } => format!("S{pos}"),
            PhysNode::Join { algo, left, right } => format!(
                "({}{}{}{})",
                left.fingerprint(),
                match algo {
                    JoinAlgo::Hash => "H",
                    JoinAlgo::NestedLoop => "N",
                    JoinAlgo::Merge => "M",
                },
                right.fingerprint(),
                ""
            ),
        }
    }

    /// Pretty explain-style rendering using the query's aliases.
    pub fn explain(&self, query: &SpjQuery) -> String {
        let mut out = String::new();
        fn walk(node: &PhysNode, query: &SpjQuery, depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth);
            match node {
                PhysNode::Scan { pos } => {
                    let t = &query.tables[*pos];
                    let preds = query.predicates_on(*pos);
                    let _ = write!(out, "{indent}Scan {} {}", t.table, t.alias);
                    if !preds.is_empty() {
                        let strs: Vec<String> = preds.iter().map(|p| p.to_string()).collect();
                        let _ = write!(out, " [{}]", strs.join(" AND "));
                    }
                    out.push('\n');
                }
                PhysNode::Join { algo, left, right } => {
                    let conds = query.joins_between(left.tables(), right.tables());
                    let cond_str = if conds.is_empty() {
                        " (cross)".to_string()
                    } else {
                        let strs: Vec<String> = conds.iter().map(|c| c.to_string()).collect();
                        format!(" on {}", strs.join(" AND "))
                    };
                    let _ = writeln!(out, "{indent}{algo}{cond_str}");
                    walk(left, query, depth + 1, out);
                    walk(right, query, depth + 1, out);
                }
            }
        }
        walk(self, query, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::expr::{ColRef, JoinCond, TableRef};

    fn plan() -> PhysNode {
        PhysNode::join(
            JoinAlgo::Hash,
            PhysNode::scan(0),
            PhysNode::join(JoinAlgo::NestedLoop, PhysNode::scan(1), PhysNode::scan(2)),
        )
    }

    #[test]
    fn tables_and_joins() {
        let p = plan();
        assert_eq!(p.tables(), TableSet::full(3));
        assert_eq!(p.num_joins(), 2);
    }

    #[test]
    fn roundtrip_logical_physical() {
        let tree = JoinTree::left_deep(&[0, 1, 2]).unwrap();
        let phys = PhysNode::from_join_tree(&tree, JoinAlgo::Hash);
        assert_eq!(phys.join_tree(), tree);
    }

    #[test]
    fn fingerprint_distinguishes_algo_and_shape() {
        let a = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let b = PhysNode::join(JoinAlgo::Merge, PhysNode::scan(0), PhysNode::scan(1));
        let c = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(1), PhysNode::scan(0));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn bottom_up_visits_children_first() {
        let p = plan();
        let mut seen = Vec::new();
        p.visit_bottom_up(&mut |n| seen.push(n.tables()));
        assert_eq!(seen.len(), 5);
        assert_eq!(seen.last().copied(), Some(TableSet::full(3)));
        assert_eq!(seen[0], TableSet::singleton(0));
    }

    #[test]
    fn explain_renders_aliases_and_conditions() {
        let q = SpjQuery::new(
            vec![TableRef::new("a", "x"), TableRef::new("b", "y")],
            vec![JoinCond::new(
                ColRef::new("x", "id"),
                ColRef::new("y", "a_id"),
            )],
            vec![],
        );
        let p = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let text = p.explain(&q);
        assert!(text.contains("HashJoin on x.id = y.a_id"));
        assert!(text.contains("Scan a x"));
    }
}
