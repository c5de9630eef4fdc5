//! The query join graph: tables as nodes, equi-join conditions as edges.

use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// Adjacency view of a query's join conditions, precomputed once per query
/// so connectivity tests inside DP enumeration are O(1) bit operations.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    n: usize,
    /// `adj[i]` = set of tables sharing a join condition with table `i`.
    adj: Vec<TableSet>,
}

impl JoinGraph {
    /// Build the graph for a query. Join conditions whose aliases do not
    /// resolve are ignored (queries are validated before optimization).
    pub fn new(query: &SpjQuery) -> JoinGraph {
        let n = query.num_tables();
        let mut adj = vec![TableSet::EMPTY; n];
        for j in &query.joins {
            if let (Ok(l), Ok(r)) = (query.col_pos(&j.left), query.col_pos(&j.right)) {
                if l != r {
                    adj[l] = adj[l].insert(r);
                    adj[r] = adj[r].insert(l);
                }
            }
        }
        JoinGraph { n, adj }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.n
    }

    /// Neighbours of a single table.
    pub fn neighbors(&self, pos: usize) -> TableSet {
        self.adj[pos]
    }

    /// Union of neighbours of every member of `set`, excluding `set` itself.
    pub fn neighborhood(&self, set: TableSet) -> TableSet {
        let mut out = TableSet::EMPTY;
        for p in set.iter() {
            out = out.union(self.adj[p]);
        }
        out.minus(set)
    }

    /// The graph between disjoint groups of tables: node `i` is
    /// `groups[i]`, and two groups neighbour when a join condition
    /// connects them.
    pub(crate) fn quotient(&self, groups: &[TableSet]) -> JoinGraph {
        let adj = groups
            .iter()
            .map(|&g| {
                let near = self.neighborhood(g);
                (0..groups.len())
                    .filter(|&j| !near.intersect(groups[j]).is_empty())
                    .collect()
            })
            .collect();
        JoinGraph {
            n: groups.len(),
            adj,
        }
    }

    /// True when the induced subgraph on `set` is connected (singletons and
    /// the empty set count as connected).
    pub fn is_connected(&self, set: TableSet) -> bool {
        let Some(start) = set.first() else {
            return true;
        };
        let mut seen = TableSet::singleton(start);
        let mut frontier = seen;
        while !frontier.is_empty() {
            let mut next = TableSet::EMPTY;
            for p in frontier.iter() {
                next = next.union(self.adj[p].intersect(set));
            }
            frontier = next.minus(seen);
            seen = seen.union(next);
        }
        set.is_subset_of(seen)
    }

    /// True when at least one join edge crosses from `a` to `b`.
    pub fn has_edge_between(&self, a: TableSet, b: TableSet) -> bool {
        for p in a.iter() {
            if !self.adj[p].intersect(b).is_empty() {
                return true;
            }
        }
        false
    }

    /// Enumerate all connected subsets of the graph with size in
    /// `[1, max_size]`. Used by workload generators and by estimators that
    /// precompute per-subset structures.
    pub fn connected_subsets(&self, max_size: usize) -> Vec<TableSet> {
        let mut out = Vec::new();
        // Grow subsets by adding neighbours, deduplicating via a set.
        let mut seen = std::collections::HashSet::new();
        let mut frontier: Vec<TableSet> = (0..self.n).map(TableSet::singleton).collect();
        for s in &frontier {
            seen.insert(*s);
            out.push(*s);
        }
        for _size in 2..=max_size {
            let mut next = Vec::new();
            for s in &frontier {
                for nb in self.neighborhood(*s).iter() {
                    let grown = s.insert(nb);
                    if seen.insert(grown) {
                        next.push(grown);
                        out.push(grown);
                    }
                }
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::expr::{ColRef, JoinCond, TableRef};

    /// Chain: t0 - t1 - t2.
    fn chain3() -> SpjQuery {
        SpjQuery::new(
            vec![
                TableRef::new("a", "t0"),
                TableRef::new("b", "t1"),
                TableRef::new("c", "t2"),
            ],
            vec![
                JoinCond::new(ColRef::new("t0", "id"), ColRef::new("t1", "a_id")),
                JoinCond::new(ColRef::new("t1", "id"), ColRef::new("t2", "b_id")),
            ],
            vec![],
        )
    }

    #[test]
    fn adjacency() {
        let g = JoinGraph::new(&chain3());
        assert_eq!(g.neighbors(0), TableSet::singleton(1));
        assert_eq!(g.neighbors(1), TableSet::from_iter([0, 2]));
    }

    #[test]
    fn connectivity() {
        let g = JoinGraph::new(&chain3());
        assert!(g.is_connected(TableSet::full(3)));
        assert!(g.is_connected(TableSet::from_iter([0, 1])));
        assert!(!g.is_connected(TableSet::from_iter([0, 2])));
        assert!(g.is_connected(TableSet::singleton(2)));
        assert!(g.is_connected(TableSet::EMPTY));
    }

    #[test]
    fn edge_between_partitions() {
        let g = JoinGraph::new(&chain3());
        assert!(g.has_edge_between(TableSet::from_iter([0, 1]), TableSet::singleton(2)));
        assert!(!g.has_edge_between(TableSet::singleton(0), TableSet::singleton(2)));
    }

    #[test]
    fn connected_subsets_of_chain() {
        let g = JoinGraph::new(&chain3());
        let subs = g.connected_subsets(3);
        // Chain of 3: {0},{1},{2},{01},{12},{012} = 6 connected subsets.
        assert_eq!(subs.len(), 6);
        assert!(subs.contains(&TableSet::full(3)));
        assert!(!subs.contains(&TableSet::from_iter([0, 2])));
    }

    #[test]
    fn neighborhood_excludes_self() {
        let g = JoinGraph::new(&chain3());
        assert_eq!(
            g.neighborhood(TableSet::from_iter([0, 1])),
            TableSet::singleton(2)
        );
    }
}
