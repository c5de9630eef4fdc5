//! Plan enumeration over leaves: exhaustive DP over connected leaf
//! subsets and GOO-style greedy construction, the one enumerator that
//! both the optimizer and mid-query re-planning run.
//!
//! A leaf is a table set with known rows and acquisition cost
//! ([`ResidualLeaf`]). The optimizer's leaves are the query's
//! single-table scans: leaf `i` scans table position `i`, and their rows
//! are looked up in position order before enumeration. Re-planning's
//! leaves are materialized intermediates beside pending scans
//! ([`crate::optimizer::residual`]). Enumeration works on leaf indices
//! (a [`TableSet`] of leaves, a [`JoinGraph`] between leaves) and asks
//! the caller's `Charge` for the rows of every table set it considers
//! and before every cost-model evaluation: the planner traces and
//! profiles its lookups, the re-planner charges its work meter. The
//! plan comes back as a `LeafTree` ([`PhysNode`] or
//! [`ResidualNode`](crate::optimizer::residual::ResidualNode)) with the
//! enumeration counters; recording those is the planner's business.
//!
//! The DP keeps one slot per leaf-set mask in a dense `Vec` (at most
//! 2¹² = 4 096 slots under the default `dp_table_limit`). A slot holds
//! the best cost and output rows for its set plus a back-pointer — the
//! left input's set and the join algorithm — never a plan tree, so
//! improving an incumbent copies four words. The plan is built once,
//! from the back-pointers, after the full set is solved. Masks are
//! visited in increasing order and splits in `proper_subsets` order,
//! every (split, algorithm) total is compared with the incumbent, and a
//! candidate replaces it only when strictly cheaper under `total_cmp`,
//! so ties resolve to the first candidate seen.

use lqo_obs::trace::CardLookup;
use lqo_obs::ObsContext;
use lqo_prof::ProfContext;

use crate::catalog::Catalog;
use crate::error::{EngineError, Result};
use crate::exec::workunits::CostParams;
use crate::optimizer::card_source::CardSource;
use crate::optimizer::cost::join_op_cost;
use crate::optimizer::hints::HintSet;
use crate::optimizer::residual::ResidualLeaf;
use crate::optimizer::Optimizer;
use crate::plan::physical::{JoinAlgo, PhysNode};
use crate::query::join_graph::JoinGraph;
use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// An optimized plan with its estimated cost.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The chosen physical plan.
    pub plan: PhysNode,
    /// Estimated cost under the cardinality source used at optimization.
    pub cost: f64,
}

/// What enumeration's cardinality lookups and cost-model evaluations
/// cost its caller. An error aborts enumeration (a re-planning budget
/// running out).
pub(crate) trait Charge {
    /// Estimated output rows of the tables in `set`.
    fn rows(&mut self, query: &SpjQuery, set: TableSet) -> Result<f64>;

    /// Called before every cost-model evaluation.
    fn cost_eval(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Plain lookups: nothing charged, nothing traced.
impl Charge for &dyn CardSource {
    fn rows(&mut self, query: &SpjQuery, set: TableSet) -> Result<f64> {
        Ok(self.cardinality(query, set))
    }
}

/// The planner's lookups: each counts an estimator call and runs under
/// the profiler's `estimate` phase, so inference time is separable from
/// enumeration and cost-model time, then (obs on) lands on the query
/// trace as a [`CardLookup`] and in `lqo.card.lookups`.
pub(crate) struct Lookup<'a> {
    pub(crate) card: &'a dyn CardSource,
    pub(crate) obs: &'a ObsContext,
    pub(crate) prof: &'a ProfContext,
}

impl Charge for Lookup<'_> {
    fn rows(&mut self, query: &SpjQuery, set: TableSet) -> Result<f64> {
        self.prof.note_estimator_call();
        let est = {
            let _phase = self.prof.phase("estimate");
            self.card.cardinality(query, set)
        };
        if self.obs.is_enabled() {
            self.obs.count("lqo.card.lookups", 1);
            self.obs.with_query(|t| {
                t.planner.card_lookups.push(CardLookup {
                    tables: set.0,
                    est_rows: est,
                });
            });
        }
        Ok(est)
    }
}

/// A join tree over leaf indices, as the enumerators build it and
/// [`crate::optimizer::cost::tree_cost`] walks it.
pub(crate) trait LeafTree: Sized {
    /// Leaf `i`.
    fn leaf(i: usize) -> Self;
    /// `left ⋈ right` under `algo` (left = build side).
    fn join(algo: JoinAlgo, left: Self, right: Self) -> Self;
    /// What this node is.
    fn parts(&self) -> Parts<'_, Self>;
}

/// A [`LeafTree`] node taken apart.
pub(crate) enum Parts<'a, T> {
    /// Leaf index.
    Leaf(usize),
    /// Algorithm, build side, probe side.
    Join(JoinAlgo, &'a T, &'a T),
}

/// The optimizer's trees: leaf `i` scans table position `i`.
impl LeafTree for PhysNode {
    fn leaf(i: usize) -> PhysNode {
        PhysNode::scan(i)
    }

    fn join(algo: JoinAlgo, left: PhysNode, right: PhysNode) -> PhysNode {
        PhysNode::join(algo, left, right)
    }

    fn parts(&self) -> Parts<'_, PhysNode> {
        match self {
            PhysNode::Scan { pos } => Parts::Leaf(*pos),
            PhysNode::Join { algo, left, right } => Parts::Join(*algo, left, right),
        }
    }
}

/// An enumerated plan, its estimated cost, and the enumeration counters.
pub(crate) struct Enumerated<T> {
    pub(crate) plan: T,
    pub(crate) cost: f64,
    /// DP: connected leaf sets solved; greedy: candidate pairs costed.
    pub(crate) subproblems: u64,
    /// Cost-model evaluations.
    pub(crate) cost_evals: u64,
}

fn allowed_algos(hints: &HintSet) -> Result<Vec<JoinAlgo>> {
    let mut v = Vec::with_capacity(3);
    if hints.allow_hash {
        v.push(JoinAlgo::Hash);
    }
    if hints.allow_nl {
        v.push(JoinAlgo::NestedLoop);
    }
    if hints.allow_merge {
        v.push(JoinAlgo::Merge);
    }
    if v.is_empty() {
        return Err(EngineError::NoPlanFound(
            "all join algorithms disabled".into(),
        ));
    }
    Ok(v)
}

/// The scan of table position `pos` as a leaf: its scan cost and
/// estimated rows.
pub(crate) fn scan_leaf(
    query: &SpjQuery,
    catalog: &Catalog,
    params: &CostParams,
    pos: usize,
    charge: &mut impl Charge,
) -> Result<ResidualLeaf> {
    let table = catalog.table(&query.tables[pos].table)?;
    let set = TableSet::singleton(pos);
    Ok(ResidualLeaf {
        set,
        cost: params.scan_work(table.nrows() as f64, query.predicates_on(pos).len()),
        rows: charge.rows(query, set)?,
        materialized: false,
    })
}

/// Leading-prefix hint over leaf indices (the optimizer's leaves are
/// table positions).
struct LeadingConstraint {
    prefix: Vec<TableSet>,
    full: TableSet,
}

impl LeadingConstraint {
    fn new(leading: &[usize]) -> LeadingConstraint {
        let mut prefix = Vec::with_capacity(leading.len() + 1);
        let mut acc = TableSet::EMPTY;
        prefix.push(acc);
        for &t in leading {
            acc = acc.insert(t);
            prefix.push(acc);
        }
        LeadingConstraint { prefix, full: acc }
    }

    fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    /// May `set` appear as a sub-plan?
    fn set_ok(&self, set: TableSet) -> bool {
        if self.len() == 0 || set.len() == 1 {
            return true;
        }
        let inter = set.intersect(self.full);
        if inter.is_empty() {
            return true;
        }
        if set.len() <= self.len() {
            set == self.prefix[set.len()]
        } else {
            inter == self.full
        }
    }

    /// May `left ⋈ right` form the sub-plan over their union?
    fn partition_ok(&self, left: TableSet, right: TableSet) -> bool {
        if self.len() == 0 {
            return true;
        }
        let union = left.union(right);
        let inter = union.intersect(self.full);
        if inter.is_empty() {
            return true;
        }
        if union.len() <= self.len() {
            // Inside the prefix: the spine is fixed, left-deep.
            left == self.prefix[union.len() - 1] && right.len() == 1
        } else {
            // Above the prefix: the whole prefix must stay on the left.
            inter.is_subset_of(left)
        }
    }
}

/// One DP table slot: the best plan found for a leaf set, as a
/// back-pointer — the left input's set (the right one is the rest) and
/// the join algorithm. Leaves have an empty `left`.
#[derive(Clone, Copy)]
struct Entry {
    cost: f64,
    rows: f64,
    left: TableSet,
    algo: JoinAlgo,
}

/// Materialize the plan for `set` from the DP table's back-pointers.
fn build_plan<T: LeafTree>(best: &[Option<Entry>], set: TableSet) -> T {
    let e = best[set.0 as usize].expect("every back-pointer names a solved set");
    if e.left.is_empty() {
        return T::leaf(set.first().expect("a leaf is one index"));
    }
    T::join(
        e.algo,
        build_plan(best, e.left),
        build_plan(best, set.minus(e.left)),
    )
}

/// Most leaves the DP enumerates: its table has `2^n` slots.
pub(crate) const DP_MAX_TABLES: usize = 20;

/// Whether `n` leaves over `graph` are planned by DP: connected, and
/// within both the hint's `dp_table_limit` and [`DP_MAX_TABLES`].
pub(crate) fn fits_dp(n: usize, graph: &JoinGraph, hints: &HintSet) -> bool {
    n <= hints.dp_table_limit.min(DP_MAX_TABLES) && graph.is_connected(TableSet::full(n))
}

/// The tables under the leaves in `set`.
fn tables_of(leaves: &[ResidualLeaf], set: TableSet) -> TableSet {
    set.iter()
        .fold(TableSet::EMPTY, |acc, i| acc.union(leaves[i].set))
}

/// Exhaustive dynamic programming over connected leaf subsets (DPsub).
/// Requires a connected leaf graph of at most [`DP_MAX_TABLES`] leaves;
/// errors otherwise so callers can fall back to [`greedy`].
pub(crate) fn dp<T: LeafTree>(
    query: &SpjQuery,
    graph: &JoinGraph,
    leaves: &[ResidualLeaf],
    params: &CostParams,
    hints: &HintSet,
    charge: &mut impl Charge,
    prof: &ProfContext,
) -> Result<Enumerated<T>> {
    let n = leaves.len();
    if n == 0 {
        return Err(EngineError::NoPlanFound("no tables to plan".into()));
    }
    let full = TableSet::full(n);
    if !graph.is_connected(full) {
        return Err(EngineError::NoPlanFound(
            "join graph is disconnected; use greedy enumeration".into(),
        ));
    }
    let algos = allowed_algos(hints)?;
    let leading = LeadingConstraint::new(&hints.leading);
    if n > DP_MAX_TABLES {
        return Err(EngineError::NoPlanFound(format!(
            "{n} tables exceed the DP table's {DP_MAX_TABLES}; use greedy enumeration"
        )));
    }

    // Dense back-pointer table indexed by leaf-set mask; `None` = no plan.
    let mut best: Vec<Option<Entry>> = vec![None; full.0 as usize + 1];
    for (i, leaf) in leaves.iter().enumerate() {
        best[1 << i] = Some(Entry {
            cost: leaf.cost,
            rows: leaf.rows,
            left: TableSet::EMPTY,
            algo: JoinAlgo::Hash,
        });
    }

    let (mut subproblems, mut cost_evals) = (0u64, 0u64);
    for mask in 1..=full.0 {
        let set = TableSet(mask);
        if set.len() < 2 || !graph.is_connected(set) || !leading.set_ok(set) {
            continue;
        }
        subproblems += 1;
        let tables = tables_of(leaves, set);
        let out_rows = charge.rows(query, tables)?;
        let width = tables.len();
        let mut best_here: Option<Entry> = None;
        // One cost phase per subproblem: the partition/algo search
        // below is pure cost-model arithmetic, no card lookups.
        let _prof_cost = prof.phase("cost");
        for left in set.proper_subsets() {
            let right = set.minus(left);
            if hints.left_deep_only && right.len() != 1 {
                continue;
            }
            if !leading.partition_ok(left, right) {
                continue;
            }
            let (Some(le), Some(re)) = (best[left.0 as usize], best[right.0 as usize]) else {
                continue;
            };
            // `set` is connected and both halves are connected, so at
            // least one join edge crosses the cut.
            let base = le.cost + re.cost;
            for &algo in &algos {
                cost_evals += 1;
                charge.cost_eval()?;
                let op = join_op_cost(algo, params, le.rows, re.rows, out_rows, width, true);
                let total = base + op;
                // total_cmp so a NaN cost (from a misbehaving estimator)
                // sorts last instead of poisoning the incumbent.
                if best_here.is_none_or(|b| total.total_cmp(&b.cost).is_lt()) {
                    best_here = Some(Entry {
                        cost: total,
                        rows: out_rows,
                        left,
                        algo,
                    });
                }
            }
        }
        drop(_prof_cost);
        best[mask as usize] = best_here;
    }

    let e = best[full.0 as usize]
        .ok_or_else(|| EngineError::NoPlanFound("DP produced no plan for the full set".into()))?;
    Ok(Enumerated {
        plan: build_plan(&best, full),
        cost: e.cost,
        subproblems,
        cost_evals,
    })
}

/// A greedy sub-plan: its tree, leaf set, tables, rows and cost.
struct Item<T> {
    plan: T,
    leaves: TableSet,
    set: TableSet,
    rows: f64,
    cost: f64,
}

impl<T: LeafTree> Item<T> {
    fn join(self, right: Item<T>, (algo, op, rows): (JoinAlgo, f64, f64)) -> Item<T> {
        Item {
            plan: T::join(algo, self.plan, right.plan),
            leaves: self.leaves.union(right.leaves),
            set: self.set.union(right.set),
            rows,
            cost: self.cost + right.cost + op,
        }
    }
}

/// The greedy enumerator's inputs and counters.
struct Greedy<'a, C> {
    query: &'a SpjQuery,
    graph: &'a JoinGraph,
    params: &'a CostParams,
    algos: Vec<JoinAlgo>,
    charge: &'a mut C,
    prof: &'a ProfContext,
    subproblems: u64,
    cost_evals: u64,
}

impl<C: Charge> Greedy<'_, C> {
    /// Best permitted join of two items: `(algo, operator cost, rows)`.
    /// Cross products always fall back to nested loops (the only
    /// operator that can evaluate them), regardless of hints, so a plan
    /// always exists.
    fn best_join<T>(&mut self, left: &Item<T>, right: &Item<T>) -> Result<(JoinAlgo, f64, f64)> {
        self.subproblems += 1;
        let out_set = left.set.union(right.set);
        let out_rows = self.charge.rows(self.query, out_set)?;
        let width = out_set.len();
        // Card lookup above stays outside the cost phase, so estimate and
        // cost time are siblings under `enumerate`.
        let prof = self.prof;
        let _prof_cost = prof.phase("cost");
        let has_cond = self.graph.has_edge_between(left.leaves, right.leaves);
        let mut best = (JoinAlgo::NestedLoop, f64::INFINITY);
        if has_cond {
            for &algo in &self.algos {
                self.cost_evals += 1;
                self.charge.cost_eval()?;
                let op = join_op_cost(
                    algo,
                    self.params,
                    left.rows,
                    right.rows,
                    out_rows,
                    width,
                    true,
                );
                if op.total_cmp(&best.1).is_lt() {
                    best = (algo, op);
                }
            }
        }
        if best.1.is_infinite() {
            // A cross product, or no permitted algorithm: nested loops.
            self.cost_evals += 1;
            self.charge.cost_eval()?;
            let op = join_op_cost(
                JoinAlgo::NestedLoop,
                self.params,
                left.rows,
                right.rows,
                out_rows,
                width,
                has_cond,
            );
            best = (JoinAlgo::NestedLoop, op);
        }
        Ok((best.0, best.1, out_rows))
    }
}

/// GOO-style greedy enumeration: repeatedly join the pair of sub-plans
/// with the cheapest join, preferring joinable (connected) pairs over
/// cross products. Handles disconnected graphs, any number of leaves,
/// leading prefixes (over leaf indices) and left-deep restrictions.
pub(crate) fn greedy<T: LeafTree, C: Charge>(
    query: &SpjQuery,
    graph: &JoinGraph,
    leaves: &[ResidualLeaf],
    params: &CostParams,
    hints: &HintSet,
    charge: &mut C,
    prof: &ProfContext,
) -> Result<Enumerated<T>> {
    if leaves.is_empty() {
        return Err(EngineError::NoPlanFound("no tables to plan".into()));
    }
    let mut g = Greedy {
        query,
        graph,
        params,
        algos: allowed_algos(hints)?,
        charge,
        prof,
        subproblems: 0,
        cost_evals: 0,
    };
    let mut items: Vec<Item<T>> = leaves
        .iter()
        .enumerate()
        .map(|(i, leaf)| Item {
            plan: T::leaf(i),
            leaves: TableSet::singleton(i),
            set: leaf.set,
            rows: leaf.rows,
            cost: leaf.cost,
        })
        .collect();

    // Forced leading prefix: fold the named leaves into one spine item.
    let mut spine: Option<Item<T>> = None;
    for &t in &hints.leading {
        let idx = items
            .iter()
            .position(|it| it.leaves == TableSet::singleton(t))
            .ok_or_else(|| EngineError::NoPlanFound(format!("leading table {t} unavailable")))?;
        let next = items.swap_remove(idx);
        spine = Some(match spine {
            None => next,
            Some(s) => {
                let join = g.best_join(&s, &next)?;
                s.join(next, join)
            }
        });
    }

    if hints.left_deep_only || spine.is_some() {
        // Left-deep continuation from the spine (or cheapest leaf).
        let mut spine = match spine {
            Some(s) => s,
            None => {
                // total_cmp: a NaN estimate from a misbehaving source must
                // not panic the planner (NaN sorts last, so it never wins).
                let idx = (0..items.len())
                    .min_by(|&a, &b| items[a].rows.total_cmp(&items[b].rows))
                    .expect("there is at least one leaf");
                items.swap_remove(idx)
            }
        };
        while !items.is_empty() {
            let mut best_idx = 0;
            let mut best_score = f64::INFINITY;
            let mut best_conn = false;
            for (i, it) in items.iter().enumerate() {
                let conn = graph.has_edge_between(spine.leaves, it.leaves);
                let (_, op, _) = g.best_join(&spine, it)?;
                // Connected candidates strictly dominate cross products.
                if (conn, -op) > (best_conn, -best_score) {
                    best_conn = conn;
                    best_score = op;
                    best_idx = i;
                }
            }
            let next = items.swap_remove(best_idx);
            let join = g.best_join(&spine, &next)?;
            spine = spine.join(next, join);
        }
        items.push(spine);
    }

    // Full GOO: merge the globally cheapest pair until one item remains.
    while items.len() > 1 {
        let mut best_pair = (0usize, 1usize);
        let mut best_op = f64::INFINITY;
        let mut best_conn = false;
        for i in 0..items.len() {
            for j in 0..items.len() {
                if i == j {
                    continue;
                }
                let conn = graph.has_edge_between(items[i].leaves, items[j].leaves);
                let (_, op, _) = g.best_join(&items[i], &items[j])?;
                if (conn, -op) > (best_conn, -best_op) {
                    best_conn = conn;
                    best_op = op;
                    best_pair = (i, j);
                }
            }
        }
        let (i, j) = best_pair;
        let (hi, lo) = (i.max(j), i.min(j));
        let right = items.swap_remove(hi);
        let left = items.swap_remove(lo);
        // `right`/`left` may be swapped relative to best_pair orientation;
        // re-derive the actual orientation.
        let (l, r) = if i < j { (left, right) } else { (right, left) };
        let join = g.best_join(&l, &r)?;
        items.push(l.join(r, join));
    }
    let item = items.pop().expect("one item remains");
    Ok(Enumerated {
        plan: item.plan,
        cost: item.cost,
        subproblems: g.subproblems,
        cost_evals: g.cost_evals,
    })
}

/// Exhaustive DP over the query's connected table subsets. Requires a
/// connected join graph of at most `DP_MAX_TABLES` (20) tables; errors
/// otherwise so callers can fall back to [`greedy_optimize`].
pub fn dp_optimize(
    query: &SpjQuery,
    graph: &JoinGraph,
    catalog: &Catalog,
    card: &dyn CardSource,
    params: &CostParams,
    hints: &HintSet,
) -> Result<PlanChoice> {
    Optimizer::new(catalog, params.clone()).enumerate(query, graph, card, hints, true)
}

/// GOO-style greedy enumeration over the query's tables: handles
/// disconnected graphs, any query size, leading prefixes and left-deep
/// restrictions.
pub fn greedy_optimize(
    query: &SpjQuery,
    graph: &JoinGraph,
    catalog: &Catalog,
    card: &dyn CardSource,
    params: &CostParams,
    hints: &HintSet,
) -> Result<PlanChoice> {
    Optimizer::new(catalog, params.clone()).enumerate(query, graph, card, hints, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::card_source::{TraditionalCardSource, TrueCardSource};
    use crate::query::expr::{ColRef, JoinCond, TableRef};
    use crate::stats::table_stats::{CatalogStats, StatsConfig};
    use crate::table::TableBuilder;
    use crate::TrueCardOracle;
    use std::sync::Arc;

    /// Chain schema a -> b -> d with skew: b has 10 rows per a, d has 3 per b.
    fn setup() -> (Arc<Catalog>, SpjQuery) {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("a")
                .int("id", (0..50).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("b")
                .int("id", (0..500).collect())
                .int("a_id", (0..500).map(|i| i % 50).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("d")
                .int("id", (0..1500).collect())
                .int("b_id", (0..1500).map(|i| i % 500).collect())
                .primary_key("id")
                .build()
                .unwrap(),
        );
        let q = SpjQuery::new(
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("d", "d"),
            ],
            vec![
                JoinCond::new(ColRef::new("a", "id"), ColRef::new("b", "a_id")),
                JoinCond::new(ColRef::new("b", "id"), ColRef::new("d", "b_id")),
            ],
            vec![],
        );
        (Arc::new(c), q)
    }

    fn sources(c: &Arc<Catalog>) -> (TraditionalCardSource, TrueCardSource) {
        let stats = Arc::new(CatalogStats::build(c, StatsConfig::default()));
        let oracle = Arc::new(TrueCardOracle::new(c.clone()));
        (
            TraditionalCardSource::new(c.clone(), stats),
            TrueCardSource::new(oracle),
        )
    }

    #[test]
    fn dp_produces_valid_executable_plan() {
        let (c, q) = setup();
        let (trad, _) = sources(&c);
        let g = JoinGraph::new(&q);
        let choice = dp_optimize(
            &q,
            &g,
            &c,
            &trad,
            &CostParams::default(),
            &HintSet::default(),
        )
        .unwrap();
        assert_eq!(choice.plan.tables(), q.all_tables());
        assert!(choice.cost.is_finite());
        let ex = crate::exec::executor::Executor::with_defaults(&c);
        assert_eq!(ex.execute(&q, &choice.plan).unwrap().count, 1500);
    }

    #[test]
    fn dp_is_no_worse_than_greedy_under_same_cards() {
        let (c, q) = setup();
        let (_, truth) = sources(&c);
        let g = JoinGraph::new(&q);
        let dp = dp_optimize(
            &q,
            &g,
            &c,
            &truth,
            &CostParams::default(),
            &HintSet::default(),
        )
        .unwrap();
        let greedy = greedy_optimize(
            &q,
            &g,
            &c,
            &truth,
            &CostParams::default(),
            &HintSet::default(),
        )
        .unwrap();
        assert!(dp.cost <= greedy.cost + 1e-9);
    }

    #[test]
    fn left_deep_hint_restricts_shape() {
        let (c, q) = setup();
        let (trad, _) = sources(&c);
        let g = JoinGraph::new(&q);
        let hints = HintSet {
            left_deep_only: true,
            ..HintSet::default()
        };
        let dp = dp_optimize(&q, &g, &c, &trad, &CostParams::default(), &hints).unwrap();
        assert!(dp.plan.join_tree().is_left_deep());
        let greedy = greedy_optimize(&q, &g, &c, &trad, &CostParams::default(), &hints).unwrap();
        assert!(greedy.plan.join_tree().is_left_deep());
    }

    #[test]
    fn leading_hint_fixes_prefix() {
        let (c, q) = setup();
        let (trad, _) = sources(&c);
        let g = JoinGraph::new(&q);
        for leading in [vec![2, 1], vec![1, 0], vec![0, 1, 2]] {
            let hints = HintSet::with_leading(leading.clone());
            let dp = dp_optimize(&q, &g, &c, &trad, &CostParams::default(), &hints).unwrap();
            let order = dp.plan.join_tree().leaf_order();
            assert_eq!(
                &order[..leading.len()],
                &leading[..],
                "DP violated leading {leading:?}: got {order:?}"
            );
            let gr = greedy_optimize(&q, &g, &c, &trad, &CostParams::default(), &hints).unwrap();
            let order = gr.plan.join_tree().leaf_order();
            assert_eq!(&order[..leading.len()], &leading[..]);
        }
    }

    #[test]
    fn operator_hints_respected() {
        let (c, q) = setup();
        let (trad, _) = sources(&c);
        let g = JoinGraph::new(&q);
        let hints = HintSet {
            allow_hash: false,
            allow_nl: false,
            allow_merge: true,
            ..HintSet::default()
        };
        let dp = dp_optimize(&q, &g, &c, &trad, &CostParams::default(), &hints).unwrap();
        dp.plan.visit_bottom_up(&mut |n| {
            if let PhysNode::Join { algo, .. } = n {
                assert_eq!(*algo, JoinAlgo::Merge);
            }
        });
    }

    #[test]
    fn disconnected_graph_dp_errors_greedy_succeeds() {
        let (c, mut q) = setup();
        q.joins.pop(); // disconnect d
        let (trad, _) = sources(&c);
        let g = JoinGraph::new(&q);
        assert!(dp_optimize(
            &q,
            &g,
            &c,
            &trad,
            &CostParams::default(),
            &HintSet::default()
        )
        .is_err());
        let gr = greedy_optimize(
            &q,
            &g,
            &c,
            &trad,
            &CostParams::default(),
            &HintSet::default(),
        )
        .unwrap();
        assert_eq!(gr.plan.tables(), q.all_tables());
        // a⋈b yields 500 rows; crossing with d's 1500 rows gives 750k.
        let ex = crate::exec::executor::Executor::with_defaults(&c);
        assert_eq!(ex.execute(&q, &gr.plan).unwrap().count, 500 * 1500);
    }

    #[test]
    fn all_disabled_is_an_error() {
        let (c, q) = setup();
        let (trad, _) = sources(&c);
        let g = JoinGraph::new(&q);
        let hints = HintSet {
            allow_hash: false,
            allow_nl: false,
            allow_merge: false,
            ..HintSet::default()
        };
        assert!(dp_optimize(&q, &g, &c, &trad, &CostParams::default(), &hints).is_err());
        assert!(greedy_optimize(&q, &g, &c, &trad, &CostParams::default(), &hints).is_err());
    }

    #[test]
    fn profiler_phases_cover_enumeration() {
        let (c, q) = setup();
        let (trad, _) = sources(&c);
        let prof = ProfContext::enabled();
        let opt = crate::optimizer::Optimizer::with_defaults(&c).with_telemetry(prof.clone());
        let choice = opt.optimize(&q, &trad, &HintSet::default()).unwrap();
        assert!(choice.cost.is_finite());
        let total = prof.total();
        assert!(total.frames.contains_key("enumerate"), "{total:?}");
        assert!(total.frames.contains_key("enumerate;estimate"));
        assert!(total.frames.contains_key("enumerate;cost"));
        assert!(prof.estimator_calls() > 0);
        // Cost frame carries the exact cost-evaluation count as units.
        assert!(total.frames["enumerate;cost"].units > 0.0);
        // Per-query estimator-call delta is exposed on the profile.
        let prof2 = ProfContext::enabled();
        let tel2 = crate::Telemetry::from(prof2.clone());
        let opt2 = crate::optimizer::Optimizer::with_defaults(&c).with_telemetry(tel2.clone());
        let scope = tel2.begin_query("q");
        opt2.optimize(&q, &trad, &HintSet::default()).unwrap();
        let qp = scope.finish(|_| {}).1.unwrap();
        assert_eq!(
            qp.counters[lqo_prof::CTR_ESTIMATOR_CALLS],
            prof2.estimator_calls()
        );
    }

    #[test]
    fn dp_beyond_its_table_size_errors_and_optimizer_goes_greedy() {
        let (c, _) = setup();
        let n = DP_MAX_TABLES + 1;
        let q = SpjQuery::new(
            (0..n)
                .map(|i| TableRef::new("a", format!("a{i}")))
                .collect(),
            (1..n)
                .map(|i| {
                    JoinCond::new(
                        ColRef::new(format!("a{}", i - 1), "id"),
                        ColRef::new(format!("a{i}"), "id"),
                    )
                })
                .collect(),
            vec![],
        );
        let (trad, _) = sources(&c);
        let g = JoinGraph::new(&q);
        let hints = HintSet {
            dp_table_limit: 64,
            ..HintSet::default()
        };
        assert!(dp_optimize(&q, &g, &c, &trad, &CostParams::default(), &hints).is_err());
        let opt = crate::optimizer::Optimizer::with_defaults(&c);
        let choice = opt.optimize(&q, &trad, &hints).unwrap();
        assert_eq!(choice.plan.tables(), q.all_tables());
    }

    #[test]
    fn single_table_query() {
        let (c, _) = setup();
        let q = SpjQuery::new(vec![TableRef::new("a", "a")], vec![], vec![]);
        let (trad, _) = sources(&c);
        let g = JoinGraph::new(&q);
        let dp = dp_optimize(
            &q,
            &g,
            &c,
            &trad,
            &CostParams::default(),
            &HintSet::default(),
        )
        .unwrap();
        assert_eq!(dp.plan, PhysNode::scan(0));
    }
}
