//! Plan enumeration: exhaustive DP over connected subsets and GOO-style
//! greedy construction.
//!
//! The DP keeps one slot per table-set mask in a dense `Vec` (at most
//! 2¹² = 4 096 slots under the default `dp_table_limit`). A slot holds
//! the best cost and output rows for its set plus a back-pointer — the
//! left input's set and the join algorithm — never a plan tree, so
//! improving an incumbent copies four words. The `PhysNode` is built
//! once, from the back-pointers, after the full set is solved. Masks are
//! visited in increasing order and splits in `proper_subsets` order, and
//! a candidate replaces the incumbent only when strictly cheaper under
//! `total_cmp`, so ties resolve to the first candidate seen.

use lqo_obs::trace::CardLookup;
use lqo_obs::ObsContext;
use lqo_prof::ProfContext;

use crate::catalog::Catalog;
use crate::error::{EngineError, Result};
use crate::exec::workunits::CostParams;
use crate::optimizer::card_source::CardSource;
use crate::optimizer::cost::join_op_cost;
use crate::optimizer::hints::HintSet;
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

pub(crate) fn allowed_algos(hints: &HintSet) -> Vec<JoinAlgo> {
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
    v
}

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

/// One DP table slot: the best plan found for a table set, as a
/// back-pointer — the left input's set (the right one is the rest) and
/// the join algorithm. Single-table scans have an empty `left`.
#[derive(Clone, Copy)]
struct Entry {
    cost: f64,
    rows: f64,
    left: TableSet,
    algo: JoinAlgo,
}

/// Materialize the plan for `set` from the DP table's back-pointers.
fn build_plan(best: &[Option<Entry>], set: TableSet) -> PhysNode {
    let e = best[set.0 as usize].expect("every back-pointer names a solved set");
    if e.left.is_empty() {
        return PhysNode::scan(set.first().expect("a scan covers one table"));
    }
    PhysNode::join(
        e.algo,
        build_plan(best, e.left),
        build_plan(best, set.minus(e.left)),
    )
}

/// Largest query the DP enumerates: its table has `2^n` slots.
pub(crate) const DP_MAX_TABLES: usize = 20;

/// Exhaustive dynamic programming over connected subsets (DPsub). Requires
/// a connected join graph of at most `DP_MAX_TABLES` (20) tables; errors
/// otherwise so callers can fall back to greedy enumeration.
pub fn dp_optimize(
    query: &SpjQuery,
    graph: &JoinGraph,
    catalog: &Catalog,
    card: &dyn CardSource,
    params: &CostParams,
    hints: &HintSet,
) -> Result<PlanChoice> {
    dp_optimize_obs(
        query,
        graph,
        catalog,
        card,
        params,
        hints,
        &ObsContext::disabled(),
        &ProfContext::disabled(),
    )
}

/// [`dp_optimize`] with observability: records the enumeration algorithm,
/// subproblem and cost-evaluation counts, and the chosen plan's cost on
/// the in-flight query trace (no-ops when `obs` is disabled).
#[allow(clippy::too_many_arguments)]
pub fn dp_optimize_obs(
    query: &SpjQuery,
    graph: &JoinGraph,
    catalog: &Catalog,
    card: &dyn CardSource,
    params: &CostParams,
    hints: &HintSet,
    obs: &ObsContext,
    prof: &ProfContext,
) -> Result<PlanChoice> {
    let _span = obs.span("plan.dp");
    let _prof_enum = prof.phase("enumerate");
    let card = Lookup { card, obs, prof };
    let mut subproblems = 0u64;
    let mut cost_evals = 0u64;
    let n = query.num_tables();
    if n == 0 {
        return Err(EngineError::NoPlanFound("query has no tables".into()));
    }
    if !graph.is_connected(query.all_tables()) {
        return Err(EngineError::NoPlanFound(
            "join graph is disconnected; use greedy enumeration".into(),
        ));
    }
    let algos = allowed_algos(hints);
    if algos.is_empty() {
        return Err(EngineError::NoPlanFound(
            "all join algorithms disabled".into(),
        ));
    }
    let leading = LeadingConstraint::new(&hints.leading);
    if n > DP_MAX_TABLES {
        return Err(EngineError::NoPlanFound(format!(
            "{n} tables exceed the DP table's {DP_MAX_TABLES}; use greedy enumeration"
        )));
    }

    let full = query.all_tables();
    // Dense back-pointer table indexed by set mask; `None` = no plan.
    let mut best: Vec<Option<Entry>> = vec![None; full.0 as usize + 1];

    // Base case: single-table scans.
    for pos in 0..n {
        let table = catalog.table(&query.tables[pos].table)?;
        let npreds = query.predicates_on(pos).len();
        let set = TableSet::singleton(pos);
        best[set.0 as usize] = Some(Entry {
            cost: params.scan_work(table.nrows() as f64, npreds),
            rows: card.rows(query, set),
            left: TableSet::EMPTY,
            algo: JoinAlgo::Hash,
        });
    }

    for mask in 1..=full.0 {
        let set = TableSet(mask);
        if set.len() < 2 || !graph.is_connected(set) || !leading.set_ok(set) {
            continue;
        }
        subproblems += 1;
        let out_rows = card.rows(query, set);
        let width = set.len();
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
        best[set.0 as usize] = best_here;
    }

    let choice = best[full.0 as usize]
        .map(|e| PlanChoice {
            plan: build_plan(&best, full),
            cost: e.cost,
        })
        .ok_or_else(|| EngineError::NoPlanFound("DP produced no plan for the full query".into()))?;
    record_enumeration(obs, prof, "dp", subproblems, cost_evals, choice.cost);
    Ok(choice)
}

/// The enumerators' cardinality source with its telemetry: each lookup
/// counts an estimator call and runs under the profiler's `estimate`
/// phase, so inference time is separable from enumeration and cost-model
/// time, then (obs on) lands on the query trace as a [`CardLookup`] and
/// in `lqo.card.lookups`.
struct Lookup<'a> {
    card: &'a dyn CardSource,
    obs: &'a ObsContext,
    prof: &'a ProfContext,
}

impl Lookup<'_> {
    fn rows(&self, query: &SpjQuery, set: TableSet) -> f64 {
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
        est
    }
}

/// Attach enumeration provenance to the in-flight trace and metrics.
fn record_enumeration(
    obs: &ObsContext,
    prof: &ProfContext,
    algo: &str,
    subproblems: u64,
    cost_evals: u64,
    cost: f64,
) {
    if prof.is_enabled() {
        // Exact cost-evaluation count as work units on the cost frame
        // (its wall clock comes from the per-subproblem cost phases);
        // the caller's `enumerate` phase is still open, so this lands at
        // `...;enumerate;cost`.
        prof.record_child("cost", 0, 0, cost_evals as f64);
    }
    if !obs.is_enabled() {
        return;
    }
    obs.with_query(|t| {
        t.planner.algo = Some(algo.to_string());
        t.planner.subproblems = subproblems;
        t.planner.cost_evals = cost_evals;
        t.planner.chosen_cost = Some(cost);
    });
    obs.count("lqo.plan.queries", 1);
    obs.observe("lqo.plan.subproblems", subproblems as f64);
    obs.observe("lqo.plan.cost_evals", cost_evals as f64);
}

struct Item {
    plan: PhysNode,
    set: TableSet,
    rows: f64,
    cost: f64,
}

/// Enumeration effort counters for observability.
#[derive(Default)]
struct EnumCounters {
    /// Candidate subproblems (table-set pairs) evaluated.
    subproblems: u64,
    /// Cost-model invocations.
    cost_evals: u64,
}

/// Best permitted join of two items; cross products always fall back to
/// nested loops (the only operator that can evaluate them), regardless of
/// hints, so a plan always exists.
fn best_join(
    query: &SpjQuery,
    card: &Lookup<'_>,
    params: &CostParams,
    algos: &[JoinAlgo],
    left: &Item,
    right: &Item,
    counters: &mut EnumCounters,
) -> (JoinAlgo, f64, f64) {
    counters.subproblems += 1;
    let out_set = left.set.union(right.set);
    let out_rows = card.rows(query, out_set);
    let width = out_set.len();
    // Card lookup above stays outside the cost phase, so estimate and
    // cost time are siblings under `enumerate`.
    let _prof_cost = card.prof.phase("cost");
    let has_cond = !query.joins_between(left.set, right.set).is_empty();
    if !has_cond {
        counters.cost_evals += 1;
        let op = join_op_cost(
            JoinAlgo::NestedLoop,
            params,
            left.rows,
            right.rows,
            out_rows,
            width,
            false,
        );
        return (JoinAlgo::NestedLoop, op, out_rows);
    }
    let mut best = (JoinAlgo::NestedLoop, f64::INFINITY, out_rows);
    for &algo in algos {
        counters.cost_evals += 1;
        let op = join_op_cost(algo, params, left.rows, right.rows, out_rows, width, true);
        if op.total_cmp(&best.1).is_lt() {
            best = (algo, op, out_rows);
        }
    }
    if best.1.is_infinite() {
        // No permitted algorithm: fall back to nested loops.
        counters.cost_evals += 1;
        let op = join_op_cost(
            JoinAlgo::NestedLoop,
            params,
            left.rows,
            right.rows,
            out_rows,
            width,
            true,
        );
        best = (JoinAlgo::NestedLoop, op, out_rows);
    }
    best
}

/// GOO-style greedy enumeration: repeatedly join the pair of sub-plans with
/// the cheapest join, preferring joinable (connected) pairs over cross
/// products. Handles disconnected graphs, any query size, leading prefixes
/// and left-deep restrictions.
pub fn greedy_optimize(
    query: &SpjQuery,
    graph: &JoinGraph,
    catalog: &Catalog,
    card: &dyn CardSource,
    params: &CostParams,
    hints: &HintSet,
) -> Result<PlanChoice> {
    greedy_optimize_obs(
        query,
        graph,
        catalog,
        card,
        params,
        hints,
        &ObsContext::disabled(),
        &ProfContext::disabled(),
    )
}

/// [`greedy_optimize`] with observability: records the enumeration
/// algorithm, candidate-pair and cost-evaluation counts, and the chosen
/// plan's cost on the in-flight query trace (no-ops when `obs` is
/// disabled).
#[allow(clippy::too_many_arguments)]
pub fn greedy_optimize_obs(
    query: &SpjQuery,
    graph: &JoinGraph,
    catalog: &Catalog,
    card: &dyn CardSource,
    params: &CostParams,
    hints: &HintSet,
    obs: &ObsContext,
    prof: &ProfContext,
) -> Result<PlanChoice> {
    let _span = obs.span("plan.greedy");
    let _prof_enum = prof.phase("enumerate");
    let card = Lookup { card, obs, prof };
    let mut counters = EnumCounters::default();
    let n = query.num_tables();
    if n == 0 {
        return Err(EngineError::NoPlanFound("query has no tables".into()));
    }
    let algos = allowed_algos(hints);
    if algos.is_empty() {
        return Err(EngineError::NoPlanFound(
            "all join algorithms disabled".into(),
        ));
    }
    let mut items: Vec<Item> = Vec::with_capacity(n);
    for pos in 0..n {
        let table = catalog.table(&query.tables[pos].table)?;
        let npreds = query.predicates_on(pos).len();
        let set = TableSet::singleton(pos);
        items.push(Item {
            plan: PhysNode::scan(pos),
            set,
            rows: card.rows(query, set),
            cost: params.scan_work(table.nrows() as f64, npreds),
        });
    }

    // Forced leading prefix: fold the named tables into one spine item.
    let mut spine: Option<Item> = None;
    for &t in &hints.leading {
        let idx = items
            .iter()
            .position(|it| it.set == TableSet::singleton(t))
            .ok_or_else(|| EngineError::NoPlanFound(format!("leading table {t} unavailable")))?;
        let next = items.swap_remove(idx);
        spine = Some(match spine {
            None => next,
            Some(s) => {
                let (algo, op, rows) =
                    best_join(query, &card, params, &algos, &s, &next, &mut counters);
                Item {
                    plan: PhysNode::join(algo, s.plan, next.plan),
                    set: s.set.union(next.set),
                    rows,
                    cost: s.cost + next.cost + op,
                }
            }
        });
    }

    if hints.left_deep_only || spine.is_some() {
        // Left-deep continuation from the spine (or cheapest table).
        let mut spine = match spine {
            Some(s) => s,
            None => {
                // total_cmp: a NaN estimate from a misbehaving source must
                // not panic the planner (NaN sorts last, so it never wins).
                let idx = (0..items.len())
                    .min_by(|&a, &b| items[a].rows.total_cmp(&items[b].rows))
                    .unwrap();
                items.swap_remove(idx)
            }
        };
        while !items.is_empty() {
            let mut best_idx = 0;
            let mut best_score = f64::INFINITY;
            let mut best_conn = false;
            for (i, it) in items.iter().enumerate() {
                let conn = graph.has_edge_between(spine.set, it.set);
                let (_, op, _) = best_join(query, &card, params, &algos, &spine, it, &mut counters);
                // Connected candidates strictly dominate cross products.
                if (conn, -op) > (best_conn, -best_score) {
                    best_conn = conn;
                    best_score = op;
                    best_idx = i;
                }
            }
            let next = items.swap_remove(best_idx);
            let (algo, op, rows) =
                best_join(query, &card, params, &algos, &spine, &next, &mut counters);
            spine = Item {
                plan: PhysNode::join(algo, spine.plan, next.plan),
                set: spine.set.union(next.set),
                rows,
                cost: spine.cost + next.cost + op,
            };
        }
        record_enumeration(
            obs,
            prof,
            "greedy",
            counters.subproblems,
            counters.cost_evals,
            spine.cost,
        );
        return Ok(PlanChoice {
            plan: spine.plan,
            cost: spine.cost,
        });
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
                let conn = graph.has_edge_between(items[i].set, items[j].set);
                let (_, op, _) = best_join(
                    query,
                    &card,
                    params,
                    &algos,
                    &items[i],
                    &items[j],
                    &mut counters,
                );
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
        let (algo, op, rows) = best_join(query, &card, params, &algos, &l, &r, &mut counters);
        items.push(Item {
            plan: PhysNode::join(algo, l.plan, r.plan),
            set: l.set.union(r.set),
            rows,
            cost: l.cost + r.cost + op,
        });
    }
    let final_item = items.pop().unwrap();
    record_enumeration(
        obs,
        prof,
        "greedy",
        counters.subproblems,
        counters.cost_evals,
        final_item.cost,
    );
    Ok(PlanChoice {
        plan: final_item.plan,
        cost: final_item.cost,
    })
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
