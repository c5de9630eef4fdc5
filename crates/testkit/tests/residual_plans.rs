//! Golden snapshot of mid-query re-planning: for 80 seeded random
//! queries of 2–8 tables, each cut into a random partition of residual
//! leaves (connected groups and single scans that already ran, carrying
//! their true row counts at zero cost, beside pending scans carrying
//! estimates and scan cost), planned under the eight standard Bao hint
//! arms plus one leading-prefix arm with the DP limit above the leaf
//! count (DP) and below it (greedy). Per case it pins the chosen plan,
//! the bits of its estimated cost and of the re-planning meter's work,
//! and the error and meter work under a budget of half that work, which
//! trips mid-enumeration. Per query it pins the re-cost, and the meter
//! work re-costing charged, of two fixed plans: left-deep in leaf order
//! cycling hash, nested loop and merge (often a cross product under
//! hash, so infinite), and the unrestricted DP's choice with every
//! algorithm rotated (hash to nested loop to merge). One query in four loses a
//! join condition, so disconnected residuals (greedy with cross
//! products) are covered too.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! BLESS=1 cargo test -p lqo-testkit --test residual_plans
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use lqo_engine::datagen::imdb_like;
use lqo_engine::exec::workunits::CostParams;
use lqo_engine::query::join_graph::JoinGraph;
use lqo_engine::stats::StatsConfig;
use lqo_engine::{
    enumerate_residual, residual_cost, CardSource, CatalogStats, HintSet, JoinAlgo, ResidualLeaf,
    ResidualNode, SpjQuery, TableSet, TraditionalCardSource, TrueCardOracle, WorkMeter,
};
use lqo_testkit::{check_golden, random_query, RandomQueryConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const QUERIES: usize = 80;

/// `H`/`N`/`M` joins over leaf indices, e.g. `((0H2)M1)`.
fn show(node: &ResidualNode) -> String {
    match node {
        ResidualNode::Leaf(i) => i.to_string(),
        ResidualNode::Join { algo, left, right } => format!(
            "({}{}{})",
            show(left),
            match algo {
                JoinAlgo::Hash => "H",
                JoinAlgo::NestedLoop => "N",
                JoinAlgo::Merge => "M",
            },
            show(right)
        ),
    }
}

/// A random residual: some connected groups of tables (and single
/// scans) have run and carry their true rows at zero cost; the rest are
/// pending scans at their estimated rows and scan cost. Leaves come in
/// a shuffled order, as a re-planned tree's left-to-right order would.
fn random_leaves(
    query: &SpjQuery,
    rng: &mut StdRng,
    card: &dyn CardSource,
    oracle: &TrueCardOracle,
    params: &CostParams,
) -> Vec<ResidualLeaf> {
    let graph = JoinGraph::new(query);
    let catalog = oracle.catalog();
    let mut order: Vec<usize> = (0..query.num_tables()).collect();
    order.shuffle(rng);
    let mut taken = TableSet::EMPTY;
    let mut leaves = Vec::new();
    for pos in order {
        if taken.contains(pos) {
            continue;
        }
        let mut set = TableSet::singleton(pos);
        if rng.gen_bool(0.5) {
            // An executed sub-tree: grow a connected group of up to three
            // tables, then take its true row count.
            let size = rng.gen_range(1..=3usize);
            while set.len() < size {
                let free = graph.neighborhood(set).minus(taken);
                let Some(next) = free.iter().next() else {
                    break;
                };
                set = set.insert(next);
            }
            taken = taken.union(set);
            leaves.push(ResidualLeaf {
                set,
                rows: oracle.true_card(query, set).unwrap() as f64,
                cost: 0.0,
                materialized: true,
            });
        } else {
            taken = taken.union(set);
            let table = catalog.table(&query.tables[pos].table).unwrap();
            leaves.push(ResidualLeaf {
                set,
                rows: card.cardinality(query, set),
                cost: params.scan_work(table.nrows() as f64, query.predicates_on(pos).len()),
                materialized: false,
            });
        }
    }
    leaves.shuffle(rng);
    leaves
}

const ALGOS: [JoinAlgo; 3] = [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::Merge];

/// Left-deep over the leaves in index order, cycling the algorithms.
fn left_deep(n: usize) -> ResidualNode {
    (1..n).fold(ResidualNode::Leaf(0), |acc, i| ResidualNode::Join {
        algo: ALGOS[(i - 1) % 3],
        left: Box::new(acc),
        right: Box::new(ResidualNode::Leaf(i)),
    })
}

/// The same tree with every join's algorithm rotated one step.
fn rotated(node: &ResidualNode) -> ResidualNode {
    match node {
        ResidualNode::Leaf(i) => ResidualNode::Leaf(*i),
        ResidualNode::Join { algo, left, right } => ResidualNode::Join {
            algo: ALGOS[(ALGOS.iter().position(|a| a == algo).unwrap() + 1) % 3],
            left: Box::new(rotated(left)),
            right: Box::new(rotated(right)),
        },
    }
}

#[test]
fn residual_plans_snapshot() {
    let catalog = Arc::new(imdb_like(40, 7).unwrap());
    let stats = Arc::new(CatalogStats::build(
        &catalog,
        StatsConfig {
            mcv_entries: 0,
            ..StatsConfig::default()
        },
    ));
    let card = TraditionalCardSource::new(catalog.clone(), stats);
    let oracle = TrueCardOracle::new(catalog.clone());
    let params = CostParams::default();
    let cfg = RandomQueryConfig {
        max_tables: 10,
        max_predicates: 4,
    };
    let mut rng = StdRng::seed_from_u64(0x2E51_D0A1);

    let mut out = String::from(
        "# golden: imdb_like(40, 7), 80 random queries (seed 0x2E51D0A1) cut into random \
         residual leaves, 8 standard arms + 1 leading arm, DP limit above (dp) and below \
         (gr) the leaf count, traditional cards without MCVs, true rows on executed leaves\n\
         # query leaves arm limit: plan cost_bits work_bits | error at half the work, work_bits\n\
         # query leaves fixed plan: recost_bits work_bits\n",
    );
    let mut widest = 0;
    let mut disconnected = 0;
    for i in 0..QUERIES {
        let mut q = random_query(&catalog, &mut rng, &cfg);
        if i % 4 == 3 && q.joins.len() > 1 {
            q.joins.pop();
            disconnected += usize::from(!JoinGraph::new(&q).is_connected(q.all_tables()));
        }
        let leaves = random_leaves(&q, &mut rng, &card, &oracle, &params);
        let n = leaves.len();
        widest = widest.max(n);
        let first = q.joins.first().expect("random queries join");
        let leading = vec![
            q.col_pos(&first.right).unwrap(),
            q.col_pos(&first.left).unwrap(),
        ];
        let mut arms = HintSet::standard_arms();
        arms.push(HintSet::with_leading(leading));
        let mut unrestricted = None;
        for (a, arm) in arms.iter().enumerate() {
            for (label, limit) in [("dp", n), ("gr", n.saturating_sub(1))] {
                let hints = HintSet {
                    dp_table_limit: limit,
                    ..arm.clone()
                };
                let mut meter = WorkMeter::new(None);
                let choice = enumerate_residual(&q, &leaves, &card, &params, &hints, &mut meter)
                    .unwrap_or_else(|e| panic!("query {i} arm {a} {label}: {e}"));
                let work = meter.work();
                if a == 0 && label == "dp" {
                    unrestricted = Some(choice.plan.clone());
                }
                let mut tight = WorkMeter::new(Some(work / 2.0));
                let err = enumerate_residual(&q, &leaves, &card, &params, &hints, &mut tight)
                    .map(|c| show(&c.plan))
                    .unwrap_or_else(|e| e.to_string());
                writeln!(
                    out,
                    "q{i:03} l{n} a{a} {label}: {} {:#018x} {:#018x} | {err} {:#018x}",
                    show(&choice.plan),
                    choice.cost.to_bits(),
                    work.to_bits(),
                    tight.work().to_bits(),
                )
                .unwrap();
            }
        }
        let fixed = [
            ("left-deep", left_deep(n)),
            ("rotated", rotated(&unrestricted.expect("arm 0 planned"))),
        ];
        for (name, plan) in fixed {
            let mut meter = WorkMeter::new(None);
            let recost = residual_cost(&q, &leaves, &plan, &card, &params, &arms[0], &mut meter)
                .unwrap_or_else(|e| panic!("query {i} {name}: {e}"));
            writeln!(
                out,
                "q{i:03} l{n} {name} {}: {:#018x} {:#018x}",
                show(&plan),
                recost.to_bits(),
                meter.work().to_bits(),
            )
            .unwrap();
        }
    }
    assert!(
        widest >= 6,
        "the sweep must reach wide residuals ({widest})"
    );
    assert!(
        disconnected > 0,
        "the sweep must cover disconnected residuals"
    );
    check_golden("residual_plans.txt", &out);
}
