//! The keep rule is local: the slots `execute` keeps at a plan node,
//! derived top-down from an empty root keep through `keep_for_child`,
//! equal `keep_for_child(query, node_tables, ∅)` — the positions of the
//! node with a join condition leaving it — whatever the rest of the plan
//! looks like. A step-wise driver (re-optimization) relies on this: it
//! computes each step's keep from the step's own tables, so a residual
//! plan spliced in over already-executed sub-trees joins them on the keys
//! they kept.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lqo_engine::datagen::{imdb_like, stats_like};
use lqo_engine::exec::keep_for_child;
use lqo_engine::{Catalog, PhysNode, SpjQuery, TableSet};
use lqo_testkit::{random_plan, random_query, RandomQueryConfig};

fn catalogs() -> &'static [Catalog; 2] {
    static CATALOGS: OnceLock<[Catalog; 2]> = OnceLock::new();
    CATALOGS.get_or_init(|| [stats_like(50, 11).unwrap(), imdb_like(40, 3).unwrap()])
}

/// Walk `node` top-down with the keep `execute` derives for it, checking
/// the local rule at every node; returns the nodes checked.
fn check(query: &SpjQuery, node: &PhysNode, keep: TableSet) -> Result<usize, String> {
    let local = keep_for_child(query, node.tables(), TableSet::EMPTY);
    if keep != local {
        return Err(format!(
            "at {}: top-down keep {keep} != local keep {local}",
            node.tables()
        ));
    }
    Ok(match node {
        PhysNode::Scan { .. } => 1,
        PhysNode::Join { left, right, .. } => {
            let l = check(query, left, keep_for_child(query, left.tables(), keep))?;
            let r = check(query, right, keep_for_child(query, right.tables(), keep))?;
            1 + l + r
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn top_down_keep_equals_local_keep(seed in 0u64..u64::MAX, which in 0usize..2) {
        let catalog = &catalogs()[which];
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomQueryConfig { max_tables: 6, max_predicates: 2 };
        let q = random_query(catalog, &mut rng, &cfg);
        let plan = random_plan(&q, &mut rng);
        // The root counts: nothing leaves the whole query.
        prop_assert_eq!(keep_for_child(&q, q.all_tables(), TableSet::EMPTY), TableSet::EMPTY);
        let nodes = check(&q, &plan, TableSet::EMPTY)
            .unwrap_or_else(|msg| panic!("{msg} (query `{q}`, plan {})", plan.fingerprint()));
        prop_assert_eq!(nodes, 2 * q.num_tables() - 1);
    }
}
