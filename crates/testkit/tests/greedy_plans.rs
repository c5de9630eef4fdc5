//! Golden snapshot of the greedy enumerator's decisions: for 200 seeded
//! random queries of 2–8 tables, each planned under the eight standard
//! Bao hint arms plus one leading-prefix arm with the traditional
//! estimator, both through `Optimizer::greedy` and through
//! `Optimizer::optimize` with the DP limit below the query's size: the
//! chosen plan, the bits of its estimated cost, and the enumeration
//! counters (`subproblems`, `cost_evals`). `dp_plans` pins the DP the
//! same way.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! BLESS=1 cargo test -p lqo-testkit --test greedy_plans
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use lqo_engine::datagen::imdb_like;
use lqo_engine::stats::StatsConfig;
use lqo_engine::{CatalogStats, HintSet, Optimizer, TraditionalCardSource};
use lqo_obs::ObsContext;
use lqo_testkit::{check_golden, random_query, RandomQueryConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const QUERIES: usize = 200;

#[test]
fn greedy_plans_snapshot() {
    let catalog = Arc::new(imdb_like(40, 7).unwrap());
    let stats = Arc::new(CatalogStats::build(
        &catalog,
        StatsConfig {
            mcv_entries: 0,
            ..StatsConfig::default()
        },
    ));
    let card = TraditionalCardSource::new(catalog.clone(), stats);
    let obs = ObsContext::enabled();
    let optimizer = Optimizer::with_defaults(&catalog).with_telemetry(obs.clone());
    let cfg = RandomQueryConfig {
        max_tables: 10,
        max_predicates: 4,
    };
    let mut rng = StdRng::seed_from_u64(0x06EE_D1A5);

    let mut out = String::from(
        "# golden: imdb_like(40, 7), 200 random queries (seed 0x6EED1A5), \
         8 standard arms + 1 leading arm, traditional cards without MCVs\n\
         # query arm tables entry: fingerprint cost_bits subproblems cost_evals\n",
    );
    let mut widest = 0;
    for i in 0..QUERIES {
        let q = random_query(&catalog, &mut rng, &cfg);
        widest = widest.max(q.num_tables());
        let j = &q.joins[0];
        let leading = vec![q.col_pos(&j.right).unwrap(), q.col_pos(&j.left).unwrap()];
        let mut arms = HintSet::standard_arms();
        arms.push(HintSet::with_leading(leading));
        for (a, arm) in arms.iter().enumerate() {
            let below = HintSet {
                dp_table_limit: q.num_tables() - 1,
                ..arm.clone()
            };
            for (entry, hints) in [("greedy", arm), ("optimize", &below)] {
                obs.begin_query(&format!("q{i}a{a}{entry}"));
                let choice = if entry == "greedy" {
                    optimizer.greedy(&q, &card, hints)
                } else {
                    optimizer.optimize(&q, &card, hints)
                }
                .unwrap();
                let trace = obs.end_query().unwrap();
                obs.take_finished_traces();
                assert_eq!(
                    trace.planner.algo.as_deref(),
                    Some("greedy"),
                    "query {i} arm {a} {entry}"
                );
                writeln!(
                    out,
                    "q{i:03} a{a} t{} {entry}: {} {:#018x} {} {}",
                    q.num_tables(),
                    choice.plan.fingerprint(),
                    choice.cost.to_bits(),
                    trace.planner.subproblems,
                    trace.planner.cost_evals
                )
                .unwrap();
            }
        }
    }
    assert_eq!(widest, 8, "the sweep must reach the widest joins");
    check_golden("greedy_plans.txt", &out);
}
