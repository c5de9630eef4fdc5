//! Golden snapshot of the DP enumerator's decisions: for 200 seeded
//! random queries of 2–8 tables, each planned under the eight standard
//! Bao hint arms plus one leading-prefix arm with the traditional
//! estimator, the chosen plan, the bits of its estimated cost, and the
//! enumeration counters (`subproblems`, `cost_evals`). Any change to the
//! DP's table layout, subset order or tie-breaking that moves a plan, a
//! cost bit or a counter shows up here as a diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! BLESS=1 cargo test -p lqo-testkit --test dp_plans
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
fn dp_plans_snapshot() {
    let catalog = Arc::new(imdb_like(40, 7).unwrap());
    // No MCV lists: the golden pins the DP over histogram estimates alone,
    // as it was blessed.
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
    let mut rng = StdRng::seed_from_u64(0xD9_91A5);

    let mut out = String::from(
        "# golden: imdb_like(40, 7), 200 random queries (seed 0xD991A5), \
         8 standard arms + 1 leading arm, traditional cards without MCVs\n\
         # query arm tables: fingerprint cost_bits subproblems cost_evals\n",
    );
    let mut widest = 0;
    for i in 0..QUERIES {
        let q = random_query(&catalog, &mut rng, &cfg);
        widest = widest.max(q.num_tables());
        // A leading prefix along the first join edge, so the prefix is
        // connected and DP always finds a plan.
        let j = &q.joins[0];
        let leading = vec![q.col_pos(&j.right).unwrap(), q.col_pos(&j.left).unwrap()];
        let mut arms = HintSet::standard_arms();
        arms.push(HintSet::with_leading(leading));
        for (a, hints) in arms.iter().enumerate() {
            obs.begin_query(&format!("q{i}a{a}"));
            let choice = optimizer.optimize(&q, &card, hints).unwrap();
            let trace = obs.end_query().unwrap();
            obs.take_finished_traces();
            assert_eq!(
                trace.planner.algo.as_deref(),
                Some("dp"),
                "query {i} arm {a}"
            );
            writeln!(
                out,
                "q{i:03} a{a} t{}: {} {:#018x} {} {}",
                q.num_tables(),
                choice.plan.fingerprint(),
                choice.cost.to_bits(),
                trace.planner.subproblems,
                trace.planner.cost_evals
            )
            .unwrap();
        }
    }
    // The generator never repeats a table and the catalog has eight, so
    // eight-table joins are the widest `max_tables: 10` can produce.
    assert_eq!(widest, 8, "the sweep must reach the widest joins");
    check_golden("dp_plans.txt", &out);
}
