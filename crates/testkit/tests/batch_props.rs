//! Property tests for the vectorized (batched) execution path: random
//! SPJ queries, random plan shapes, random batch sizes — batched must
//! equal the reference evaluator byte for byte, the result must not
//! depend on the batch size, and selection-vector boundaries must not
//! leak rows. Worker faults in the morsel pool, which runs the same
//! operator bodies, are covered by `chaos.rs`.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lqo_engine::datagen::stats_like;
use lqo_engine::{Catalog, ExecConfig, ExecMode, Executor, JoinAlgo, PhysNode};
use lqo_testkit::{diff_plan, random_plan, random_query, DiffConfig, RandomQueryConfig};

fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| stats_like(50, 11).unwrap())
}

fn batched_exec(batch_size: usize) -> Executor<'static> {
    Executor::new(
        catalog(),
        ExecConfig {
            mode: ExecMode::Batched { batch_size },
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The core property: for ANY query, ANY plan shape, ANY batch size
    /// (including the degenerate 1 and sizes far beyond any table),
    /// batched output is byte-identical to the reference — same rows in
    /// the same order, bit-identical work. Also sweeps the serial cell
    /// and one parallel cell per case.
    #[test]
    fn batched_equals_serial_for_random_plans(
        seed in 0u64..u64::MAX,
        batch_size in 1usize..5000,
        threads in 2usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(catalog(), &mut rng, &RandomQueryConfig::default());
        let plan = random_plan(&q, &mut rng);
        let cfg = DiffConfig {
            thread_counts: vec![threads],
            morsel_rows: vec![64],
            batch_sizes: vec![batch_size],
            max_work: None,
        };
        diff_plan(catalog(), &q, &plan, &cfg)
            .unwrap_or_else(|msg| panic!("{msg} (plan {})", plan.fingerprint()));
    }

    /// Batch-size invariance: two *different* batch sizes over the same
    /// plan must agree with each other exactly, not just each with the
    /// reference — the batch size is a performance knob, never a semantic
    /// one.
    #[test]
    fn result_is_invariant_under_batch_size(
        seed in 0u64..u64::MAX,
        a in 1usize..2048,
        b in 1usize..2048,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(catalog(), &mut rng, &RandomQueryConfig::default());
        let plan = random_plan(&q, &mut rng);
        let (ra, rela) = batched_exec(a).execute_collect(&q, &plan).unwrap();
        let (rb, relb) = batched_exec(b).execute_collect(&q, &plan).unwrap();
        prop_assert_eq!(ra.count, rb.count);
        prop_assert_eq!(ra.work.to_bits(), rb.work.to_bits());
        prop_assert_eq!(rela.digest(), relb.digest());
    }

    /// Selection-vector boundary cases: batch sizes placed exactly at,
    /// one below, and one above a scanned table's row count, so the
    /// final batch is full, a single row, or the whole input. No row may
    /// be dropped or duplicated at any chunk boundary.
    #[test]
    fn selection_vector_boundaries_lose_nothing(
        seed in 0u64..u64::MAX,
        off in -1isize..=1,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(
            catalog(),
            &mut rng,
            &RandomQueryConfig { max_tables: 2, max_predicates: 3 },
        );
        let plan = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let rows = catalog().table(&q.tables[0].table).unwrap().nrows();
        let batch = rows.saturating_add_signed(off).max(1);
        let cfg = DiffConfig {
            thread_counts: vec![],
            morsel_rows: vec![],
            batch_sizes: vec![batch],
            max_work: None,
        };
        diff_plan(catalog(), &q, &plan, &cfg).unwrap_or_else(|msg| panic!("{msg}"));
    }
}

/// Batched hash-join build/probe symmetry (mirrors the parallel
/// property): swapping the build side changes row order but must
/// preserve the result set under slot-normalized digests.
#[test]
fn batched_hash_join_build_probe_symmetry() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_0001);
    for _ in 0..8 {
        let q = random_query(
            catalog(),
            &mut rng,
            &RandomQueryConfig {
                max_tables: 2,
                max_predicates: 3,
            },
        );
        let ab = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let ba = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(1), PhysNode::scan(0));
        let ex = batched_exec(64);
        let (r1, rel1) = ex.execute_collect(&q, &ab).unwrap();
        let (r2, rel2) = ex.execute_collect(&q, &ba).unwrap();
        assert_eq!(r1.count, r2.count);
        assert_eq!(
            rel1.normalize().canonical_digest(),
            rel2.normalize().canonical_digest(),
            "join sides produced different result sets for `{q}`"
        );
    }
}
