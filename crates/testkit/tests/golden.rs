//! Golden snapshot of a fixed 10-query workload: query text, the plan
//! the traditional optimizer picks, and the executed result (count,
//! bit-exact work, order-sensitive relation digest). Any change to the
//! generator, optimizer, cost model, or any execution mode shows up
//! here as a reviewable diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! BLESS=1 cargo test -p lqo-testkit --test golden
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use lqo_bench_suite::workload::{generate_workload, WorkloadConfig};
use lqo_engine::datagen::stats_like;
use lqo_engine::{
    CatalogStats, ExecConfig, ExecMode, Executor, Optimizer, ParallelConfig, TraditionalCardSource,
};
use lqo_testkit::check_golden;

#[test]
fn ten_query_workload_snapshot() {
    let catalog = Arc::new(stats_like(60, 7).unwrap());
    let queries = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: 10,
            min_tables: 2,
            max_tables: 3,
            max_predicates: 3,
            seed: 0x601D_E001,
        },
    );
    assert_eq!(queries.len(), 10, "fixed workload must yield 10 queries");
    let stats = Arc::new(CatalogStats::build_default(&catalog));
    let card = TraditionalCardSource::new(catalog.clone(), stats);
    let optimizer = Optimizer::with_defaults(&catalog);
    let serial = Executor::with_defaults(&catalog);
    let parallel = Executor::new(
        &catalog,
        ExecConfig {
            mode: ExecMode::Parallel { threads: 4 },
            parallel: ParallelConfig {
                morsel_rows: 16,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let batched = Executor::new(
        &catalog,
        ExecConfig {
            mode: ExecMode::Batched { batch_size: 64 },
            ..Default::default()
        },
    );

    let mut out = String::from("# golden: stats_like(60, 7), 10 queries, seed 0x601DE001\n");
    for (i, q) in queries.iter().enumerate() {
        let plan = optimizer.optimize_default(q, &card).unwrap().plan;
        let (sr, srel) = serial.execute_collect(q, &plan).unwrap();
        // The snapshot is also a differential check: every other mode
        // must reproduce it before it is rendered — same committed
        // golden file, no mode-specific snapshots.
        for (mode, ex) in [("parallel", &parallel), ("batched", &batched)] {
            let (pr, prel) = ex.execute_collect(q, &plan).unwrap();
            assert_eq!(sr.count, pr.count, "query {i} ({mode})");
            assert_eq!(sr.work.to_bits(), pr.work.to_bits(), "query {i} ({mode})");
            assert_eq!(srel.digest(), prel.digest(), "query {i} ({mode})");
        }
        writeln!(out, "\nquery {i}: {q}").unwrap();
        writeln!(out, "plan {i}: {}", plan.fingerprint()).unwrap();
        writeln!(
            out,
            "result {i}: count={} work_bits={:#018x} digest={:#018x}",
            sr.count,
            sr.work.to_bits(),
            srel.digest()
        )
        .unwrap();
    }
    check_golden("workload.txt", &out);
}
