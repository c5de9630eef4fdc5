//! Experiment binary — see `lqo_bench_suite::experiments::e13_reopt`.
//! Scale with `LQO_SCALE=small|default|large`.
//!
//! Artifacts: `results/exp_e13_reopt.json` (summary) and
//! `results/exp_e13_reopt.jsonl` (one record per replayed query:
//! work units under accurate / stale / re-optimized execution, bounded
//! re-planning work vs the guard budget, recovery latency, end-state
//! plan quality).

use lqo_bench_suite::experiments::e13_reopt::{run, Config};
use lqo_bench_suite::report::{dump_json, dump_text, to_jsonl};

fn main() {
    let cfg = Config::default();
    eprintln!("running e13_reopt with {cfg:?}");
    let out = run(&cfg);
    println!("{}", out.table.render());

    let poisoned = &out.points[out.poisoned_index];
    assert!(
        poisoned.work_reopt < poisoned.work_stale,
        "re-optimization did not beat the stale plan: {} vs {} work units",
        poisoned.work_reopt,
        poisoned.work_stale
    );
    assert!(
        poisoned.replan_work <= poisoned.replan_budget,
        "re-planning work {} exceeded the guard budget {}",
        poisoned.replan_work,
        poisoned.replan_budget
    );
    eprintln!(
        "poisoned query {}: stale {:.0} -> reopt {:.0} work units \
         (ceiling {:.0}; {:.0} of {:.0} re-planning budget spent, \
         recovery in {:.1}ms)",
        poisoned.index,
        poisoned.work_stale,
        poisoned.work_reopt,
        poisoned.work_opt,
        poisoned.replan_work,
        poisoned.replan_budget,
        poisoned.wall_reopt_s * 1e3
    );

    dump_json("exp_e13_reopt", &out);
    dump_text("exp_e13_reopt.jsonl", &to_jsonl(&out.points));
    eprintln!(
        "wrote {} query records to results/exp_e13_reopt.jsonl",
        out.points.len()
    );
}
