//! Experiment binary — see `lqo_bench_suite::experiments::e12_cache`.
//! Scale with `LQO_SCALE=small|default|large`.
//!
//! Artifacts: `results/exp_e12_cache.json` (summary) and
//! `results/exp_e12_cache.jsonl` (one record per (mode, round), the
//! speedup curve).

use lqo_bench_suite::experiments::e12_cache::{run, Config};
use lqo_bench_suite::report::{dump_json, dump_text, to_jsonl};

fn main() {
    let cfg = Config::default();
    eprintln!("running e12_cache with {cfg:?}");
    let out = run(&cfg);
    println!("{}", out.table.render());

    assert!(
        out.reduction >= 5.0,
        "expected >=5x estimator-call reduction on the repeated-template \
         workload, got {:.2}x ({} uncached vs {} cached calls)",
        out.reduction,
        out.uncached_calls,
        out.cached_calls
    );
    eprintln!(
        "estimator calls: {} uncached -> {} cached ({:.1}x reduction), \
         plans byte-identical in every cell",
        out.uncached_calls, out.cached_calls, out.reduction
    );

    dump_json("exp_e12_cache", &out);
    dump_text("exp_e12_cache.jsonl", &to_jsonl(&out.points));
    eprintln!(
        "wrote {} round records to results/exp_e12_cache.jsonl",
        out.points.len()
    );
}
