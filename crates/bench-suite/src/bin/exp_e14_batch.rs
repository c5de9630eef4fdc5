//! Experiment binary — see `lqo_bench_suite::experiments::e14_batch`.
//! Scale with `LQO_SCALE=small|default|large`.
//!
//! Artifacts: `results/exp_e14_batch.json` (summary) and
//! `results/exp_e14_batch.jsonl` (one record per mode, the speedup
//! curve of the batched bodies over the reference evaluator).

use lqo_bench_suite::experiments::e14_batch::{run, Config};
use lqo_bench_suite::report::{dump_json, dump_text, to_jsonl};

fn main() {
    let cfg = Config::default();
    eprintln!("running e14_batch with {cfg:?}");
    let out = run(&cfg);
    println!("{}", out.table.render());

    // Timing assertion only at full scale, where iterations are long
    // enough for the medians to dominate jitter; byte identity was
    // already asserted inside `run` for every cell regardless.
    if out.full_scale {
        let best = out
            .points
            .iter()
            .filter(|p| p.mode.starts_with("batched:"))
            .map(|p| p.speedup)
            .fold(0.0f64, f64::max);
        assert!(
            best >= 1.0,
            "expected the batched bodies to match or beat the reference \
             evaluator at some batch size, got best {best:.2}x"
        );
    } else {
        eprintln!(
            "reduced scale: skipping the speedup assertion \
             (byte identity still verified at every batch size)"
        );
    }

    dump_json("exp_e14_batch", &out);
    dump_text("exp_e14_batch.jsonl", &to_jsonl(&out.points));
    eprintln!(
        "wrote {} batch points to results/exp_e14_batch.jsonl",
        out.points.len()
    );
}
