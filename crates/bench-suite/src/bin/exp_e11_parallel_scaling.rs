//! Experiment binary — see
//! `lqo_bench_suite::experiments::e11_parallel_scaling`.
//! Scale with `LQO_SCALE=small|default|large`.
//!
//! Artifacts: `results/exp_e11_parallel_scaling.json` (summary) and
//! `results/exp_e11_scaling.jsonl` (one record per thread count, the
//! speedup curve).

use lqo_bench_suite::experiments::e11_parallel_scaling::{run, Config};
use lqo_bench_suite::report::{dump_json, dump_text, to_jsonl};

fn main() {
    let cfg = Config::default();
    eprintln!("running e11_parallel_scaling with {cfg:?}");
    let out = run(&cfg);
    println!("{}", out.table.render());

    // Timing assertion only where the hardware can actually exhibit the
    // speedup; byte identity was already asserted inside `run` for every
    // cell regardless.
    if out.host_threads >= 4 {
        let at4 = out
            .points
            .iter()
            .find(|p| p.threads == 4)
            .expect("4-thread point");
        assert!(
            at4.speedup >= 2.0,
            "expected >=2x speedup at 4 threads on a {}-thread host, got {:.2}x",
            out.host_threads,
            at4.speedup
        );
    } else {
        eprintln!(
            "host has {} hardware thread(s): skipping the >=2x speedup assertion \
             (byte identity still verified at every thread count)",
            out.host_threads
        );
    }

    dump_json("exp_e11_parallel_scaling", &out);
    dump_text("exp_e11_scaling.jsonl", &to_jsonl(&out.points));
    eprintln!(
        "wrote {} scaling points to results/exp_e11_scaling.jsonl",
        out.points.len()
    );
}
