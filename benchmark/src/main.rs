//! The repo benchmark. See `README.md` for the workloads, the metrics and
//! how they interact, and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload all --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload exec_join_heavy --seed 1 --seconds 20 --trace 0
//! ```

mod metrics;
mod probe;
mod rng;
mod stats;
mod templates;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;
use workloads::Pass;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
const RUN_SECONDS: f64 = 20.0;
/// `--smoke` sizes every workload for this many seconds.
const SMOKE_SECONDS: f64 = 0.5;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 0,
        smoke: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {} (see --list)", args.workload));
    }
    Ok(args)
}

fn setup(name: &str, smoke: bool, tracer: &Arc<Tracer>) -> Box<dyn workloads::Workload> {
    workloads::setup(name, smoke, tracer.clone()).expect("workload name was checked")
}

/// The untraced run: the end-to-end metrics.
fn run_untraced(name: &str, seed: u64, seconds: f64, smoke: bool) -> (Values, Pass) {
    let off = Arc::new(Tracer::new(false));
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous world first, so peak memory is one world's.
        drop(world.take());
        let start = Instant::now();
        world = Some(setup(name, smoke, &off));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut world = world.expect("SETUP_REPEATS is at least one");
    let pass = world.run(seed, seconds);
    let mut values = Values::new();
    values.insert("setup_s", stats::median(setups));
    values.insert("query_p50_ms", pass.latency.p50_ms);
    values.insert("queries_per_s", pass.queries_per_s);
    values.insert("work_units_per_query", pass.work_units_per_query);
    values.insert("work_ratio_vs_native", pass.work_ratio_vs_native);
    values.insert("peak_rss_mb", probe::peak_rss_mb());
    println!(
        "# {name}: {} latency samples in {} windows, p{} {} ms, answer digest {:016x}",
        pass.latency.samples,
        pass.latency.windows,
        pass.latency.tail_q * 100.0,
        pass.latency.tail_ms,
        pass.answer_digest
    );
    (values, pass)
}

/// The traced run: half the requests untraced, then the same half with
/// one span per layer call. Yields the per-layer metrics.
fn run_traced(name: &str, seed: u64, seconds: f64, smoke: bool) -> (Values, Pass) {
    let off = Arc::new(Tracer::new(false));
    let plain = setup(name, smoke, &off).run(seed, seconds / 2.0);
    let tracer = Arc::new(Tracer::new(true));
    let mut world = setup(name, smoke, &tracer);
    let pass = world.run(seed, seconds / 2.0);
    let spans = tracer.take();
    let mut values = world.layers(&spans, &pass);
    values.extend(pass.layer.iter().map(|(k, v)| (*k, *v)));
    values.insert("query_p99_ms", pass.latency.tail_ms);
    values.insert(
        "trace.overhead_share",
        pass.request_wall_s / plain.request_wall_s - 1.0,
    );
    match trace::write_spans(name, &spans) {
        Ok((path, stride)) => println!(
            "# {name}: {} spans in memory, 1 query in {stride} written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{name}: span file not written: {e}"),
    }
    if plain.answer_digest != pass.answer_digest {
        eprintln!(
            "{name}: traced and untraced answers differ ({:016x} vs {:016x})",
            pass.answer_digest, plain.answer_digest
        );
        return (
            values,
            Pass {
                failed: pass.failed.max(1),
                ..pass
            },
        );
    }
    (values, pass)
}

/// One workload the way the driver asks for it: metric lines for people,
/// then the result object as the last line.
fn run_one(name: &str, args: &Args) -> bool {
    let (defs, (values, pass)): (&[MetricDef], _) = if args.trace {
        (
            &PER_LAYER,
            run_traced(name, args.seed, args.seconds, args.smoke),
        )
    } else {
        (
            &END_TO_END,
            run_untraced(name, args.seed, args.seconds, args.smoke),
        )
    };
    metrics::print_lines(name, defs, &values);
    println!(
        "{}",
        metrics::result_json(defs, &values, pass.attempted, pass.failed)
    );
    pass.failed == 0
}

/// Every workload, untraced then traced, as `workload name value unit`.
/// With `smoke`, tiny sizes and a check that every named metric came out:
/// each end-to-end metric on every workload, each per-layer metric on at
/// least one (a workload leaves out the layers it does not exercise).
fn run_all(args: &Args) -> bool {
    let seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        args.seconds
    };
    let mut ok = true;
    let mut layers_seen = std::collections::BTreeSet::new();
    for name in WORKLOADS {
        let (e2e, pass) = run_untraced(name, args.seed, seconds, args.smoke);
        let (layers, traced) = run_traced(name, args.seed, seconds, args.smoke);
        metrics::print_lines(name, &END_TO_END, &e2e);
        metrics::print_lines(name, &PER_LAYER, &layers);
        println!(
            "{name} attempted {} failed {}",
            pass.attempted + traced.attempted,
            pass.failed + traced.failed
        );
        ok &= pass.failed == 0 && traced.failed == 0;
        for d in END_TO_END.iter().filter(|d| !e2e.contains_key(d.name)) {
            eprintln!("{name}: end-to-end metric {} not emitted", d.name);
            ok = false;
        }
        layers_seen.extend(layers.into_keys());
    }
    for d in PER_LAYER.iter().filter(|d| !layers_seen.contains(d.name)) {
        eprintln!("per-layer metric {} not emitted by any workload", d.name);
        ok = false;
    }
    ok
}

/// `--repeat N`: the untraced run N times; each end-to-end metric's
/// quartile spread against its bound in `BENCHMARK.json`.
fn run_repeat(name: &str, args: &Args) -> Result<bool, String> {
    let bounds = metrics::bounds()?;
    let mut runs: Vec<Values> = Vec::new();
    let mut ok = true;
    for i in 0..args.repeat {
        let (values, pass) = run_untraced(name, args.seed + i as u64, args.seconds, args.smoke);
        ok &= pass.failed == 0;
        runs.push(values);
    }
    for d in END_TO_END {
        let series: Vec<f64> = runs.iter().map(|r| r[d.name]).collect();
        let (q1, q2, q3) = stats::quartiles(&series);
        let spread = (q3 - q1) / q2;
        let bound = bounds[d.name];
        println!(
            "{name} {} median {q2} q1 {q1} q3 {q3} spread {spread:.4} bound {bound} {}",
            d.name, d.unit
        );
        // The driver does not hold set-up time to its spread.
        if spread > bound && d.name != "setup_s" {
            eprintln!(
                "{name}: {} spread {spread:.4} exceeds its bound {bound}",
                d.name
            );
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in WORKLOADS {
            println!("workload {w}");
        }
        for d in END_TO_END {
            println!("end_to_end {} {}", d.name, d.unit);
        }
        for d in PER_LAYER {
            println!("per_layer {} {}", d.name, d.unit);
        }
        return ExitCode::SUCCESS;
    }
    let ok = if args.repeat > 0 {
        if args.repeat < 3 {
            eprintln!("--repeat needs at least 3 runs for quartiles");
            return ExitCode::from(2);
        }
        let names: Vec<&str> = if args.workload == "all" {
            WORKLOADS.to_vec()
        } else {
            vec![args.workload.as_str()]
        };
        names.into_iter().all(|name| match run_repeat(name, &args) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("{e}");
                false
            }
        })
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args.workload, &args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
