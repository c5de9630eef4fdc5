//! The metric and workload names this benchmark prints. `BENCHMARK.json`
//! at the repo root lists exactly these (a unit test compares the two).

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "serve_open_zipf",
    "exec_join_heavy",
    "plan_learned_wide",
    "pilot_learn_loop",
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a client of the system sees. Measured with tracing off; every one
/// is non-zero on every workload (`work_ratio_vs_native` is exactly 1 where
/// the native optimizer plans).
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    lower("query_p50_ms", "ms"),
    higher("queries_per_s", "1/s"),
    lower("work_units_per_query", "units"),
    lower("work_ratio_vs_native", "ratio"),
    lower("peak_rss_mb", "MB"),
];

/// One layer each, from the traced run. 0 means the workload does not
/// exercise that layer. `query_p99_ms` is the client's tail latency: on
/// the defining box it reads the machine's stalls more than the program
/// (see README, *Noise*), too unsteady to carry a regression bound.
pub const PER_LAYER: [MetricDef; 52] = [
    lower("query_p99_ms", "ms"),
    lower("engine.datagen.build_s", "s"),
    lower("engine.stats.collect_s", "s"),
    lower("engine.query.parse_us_p50", "us"),
    lower("engine.optimizer.optimize_us_p50", "us"),
    lower("engine.optimizer.optimize_us_p99", "us"),
    lower("engine.optimizer.busy_share", "ratio"),
    lower("engine.optimizer.self_share", "ratio"),
    lower("engine.optimizer.card_calls_per_plan", "count"),
    lower("card.fit_s", "s"),
    lower("card.estimate_us_p50.mscn", "us"),
    lower("card.estimate_us_p50.deepdb", "us"),
    lower("card.estimate_us_p50.factorjoin", "us"),
    lower("card.busy_share", "ratio"),
    lower("card.qerror_p95", "ratio"),
    higher("cache.plan_hit_rate", "ratio"),
    higher("cache.card_hit_rate", "ratio"),
    lower("cache.bump_us_p50", "us"),
    lower("cache.invalidated_per_bump", "count"),
    lower("guard.fallbacks", "count"),
    lower("engine.exec.execute_ms_p50", "ms"),
    lower("engine.exec.execute_ms_p99", "ms"),
    lower("engine.exec.busy_share", "ratio"),
    higher("engine.exec.work_units_per_ms", "units/ms"),
    higher("engine.exec.rows_out_per_s", "rows/s"),
    lower("engine.exec.scan_share", "ratio"),
    lower("engine.exec.join_share", "ratio"),
    higher("engine.exec.serial_work_units_per_ms", "units/ms"),
    lower("serve.submit_us_p50", "us"),
    lower("serve.submit_us_p99", "us"),
    lower("serve.queue_wait_ms_p50", "ms"),
    lower("serve.queue_wait_ms_p99", "ms"),
    lower("serve.p99_ms_low", "ms"),
    lower("serve.p99_ms_high", "ms"),
    higher("serve.rate_met_qps", "1/s"),
    lower("serve.drain_ms_high", "ms"),
    higher("serve.admitted", "count"),
    lower("serve.rejected_queue_full", "count"),
    lower("serve.rejected_quota", "count"),
    lower("serve.rejected_breaker", "count"),
    lower("serve.steps_per_query", "count"),
    lower("loadgen.late_p99_ms", "ms"),
    lower("pilot.execute_sql_ms_p50", "ms"),
    lower("pilot.execute_sql_ms_p99", "ms"),
    lower("pilot.decision_us_p50", "us"),
    lower("pilot.tick_ms_p50", "ms"),
    lower("pilot.tick_total_s", "s"),
    lower("pilot.train_s", "s"),
    lower("core.candidates_us_p50", "us"),
    lower("core.score_us_p50", "us"),
    lower("failed_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// One line of the result the driver reads: every metric of `defs`, with
/// 0 for a layer the workload left out.
pub fn result_json(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().filter(|v| v.is_finite());
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                v.unwrap_or(0.0),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// `name value unit`, one metric per line, for people.
pub fn print_lines(workload: &str, defs: &[MetricDef], values: &Values) {
    for d in defs {
        if let Some(v) = values.get(d.name) {
            println!("{workload} {} {v} {}", d.name, d.unit);
        }
    }
}

pub fn benchmark_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// `bound` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = benchmark_json_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let Some(serde_json::Value::Array(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| match (m.get("name"), m.get("bound")) {
            (Some(serde_json::Value::String(n)), Some(serde_json::Value::Float(b))) => {
                Ok((n.clone(), *b))
            }
            _ => Err(format!("end_to_end entry without name and bound: {m:?}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| match m.get(k) {
                    Some(Value::String(s)) => s.clone(),
                    _ => String::new(),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn list_equals_benchmark_json() {
        let text = std::fs::read_to_string(benchmark_json_path()).expect("../BENCHMARK.json");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), defined(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defined(&PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        for (entries, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Value::Array(items)) = doc.get(entries) else {
                unreachable!()
            };
            for (m, d) in items.iter().zip(defs) {
                let want = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    m.get("better"),
                    Some(&Value::String(want.into())),
                    "{}",
                    d.name
                );
            }
        }
        assert_eq!(bounds().expect("bounds parse").len(), END_TO_END.len());
    }

    #[test]
    fn result_line_holds_every_metric_and_no_non_finite_number() {
        let mut values = Values::new();
        values.insert("setup_s", 1.25);
        values.insert("query_p50_ms", f64::NAN);
        let line = result_json(&END_TO_END, &values, 10, 0);
        let doc = serde_json::from_str(&line).expect("result line is JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for d in END_TO_END {
            assert!(metrics.get(d.name).is_some(), "{} missing", d.name);
        }
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert!(result_json(&END_TO_END, &values, 10, 1).contains("\"correct\": false"));
    }
}
