//! JSONL export and import of [`QueryTrace`]s.
//!
//! One trace per line, stable field names, lossless for every field —
//! the round trip `parse_jsonl(write_jsonl(traces)) == traces` holds and
//! is covered by tests. The line framing ([`write_jsonl_with`],
//! [`parse_jsonl_with`]) is shared with the flight recorder's incident
//! bundles and the watch crate's health series.

use serde_json::Value;

/// Schema version stamped on every exported trace line. Bump when a
/// field changes meaning or is removed; adding optional fields does not
/// require a bump. Readers accept absent versions (pre-versioning
/// exports) and any version up to this one. The full schema registry
/// lives in DESIGN.md §13.
pub const TRACE_SCHEMA_VERSION: u64 = 1;
use crate::trace::{
    CacheEvent, CardLookup, ExecTrace, GuardEvent, OperatorEvent, PhaseTiming, PlannerTrace,
    QueryOutcome, QueryTrace, ReoptEvent,
};

fn u64_value(v: u64) -> Value {
    // Table masks and counters fit i64 in practice; saturate defensively.
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn opt_str(v: &Option<String>) -> Value {
    match v {
        Some(s) => Value::String(s.clone()),
        None => Value::Null,
    }
}

fn opt_f64(v: Option<f64>) -> Value {
    match v {
        Some(f) => Value::Float(f),
        None => Value::Null,
    }
}

/// Encode one trace as a JSON object.
pub fn trace_to_json(t: &QueryTrace) -> Value {
    let phases = t
        .phases
        .iter()
        .map(|p| {
            Value::Object(vec![
                ("name".into(), Value::String(p.name.clone())),
                ("elapsed_ns".into(), u64_value(p.elapsed_ns)),
            ])
        })
        .collect();
    let lookups = t
        .planner
        .card_lookups
        .iter()
        .map(|l| {
            Value::Object(vec![
                ("tables".into(), u64_value(l.tables)),
                ("est_rows".into(), Value::Float(l.est_rows)),
            ])
        })
        .collect();
    let planner = Value::Object(vec![
        ("algo".into(), opt_str(&t.planner.algo)),
        ("subproblems".into(), u64_value(t.planner.subproblems)),
        ("cost_evals".into(), u64_value(t.planner.cost_evals)),
        ("card_source".into(), opt_str(&t.planner.card_source)),
        ("card_lookups".into(), Value::Array(lookups)),
        ("hints".into(), opt_str(&t.planner.hints)),
        ("chosen_cost".into(), opt_f64(t.planner.chosen_cost)),
    ]);
    let operators = t
        .exec
        .operators
        .iter()
        .map(|o| {
            Value::Object(vec![
                ("op".into(), Value::String(o.op.clone())),
                ("tables".into(), u64_value(o.tables)),
                ("true_rows".into(), u64_value(o.true_rows)),
                ("est_rows".into(), opt_f64(o.est_rows)),
                ("work".into(), Value::Float(o.work)),
            ])
        })
        .collect();
    let exec = Value::Object(vec![
        ("operators".into(), Value::Array(operators)),
        ("timeout".into(), Value::Bool(t.exec.timeout)),
    ]);
    let guard = t
        .guard
        .iter()
        .map(|g| {
            Value::Object(vec![
                ("component".into(), Value::String(g.component.clone())),
                ("fault".into(), Value::String(g.fault.clone())),
                ("action".into(), Value::String(g.action.clone())),
            ])
        })
        .collect();
    let cache = t
        .cache
        .iter()
        .map(|c| {
            Value::Object(vec![
                ("cache".into(), Value::String(c.cache.clone())),
                ("event".into(), Value::String(c.event.clone())),
                ("detail".into(), Value::String(c.detail.clone())),
            ])
        })
        .collect();
    let reopt = t
        .reopt
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("tables".into(), u64_value(r.tables)),
                ("observed_rows".into(), u64_value(r.observed_rows)),
                ("est_rows".into(), Value::Float(r.est_rows)),
                ("q_error".into(), Value::Float(r.q_error)),
                ("action".into(), Value::String(r.action.clone())),
                ("replan_work".into(), Value::Float(r.replan_work)),
                ("old_cost".into(), opt_f64(r.old_cost)),
                ("new_cost".into(), opt_f64(r.new_cost)),
            ])
        })
        .collect();
    let outcome = match &t.outcome {
        Some(o) => Value::Object(vec![
            ("count".into(), u64_value(o.count)),
            ("work".into(), Value::Float(o.work)),
            ("wall_ns".into(), u64_value(o.wall_ns)),
        ]),
        None => Value::Null,
    };
    Value::Object(vec![
        ("schema_version".into(), u64_value(TRACE_SCHEMA_VERSION)),
        ("query".into(), Value::String(t.query.clone())),
        ("driver".into(), opt_str(&t.driver)),
        (
            "decision_ns".into(),
            match t.decision_ns {
                Some(ns) => u64_value(ns),
                None => Value::Null,
            },
        ),
        ("phases".into(), Value::Array(phases)),
        ("planner".into(), planner),
        ("exec".into(), exec),
        ("guard".into(), Value::Array(guard)),
        ("cache".into(), Value::Array(cache)),
        ("reopt".into(), Value::Array(reopt)),
        ("events_dropped".into(), u64_value(t.events_dropped)),
        ("outcome".into(), outcome),
    ])
}

fn str_field(v: &Value, key: &str) -> Option<String> {
    v.get(key)?.as_str().map(str::to_string)
}

fn opt_str_field(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

/// Decode one trace from a JSON object; `None` on any shape mismatch or
/// on a schema version newer than this reader understands. Absent
/// versions (pre-versioning exports) are accepted.
pub fn trace_from_json(v: &Value) -> Option<QueryTrace> {
    if let Some(ver) = v.get("schema_version").and_then(Value::as_u64) {
        if ver > TRACE_SCHEMA_VERSION {
            return None;
        }
    }
    let phases = v
        .get("phases")?
        .as_array()?
        .iter()
        .map(|p| {
            Some(PhaseTiming {
                name: str_field(p, "name")?,
                elapsed_ns: p.get("elapsed_ns")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let pl = v.get("planner")?;
    let card_lookups = pl
        .get("card_lookups")?
        .as_array()?
        .iter()
        .map(|l| {
            Some(CardLookup {
                tables: l.get("tables")?.as_u64()?,
                est_rows: l.get("est_rows")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let planner = PlannerTrace {
        algo: opt_str_field(pl, "algo"),
        subproblems: pl.get("subproblems")?.as_u64()?,
        cost_evals: pl.get("cost_evals")?.as_u64()?,
        card_source: opt_str_field(pl, "card_source"),
        card_lookups,
        hints: opt_str_field(pl, "hints"),
        chosen_cost: pl.get("chosen_cost").and_then(Value::as_f64),
    };
    let ex = v.get("exec")?;
    let operators = ex
        .get("operators")?
        .as_array()?
        .iter()
        .map(|o| {
            Some(OperatorEvent {
                op: str_field(o, "op")?,
                tables: o.get("tables")?.as_u64()?,
                true_rows: o.get("true_rows")?.as_u64()?,
                est_rows: o.get("est_rows").and_then(Value::as_f64),
                work: o.get("work")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let exec = ExecTrace {
        operators,
        timeout: ex.get("timeout")?.as_bool()?,
    };
    let guard = v
        .get("guard")?
        .as_array()?
        .iter()
        .map(|g| {
            Some(GuardEvent {
                component: str_field(g, "component")?,
                fault: str_field(g, "fault")?,
                action: str_field(g, "action")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    // Absent in traces exported before cache events existed: read as
    // empty rather than failing the whole parse.
    let cache = match v.get("cache") {
        Some(arr) => arr
            .as_array()?
            .iter()
            .map(|c| {
                Some(CacheEvent {
                    cache: str_field(c, "cache")?,
                    event: str_field(c, "event")?,
                    detail: str_field(c, "detail")?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
        None => Vec::new(),
    };
    // Likewise absent in traces exported before adaptive re-optimization
    // existed: read as empty rather than failing the whole parse.
    let reopt = match v.get("reopt") {
        Some(arr) => arr
            .as_array()?
            .iter()
            .map(|r| {
                Some(ReoptEvent {
                    tables: r.get("tables")?.as_u64()?,
                    observed_rows: r.get("observed_rows")?.as_u64()?,
                    est_rows: r.get("est_rows")?.as_f64()?,
                    q_error: r.get("q_error")?.as_f64()?,
                    action: str_field(r, "action")?,
                    replan_work: r.get("replan_work")?.as_f64()?,
                    old_cost: r.get("old_cost").and_then(Value::as_f64),
                    new_cost: r.get("new_cost").and_then(Value::as_f64),
                })
            })
            .collect::<Option<Vec<_>>>()?,
        None => Vec::new(),
    };
    let outcome = match v.get("outcome")? {
        Value::Null => None,
        o => Some(QueryOutcome {
            count: o.get("count")?.as_u64()?,
            work: o.get("work")?.as_f64()?,
            wall_ns: o.get("wall_ns")?.as_u64()?,
        }),
    };
    Some(QueryTrace {
        query: str_field(v, "query")?,
        driver: opt_str_field(v, "driver"),
        decision_ns: v.get("decision_ns").and_then(Value::as_u64),
        phases,
        planner,
        exec,
        guard,
        cache,
        reopt,
        outcome,
        event_cap: crate::trace::DEFAULT_EVENT_CAP,
        // Absent in traces exported before event caps existed.
        events_dropped: v.get("events_dropped").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// Serialize records as JSONL: one compact JSON object per line.
pub fn write_jsonl_with<T>(items: &[T], to_json: impl Fn(&T) -> Value) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&to_json(item).to_compact());
        out.push('\n');
    }
    out
}

/// Parse a JSONL document of records. Blank lines are skipped; a line
/// that is not JSON or that `from_json` rejects fails the whole parse.
pub fn parse_jsonl_with<T>(input: &str, from_json: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
    input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| from_json(&serde_json::from_str(l).ok()?))
        .collect()
}

/// Serialize traces as JSONL: one compact JSON object per line.
pub fn write_jsonl(traces: &[QueryTrace]) -> String {
    write_jsonl_with(traces, trace_to_json)
}

/// Parse a JSONL document produced by [`write_jsonl`]. Blank lines are
/// skipped; a malformed line makes the whole parse fail.
pub fn parse_jsonl(input: &str) -> Option<Vec<QueryTrace>> {
    parse_jsonl_with(input, trace_from_json)
}

/// Crash-safe file write: the content is produced into a sibling temp
/// file which is atomically renamed over `path` only after a successful
/// write, so a panic or error mid-export can never leave a torn file —
/// readers see either the previous complete content or the new one.
/// On any error the temp file is removed and the destination is
/// untouched.
pub fn atomic_write_with<F>(path: &std::path::Path, produce: F) -> std::io::Result<()>
where
    F: FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
{
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    // Temp name derived from the destination (same directory, so the
    // rename cannot cross filesystems and stays atomic). The pid keeps
    // concurrent exporters from clobbering each other's temp.
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "export".to_string());
    tmp_name.push_str(&format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        produce(&mut file)?;
        use std::io::Write;
        file.flush()?;
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_write_with`] for ready-made string content.
pub fn atomic_write(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    atomic_write_with(path, |w| w.write_all(contents.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> QueryTrace {
        let mut t = QueryTrace::new("SELECT * FROM t0, t1 WHERE t0.a = t1.b");
        t.driver = Some("BaoDriver".into());
        t.decision_ns = Some(1_234_567);
        t.record_phase("parse", 10_000);
        t.record_phase("plan", 2_000_000);
        t.record_phase("execute", 9_000_000);
        t.planner.algo = Some("dp".into());
        t.planner.subproblems = 6;
        t.planner.cost_evals = 14;
        t.planner.card_source = Some("true".into());
        t.planner.hints = Some("algos=hash,nl dp_limit=12".into());
        t.planner.chosen_cost = Some(512.25);
        t.planner.card_lookups.push(CardLookup {
            tables: 0b11,
            est_rows: 42.5,
        });
        t.exec.operators.push(OperatorEvent {
            op: "HashJoin".into(),
            tables: 0b11,
            true_rows: 40,
            est_rows: Some(42.5),
            work: 123.0,
        });
        t.exec.timeout = false;
        t.guard.push(GuardEvent {
            component: "card:learned".into(),
            fault: "nan".into(),
            action: "fallback:traditional".into(),
        });
        t.cache.push(CacheEvent {
            cache: "plan".into(),
            event: "hit".into(),
            detail: "epoch=3".into(),
        });
        t.reopt.push(ReoptEvent {
            tables: 0b11,
            observed_rows: 4000,
            est_rows: 40.0,
            q_error: 100.0,
            action: "switch".into(),
            replan_work: 12.5,
            old_cost: Some(9000.0),
            new_cost: Some(800.0),
        });
        t.outcome = Some(QueryOutcome {
            count: 40,
            work: 321.5,
            wall_ns: 11_000_000,
        });
        t
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let mut minimal = QueryTrace::new("bare");
        minimal.exec.timeout = true;
        let traces = vec![sample_trace(), minimal];
        let text = write_jsonl(&traces);
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).expect("parse");
        assert_eq!(back, traces);
    }

    #[test]
    fn traces_without_cache_field_still_parse() {
        // Pre-cache exports had no "cache" array; they must round-trip
        // to an empty event list, not a parse failure.
        let mut with = sample_trace();
        let text = trace_to_json(&with).to_compact().replace(
            ",\"cache\":[{\"cache\":\"plan\",\"event\":\"hit\",\"detail\":\"epoch=3\"}]",
            "",
        );
        assert!(!text.contains("\"cache\""), "field not stripped: {text}");
        let back = trace_from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        with.cache.clear();
        assert_eq!(back, with);
    }

    #[test]
    fn traces_without_reopt_field_still_parse() {
        // Pre-reopt exports had no "reopt" array; they must round-trip
        // to an empty event list, not a parse failure.
        let mut with = sample_trace();
        let json = trace_to_json(&with).to_compact();
        let needle = ",\"reopt\":[";
        let start = json.find(needle).expect("reopt field present");
        let end = json[start..].find("}]").map(|i| start + i + 2).unwrap();
        let text = format!("{}{}", &json[..start], &json[end..]);
        assert!(!text.contains("\"reopt\""), "field not stripped: {text}");
        let back = trace_from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        with.reopt.clear();
        assert_eq!(back, with);
    }

    #[test]
    fn schema_version_stamped_and_gated() {
        let t = sample_trace();
        let v = trace_to_json(&t);
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(TRACE_SCHEMA_VERSION)
        );
        // Unversioned (legacy) lines still parse; future versions do not.
        let text = v.to_compact();
        let legacy = text.replace(&format!("\"schema_version\":{TRACE_SCHEMA_VERSION},"), "");
        assert!(!legacy.contains("schema_version"));
        assert_eq!(
            trace_from_json(&serde_json::from_str(&legacy).unwrap()).unwrap(),
            t
        );
        let future = text.replace(
            &format!("\"schema_version\":{TRACE_SCHEMA_VERSION},"),
            &format!("\"schema_version\":{},", TRACE_SCHEMA_VERSION + 1),
        );
        assert!(trace_from_json(&serde_json::from_str(&future).unwrap()).is_none());
    }

    #[test]
    fn events_dropped_round_trips_and_absent_reads_zero() {
        let mut t = sample_trace();
        t.events_dropped = 4;
        let line = trace_to_json(&t).to_compact();
        assert!(line.contains("\"events_dropped\":4"));
        let back = trace_from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back.events_dropped, 4);
        assert_eq!(back, t);
        // Pre-cap exports lack the field entirely: reads as zero.
        let absent = line.replace("\"events_dropped\":4,", "");
        let old = trace_from_json(&serde_json::from_str(&absent).unwrap()).unwrap();
        assert_eq!(old.events_dropped, 0);
    }

    /// `name` inside a directory of its own: tests run in parallel, and
    /// one test's leftover-temp scan must not see another's in-flight
    /// temp file.
    fn scratch_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lqo-obs-export-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn atomic_write_replaces_content_atomically() {
        let path = scratch_path("traces.jsonl");
        atomic_write(&path, "first\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");
        atomic_write(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn atomic_write_with_injected_fault_leaves_original_intact() {
        let path = scratch_path("faulty.jsonl");
        atomic_write(&path, "intact\n").unwrap();
        // Serialization fault halfway through producing the new content:
        // some bytes are written, then the producer errors out.
        let err = atomic_write_with(&path, |w| {
            w.write_all(b"torn half-line with no newline")?;
            Err(std::io::Error::other("injected serialization fault"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "injected serialization fault");
        // The destination still holds the previous complete content and
        // no temp file is left behind.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "intact\n");
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn blank_lines_skipped_bad_lines_fail() {
        let text = write_jsonl(&[sample_trace()]) + "\n\n";
        assert_eq!(parse_jsonl(&text).unwrap().len(), 1);
        assert!(parse_jsonl("not json\n").is_none());
        assert!(parse_jsonl("{\"query\":\"x\"}\n").is_none());
    }
}
