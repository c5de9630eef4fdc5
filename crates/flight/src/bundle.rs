//! Incident bundles: self-contained postmortem records captured when a
//! severity trigger fires, exported as JSONL (`schema_version`
//! `FLIGHT=1`).
//!
//! A bundle carries everything needed to explain one incident offline:
//! the last N ring events around the trigger (globally sequenced and
//! query-correlated), the offending query's full [`QueryTrace`], the
//! metrics-counter delta over the incident query, the query's profiler
//! folded stack, and the recorder's per-producer drop counters at
//! capture time (so a reader knows whether the timeline has holes).

use lqo_obs::export::{parse_jsonl_with, trace_from_json, trace_to_json, write_jsonl_with};
use lqo_obs::trace::QueryTrace;
use serde_json::Value;

use crate::event::{FlightEvent, FlightRecord, Producer};

/// Schema version stamped on every exported bundle. Readers accept
/// absent or older versions and reject newer ones.
pub const FLIGHT_SCHEMA_VERSION: u64 = 1;

/// One captured incident.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentBundle {
    /// Bundle id, unique within the recording context.
    pub id: u64,
    /// What fired (e.g. `"breaker-open:card:learned"`,
    /// `"worker-fault:HashJoin"`, `"reopt-switch"`).
    pub trigger: String,
    /// Id of the offending query (correlates with
    /// [`FlightRecord::query_id`]).
    pub query_id: u64,
    /// The offending query's text or label.
    pub query: String,
    /// The last N ring events at trigger time, oldest first (global
    /// sequence order).
    pub events: Vec<FlightRecord>,
    /// Per-producer events lost before capture (capacity overwrites +
    /// contention drops); only non-zero entries, producer-name keyed.
    pub dropped: Vec<(String, u64)>,
    /// The offending query's full trace, when the query ran under an
    /// enabled `ObsContext`.
    pub trace: Option<QueryTrace>,
    /// Metrics-counter deltas over the incident query (counter name →
    /// increase since the query began), name-sorted, zero deltas
    /// omitted.
    pub metrics_delta: Vec<(String, u64)>,
    /// The query's profiler folded stack, when a `ProfContext` was
    /// attached.
    pub prof_folded: Option<String>,
}

impl IncidentBundle {
    /// Structural well-formedness: non-empty trigger and query label,
    /// ring events in strictly increasing global-sequence order, and
    /// each producer's events in strictly increasing per-producer
    /// order. This is the invariant the E9d chaos sweep asserts on
    /// every captured bundle.
    pub fn is_well_formed(&self) -> bool {
        if self.trigger.is_empty() || self.query.is_empty() || self.query_id == 0 {
            return false;
        }
        let mut last_seq: Option<u64> = None;
        let mut last_pseq: [Option<u64>; crate::event::NUM_PRODUCERS] = Default::default();
        for r in &self.events {
            if last_seq.is_some_and(|s| r.seq <= s) {
                return false;
            }
            last_seq = Some(r.seq);
            let p = r.producer.index();
            if last_pseq[p].is_some_and(|s| r.producer_seq <= s) {
                return false;
            }
            last_pseq[p] = Some(r.producer_seq);
        }
        true
    }
}

fn u64_value(v: u64) -> Value {
    if v <= i64::MAX as u64 {
        Value::Int(v as i64)
    } else {
        Value::Float(v as f64)
    }
}

fn event_to_json(e: &FlightEvent) -> Value {
    let mut fields = vec![("kind".to_string(), Value::String(e.kind().to_string()))];
    match e {
        FlightEvent::Span { name, begin } => {
            fields.push(("name".into(), Value::String(name.clone())));
            fields.push(("begin".into(), Value::Bool(*begin)));
        }
        FlightEvent::Guard {
            component,
            fault,
            action,
        } => {
            fields.push(("component".into(), Value::String(component.clone())));
            fields.push(("fault".into(), Value::String(fault.clone())));
            fields.push(("action".into(), Value::String(action.clone())));
        }
        FlightEvent::WatchAlarm {
            metric,
            health,
            detail,
        } => {
            fields.push(("metric".into(), Value::String(metric.clone())));
            fields.push(("health".into(), Value::String(health.clone())));
            fields.push(("detail".into(), Value::String(detail.clone())));
        }
        FlightEvent::Cache {
            cache,
            event,
            detail,
        } => {
            fields.push(("cache".into(), Value::String(cache.clone())));
            fields.push(("event".into(), Value::String(event.clone())));
            fields.push(("detail".into(), Value::String(detail.clone())));
        }
        FlightEvent::Reopt {
            tables,
            action,
            q_error,
        } => {
            fields.push(("tables".into(), u64_value(*tables)));
            fields.push(("action".into(), Value::String(action.clone())));
            fields.push(("q_error".into(), Value::Float(*q_error)));
        }
        FlightEvent::BudgetTrip { component, budget } => {
            fields.push(("component".into(), Value::String(component.clone())));
            fields.push(("budget".into(), Value::Float(*budget)));
        }
        FlightEvent::Breaker { component, state } => {
            fields.push(("component".into(), Value::String(component.clone())));
            fields.push(("state".into(), Value::String(state.clone())));
        }
        FlightEvent::WorkerFault { op, action } => {
            fields.push(("op".into(), Value::String(op.clone())));
            fields.push(("action".into(), Value::String(action.clone())));
        }
        FlightEvent::EpochBump { epoch, detail } => {
            fields.push(("epoch".into(), u64_value(*epoch)));
            fields.push(("detail".into(), Value::String(detail.clone())));
        }
    }
    Value::Object(fields)
}

fn str_field(v: &Value, key: &str) -> Option<String> {
    v.get(key)?.as_str().map(str::to_string)
}

fn event_from_json(v: &Value) -> Option<FlightEvent> {
    match v.get("kind")?.as_str()? {
        "span" => Some(FlightEvent::Span {
            name: str_field(v, "name")?,
            begin: v.get("begin")?.as_bool()?,
        }),
        "guard" => Some(FlightEvent::Guard {
            component: str_field(v, "component")?,
            fault: str_field(v, "fault")?,
            action: str_field(v, "action")?,
        }),
        "watch-alarm" => Some(FlightEvent::WatchAlarm {
            metric: str_field(v, "metric")?,
            health: str_field(v, "health")?,
            detail: str_field(v, "detail")?,
        }),
        "cache" => Some(FlightEvent::Cache {
            cache: str_field(v, "cache")?,
            event: str_field(v, "event")?,
            detail: str_field(v, "detail")?,
        }),
        "reopt" => Some(FlightEvent::Reopt {
            tables: v.get("tables")?.as_u64()?,
            action: str_field(v, "action")?,
            q_error: v.get("q_error")?.as_f64()?,
        }),
        "budget-trip" => Some(FlightEvent::BudgetTrip {
            component: str_field(v, "component")?,
            budget: v.get("budget")?.as_f64()?,
        }),
        "breaker" => Some(FlightEvent::Breaker {
            component: str_field(v, "component")?,
            state: str_field(v, "state")?,
        }),
        "worker-fault" => Some(FlightEvent::WorkerFault {
            op: str_field(v, "op")?,
            action: str_field(v, "action")?,
        }),
        "epoch-bump" => Some(FlightEvent::EpochBump {
            epoch: v.get("epoch")?.as_u64()?,
            detail: str_field(v, "detail")?,
        }),
        _ => None,
    }
}

fn record_to_json(r: &FlightRecord) -> Value {
    Value::Object(vec![
        ("seq".into(), u64_value(r.seq)),
        ("producer".into(), Value::String(r.producer.name().into())),
        ("producer_seq".into(), u64_value(r.producer_seq)),
        ("query_id".into(), u64_value(r.query_id)),
        ("event".into(), event_to_json(&r.event)),
    ])
}

fn record_from_json(v: &Value) -> Option<FlightRecord> {
    Some(FlightRecord {
        seq: v.get("seq")?.as_u64()?,
        producer: Producer::from_name(v.get("producer")?.as_str()?)?,
        producer_seq: v.get("producer_seq")?.as_u64()?,
        query_id: v.get("query_id")?.as_u64()?,
        event: event_from_json(v.get("event")?)?,
    })
}

/// Encode one bundle as a JSON object (one JSONL line once compacted).
pub fn bundle_to_json(b: &IncidentBundle) -> Value {
    Value::Object(vec![
        ("schema_version".into(), u64_value(FLIGHT_SCHEMA_VERSION)),
        ("id".into(), u64_value(b.id)),
        ("trigger".into(), Value::String(b.trigger.clone())),
        ("query_id".into(), u64_value(b.query_id)),
        ("query".into(), Value::String(b.query.clone())),
        (
            "events".into(),
            Value::Array(b.events.iter().map(record_to_json).collect()),
        ),
        (
            "dropped".into(),
            Value::Object(
                b.dropped
                    .iter()
                    .map(|(p, n)| (p.clone(), u64_value(*n)))
                    .collect(),
            ),
        ),
        (
            "trace".into(),
            match &b.trace {
                Some(t) => trace_to_json(t),
                None => Value::Null,
            },
        ),
        (
            "metrics_delta".into(),
            Value::Object(
                b.metrics_delta
                    .iter()
                    .map(|(k, v)| (k.clone(), u64_value(*v)))
                    .collect(),
            ),
        ),
        (
            "prof_folded".into(),
            match &b.prof_folded {
                Some(s) => Value::String(s.clone()),
                None => Value::Null,
            },
        ),
    ])
}

/// Decode one bundle; `None` on shape mismatch or a schema version
/// newer than this reader understands (absent versions are accepted).
pub fn bundle_from_json(v: &Value) -> Option<IncidentBundle> {
    if let Some(ver) = v.get("schema_version").and_then(Value::as_u64) {
        if ver > FLIGHT_SCHEMA_VERSION {
            return None;
        }
    }
    let events = v
        .get("events")?
        .as_array()?
        .iter()
        .map(record_from_json)
        .collect::<Option<Vec<_>>>()?;
    let obj_pairs = |val: &Value| -> Option<Vec<(String, u64)>> {
        match val {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, n)| Some((k.clone(), n.as_u64()?)))
                .collect(),
            _ => None,
        }
    };
    let trace = match v.get("trace")? {
        Value::Null => None,
        t => Some(trace_from_json(t)?),
    };
    Some(IncidentBundle {
        id: v.get("id")?.as_u64()?,
        trigger: str_field(v, "trigger")?,
        query_id: v.get("query_id")?.as_u64()?,
        query: str_field(v, "query")?,
        events,
        dropped: obj_pairs(v.get("dropped")?)?,
        trace,
        metrics_delta: obj_pairs(v.get("metrics_delta")?)?,
        prof_folded: v
            .get("prof_folded")
            .and_then(Value::as_str)
            .map(String::from),
    })
}

/// Serialize bundles as JSONL, one self-contained bundle per line.
pub fn write_bundles_jsonl(bundles: &[IncidentBundle]) -> String {
    write_jsonl_with(bundles, bundle_to_json)
}

/// Parse a JSONL bundle export; `None` if any non-blank line fails.
pub fn parse_bundles_jsonl(input: &str) -> Option<Vec<IncidentBundle>> {
    parse_jsonl_with(input, bundle_from_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> IncidentBundle {
        let mut trace = QueryTrace::new("SELECT COUNT(*) FROM t0, t1");
        trace.push_guard(lqo_obs::trace::GuardEvent {
            component: "card:learned".into(),
            fault: "panic".into(),
            action: "fallback:traditional".into(),
        });
        IncidentBundle {
            id: 1,
            trigger: "breaker-open:card:learned".into(),
            query_id: 3,
            query: "SELECT COUNT(*) FROM t0, t1".into(),
            events: vec![
                FlightRecord {
                    seq: 10,
                    producer: Producer::Pilot,
                    producer_seq: 4,
                    query_id: 3,
                    event: FlightEvent::Span {
                        name: "query".into(),
                        begin: true,
                    },
                },
                FlightRecord {
                    seq: 11,
                    producer: Producer::Guard,
                    producer_seq: 0,
                    query_id: 3,
                    event: FlightEvent::Breaker {
                        component: "card:learned".into(),
                        state: "open".into(),
                    },
                },
                FlightRecord {
                    seq: 14,
                    producer: Producer::Guard,
                    producer_seq: 1,
                    query_id: 3,
                    event: FlightEvent::BudgetTrip {
                        component: "exec".into(),
                        budget: 1.5e4,
                    },
                },
            ],
            dropped: vec![("exec".into(), 2)],
            trace: Some(trace),
            metrics_delta: vec![
                ("lqo.exec.queries".into(), 1),
                ("lqo.guard.breaker_opens".into(), 1),
            ],
            prof_folded: Some("execute 120\nexecute;Scan 40\n".into()),
        }
    }

    #[test]
    fn bundle_round_trips_losslessly() {
        let b = sample_bundle();
        let line = write_bundles_jsonl(std::slice::from_ref(&b));
        assert_eq!(line.lines().count(), 1);
        let back = parse_bundles_jsonl(&line).expect("parse");
        assert_eq!(back, vec![b]);
    }

    #[test]
    fn every_event_kind_round_trips() {
        let kinds = vec![
            FlightEvent::Span {
                name: "plan.optimize".into(),
                begin: false,
            },
            FlightEvent::Guard {
                component: "c".into(),
                fault: "nan".into(),
                action: "fallback:native".into(),
            },
            FlightEvent::WatchAlarm {
                metric: "card".into(),
                health: "drifted".into(),
                detail: "psi=0.4".into(),
            },
            FlightEvent::Cache {
                cache: "plan".into(),
                event: "invalidate".into(),
                detail: "epoch".into(),
            },
            FlightEvent::Reopt {
                tables: 0b101,
                action: "switch".into(),
                q_error: 9.5,
            },
            FlightEvent::BudgetTrip {
                component: "exec".into(),
                budget: 4.0e4,
            },
            FlightEvent::Breaker {
                component: "driver:bao".into(),
                state: "closed".into(),
            },
            FlightEvent::WorkerFault {
                op: "HashJoin".into(),
                action: "fallback:serial".into(),
            },
            FlightEvent::EpochBump {
                epoch: 7,
                detail: "stats-refresh".into(),
            },
        ];
        for e in kinds {
            let back = event_from_json(&event_to_json(&e)).expect("round trip");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn newer_schema_is_rejected_absent_is_accepted() {
        let b = sample_bundle();
        let line = bundle_to_json(&b).to_compact();
        let newer = line.replace(
            "\"schema_version\":1",
            &format!("\"schema_version\":{}", FLIGHT_SCHEMA_VERSION + 1),
        );
        assert!(parse_bundles_jsonl(&newer).is_none());
        let absent = line.replace("\"schema_version\":1,", "");
        assert_eq!(parse_bundles_jsonl(&absent).expect("parse"), vec![b]);
    }

    #[test]
    fn well_formedness_catches_seq_disorder() {
        let mut b = sample_bundle();
        assert!(b.is_well_formed());
        b.events.swap(1, 2);
        assert!(!b.is_well_formed());
        let mut empty_trigger = sample_bundle();
        empty_trigger.trigger.clear();
        assert!(!empty_trigger.is_well_formed());
        // Per-producer disorder with global seqs still increasing.
        let mut pseq = sample_bundle();
        pseq.events[2].producer_seq = 0;
        assert!(!pseq.is_well_formed());
    }
}
