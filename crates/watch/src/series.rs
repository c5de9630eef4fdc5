//! Model-health time series: one JSONL sample per observation tick.
//!
//! The monitor appends a [`SamplePoint`] per component at a configurable
//! stride; the series is the data behind the dashboard's sparklines and
//! is exported as JSONL (one compact object per line) so external tools
//! can tail it. The round trip `parse_series_jsonl(write_series_jsonl(s))
//! == s` holds for every finite field.
//!
//! The series is bounded: when it reaches its cap it drops every other
//! point of each component and doubles the stride, so a long stream is
//! covered end to end by at most the cap's points, ever sparser.

use std::collections::BTreeMap;

use lqo_obs::export::{parse_jsonl_with, write_jsonl_with};
use serde_json::Value;

/// Schema version stamped on every exported series line. Readers accept
/// absent versions (pre-versioning exports) and any version up to this
/// one. The full schema registry lives in DESIGN.md §13.
pub const SERIES_SCHEMA_VERSION: u64 = 1;

/// One component's health sample at one point in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePoint {
    /// Component name (`"card:histogram"`, `"driver:bao"`, ...).
    pub component: String,
    /// Component-local observation index (1-based, monotone).
    pub seq: u64,
    /// Window median q-error.
    pub q50: f64,
    /// Window p95 q-error.
    pub q95: f64,
    /// Window max q-error.
    pub qmax: f64,
    /// Drift PSI score at this point (0 before warm-up).
    pub psi: f64,
    /// Drift KS score at this point (0 before warm-up).
    pub ks: f64,
    /// Calibration bias, log₂(predicted/actual).
    pub bias_log2: f64,
    /// Health code: 0 healthy, 1 degrading, 2 drifted.
    pub health: u8,
}

/// The monitor's series: at most `max` points, sampled every `stride`
/// observations of a component. Below the cap it is exactly the
/// fixed-stride series; at the cap it thins out (see [`Series::push`]).
#[derive(Debug, Clone)]
pub(crate) struct Series {
    points: Vec<SamplePoint>,
    stride: u64,
    max: usize,
}

impl Series {
    /// An empty series sampling every `sample_every` observations, capped
    /// at `max` points.
    pub(crate) fn new(sample_every: usize, max: usize) -> Series {
        Series {
            points: Vec::new(),
            stride: sample_every.max(1) as u64,
            max,
        }
    }

    /// Whether a component's `seq`-th observation is sampled.
    pub(crate) fn due(&self, seq: u64) -> bool {
        seq.is_multiple_of(self.stride)
    }

    /// Append a point. A full series first drops every other point of
    /// each component (keeping each one's first) and doubles the stride;
    /// if that frees nothing (no component has two points), the point is
    /// dropped instead.
    pub(crate) fn push(&mut self, point: SamplePoint) {
        if self.points.len() >= self.max && !self.decimate() {
            return;
        }
        self.points.push(point);
    }

    /// Keep each component's 1st, 3rd, 5th, … point and double the
    /// stride; returns whether any point went.
    fn decimate(&mut self) -> bool {
        let before = self.points.len();
        // Per component: whether its next point is kept.
        let mut keep_next: BTreeMap<String, bool> = BTreeMap::new();
        self.points
            .retain(|p| match keep_next.get_mut(&p.component) {
                Some(keep) => {
                    *keep = !*keep;
                    !*keep
                }
                None => {
                    keep_next.insert(p.component.clone(), false);
                    true
                }
            });
        let thinned = self.points.len() < before;
        if thinned {
            self.stride = self.stride.saturating_mul(2);
        }
        thinned
    }

    /// The retained points, in sampling order.
    pub(crate) fn points(&self) -> &[SamplePoint] {
        &self.points
    }

    /// The current sampling stride.
    #[cfg(test)]
    pub(crate) fn stride(&self) -> u64 {
        self.stride
    }
}

fn f(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { 0.0 })
}

/// Encode one sample as a JSON object.
pub fn sample_to_json(s: &SamplePoint) -> Value {
    Value::Object(vec![
        (
            "schema_version".into(),
            Value::Int(SERIES_SCHEMA_VERSION as i64),
        ),
        ("component".into(), Value::String(s.component.clone())),
        (
            "seq".into(),
            Value::Int(i64::try_from(s.seq).unwrap_or(i64::MAX)),
        ),
        ("q50".into(), f(s.q50)),
        ("q95".into(), f(s.q95)),
        ("qmax".into(), f(s.qmax)),
        ("psi".into(), f(s.psi)),
        ("ks".into(), f(s.ks)),
        ("bias_log2".into(), f(s.bias_log2)),
        ("health".into(), Value::Int(s.health as i64)),
    ])
}

/// Decode one sample; `None` on shape mismatch or on a schema version
/// newer than this reader understands (absent versions are accepted).
pub fn sample_from_json(v: &Value) -> Option<SamplePoint> {
    if let Some(ver) = v.get("schema_version").and_then(Value::as_u64) {
        if ver > SERIES_SCHEMA_VERSION {
            return None;
        }
    }
    Some(SamplePoint {
        component: v.get("component")?.as_str()?.to_string(),
        seq: v.get("seq")?.as_u64()?,
        q50: v.get("q50")?.as_f64()?,
        q95: v.get("q95")?.as_f64()?,
        qmax: v.get("qmax")?.as_f64()?,
        psi: v.get("psi")?.as_f64()?,
        ks: v.get("ks")?.as_f64()?,
        bias_log2: v.get("bias_log2")?.as_f64()?,
        health: u8::try_from(v.get("health")?.as_u64()?).ok()?,
    })
}

/// Serialize a series as JSONL, one sample per line.
pub fn write_series_jsonl(series: &[SamplePoint]) -> String {
    write_jsonl_with(series, sample_to_json)
}

/// Parse a JSONL series. Blank lines are skipped; any malformed line
/// fails the whole parse.
pub fn parse_series_jsonl(input: &str) -> Option<Vec<SamplePoint>> {
    parse_jsonl_with(input, sample_from_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> SamplePoint {
        SamplePoint {
            component: "card:histogram".into(),
            seq,
            q50: 1.5,
            q95: 12.25,
            qmax: 400.0,
            psi: 0.07,
            ks: 0.11,
            bias_log2: -0.5,
            health: 0,
        }
    }

    #[test]
    fn series_round_trips() {
        let series = vec![sample(1), sample(2), sample(3)];
        let text = write_series_jsonl(&series);
        assert_eq!(text.lines().count(), 3);
        assert_eq!(parse_series_jsonl(&text).expect("parse"), series);
        assert!(parse_series_jsonl("not json\n").is_none());
        assert_eq!(parse_series_jsonl("\n\n").unwrap().len(), 0);
    }

    #[test]
    fn series_schema_version_stamped_and_gated() {
        let text = sample_to_json(&sample(1)).to_compact();
        assert!(text.contains(&format!("\"schema_version\":{SERIES_SCHEMA_VERSION}")));
        // Legacy unversioned lines parse; future versions are rejected.
        let legacy = text.replace(&format!("\"schema_version\":{SERIES_SCHEMA_VERSION},"), "");
        assert_eq!(parse_series_jsonl(&legacy).unwrap(), vec![sample(1)]);
        let future = text.replace(
            &format!("\"schema_version\":{SERIES_SCHEMA_VERSION},"),
            &format!("\"schema_version\":{},", SERIES_SCHEMA_VERSION + 1),
        );
        assert!(parse_series_jsonl(&future).is_none());
    }
}
