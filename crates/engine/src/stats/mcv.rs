//! Most-common-value lists.

use std::collections::HashMap;

use crate::types::Value;

/// The top-k most frequent values of a column with their frequencies
/// (fractions of the table). Equality selectivity checks the MCV list
/// first and falls back to `(1 - mcv_mass) / (ndv - k)` for the tail,
/// exactly as PostgreSQL's `eqsel` does.
#[derive(Debug, Clone, PartialEq)]
pub struct Mcv {
    /// `(value, frequency)` pairs sorted by descending frequency.
    entries: Vec<(Value, f64)>,
    /// Total probability mass covered by the list.
    mass: f64,
}

impl Mcv {
    /// Build the top-`k` list over integer data.
    pub fn build_i64(values: &[i64], k: usize) -> Mcv {
        let mut counts: HashMap<i64, usize> = HashMap::new();
        for &v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        Self::from_counts(counts, values.len(), k, Value::Int)
    }

    /// Build the top-`k` list over text data (by dictionary code, decoded).
    pub fn build_text(dict: &[String], codes: &[u32], k: usize) -> Mcv {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for &c in codes {
            *counts.entry(c).or_insert(0) += 1;
        }
        Self::from_counts(counts, codes.len(), k, |c| {
            Value::Text(dict[c as usize].clone())
        })
    }

    /// Most frequent first; equal counts in ascending key order, so the
    /// list (and every plan costed from it) does not depend on the
    /// per-process iteration order of `counts`.
    fn from_counts<K: Ord>(
        counts: HashMap<K, usize>,
        total: usize,
        k: usize,
        value: impl Fn(K) -> Value,
    ) -> Mcv {
        let mut pairs: Vec<(K, usize)> = counts.into_iter().collect();
        pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs.truncate(k);
        let total = total.max(1) as f64;
        let entries: Vec<(Value, f64)> = pairs
            .into_iter()
            .map(|(key, c)| (value(key), c as f64 / total))
            .collect();
        let mass = entries.iter().map(|(_, f)| f).sum();
        Mcv { entries, mass }
    }

    /// Frequency of `v` if it is in the list.
    pub fn frequency(&self, v: &Value) -> Option<f64> {
        self.entries.iter().find(|(e, _)| e == v).map(|(_, f)| *f)
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Probability mass covered by the list.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Iterate entries by descending frequency.
    pub fn entries(&self) -> &[(Value, f64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_ordering_and_mass() {
        // 6 zeros, 3 ones, 1 two.
        let vals = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 2];
        let mcv = Mcv::build_i64(&vals, 2);
        assert_eq!(mcv.len(), 2);
        assert_eq!(mcv.entries()[0].0, Value::Int(0));
        assert!((mcv.entries()[0].1 - 0.6).abs() < 1e-12);
        assert!((mcv.mass() - 0.9).abs() < 1e-12);
        assert_eq!(mcv.frequency(&Value::Int(2)), None);
    }

    #[test]
    fn text_mcv() {
        let dict = vec!["a".to_string(), "b".to_string()];
        let codes = vec![0, 0, 0, 1];
        let mcv = Mcv::build_text(&dict, &codes, 1);
        assert_eq!(mcv.frequency(&Value::Text("a".into())), Some(0.75));
    }

    #[test]
    fn ties_break_by_ascending_key() {
        // Every value occurs twice; the list keeps the smallest keys.
        let vals: Vec<i64> = (0..64).rev().flat_map(|v| [v, v]).collect();
        let mcv = Mcv::build_i64(&vals, 3);
        let kept: Vec<&Value> = mcv.entries().iter().map(|(v, _)| v).collect();
        assert_eq!(kept, [&Value::Int(0), &Value::Int(1), &Value::Int(2)]);
        let dict: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let mcv = Mcv::build_text(&dict, &[2, 1, 2, 1, 0], 1);
        assert_eq!(mcv.entries()[0].0, Value::Text("y".into()));
    }

    #[test]
    fn empty_input() {
        let mcv = Mcv::build_i64(&[], 4);
        assert!(mcv.is_empty());
        assert_eq!(mcv.mass(), 0.0);
    }
}
