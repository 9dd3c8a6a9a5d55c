//! What one run of one workload produces, and the result line the
//! driver reads.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, trimmed_mean};
use std::collections::BTreeMap;

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations the run attempted (requests submitted in the window).
    pub attempted: u64,
    /// Attempted operations that did not complete.
    pub failed: u64,
    /// Violated correctness or generator-fidelity checks; empty on a
    /// valid run.
    pub violations: Vec<String>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name; unset names read as 0 (the layer
    /// or event does not occur on this workload).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Sample counts and other context, for the person reading stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Folds the rounds of one run: operations and violations add up,
    /// every metric is the median over the rounds that report it —
    /// except the end-to-end metrics the table gives a `mean_trim`.
    pub fn median_of(rounds: Vec<Outcome>) -> Outcome {
        let fold = |name: &str, values: &[f64]| match END_TO_END
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.mean_trim)
        {
            Some(trim) => trimmed_mean(values, trim),
            None => median(values),
        };
        let mut out = Outcome::default();
        let mut end_to_end: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut per_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, round) in rounds.into_iter().enumerate() {
            out.attempted += round.attempted;
            out.failed += round.failed;
            out.violations.extend(round.violations.into_iter().map(|v| format!("round {i}: {v}")));
            out.notes.extend(round.notes.into_iter().map(|n| format!("round {i}: {n}")));
            for (name, value) in round.end_to_end {
                end_to_end.entry(name).or_default().push(value);
            }
            for (name, value) in round.per_layer {
                per_layer.entry(name).or_default().push(value);
            }
        }
        out.end_to_end = end_to_end.into_iter().map(|(k, v)| (k, fold(k, &v))).collect();
        out.per_layer = per_layer.into_iter().map(|(k, v)| (k, median(&v))).collect();
        out
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(END_TO_END.iter().any(|m| m.name == name), "unknown end-to-end metric {name}");
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown per-layer metric {name}");
        self.per_layer.insert(name, value);
    }

    /// Records `what` as a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The one-line JSON object the contract asks for: every end-to-end
    /// metric when `trace` is off, every per-layer metric when it is on.
    pub fn result_line(&mut self, trace: bool) -> String {
        let mut metrics = Vec::new();
        if trace {
            for m in PER_LAYER {
                let value = self.per_layer.get(m.name).copied().unwrap_or(0.0);
                self.check(value.is_finite(), || format!("{} is not finite", m.name));
                metrics.push((m.name, value, m.unit));
            }
        } else {
            for m in END_TO_END {
                let value = self.end_to_end.get(m.name).copied().unwrap_or(f64::NAN);
                // A missing or zero end-to-end value means the run did
                // not measure what it claims to.
                self.check(value.is_finite() && value > 0.0, || {
                    format!("{} is {value}, not a positive number", m.name)
                });
                metrics.push((m.name, value, m.unit));
            }
        }
        let metric = |(name, value, unit): (&str, f64, &str)| {
            let value = if value.is_finite() { value } else { -1.0 };
            (name.to_string(), Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        };
        Json::obj([
            ("correct", Json::Bool(self.violations.is_empty())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics.into_iter().map(metric).collect())),
        ])
        .to_string()
    }
}
