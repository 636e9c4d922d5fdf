//! One workload run's result: operation counts, output-check failures and
//! metrics, printed as the benchmark's JSON result line.

use crate::layers::{per_layer, PER_LAYER};

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (fuzzed missions, missions flown, jobs).
    pub attempted: u64,
    /// Operations that failed: quarantined missions, refused or failed
    /// jobs, wire errors.
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a per-layer metric under its catalogue unit.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue (a bug in this crate).
    pub fn layer(&mut self, name: &str, value: f64) {
        let def = per_layer(name).unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        self.push(name, value, def.unit);
    }

    /// Records an output-check failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// `true` when every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Adds every catalogued per-layer metric this run did not measure,
    /// as 0: its layer does no work on this workload.
    pub fn fill_idle_layers(&mut self) {
        for def in PER_LAYER {
            if !self.metrics.iter().any(|(n, _, _)| n == def.name) {
                self.push(def.name, 0.0, def.unit);
            }
        }
    }

    /// The human-readable table: one metric per line, then any failed
    /// checks.
    pub fn table(&self, workload: &str) -> String {
        let mut out =
            format!("== {workload}: {} ops attempted, {} failed\n", self.attempted, self.failed);
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("  {name:<36} {value:>16.6} {unit}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("  CHECK FAILED: {p}\n"));
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Values keep every digit; a non-finite value fails the run instead
    /// of producing invalid JSON.
    pub fn json(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, v, _)| format!("{n} is not finite ({v})"))
            .collect();
        self.problems.extend(bad);
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".into());
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
