//! The result line every run ends with.

use crate::layers::Layers;
use crate::stats::Tally;

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub details: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Layers>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(tally: Tally) -> Self {
        Outcome {
            tally,
            metrics: Vec::new(),
            details: Vec::new(),
            layers: None,
        }
    }

    /// Add an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Add a human-readable line.
    pub fn detail(&mut self, line: String) {
        self.details.push(line);
    }

    /// Whether the run may print a result: something was attempted,
    /// the metrics the mode needs are all there, and every value is a
    /// finite number.
    pub fn complete(&self, traced: bool) -> bool {
        let rows_ok = |rows: &[(&str, f64, &str)]| rows.iter().all(|r| r.1.is_finite());
        self.tally.attempted > 0
            && if traced {
                self.layers.is_some()
            } else {
                !self.metrics.is_empty() && rows_ok(&self.metrics)
            }
    }

    /// The JSON result line: every end-to-end metric, or with `traced`
    /// every per-layer metric.
    pub fn into_json(self, traced: bool) -> String {
        let rows = if traced {
            self.layers.map(Layers::finish).unwrap_or_default()
        } else {
            self.metrics
        };
        let metrics: Vec<String> = rows
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}
