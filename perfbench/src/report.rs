//! What one run prints: human-readable lines, then one JSON object.

use std::fmt::Write as _;

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json` when it is gated).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Items checked: packets injected, ops issued, flows placed,
    /// scenarios run.
    pub attempted: u64,
    /// Items that failed their check.
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub json: Vec<Metric>,
    /// Everything else, printed by name and unit before the JSON line.
    pub detail: Vec<Metric>,
    /// Free-form lines (input digests, sample counts, failures).
    pub notes: Vec<String>,
    /// Failed checks; the run is correct when there are none.
    pub problems: Vec<String>,
}

impl Report {
    /// Adds a metric to the JSON line (and the printed table).
    pub fn gate(&mut self, name: &str, unit: &'static str, value: f64) {
        self.json.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Adds a printed-only metric.
    pub fn show(&mut self, name: &str, unit: &'static str, value: f64) {
        self.detail.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// The human-readable lines.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for m in self.json.iter().chain(&self.detail) {
            let _ = writeln!(out, "{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            let _ = writeln!(out, "FAIL {p}");
        }
        out
    }

    /// The final JSON line. A non-finite value cannot be written as a JSON
    /// number: it is written as -1 and the run is marked incorrect.
    pub fn json_line(&self) -> String {
        let finite = self.json.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && finite,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.json.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
