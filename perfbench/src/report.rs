//! What a run prints: named metrics with units, the checks it made, and
//! the one-line JSON result that closes its standard output.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit (`s`, `ms`, `ns`, `MiB`, `ratio`, `count`, ...).
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// One correctness check and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything one invocation reports.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Metrics for the JSON line (end-to-end untraced, per-layer traced).
    pub metrics: Vec<Metric>,
    /// Figures printed for the reader only (context, not gated).
    pub notes: Vec<String>,
    /// Correctness checks made.
    pub checks: Vec<Check>,
    /// Jobs, sub-runs and run-level checks attempted.
    pub attempted: u64,
    /// Jobs and sub-runs that errored, hit a Deadline or failed a check,
    /// plus run-level checks that failed.
    pub failed: u64,
}

impl RunOutput {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Records a check. Each check counts as one attempt, and a check
    /// that fails counts as one failure.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push(Check {
            what: what.into(),
            ok,
        });
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check held and no job failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Share of attempted jobs, sub-runs and checks that failed.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The closing JSON object. Non-finite values (which JSON cannot
    /// carry) are written as 0 and make the run incorrect.
    pub fn json_line(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && finite,
            self.attempted.max(1),
            self.failed
        )
        .expect("writing to a String");
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                json_number(v),
                m.unit
            )
            .expect("writing to a String");
        }
        s.push_str("}}");
        s
    }
}

/// A finite float as a JSON number with every digit of Rust's shortest
/// round-trip formatting (`1.0`, `0.125`, `1.5e-7` are all valid JSON).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}
