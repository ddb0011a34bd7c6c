//! The one-line JSON record each harness invocation prints.

use crate::Fingerprint;
use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one harness invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// `timed` or `traced`.
    pub mode: &'static str,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Resolved settings the run used, for the record.
    pub settings: Vec<(&'static str, String)>,
    /// Repetitions attempted (warm-up included).
    pub attempted: u64,
    /// Repetitions that panicked or broke a check.
    pub failed: u64,
    /// Human-readable description of every breach.
    pub breaches: Vec<String>,
    /// Measurements.
    pub metrics: Vec<Metric>,
    /// Simulated outcome of the reference repetition.
    pub fingerprint: Option<Fingerprint>,
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    /// Whether every repetition passed every check.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.breaches.is_empty()
    }

    /// Record a failed repetition and why it failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.breaches.push(why);
    }

    /// The record as a single line of JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let settings: Vec<String> = self
            .settings
            .iter()
            .map(|(k, v)| format!("{}:{}", quoted(k), quoted(v)))
            .collect();
        let breaches: Vec<String> = self.breaches.iter().map(|b| quoted(b)).collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quoted(m.name),
                    number(m.value),
                    quoted(m.unit)
                )
            })
            .collect();
        let fingerprint = self.fingerprint.map_or("null".to_string(), |f| {
            format!(
                "{{\"cycles\":{},\"committed\":{},\"committed_equiv\":{},\
                 \"programs_completed\":{},\"mem_stalls\":{},\"vector_only_cycles\":{},\
                 \"l1_hit_rate\":{},\"dram_bytes\":{}}}",
                f.cycles,
                f.committed,
                f.committed_equiv,
                f.programs_completed,
                f.mem_stalls,
                f.vector_only_cycles,
                number(f.l1_hit_rate),
                f.dram_bytes
            )
        });
        format!(
            "{{\"mode\":{},\"workload\":{},\"seed\":{},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"settings\":{{{}}},\"breaches\":[{}],\"metrics\":{{{}}},\
             \"fingerprint\":{}}}",
            quoted(self.mode),
            quoted(&self.workload),
            self.seed,
            self.correct(),
            self.attempted,
            self.failed,
            settings.join(","),
            breaches.join(","),
            metrics.join(","),
            fingerprint
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_every_digit() {
        let mut o = Outcome {
            mode: "timed",
            workload: "w\"1".into(),
            seed: 3,
            ..Outcome::default()
        };
        o.metrics.push(metric("x", 0.1 + 0.2, "s"));
        o.metrics.push(metric("bad", f64::NAN, "s"));
        o.fail("line\nbreak".into());
        let j = o.to_json();
        assert!(j.contains("\"workload\":\"w\\\"1\""), "{j}");
        assert!(j.contains("\"value\":0.30000000000000004"), "{j}");
        assert!(j.contains("\"bad\":{\"value\":null"), "{j}");
        assert!(j.contains("line\\u000abreak"), "{j}");
        assert!(j.contains("\"correct\":false"), "{j}");
    }
}
