//! The run's human-readable table and its final one-line JSON result.

use crate::stats::Tally;

/// One reported metric with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// How the value was derived, when that is not obvious from the name.
    pub note: String,
}

/// Everything one benchmark invocation prints.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric_note(name, value, unit, samples, "");
    }

    pub fn metric_note(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("stackbench: check failed: {name}");
        }
        self.checks.push((name, ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.tally.failed() == 0
    }

    /// Prints the table, then the result object as the last line.
    pub fn print(&self) {
        println!(
            "{:<28} {:>16} {:<6} {:>7}  note",
            "metric", "value", "unit", "n"
        );
        for m in &self.metrics {
            println!("{}", format_line(m));
        }
        let t = &self.tally;
        println!(
            "failed_frac {:.6} (attempted {}, refused {}, timed_out {}, wrong {}, errors {})",
            t.failed_frac(),
            t.attempted,
            t.refused,
            t.timed_out,
            t.wrong,
            t.errors
        );
        for f in &t.first_failures {
            println!("  failure: {f}");
        }
        let passed = self.checks.iter().filter(|(_, ok)| *ok).count();
        println!("checks passed {passed}/{}", self.checks.len());
        for (name, ok) in &self.checks {
            if !ok {
                println!("  FAILED check: {name}");
            }
        }
        println!("{}", self.result_json());
    }

    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed(),
            metrics.join(", ")
        )
    }
}

/// One table row: name, value, unit and sample count side by side.
pub fn format_line(m: &Metric) -> String {
    format!(
        "{:<28} {:>16.6} {:<6} {:>7}  {}",
        m.name,
        m.value,
        m.unit,
        format!("n={}", m.samples),
        m.note
    )
}

/// Full-precision JSON number; non-finite values (which no metric should
/// produce) become `0` so the line always parses.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Outcome;

    #[test]
    fn every_table_line_shows_its_sample_count() {
        let mut r = Report::default();
        r.metric("latency_p50_ms", 23.5, "ms", 412);
        let line = format_line(&r.metrics[0]);
        assert!(line.contains("latency_p50_ms"));
        assert!(line.contains("ms"));
        assert!(line.contains("n=412"), "{line}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("wall_s", 31.25, "s", 1);
        r.tally.record(&Outcome::Ok);
        r.check("artifact decodes", true);
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 31.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_operation_or_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.tally.record(&Outcome::Refused(503));
        assert!(!r.correct());
        let mut r = Report::default();
        r.tally.record(&Outcome::Ok);
        r.check("bytes equal", false);
        assert!(!r.correct());
    }
}
