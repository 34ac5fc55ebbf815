//! Order statistics and failure accounting shared by every workload.
//!
//! The tail rule: a timing's tail is the highest percentile that still
//! has at least ten samples beyond it. Below twenty samples no percentile
//! above the median qualifies, so the tail falls back to the (lower)
//! median — a small sample can never report its noisiest value as a tail.

/// Samples that must lie strictly beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail value and its percentile under the ≥10-beyond rule.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    let beyond = TAIL_BEYOND.min(n / 2);
    let idx = n - 1 - beyond;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "order statistic of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// How one attempted operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Completed, and its output passed every check.
    Ok,
    /// Turned away by admission control (`503` or `429`).
    Refused(u16),
    /// A bounded wait ran out before the result was ready (`202`).
    TimedOut,
    /// Completed, but the output failed a check.
    Wrong(String),
    /// Failed outright (transport error, error status, failed run).
    Error(String),
}

/// Attempted and failed operations of one run. Refusals, time-outs and
/// wrong answers all count as failures; only [`Outcome::Ok`] succeeds.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub refused: u64,
    pub timed_out: u64,
    pub wrong: u64,
    pub errors: u64,
    /// The first few failure descriptions, for the log.
    pub first_failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        let detail = match outcome {
            Outcome::Ok => return,
            Outcome::Refused(code) => {
                self.refused += 1;
                format!("refused with {code}")
            }
            Outcome::TimedOut => {
                self.timed_out += 1;
                "timed out (202)".to_string()
            }
            Outcome::Wrong(why) => {
                self.wrong += 1;
                format!("wrong output: {why}")
            }
            Outcome::Error(why) => {
                self.errors += 1;
                format!("error: {why}")
            }
        };
        if self.first_failures.len() < 5 {
            self.first_failures.push(detail);
        }
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.timed_out + self.wrong + self.errors
    }

    /// Failed over attempted; `0` before anything was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
        self.wrong += other.wrong;
        self.errors += other.errors;
        for f in &other.first_failures {
            if self.first_failures.len() < 5 {
                self.first_failures.push(f.clone());
            }
        }
    }
}

/// Classifies an HTTP status the way the failure accounting counts it.
pub fn classify_status(code: u16, body: &str) -> Outcome {
    match code {
        200 => Outcome::Ok,
        202 => Outcome::TimedOut,
        429 | 503 => Outcome::Refused(code),
        _ => Outcome::Error(format!("HTTP {code}: {}", body.trim())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // reversed so the helpers must sort
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond_it() {
        for n in [20, 21, 57, 300, 1000] {
            let v = ramp(n);
            let (value, pct) = tail(&v);
            let beyond = v.iter().filter(|x| **x > value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n}");
            // and no higher sample would still have ten beyond it
            let higher = v
                .iter()
                .filter(|x| **x > value)
                .fold(f64::MAX, |a, b| a.min(*b));
            assert!(v.iter().filter(|x| **x > higher).count() < TAIL_BEYOND);
            assert!((pct - 100.0 * (n - TAIL_BEYOND) as f64 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_of_300_is_p96_7() {
        let (value, pct) = tail(&ramp(300));
        assert_eq!(value, 290.0);
        assert!((pct - 96.666_666).abs() < 1e-3);
    }

    #[test]
    fn small_samples_fall_back_to_the_median_not_the_max() {
        assert_eq!(tail(&ramp(1)).0, 1.0);
        assert_eq!(tail(&ramp(2)).0, 1.0);
        assert_eq!(tail(&ramp(8)).0, 4.0);
        assert_eq!(tail(&ramp(19)).0, 10.0);
        // twenty is the first count where the standard rule applies
        assert_eq!(tail(&ramp(20)).0, 10.0);
    }

    #[test]
    fn refused_timed_out_and_wrong_all_count_as_failed() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Refused(503),
            Outcome::Refused(429),
            Outcome::TimedOut,
            Outcome::Wrong("bytes differ".into()),
            Outcome::Error("connection reset".into()),
            Outcome::Ok,
        ] {
            t.record(&o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed(), 5);
        assert_eq!((t.refused, t.timed_out, t.wrong, t.errors), (2, 1, 1, 1));
        assert!((t.failed_frac() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(t.first_failures.len(), 5);
    }

    #[test]
    fn an_all_ok_run_has_zero_failed_frac() {
        let mut t = Tally::default();
        t.record(&Outcome::Ok);
        assert_eq!(t.failed(), 0);
        assert_eq!(t.failed_frac(), 0.0);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn status_codes_map_onto_the_accounting() {
        assert_eq!(classify_status(200, ""), Outcome::Ok);
        assert_eq!(classify_status(202, ""), Outcome::TimedOut);
        assert_eq!(classify_status(503, ""), Outcome::Refused(503));
        assert_eq!(classify_status(429, ""), Outcome::Refused(429));
        assert!(matches!(classify_status(500, "boom"), Outcome::Error(_)));
        assert!(matches!(classify_status(404, ""), Outcome::Error(_)));
    }

    #[test]
    fn absorb_sums_two_tallies() {
        let mut a = Tally::default();
        a.record(&Outcome::Ok);
        let mut b = Tally::default();
        b.record(&Outcome::TimedOut);
        a.absorb(&b);
        assert_eq!((a.attempted, a.failed()), (2, 1));
    }
}
