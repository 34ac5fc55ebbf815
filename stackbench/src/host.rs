//! Host speed: a fixed reference computation timed between the
//! operations of `explore_grid` and `paper_cold`.
//!
//! On a shared virtual machine the same exploration runs up to 1.7×
//! slower for minutes at a time when a neighbour's load changes, and CPU
//! time slows with wall time, so the slowdown is the host's, not the
//! program's. `explore_grid` and `paper_cold` time [`reference_ms`] in
//! each gap between their set-ups and operations (explorations;
//! experiments of the cold run) and divide each one by its host factor
//! (the median of the timings just before and just after it, over
//! [`NOMINAL_MS`]), so its timings read as on the reference host in its
//! fast phase. The reference is the benchmark's own code and calls
//! nothing in the program: a change to the program moves the workload's
//! timings and leaves the factor alone.
//!
//! The reference is a conjugate-gradient solve on the thermal solver's
//! test-scale grid: single-thread, cache-resident floating point, like
//! the explorations it is timed between. Its time tracked the thermal
//! solves sample by sample (correlation 0.70 across a 1.7× slowdown),
//! better than a random-access kernel did (see `stackbench/README.md` for
//! why `serve_mixed` reports raw times).

use std::hint::black_box;
use std::time::Instant;

/// [`reference_ms`] on the reference host (a shared 2-vCPU Xeon virtual
/// machine) in its fast phase.
pub const NOMINAL_MS: f64 = 30.0;

/// Grid of the reference conjugate-gradient solve: 40 × 40 × 12 cells,
/// the thermal solver's test-scale grid (cache-resident f64 vectors).
const NX: usize = 40;
const NZ: usize = 12;
const CG_ITERS: usize = 300;

fn laplacian(x: &[f64], out: &mut [f64]) {
    let plane = NX * NX;
    for (i, o) in out.iter_mut().enumerate() {
        let (col, row) = (i % NX, i / NX % NX);
        let mut v = 6.5 * x[i];
        if col > 0 {
            v -= x[i - 1];
        }
        if col + 1 < NX {
            v -= x[i + 1];
        }
        if row > 0 {
            v -= x[i - NX];
        }
        if row + 1 < NX {
            v -= x[i + NX];
        }
        if i >= plane {
            v -= x[i - plane];
        }
        if i + plane < x.len() {
            v -= x[i + plane];
        }
        *o = v;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One timing of the reference computation, in ms: a fixed number of
/// CG iterations on a 7-point operator.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let n = NX * NX * NZ;
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut x = vec![0.0f64; n];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut ap = vec![0.0f64; n];
    let mut rr = dot(&r, &r);
    for _ in 0..CG_ITERS {
        laplacian(&p, &mut ap);
        let alpha = rr / dot(&p, &ap).max(f64::MIN_POSITIVE);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let next = dot(&r, &r);
        let beta = next / rr.max(f64::MIN_POSITIVE);
        rr = next;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    black_box(&x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Reference timings in each gap between two operations.
const SAMPLES: usize = 2;

/// The reference timings taken between one run's operations.
#[derive(Debug, Default)]
pub struct Host {
    /// The timings taken since the last operation ended.
    recent: Vec<f64>,
    /// Each timed operation's host factor.
    factors: Vec<f64>,
    samples: usize,
}

impl Host {
    fn sample(&mut self) -> Vec<f64> {
        self.samples += SAMPLES;
        (0..SAMPLES).map(|_| reference_ms()).collect()
    }

    /// Runs `f` between two sets of reference timings and returns its
    /// result, its duration in ms, and that duration divided by its host
    /// factor: the median of the timings just before and just after it
    /// over [`NOMINAL_MS`]. Consecutive operations share the timings
    /// between them.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        if self.recent.is_empty() {
            self.recent = self.sample();
        }
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let after = self.sample();
        let mut around = std::mem::replace(&mut self.recent, after);
        around.extend_from_slice(&self.recent);
        let factor = crate::stats::median(&around) / NOMINAL_MS;
        self.factors.push(factor);
        (out, ms, ms / factor)
    }

    /// One line describing the run's host factors.
    pub fn summary(&self) -> String {
        if self.factors.is_empty() {
            return "host factor: nothing timed".to_string();
        }
        let min = self.factors.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.factors.iter().copied().fold(0.0, f64::max);
        format!(
            "host factor: median {:.4}, range {min:.4}-{max:.4} over {} operations \
             ({} reference timings, nominal {NOMINAL_MS} ms)",
            crate::stats::median(&self.factors),
            self.factors.len(),
            self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_operation_is_divided_by_the_timings_around_it() {
        let mut host = Host::default();
        let (out, raw, scaled) = host.time(|| 7);
        assert_eq!(out, 7);
        assert_eq!((host.factors.len(), host.samples), (1, 2 * SAMPLES));
        assert!((scaled * host.factors[0] - raw).abs() < 1e-9);
        // the next operation shares the timings between the two
        host.time(|| ());
        assert_eq!((host.factors.len(), host.samples), (2, 3 * SAMPLES));
        assert!(host.factors.iter().all(|f| *f > 0.0));
    }
}
