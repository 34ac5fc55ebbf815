//! Workload generation parameters.

use std::fmt;

/// A workload-parameter validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamsError {
    message: &'static str,
}

impl ParamsError {
    fn new(message: &'static str) -> Self {
        ParamsError { message }
    }
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload parameters: {}", self.message)
    }
}

impl std::error::Error for ParamsError {}

/// How big a trace to generate.
///
/// The paper collects one billion memory references per benchmark from a
/// full-system simulator; this reproduction generates algorithmically
/// equivalent address streams sized so that a full Fig. 5 sweep runs on one
/// machine in minutes while still exercising 4–64 MB caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny kernels for unit/integration tests (traces of a few thousand
    /// records; footprints of a few hundred KB).
    Test,
    /// Full evaluation scale (traces of a few million records; footprints
    /// from ~2 MB up to ~48 MB, matching each benchmark's Fig. 5 behaviour).
    #[default]
    Paper,
}

/// Parameters shared by all RMS workload generators.
///
/// Marked `#[non_exhaustive]`: construct with [`WorkloadParams::test`],
/// [`WorkloadParams::paper`] or [`WorkloadParams::builder`] so new fields
/// can be added without breaking downstream callers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct WorkloadParams {
    /// Generation scale.
    pub scale: Scale,
    /// Seed for the deterministic pseudo-random structure (sparse patterns,
    /// support-vector ordering, ...). Same seed, same trace.
    pub seed: u64,
    /// Number of threads (the paper's study uses two-threaded runs).
    pub threads: usize,
    /// Interleave granularity when merging per-thread streams, in records.
    pub chunk: usize,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            scale: Scale::Paper,
            seed: 0x3d_d1e5,
            threads: 2,
            chunk: 32,
        }
    }
}

impl WorkloadParams {
    /// Test-scale parameters (fast, small footprints).
    pub fn test() -> Self {
        WorkloadParams {
            scale: Scale::Test,
            ..Self::default()
        }
    }

    /// Paper-scale parameters.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Picks `test` when at `Scale::Test`, `paper` otherwise. The workhorse
    /// for kernels translating scale into dimensions.
    pub fn pick(&self, test: usize, paper: usize) -> usize {
        match self.scale {
            Scale::Test => test,
            Scale::Paper => paper,
        }
    }

    /// Starts a builder seeded with the default (paper-scale) parameters.
    #[must_use]
    pub fn builder() -> WorkloadParamsBuilder {
        WorkloadParamsBuilder {
            params: WorkloadParams::default(),
        }
    }

    /// Checks internal consistency. The lint pass `SL040` and the builder's
    /// [`WorkloadParamsBuilder::build`] both delegate here, so the
    /// constraints live in exactly one place.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.threads == 0 {
            return Err(ParamsError::new("thread count must be at least 1"));
        }
        if self.threads > 1024 {
            return Err(ParamsError::new("thread count must be at most 1024"));
        }
        if self.chunk == 0 {
            return Err(ParamsError::new(
                "interleave chunk must be at least 1 record",
            ));
        }
        Ok(())
    }
}

/// Builder for [`WorkloadParams`].
#[derive(Debug, Clone)]
pub struct WorkloadParamsBuilder {
    params: WorkloadParams,
}

impl WorkloadParamsBuilder {
    /// Generation scale.
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.params.scale = scale;
        self
    }

    /// Seed for the deterministic pseudo-random structure.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Number of threads.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.params.threads = threads;
        self
    }

    /// Interleave granularity when merging per-thread streams, in records.
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.params.chunk = chunk;
        self
    }

    /// Ignores its argument: a thermal solve always runs on the calling
    /// thread. Kept only so the frozen `stackbench/` harness, which still
    /// calls it, keeps building.
    #[doc(hidden)]
    #[must_use]
    pub fn solver_threads(self, _solver_threads: usize) -> Self {
        self
    }

    /// Finishes the parameters, validating them.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see
    /// [`WorkloadParams::validate`]). Use [`Self::try_build`] to handle the
    /// error instead.
    #[must_use]
    pub fn build(self) -> WorkloadParams {
        match self.try_build() {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Finishes the parameters, returning the first constraint violation
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation reported by [`WorkloadParams::validate`].
    pub fn try_build(self) -> Result<WorkloadParams, ParamsError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_two_threaded_paper_scale() {
        let p = WorkloadParams::default();
        assert_eq!(p.scale, Scale::Paper);
        assert_eq!(p.threads, 2);
        assert!(p.chunk > 0);
    }

    #[test]
    fn pick_respects_scale() {
        assert_eq!(WorkloadParams::test().pick(1, 100), 1);
        assert_eq!(WorkloadParams::paper().pick(1, 100), 100);
    }

    #[test]
    fn builder_accepts_valid_params() {
        let p = WorkloadParams::builder().threads(4).chunk(16).build();
        assert_eq!(p.threads, 4);
        assert_eq!(p.chunk, 16);
    }

    #[test]
    fn zero_threads_rejected() {
        let err = WorkloadParams::builder().threads(0).try_build();
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("thread count"));
    }

    #[test]
    fn absurd_thread_count_rejected() {
        assert!(WorkloadParams::builder().threads(4096).try_build().is_err());
    }

    #[test]
    fn zero_chunk_rejected() {
        let err = WorkloadParams::builder().chunk(0).try_build();
        assert!(err.unwrap_err().to_string().contains("chunk"));
    }

    #[test]
    #[should_panic(expected = "invalid workload parameters")]
    fn build_panics_on_invalid() {
        let _ = WorkloadParams::builder().chunk(0).build();
    }
}
