//! The twelve RMS (Recognition, Mining, Synthesis) workloads of Table 1.
//!
//! Each benchmark is implemented as an executable kernel model: the actual
//! algorithm's loop nest is walked over a synthetic data layout, emitting
//! one dependency-annotated trace record per memory instruction, exactly as
//! the paper's trace generator does alongside its full-system simulator
//! (§2.1). Two threads split the outer loop, sharing read-mostly structures
//! and keeping private vectors, and are interleaved into one SMP trace.
//!
//! Footprints are scaled so the benchmarks partition the Fig. 5 capacity
//! axis the way the paper reports: `gauss`, `pcg`, `sMVM`, `sTrans`, `sUS`
//! and `svm` have working sets well beyond 4 MB and improve with stacked
//! capacity, while `conj`, `dSym`, `sSym`, `sAVDF`, `sAVIF` and `svd` fit
//! in the baseline 4 MB L2 and stay flat.

mod conj;
mod dsym;
mod gauss;
mod pcg;
mod rigidity;
mod spmv;
mod svd;
mod svm;

use stacksim_trace::{Merge, RecordSink, Trace, TraceBuilder};

use crate::params::WorkloadParams;
use crate::stream::{TraceShape, TraceStream};

/// One of the RMS workloads of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmsBenchmark {
    /// `conj` — Conjugate Gradient Solver ("Conj Solids").
    Conj,
    /// `dSYM` — Dense Matrix Multiplication.
    DSym,
    /// `gauss` — Linear Equation Solver using Gauss-Jordan Elimination.
    Gauss,
    /// `pcg` — Preconditioned Conjugate Gradient Solver (Cholesky
    /// preconditioner, red-black reordering).
    Pcg,
    /// `sMVM` — Sparse Matrix Multiplication.
    SMvm,
    /// `sSym` — Symmetrical Sparse Matrix Multiplication.
    SSym,
    /// `sTrans` — Transposed Sparse Matrix Multiplication.
    STrans,
    /// `sAVDF` — Structural Rigidity Computation with AVDF Kernel.
    SAvdf,
    /// `sAVIF` — Structural Rigidity Computation with AVIF Kernel.
    SAvif,
    /// `sUS` — Structural Rigidity Computation with US Kernel.
    SUs,
    /// `svd` — Singular Value Decomposition with Jacobi Method.
    Svd,
    /// `svm` — Pattern Recognition Algorithm for Face Recognition in Images.
    Svm,
}

impl RmsBenchmark {
    /// All twelve benchmarks in Fig. 5's bar-group order.
    pub fn all() -> [RmsBenchmark; 12] {
        use RmsBenchmark::*;
        [
            Conj, DSym, Gauss, Pcg, SMvm, SSym, STrans, SAvdf, SAvif, SUs, Svd, Svm,
        ]
    }

    /// The short name used in Fig. 5.
    pub fn name(&self) -> &'static str {
        match self {
            RmsBenchmark::Conj => "conj",
            RmsBenchmark::DSym => "dSym",
            RmsBenchmark::Gauss => "gauss",
            RmsBenchmark::Pcg => "pcg",
            RmsBenchmark::SMvm => "sMVM",
            RmsBenchmark::SSym => "sSym",
            RmsBenchmark::STrans => "sTrans",
            RmsBenchmark::SAvdf => "sAVDF",
            RmsBenchmark::SAvif => "sAVIF",
            RmsBenchmark::SUs => "sUS",
            RmsBenchmark::Svd => "svd",
            RmsBenchmark::Svm => "svm",
        }
    }

    /// The Table 1 description.
    pub fn description(&self) -> &'static str {
        match self {
            RmsBenchmark::Conj => "Conjugate Gradient Solver",
            RmsBenchmark::DSym => "Dense Matrix Multiplication",
            RmsBenchmark::Gauss => "Linear Equation Solver using Gauss-Jordan Elimination",
            RmsBenchmark::Pcg => {
                "Preconditioned Conjugate Gradient Solver using Cholesky Preconditioner, \
                 Red-Black Reordering"
            }
            RmsBenchmark::SMvm => "Sparse Matrix Multiplication",
            RmsBenchmark::SSym => "Symmetrical Sparse Matrix Multiplication",
            RmsBenchmark::STrans => "Transposed Sparse Matrix Multiplication",
            RmsBenchmark::SAvdf => "Structural Rigidity Computation with AVDF Kernel",
            RmsBenchmark::SAvif => "Structural Rigidity Computation with AVIF Kernel",
            RmsBenchmark::SUs => "Structural Rigidity Computation with US Kernel",
            RmsBenchmark::Svd => "Singular Value Decomposition with Jacobi Method",
            RmsBenchmark::Svm => "Pattern Recognition Algorithm for Face Recognition in Images",
        }
    }

    /// Whether the benchmark's working set exceeds the baseline 4 MB L2
    /// (and is therefore expected to benefit from stacked capacity).
    pub fn capacity_sensitive(&self) -> bool {
        matches!(
            self,
            RmsBenchmark::Gauss
                | RmsBenchmark::Pcg
                | RmsBenchmark::SMvm
                | RmsBenchmark::STrans
                | RmsBenchmark::SUs
                | RmsBenchmark::Svm
        )
    }

    /// Generates the two-threaded SMP trace for this benchmark: each
    /// thread's trace in turn on the calling thread, then the round-robin
    /// [`Merge`] of the thread traces.
    ///
    /// # Panics
    ///
    /// Panics if `params.threads` is zero.
    pub fn generate(&self, params: &WorkloadParams) -> Trace {
        assert!(params.threads > 0, "need at least one thread");
        let threads: Vec<Trace> = (0..params.threads)
            .map(|tid| self.thread_trace(params, tid))
            .collect();
        let records = threads.iter().map(Trace::len).sum();
        let dep_bound = threads.iter().map(Trace::max_dep_offset).max();
        let sources = threads
            .into_iter()
            .map(|t| std::iter::once(t.into_packed()));
        let mut merged = Vec::with_capacity(records);
        Merge::new(sources, params.chunk, dep_bound.unwrap_or(0) as usize)
            .fill(&mut merged, records);
        Trace::from_packed(merged)
    }

    /// Runs the count-only pre-pass, then starts generating this
    /// benchmark's two-threaded SMP trace in the background and returns a
    /// stream of fixed-size packed-record blocks.
    /// Concatenated, the blocks are bit-identical to
    /// [`generate`](RmsBenchmark::generate) — generation merely overlaps
    /// with whatever consumes the blocks (see `DESIGN.md` §14).
    ///
    /// # Panics
    ///
    /// Panics if `params.threads` is zero or `block_len` is zero.
    pub fn stream(&self, params: &WorkloadParams, block_len: usize) -> TraceStream {
        TraceStream::spawn(*self, *params, TraceShape::count(*self, params), block_len)
    }

    fn thread_trace(&self, params: &WorkloadParams, tid: usize) -> Trace {
        self.emit_thread(TraceBuilder::new(), params, tid).build()
    }

    /// Runs the benchmark's per-thread kernel, emitting its records into
    /// `sink`. The record sequence only depends on `(self, params, tid)`,
    /// never on the sink — that is what makes streamed generation
    /// bit-identical to batch generation.
    pub(crate) fn emit_thread<S: RecordSink>(
        &self,
        sink: S,
        params: &WorkloadParams,
        tid: usize,
    ) -> S {
        match self {
            RmsBenchmark::Conj => conj::thread_trace(sink, params, tid),
            RmsBenchmark::DSym => dsym::thread_trace(sink, params, tid),
            RmsBenchmark::Gauss => gauss::thread_trace(sink, params, tid),
            RmsBenchmark::Pcg => pcg::thread_trace(sink, params, tid),
            RmsBenchmark::SMvm => spmv::smvm_thread(sink, params, tid),
            RmsBenchmark::SSym => spmv::ssym_thread(sink, params, tid),
            RmsBenchmark::STrans => spmv::strans_thread(sink, params, tid),
            RmsBenchmark::SAvdf => rigidity::avdf_thread(sink, params, tid),
            RmsBenchmark::SAvif => rigidity::avif_thread(sink, params, tid),
            RmsBenchmark::SUs => rigidity::us_thread(sink, params, tid),
            RmsBenchmark::Svd => svd::thread_trace(sink, params, tid),
            RmsBenchmark::Svm => svm::thread_trace(sink, params, tid),
        }
    }
}

impl std::fmt::Display for RmsBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Splits `0..n` into `threads` nearly equal contiguous chunks and returns
/// the `tid`-th one. Used by every kernel to divide its outer loop.
pub(crate) fn split_range(n: u64, threads: usize, tid: usize) -> std::ops::Range<u64> {
    let threads = threads as u64;
    let tid = tid as u64;
    let per = n / threads;
    let extra = n % threads;
    let start = tid * per + tid.min(extra);
    let len = per + u64::from(tid < extra);
    start..start + len
}

/// A per-thread kernel, monomorphised to the batch sink (test helper).
#[cfg(test)]
pub(crate) type ThreadFn = fn(TraceBuilder, &WorkloadParams, usize) -> TraceBuilder;

/// Materialises one kernel thread as a [`Trace`] (test helper).
#[cfg(test)]
pub(crate) fn collect(f: ThreadFn, params: &WorkloadParams, tid: usize) -> Trace {
    f(TraceBuilder::new(), params, tid).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_trace::TraceStats;

    #[test]
    fn all_benchmarks_have_unique_names() {
        let names: std::collections::HashSet<_> =
            RmsBenchmark::all().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn split_range_covers_everything_exactly_once() {
        for n in [0u64, 1, 7, 100] {
            for threads in [1usize, 2, 3, 5] {
                let mut total = 0;
                let mut next = 0;
                for tid in 0..threads {
                    let r = split_range(n, threads, tid);
                    assert_eq!(r.start, next, "ranges must be contiguous");
                    next = r.end;
                    total += r.end - r.start;
                }
                assert_eq!(total, n);
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn every_benchmark_generates_a_valid_two_thread_trace() {
        let p = WorkloadParams::test();
        for b in RmsBenchmark::all() {
            let t = b.generate(&p);
            assert!(!t.is_empty(), "{b} generated an empty trace");
            assert!(t.validate().is_ok(), "{b} trace invalid");
            assert_eq!(t.cpu_count(), 2, "{b} must be two-threaded");
            let s = TraceStats::measure(&t);
            assert!(
                s.per_cpu[0] > 0 && s.per_cpu[1] > 0,
                "{b} both threads active"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = WorkloadParams::test();
        let a = RmsBenchmark::Pcg.generate(&p);
        let b = RmsBenchmark::Pcg.generate(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn capacity_sensitive_benchmarks_have_big_footprints() {
        let p = WorkloadParams::paper();
        // spot-check one sensitive and one insensitive benchmark
        let big = TraceStats::measure(&RmsBenchmark::Gauss.generate(&p));
        assert!(
            big.footprint_mib() > 8.0,
            "gauss footprint {:.1} MiB",
            big.footprint_mib()
        );
        let small = TraceStats::measure(&RmsBenchmark::Conj.generate(&p));
        assert!(
            small.footprint_mib() < 4.0,
            "conj footprint {:.1} MiB",
            small.footprint_mib()
        );
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(RmsBenchmark::SMvm.to_string(), "sMVM");
    }
}
