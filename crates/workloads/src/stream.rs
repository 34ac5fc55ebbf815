//! Generate-while-simulate: background trace generation as a block stream.
//!
//! [`TraceStream`] runs one producer thread per workload thread, each
//! sending its kernel's records in blocks on a bounded
//! [`sync_channel`], and feeds the receiving ends to the same round-robin
//! [`Merge`] that [`RmsBenchmark::generate`](crate::RmsBenchmark::generate)
//! runs over whole thread traces. Concatenating the yielded blocks
//! therefore reproduces `generate` bit for bit — the channels carry
//! *data*, never *ordering*, so timing and buffering cannot change the
//! merged trace (see `DESIGN.md` §14).
//!
//! A stream knows its exact length and a tight dependency bound before the
//! first block arrives: [`TraceShape`] comes from a count-only pre-pass
//! that runs every kernel thread into a [`CountSink`], which stores nothing.

use std::sync::mpsc::{sync_channel, IntoIter, Receiver};
use std::thread::JoinHandle;

use stacksim_trace::{CountSink, Merge, RecordBlock, RecordSink, StreamBuilder};

use crate::params::WorkloadParams;
use crate::rms::RmsBenchmark;

/// Blocks buffered per producer channel before the producer blocks.
const CHANNEL_BLOCKS: usize = 8;

/// What the count-only pre-pass learns about a benchmark's merged trace
/// without storing a record of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceShape {
    /// Merged record count — exactly the `len()` of
    /// [`RmsBenchmark::generate`](crate::RmsBenchmark::generate).
    pub records: usize,
    /// Longest dependency edge within any one thread, in that thread's own
    /// records.
    pub thread_dep: usize,
    /// An upper bound on every merged dependency distance (at least the
    /// materialised trace's `max_dep_offset`).
    pub dep_window: usize,
}

impl TraceShape {
    /// Runs every kernel thread of `bench` into a [`CountSink`] and derives
    /// the merged bounds.
    ///
    /// Within one thread an edge spans `d` own records. The round-robin
    /// merge takes `chunk` own records per visit, so those `d` records
    /// straddle at most `ceil(d / chunk)` visit boundaries, and at each the
    /// other threads interpose at most `chunk` records apiece. The merged
    /// distance is therefore at most
    /// `d + ceil(d / chunk) · (threads − 1) · chunk`, monotone in `d`.
    ///
    /// # Panics
    ///
    /// Panics if `params.threads` or `params.chunk` is zero.
    pub fn count(bench: RmsBenchmark, params: &WorkloadParams) -> TraceShape {
        assert!(params.threads > 0, "need at least one thread");
        assert!(params.chunk > 0, "interleave chunk must be positive");
        let mut records = 0;
        let mut thread_dep = 0;
        for tid in 0..params.threads {
            let sink = bench.emit_thread(CountSink::new(), params, tid);
            records += sink.len();
            thread_dep = thread_dep.max(sink.max_dep() as usize);
        }
        let interposed = thread_dep.div_ceil(params.chunk) * (params.threads - 1) * params.chunk;
        TraceShape {
            records,
            thread_dep,
            dep_window: thread_dep + interposed,
        }
    }
}

/// A live generate-while-simulate pipeline: per-thread producer threads
/// plus the consumer-side round-robin [`Merge`], exposed as an iterator of
/// fixed-size [`RecordBlock`]s (the final block may be shorter).
///
/// Dropping the stream early hangs up the channels, which lets the
/// producers wind down instead of blocking forever.
#[derive(Debug)]
pub struct TraceStream {
    /// `None` once the stream is dropped, which hangs up the channels.
    merge: Option<Merge<IntoIter<RecordBlock>>>,
    handles: Vec<JoinHandle<()>>,
    shape: TraceShape,
    block_len: usize,
}

impl TraceStream {
    /// Starts generating `bench` with `params.threads` producer threads and
    /// returns the merged stream in blocks of `block_len` records. `shape`
    /// must be `TraceShape::count(bench, &params)`: it sizes the merge's
    /// position rings and fixes the stream's length and dependency bound up
    /// front.
    ///
    /// # Panics
    ///
    /// Panics if `params.threads` is zero (or above 256), `params.chunk`
    /// is zero, or `block_len` is zero. The stream also panics mid-way if
    /// the kernels disagree with `shape`.
    pub fn spawn(
        bench: RmsBenchmark,
        params: WorkloadParams,
        shape: TraceShape,
        block_len: usize,
    ) -> TraceStream {
        assert!(params.threads > 0, "need at least one thread");
        assert!(block_len > 0, "stream block length must be positive");
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..params.threads)
            .map(|_| sync_channel(CHANNEL_BLOCKS))
            .unzip();
        let merge = Merge::new(
            receivers.into_iter().map(Receiver::into_iter),
            params.chunk,
            shape.thread_dep,
        );
        let handles = senders
            .into_iter()
            .enumerate()
            .map(|(tid, tx)| {
                std::thread::spawn(move || {
                    bench
                        .emit_thread(StreamBuilder::new(tx, block_len), &params, tid)
                        .finish();
                })
            })
            .collect();
        TraceStream {
            merge: Some(merge),
            handles,
            shape,
            block_len,
        }
    }

    /// Record count of the blocks this stream yields (the final block may
    /// be shorter).
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Exact record count of the whole stream, known before the first
    /// block (from the pre-pass).
    pub fn records(&self) -> usize {
        self.shape.records
    }

    /// An upper bound on every merged backward dependency distance (see
    /// [`TraceShape::count`]). Suitable as the `dep_window` argument of the
    /// engine's block-fed run.
    pub fn dep_window(&self) -> usize {
        self.shape.dep_window
    }

    /// Records the producers' channels hold when full. A trace no longer
    /// than this gains nothing from streaming: it fits in the stream's own
    /// buffers, so the whole of it may be in flight at once anyway.
    pub fn buffer_records(threads: usize, block_len: usize) -> usize {
        threads * CHANNEL_BLOCKS * block_len
    }

    /// Joins finished producers, propagating any kernel panic, and checks
    /// the merged length against the pre-pass.
    fn join_producers(&mut self, merged: u64) {
        for h in self.handles.drain(..) {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        assert_eq!(
            merged, self.shape.records as u64,
            "the stream's length disagrees with its pre-pass count"
        );
    }
}

impl Iterator for TraceStream {
    type Item = RecordBlock;

    fn next(&mut self) -> Option<RecordBlock> {
        let merge = self.merge.as_mut()?;
        let mut out = Vec::with_capacity(self.block_len);
        merge.fill(&mut out, self.block_len);
        if out.is_empty() {
            let merged = merge.merged();
            self.join_producers(merged);
            None
        } else {
            Some(out)
        }
    }
}

impl Drop for TraceStream {
    fn drop(&mut self) {
        // hang up the channels first so blocked producers bail out
        self.merge = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_trace::{PackedRecord, Trace};

    #[test]
    fn streamed_blocks_concatenate_to_the_batch_trace() {
        let p = WorkloadParams::test();
        let batch = RmsBenchmark::SMvm.generate(&p);
        for block_len in [1usize, 64, 4096] {
            let stream = RmsBenchmark::SMvm.stream(&p, block_len);
            let mut packed = Vec::new();
            for block in stream {
                assert!(block.len() <= block_len);
                packed.extend(block);
            }
            assert_eq!(
                Trace::from_packed(packed),
                batch,
                "block_len {block_len} must reproduce the batch trace"
            );
        }
    }

    #[test]
    fn streaming_matches_batch_for_every_benchmark() {
        let p = WorkloadParams::test();
        for b in RmsBenchmark::all() {
            let batch = b.generate(&p);
            let packed: Vec<PackedRecord> = b.stream(&p, 1024).flatten().collect();
            assert_eq!(Trace::from_packed(packed), batch, "{b}");
        }
    }

    #[test]
    fn streaming_matches_batch_at_other_thread_counts() {
        for threads in [1usize, 4] {
            let p = WorkloadParams::builder()
                .scale(crate::Scale::Test)
                .threads(threads)
                .build();
            let batch = RmsBenchmark::Gauss.generate(&p);
            let packed: Vec<PackedRecord> = RmsBenchmark::Gauss.stream(&p, 256).flatten().collect();
            assert_eq!(Trace::from_packed(packed), batch, "threads {threads}");
        }
    }

    #[test]
    fn early_drop_does_not_hang_the_producers() {
        let p = WorkloadParams::test();
        let mut stream = RmsBenchmark::Pcg.stream(&p, 64);
        let first = stream.next();
        assert!(first.is_some());
        drop(stream); // must hang up and join without deadlocking
    }

    #[test]
    fn dep_window_bounds_every_merged_edge() {
        let p = WorkloadParams::test();
        for b in RmsBenchmark::all() {
            let batch = b.generate(&p);
            let stream = b.stream(&p, 512);
            let window = stream.dep_window();
            assert!(window >= batch.max_dep_offset() as usize, "{b}");
            let mut pos = 0u64;
            for block in stream {
                for r in block {
                    assert!(r.dep_offset() as usize <= window, "{b} at {pos}");
                    pos += 1;
                }
            }
        }
    }

    #[test]
    fn pre_pass_counts_exactly_what_generate_stores() {
        for threads in [1usize, 2, 4] {
            let p = WorkloadParams::builder()
                .scale(crate::Scale::Test)
                .threads(threads)
                .build();
            for b in RmsBenchmark::all() {
                let batch = b.generate(&p);
                let shape = TraceShape::count(b, &p);
                assert_eq!(shape.records, batch.len(), "{b}, threads {threads}");
                assert!(
                    shape.dep_window >= batch.max_dep_offset() as usize,
                    "{b}, threads {threads}: bound {} < {}",
                    shape.dep_window,
                    batch.max_dep_offset()
                );
                assert_eq!(b.stream(&p, 4096).records(), batch.len());
            }
        }
    }
}
