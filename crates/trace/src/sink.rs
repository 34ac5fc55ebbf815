//! Record sinks: where kernels emit their reference streams.
//!
//! Workload kernels are written against the [`RecordSink`] trait, so the
//! same kernel body can either accumulate a whole in-memory [`Trace`]
//! (batch mode, via [`TraceBuilder`]) or push fixed-size packed blocks
//! through a bounded channel while the simulator is already consuming them
//! (streaming mode, via [`StreamBuilder`]). Both sinks assign the same
//! dense ids and pack the same offsets, so a kernel produces bit-identical
//! records through either. A [`CountSink`] stores nothing: it runs a kernel
//! only to learn its record count and longest dependency edge.

use std::sync::mpsc::SyncSender;

use crate::builder::TraceBuilder;
use crate::merge::RecordBlock;
use crate::packed::PackedRecord;
use crate::record::{Addr, CpuId, MemOp, RecordId};

/// A destination for an ordered stream of dependency-annotated records.
///
/// Ids are dense in emission order; implementations must return the id the
/// record received so kernels can chain dependencies off it.
pub trait RecordSink {
    /// Appends a record with an optional dependency and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `dep` does not point strictly backwards.
    fn record_dep(
        &mut self,
        cpu: CpuId,
        op: MemOp,
        addr: Addr,
        ip: Addr,
        dep: Option<RecordId>,
    ) -> RecordId;

    /// Number of records emitted so far.
    fn len(&self) -> usize;

    /// Whether nothing has been emitted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RecordSink for TraceBuilder {
    fn record_dep(
        &mut self,
        cpu: CpuId,
        op: MemOp,
        addr: Addr,
        ip: Addr,
        dep: Option<RecordId>,
    ) -> RecordId {
        TraceBuilder::record_dep(self, cpu, op, addr, ip, dep)
    }

    fn len(&self) -> usize {
        TraceBuilder::len(self)
    }
}

/// A sink that packs records into fixed-size blocks and sends each full
/// block on a bounded channel ([`std::sync::mpsc::sync_channel`]).
///
/// The records that flow through are identical to what a [`TraceBuilder`]
/// would store — same dense ids, same packed offsets — only the batching
/// differs, which is why a streamed run can be proven bit-identical to a
/// batch run.
#[derive(Debug)]
pub struct StreamBuilder {
    tx: SyncSender<RecordBlock>,
    block: RecordBlock,
    block_len: usize,
    emitted: u64,
    /// Set once the receiver hangs up; later blocks are dropped cheaply.
    hung_up: bool,
}

impl StreamBuilder {
    /// Creates a sink that emits blocks of `block_len` records into `tx`.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero.
    pub fn new(tx: SyncSender<RecordBlock>, block_len: usize) -> Self {
        assert!(block_len > 0, "stream block length must be positive");
        StreamBuilder {
            tx,
            block: Vec::with_capacity(block_len),
            block_len,
            emitted: 0,
            hung_up: false,
        }
    }

    /// Id the next record will receive.
    pub fn next_id(&self) -> RecordId {
        RecordId::new(self.emitted)
    }

    fn flush(&mut self) {
        if self.block.is_empty() || self.hung_up {
            self.block.clear();
            return;
        }
        let block = std::mem::replace(&mut self.block, Vec::with_capacity(self.block_len));
        // a failed send means the consumer hung up
        if self.tx.send(block).is_err() {
            self.hung_up = true;
        }
    }

    /// Flushes the final partial block and closes the channel (the drop of
    /// the sender is the end-of-stream signal).
    pub fn finish(mut self) {
        self.flush();
    }
}

impl RecordSink for StreamBuilder {
    fn record_dep(
        &mut self,
        cpu: CpuId,
        op: MemOp,
        addr: Addr,
        ip: Addr,
        dep: Option<RecordId>,
    ) -> RecordId {
        let id = RecordId::new(self.emitted);
        let dep_offset = match dep {
            None => 0,
            Some(d) => {
                assert!(
                    d < id,
                    "dependency {d} of record {id} must point to an earlier record"
                );
                let dist = id.raw() - d.raw();
                assert!(
                    dist <= u64::from(u32::MAX),
                    "dependency distance {dist} exceeds the packed-record range"
                );
                dist as u32
            }
        };
        self.block
            .push(PackedRecord::new(cpu, op, addr, ip, dep_offset));
        self.emitted += 1;
        if self.block.len() == self.block_len {
            self.flush();
        }
        id
    }

    fn len(&self) -> usize {
        self.emitted as usize
    }
}

/// A sink that stores nothing and measures the stream instead: its record
/// count and its longest backward dependency distance. Running a kernel
/// into it is the count-only pre-pass that sizes a streamed replay
/// without materialising the trace.
#[derive(Debug, Default)]
pub struct CountSink {
    emitted: u64,
    max_dep: u64,
}

impl CountSink {
    /// An empty counter.
    pub fn new() -> Self {
        CountSink::default()
    }

    /// The longest dependency distance emitted so far, in records (0 when
    /// no record has a dependency) — what `max_dep_offset` would report
    /// on the materialised trace.
    pub fn max_dep(&self) -> u64 {
        self.max_dep
    }
}

impl RecordSink for CountSink {
    fn record_dep(
        &mut self,
        _cpu: CpuId,
        _op: MemOp,
        _addr: Addr,
        _ip: Addr,
        dep: Option<RecordId>,
    ) -> RecordId {
        let id = RecordId::new(self.emitted);
        if let Some(d) = dep {
            assert!(
                d < id,
                "dependency {d} of record {id} must point to an earlier record"
            );
            self.max_dep = self.max_dep.max(id.raw() - d.raw());
        }
        self.emitted += 1;
        id
    }

    fn len(&self) -> usize {
        self.emitted as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Trace;
    use std::sync::mpsc::sync_channel;

    fn emit<S: RecordSink + ?Sized>(sink: &mut S, n: u64) {
        let mut prev = None;
        for i in 0..n {
            prev = Some(sink.record_dep(CpuId::new(0), MemOp::Load, i * 64, 0x400, prev));
        }
    }

    #[test]
    fn stream_builder_matches_trace_builder_bit_for_bit() {
        let mut b = TraceBuilder::new();
        emit(&mut b, 1000);
        let batch = b.build();

        // capacity 1 forces strict producer/consumer alternation
        for (block_len, capacity) in [(1usize, 1usize), (7, 4), (64, 1), (4096, 4)] {
            let (tx, rx) = sync_channel(capacity);
            let handle = std::thread::spawn(move || {
                let mut s = StreamBuilder::new(tx, block_len);
                emit(&mut s, 1000);
                s.finish();
            });
            let mut packed = Vec::new();
            for block in rx {
                assert!(block.len() <= block_len);
                packed.extend(block);
            }
            handle.join().unwrap();
            assert_eq!(Trace::from_packed(packed), batch, "block_len {block_len}");
        }
    }

    #[test]
    fn count_sink_measures_what_the_trace_builder_stores() {
        let mut b = TraceBuilder::new();
        let mut c = CountSink::new();
        for sink in [&mut b as &mut dyn RecordSink, &mut c] {
            emit(sink, 100);
            let first = RecordId::new(0);
            sink.record_dep(CpuId::new(1), MemOp::Store, 0, 0, Some(first));
        }
        let trace = b.build();
        assert_eq!(c.len(), trace.len());
        assert_eq!(c.max_dep(), u64::from(trace.max_dep_offset()));
        assert_eq!(c.max_dep(), 100);
    }

    #[test]
    fn partial_final_block_is_flushed_by_finish() {
        let (tx, rx) = sync_channel(4);
        let mut s = StreamBuilder::new(tx, 64);
        emit(&mut s, 10);
        s.finish();
        let block = rx.recv().unwrap();
        assert_eq!(block.len(), 10);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn hung_up_receiver_does_not_block_the_producer() {
        let (tx, rx) = sync_channel(1);
        drop(rx);
        let mut s = StreamBuilder::new(tx, 4);
        emit(&mut s, 1000); // would deadlock without hangup detection
        assert_eq!(s.len(), 1000);
        s.finish();
    }
}
