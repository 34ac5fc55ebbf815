//! Merging per-thread record streams into one multi-processor stream.

use crate::packed::PackedRecord;
use crate::record::CpuId;

/// A block of packed records: the unit a per-thread source yields and a
/// merged stream is cut into.
pub type RecordBlock = Vec<PackedRecord>;

/// Interleaves per-thread record streams round-robin into one SMP stream.
///
/// Source `i` yields thread `i`'s records as [`RecordBlock`]s, with
/// dependency offsets counted in that thread's own records. The merge
/// takes `chunk` records from each thread in index order, modelling threads
/// making roughly even forward progress as in the paper's two-threaded RMS
/// traces, and skips threads that have run dry. Every record is relabelled
/// `cpu i`, and its dependency offset is rewritten to merged positions so
/// it still points at the same logical record. The merged order depends
/// only on the records the sources yield, never on how they are cut into
/// blocks or when a block arrives.
///
/// The rewrite reads the dependency target's merged position from a
/// per-thread ring of recent merged positions, sized from `dep_bound`, the
/// longest dependency offset any source emits.
///
/// # Example
///
/// ```
/// use stacksim_trace::{CpuId, Merge, MemOp, PackedRecord};
///
/// let load = |addr, dep| PackedRecord::new(CpuId::new(0), MemOp::Load, addr, 0, dep);
/// let t0 = vec![vec![load(0x1000, 0), load(0x1040, 1)]];
/// let t1 = vec![vec![load(0x2000, 0)]];
/// let mut merged = Vec::new();
/// Merge::new([t0.into_iter(), t1.into_iter()], 1, 1).fill(&mut merged, usize::MAX);
/// let cpus: Vec<u8> = merged.iter().map(|p| p.cpu().raw()).collect();
/// assert_eq!(cpus, [0, 1, 0]);
/// // the second load of thread 0 now reaches back over thread 1's record
/// assert_eq!(merged[2].dep_offset(), 2);
/// ```
#[derive(Debug)]
pub struct Merge<I> {
    sources: Vec<Source<I>>,
    chunk: usize,
    dep_bound: u32,
    /// Ring index mask: a power of two of at least `dep_bound` entries,
    /// minus one.
    mask: usize,
    /// Source the round-robin is drawing from, and the records it has
    /// given in the current visit.
    cur: usize,
    taken: usize,
    /// Sources not yet run dry.
    live: usize,
    /// Records merged so far (the next record's merged position).
    merged: u64,
}

/// One thread's source and its merge-side state.
#[derive(Debug)]
struct Source<I> {
    blocks: I,
    /// The block being merged, and how much of it has been.
    block: RecordBlock,
    at: usize,
    /// Records merged from this source (the next record's own position).
    own: u64,
    /// Merged positions of the most recent own records, indexed by own
    /// position masked by the merge's `mask`.
    ring: Vec<u64>,
    done: bool,
}

impl<I: Iterator<Item = RecordBlock>> Merge<I> {
    /// Merges `sources`, `chunk` records per visit. `dep_bound` must be at
    /// least every dependency offset the sources emit.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is 0 or more than 256 sources are supplied. The
    /// merge also panics mid-way on a dependency offset above `dep_bound`,
    /// or on a merged dependency distance beyond [`u32::MAX`].
    pub fn new(sources: impl IntoIterator<Item = I>, chunk: usize, dep_bound: usize) -> Self {
        assert!(chunk > 0, "interleave chunk must be positive");
        let ring_len = dep_bound.max(1).next_power_of_two();
        let sources: Vec<Source<I>> = sources
            .into_iter()
            .map(|blocks| Source {
                blocks,
                block: Vec::new(),
                at: 0,
                own: 0,
                ring: vec![0; ring_len],
                done: false,
            })
            .collect();
        assert!(sources.len() <= 256, "at most 256 threads supported");
        Merge {
            live: sources.len(),
            sources,
            chunk,
            dep_bound: u32::try_from(dep_bound).unwrap_or(u32::MAX),
            mask: ring_len - 1,
            cur: 0,
            taken: 0,
            merged: 0,
        }
    }

    /// Records merged so far.
    pub fn merged(&self) -> u64 {
        self.merged
    }

    /// Appends the next `max` merged records to `out`, or fewer once every
    /// source has run dry. Waits on a source whenever its next block is
    /// still in flight.
    pub fn fill(&mut self, out: &mut Vec<PackedRecord>, max: usize) {
        let mut left = max;
        while left > 0 && self.live > 0 {
            let src = &mut self.sources[self.cur];
            if src.done || self.taken == self.chunk {
                self.cur = (self.cur + 1) % self.sources.len();
                self.taken = 0;
                continue;
            }
            if src.at == src.block.len() {
                match src.blocks.next() {
                    Some(block) => src.block = block,
                    None => {
                        src.block = Vec::new();
                        src.done = true;
                        self.live -= 1;
                    }
                }
                src.at = 0;
                continue;
            }
            let n = (self.chunk - self.taken)
                .min(left)
                .min(src.block.len() - src.at);
            let cpu = CpuId::new(self.cur as u8);
            let (bound, mask, merged) = (self.dep_bound, self.mask, &mut self.merged);
            let (ring, own) = (&mut src.ring, &mut src.own);
            out.extend(src.block[src.at..src.at + n].iter().map(|p| {
                let d = p.dep_offset();
                let dep = if d == 0 {
                    0
                } else {
                    assert!(
                        d <= bound && u64::from(d) <= *own,
                        "dependency offset {d} at own position {own} exceeds the bound {bound}"
                    );
                    let dist = *merged - ring[(*own - u64::from(d)) as usize & mask];
                    assert!(
                        dist <= u64::from(u32::MAX),
                        "merged dependency distance {dist} exceeds the packed-record range"
                    );
                    dist as u32
                };
                ring[*own as usize & mask] = *merged;
                *own += 1;
                *merged += 1;
                PackedRecord::new(cpu, p.op(), p.addr, p.ip, dep)
            }));
            src.at += n;
            self.taken += n;
            left -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn zero_chunk_panics() {
        let _ = Merge::new([std::iter::empty::<RecordBlock>()], 0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the bound")]
    fn dependency_beyond_the_bound_panics() {
        let p = |dep| PackedRecord::new(CpuId::new(0), crate::MemOp::Load, 0, 0, dep);
        let source = std::iter::once(vec![p(0), p(0), p(2)]);
        Merge::new([source], 1, 1).fill(&mut Vec::new(), 3);
    }
}
