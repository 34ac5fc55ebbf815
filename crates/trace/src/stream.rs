//! In-memory traces and iteration.

use crate::error::TraceError;
use crate::packed::PackedRecord;
use crate::record::{CpuId, RecordId, TraceRecord};

/// An in-memory memory-reference trace.
///
/// Records are stored in trace order as fixed-width [`PackedRecord`]s;
/// record `i` has the implicit id `#i` and its dependency is a bounded
/// backward offset. The invariant that every dependency points at an
/// earlier record is therefore structural: the packed layout cannot even
/// express a forward edge. Construction from [`TraceRecord`]s notes the
/// first invariant violation it encounters, and [`Trace::validate`]
/// reports it.
///
/// The trace also tracks two aggregates the simulator's hot path wants in
/// O(1): the number of CPUs ([`Trace::cpu_count`]) and the largest backward
/// dependency offset ([`Trace::max_dep_offset`], which sizes the engine's
/// completion ring).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    packed: Vec<PackedRecord>,
    /// Largest backward dependency offset in the trace.
    max_dep: u32,
    /// One past the largest cpu index seen (0 for an empty trace).
    cpu_limit: u32,
    /// First invariant violation seen while converting from `TraceRecord`s.
    defect: Option<TraceError>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with room for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            packed: Vec::with_capacity(n),
            ..Trace::default()
        }
    }

    /// Converts a vector of records into packed storage.
    ///
    /// The id/dependency invariants are checked along the way; the first
    /// violation is **recorded** rather than returned (the offending edge is
    /// dropped, since the packed layout cannot represent it), and
    /// [`Trace::validate`] will report it. Prefer
    /// [`TraceBuilder`](crate::TraceBuilder), which never produces a defect.
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        let mut t = Trace::with_capacity(records.len());
        for r in records {
            t.push_record(r);
        }
        t
    }

    /// Wraps already-packed records.
    ///
    /// # Panics
    ///
    /// Panics if any record's dependency offset reaches before the start of
    /// the trace — packed producers assign offsets positionally, so this
    /// indicates corrupted block assembly rather than untrusted input.
    pub fn from_packed(packed: Vec<PackedRecord>) -> Self {
        let mut max_dep = 0u32;
        let mut cpu_limit = 0u32;
        for (i, p) in packed.iter().enumerate() {
            assert!(
                u64::from(p.dep_offset()) <= i as u64,
                "dependency offset {} at position {i} reaches before the trace start",
                p.dep_offset()
            );
            max_dep = max_dep.max(p.dep_offset());
            cpu_limit = cpu_limit.max(u32::from(p.cpu().raw()) + 1);
        }
        Trace {
            packed,
            max_dep,
            cpu_limit,
            defect: None,
        }
    }

    /// Appends one packed record.
    ///
    /// # Panics
    ///
    /// Panics if the record's dependency offset reaches before the start of
    /// the trace.
    pub fn push(&mut self, p: PackedRecord) {
        let i = self.packed.len() as u64;
        assert!(
            u64::from(p.dep_offset()) <= i,
            "dependency offset {} at position {i} reaches before the trace start",
            p.dep_offset()
        );
        if p.dep_offset() > self.max_dep {
            self.max_dep = p.dep_offset();
        }
        let limit = u32::from(p.cpu().raw()) + 1;
        if limit > self.cpu_limit {
            self.cpu_limit = limit;
        }
        self.packed.push(p);
    }

    /// Appends one wide record, packing it and noting (not returning) any
    /// invariant violation, in the order [`Trace::validate`] reports them:
    /// the id check precedes the dependency check for each record.
    fn push_record(&mut self, r: TraceRecord) {
        let i = self.packed.len() as u64;
        if self.defect.is_none() && r.id.raw() != i {
            self.defect = Some(TraceError::NonMonotonicId {
                position: i,
                found: r.id,
            });
        }
        let dep_offset = match r.dep {
            None => 0,
            Some(d) if d >= r.id || d.raw() >= i => {
                if self.defect.is_none() {
                    self.defect = Some(TraceError::ForwardDependency {
                        record: r.id,
                        dep: d,
                    });
                }
                0
            }
            Some(d) => {
                let dist = i - d.raw();
                assert!(
                    dist <= u64::from(u32::MAX),
                    "dependency distance {dist} exceeds the packed-record range"
                );
                dist as u32
            }
        };
        self.push(PackedRecord::new(r.cpu, r.op, r.addr, r.ip, dep_offset));
    }

    /// Number of records in the trace.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Returns the record with the given id, if present. O(1).
    pub fn get(&self, id: RecordId) -> Option<TraceRecord> {
        self.packed.get(id.index()).map(|p| p.unpack(id.raw()))
    }

    /// Iterator over the records in trace order, materialised on the fly
    /// from the packed storage.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            inner: self.packed.iter().enumerate(),
        }
    }

    /// The packed records as a slice — the engine's hot path iterates this
    /// directly.
    pub fn packed(&self) -> &[PackedRecord] {
        &self.packed
    }

    /// Consumes the trace, returning the packed records.
    pub fn into_packed(self) -> Vec<PackedRecord> {
        self.packed
    }

    /// Materialises the trace as wide records.
    pub fn to_records(&self) -> Vec<TraceRecord> {
        self.iter().collect()
    }

    /// Consumes the trace, materialising wide records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.to_records()
    }

    /// Number of distinct CPUs that appear in the trace (one past the
    /// largest cpu index). O(1).
    pub fn cpu_count(&self) -> usize {
        self.cpu_limit as usize
    }

    /// Largest backward dependency offset in the trace. O(1); sizes the
    /// engine's completion ring.
    pub fn max_dep_offset(&self) -> u32 {
        self.max_dep
    }

    /// Checks the structural invariants:
    ///
    /// * record `i` has id `#i` (dense, monotonically increasing ids), and
    /// * every dependency refers to a strictly earlier record.
    ///
    /// Packed storage makes these hold by construction, so this reports the
    /// first violation noted while converting from wide records, if any.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.defect.map_or(Ok(()), Err)
    }

    /// Truncates the trace to at most `n` records, recomputing the cpu
    /// count and maximum dependency offset over the remaining prefix.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.packed.len() {
            return;
        }
        self.packed.truncate(n);
        let defect_at = match self.defect {
            Some(TraceError::NonMonotonicId { position, .. }) => position,
            // a forward edge is the first defect only if its record's id
            // matched its position
            Some(TraceError::ForwardDependency { record, .. }) => record.raw(),
            None => u64::MAX,
        };
        if defect_at >= n as u64 {
            self.defect = None;
        }
        let mut max_dep = 0u32;
        let mut cpu_limit = 0u32;
        for p in &self.packed {
            max_dep = max_dep.max(p.dep_offset());
            cpu_limit = cpu_limit.max(u32::from(p.cpu().raw()) + 1);
        }
        self.max_dep = max_dep;
        self.cpu_limit = cpu_limit;
    }

    /// Returns a sub-trace with only the records of one CPU, with ids
    /// re-assigned densely and dependencies remapped (dependencies on records
    /// of *other* CPUs are dropped, since they no longer exist in the slice).
    /// Operates entirely on packed storage — no wide records are built.
    ///
    /// # Panics
    ///
    /// Panics on traces of [`u32::MAX`] records or more.
    pub fn per_cpu(&self, cpu: CpuId) -> Trace {
        assert!(
            self.packed.len() < u32::MAX as usize,
            "per_cpu supports traces below u32::MAX records"
        );
        // new position of each source record, u32::MAX = not kept
        let mut map: Vec<u32> = vec![u32::MAX; self.packed.len()];
        let mut out = Trace::new();
        for (i, p) in self.packed.iter().enumerate() {
            if p.cpu() != cpu {
                continue;
            }
            let new_pos = out.packed.len() as u32;
            map[i] = new_pos;
            let dep_offset = if p.has_dep() {
                match map[i - p.dep_offset() as usize] {
                    u32::MAX => 0,
                    m => new_pos - m,
                }
            } else {
                0
            };
            out.push(PackedRecord::new(cpu, p.op(), p.addr, p.ip, dep_offset));
        }
        out
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        let mut t = Trace::new();
        t.extend(iter);
        t
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        for r in iter {
            self.push_record(r);
        }
    }
}

impl FromIterator<PackedRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = PackedRecord>>(iter: I) -> Self {
        let mut t = Trace::new();
        t.extend(iter);
        t
    }
}

impl Extend<PackedRecord> for Trace {
    fn extend<I: IntoIterator<Item = PackedRecord>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceRecord;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = TraceIntoIter;

    fn into_iter(self) -> Self::IntoIter {
        TraceIntoIter {
            inner: self.packed.into_iter(),
            next_id: 0,
        }
    }
}

/// Iterator over trace records, returned by [`Trace::iter`]. Yields
/// [`TraceRecord`]s by value, unpacked on the fly.
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    inner: std::iter::Enumerate<std::slice::Iter<'a, PackedRecord>>,
}

impl Iterator for TraceIter<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(i, p)| p.unpack(i as u64))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

/// Owning iterator over trace records, returned by
/// [`IntoIterator::into_iter`] on [`Trace`].
#[derive(Debug)]
pub struct TraceIntoIter {
    inner: std::vec::IntoIter<PackedRecord>,
    next_id: u64,
}

impl Iterator for TraceIntoIter {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        let p = self.inner.next()?;
        let r = p.unpack(self.next_id);
        self.next_id += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for TraceIntoIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::record::MemOp;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        let a = b.record(CpuId::new(0), MemOp::Load, 0x100, 0x1);
        let c = b.record(CpuId::new(1), MemOp::Load, 0x200, 0x2);
        b.record_dep(CpuId::new(0), MemOp::Store, 0x300, 0x3, Some(a));
        b.record_dep(CpuId::new(1), MemOp::Store, 0x400, 0x4, Some(c));
        b.build()
    }

    #[test]
    fn len_get_iter_agree() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 4);
        assert_eq!(t.get(RecordId::new(2)).unwrap().op, MemOp::Store);
        assert!(t.get(RecordId::new(99)).is_none());
    }

    #[test]
    fn cpu_count_is_max_plus_one() {
        let t = sample();
        assert_eq!(t.cpu_count(), 2);
        assert_eq!(Trace::new().cpu_count(), 0);
    }

    #[test]
    fn max_dep_offset_tracks_largest_edge() {
        let t = sample();
        // record #2 depends on #0: the largest backward offset is 2
        assert_eq!(t.max_dep_offset(), 2);
        assert_eq!(Trace::new().max_dep_offset(), 0);
    }

    #[test]
    fn validate_accepts_builder_output() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn validate_rejects_forward_dep() {
        let mut recs = sample().into_records();
        recs[0].dep = Some(RecordId::new(3));
        let t = Trace::from_records(recs);
        assert!(matches!(
            t.validate(),
            Err(TraceError::ForwardDependency { .. })
        ));
    }

    #[test]
    fn validate_rejects_non_dense_ids() {
        let mut recs = sample().into_records();
        recs[1].id = RecordId::new(42);
        let t = Trace::from_records(recs);
        assert!(matches!(
            t.validate(),
            Err(TraceError::NonMonotonicId { position: 1, .. })
        ));
    }

    #[test]
    fn truncate_discards_later_defect_and_recomputes_aggregates() {
        let mut recs = sample().into_records();
        recs[3].dep = Some(RecordId::new(99)); // forward dep at position 3
        let mut t = Trace::from_records(recs);
        assert!(t.validate().is_err());
        t.truncate(2);
        // the defective record is gone; the prefix is valid again
        assert!(t.validate().is_ok());
        assert_eq!(t.len(), 2);
        assert_eq!(t.max_dep_offset(), 0);
        assert_eq!(t.cpu_count(), 2);
        t.truncate(1);
        assert_eq!(t.cpu_count(), 1);
    }

    #[test]
    fn per_cpu_remaps_ids_and_deps() {
        let t = sample();
        let c0 = t.per_cpu(CpuId::new(0));
        assert_eq!(c0.len(), 2);
        assert!(c0.validate().is_ok());
        // the store depended on the first load of cpu0; after remap that is #0
        assert_eq!(
            c0.get(RecordId::new(1)).unwrap().dep,
            Some(RecordId::new(0))
        );
    }

    #[test]
    fn per_cpu_drops_cross_cpu_deps() {
        let mut b = TraceBuilder::new();
        let a = b.record(CpuId::new(0), MemOp::Load, 0x100, 0x1);
        b.record_dep(CpuId::new(1), MemOp::Load, 0x200, 0x2, Some(a));
        let t = b.build();
        let c1 = t.per_cpu(CpuId::new(1));
        assert_eq!(c1.len(), 1);
        assert_eq!(c1.get(RecordId::new(0)).unwrap().dep, None);
    }

    #[test]
    fn collect_and_extend() {
        let t = sample();
        let collected: Trace = t.iter().collect();
        assert_eq!(collected, t);
        let mut e = Trace::new();
        e.extend(t.iter());
        assert_eq!(e, t);
    }

    #[test]
    fn packed_roundtrip_through_from_packed() {
        let t = sample();
        let again = Trace::from_packed(t.packed().to_vec());
        assert_eq!(again, t);
        assert_eq!(again.max_dep_offset(), t.max_dep_offset());
        assert_eq!(again.cpu_count(), t.cpu_count());
    }

    #[test]
    #[should_panic(expected = "before the trace start")]
    fn from_packed_rejects_out_of_range_offsets() {
        use crate::record::MemOp;
        let p = PackedRecord::new(CpuId::new(0), MemOp::Load, 0, 0, 1);
        let _ = Trace::from_packed(vec![p]);
    }
}
