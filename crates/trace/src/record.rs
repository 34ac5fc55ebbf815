//! The trace record and its field newtypes.

use std::fmt;

/// Unique, monotonically increasing identification number of a trace record.
///
/// Ids are assigned by [`TraceBuilder`](crate::TraceBuilder) in program
/// order; a record may only depend on a record with a *smaller* id, which
/// keeps the dependency graph acyclic by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(u64);

impl RecordId {
    /// Creates a record id from its raw index.
    pub const fn new(raw: u64) -> Self {
        RecordId(raw)
    }

    /// Returns the raw index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the id usable as a `Vec` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for RecordId {
    fn from(raw: u64) -> Self {
        RecordId(raw)
    }
}

/// Identifier of the CPU that executed a memory instruction.
///
/// The paper's study simulates a two-processor SMP system, but the format
/// supports up to 256 CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuId(u8);

impl CpuId {
    /// Creates a CPU id.
    pub const fn new(raw: u8) -> Self {
        CpuId(raw)
    }

    /// Returns the raw id.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Returns the id usable as a `Vec` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl From<u8> for CpuId {
    fn from(raw: u8) -> Self {
        CpuId(raw)
    }
}

/// A byte address in the simulated physical address space.
pub type Addr = u64;

/// The kind of memory operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A data load.
    Load,
    /// A data store.
    Store,
    /// An instruction fetch.
    IFetch,
}

impl MemOp {
    /// Whether the operation reads data (loads and instruction fetches).
    pub const fn is_read(self) -> bool {
        matches!(self, MemOp::Load | MemOp::IFetch)
    }

    /// Whether the operation writes data.
    pub const fn is_write(self) -> bool {
        matches!(self, MemOp::Store)
    }

    /// The compact tag stored in a [`PackedRecord`](crate::PackedRecord).
    pub(crate) const fn tag(self) -> u8 {
        match self {
            MemOp::Load => 0,
            MemOp::Store => 1,
            MemOp::IFetch => 2,
        }
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemOp::Load => "load",
            MemOp::Store => "store",
            MemOp::IFetch => "ifetch",
        };
        f.write_str(s)
    }
}

/// One dynamic memory reference, as emitted by the trace generator.
///
/// Matches the per-record fields described in §2.1 of the paper: cpu id,
/// access address, instruction pointer, unique id, and the id of an earlier
/// record this one depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Unique identification number, assigned in trace order.
    pub id: RecordId,
    /// CPU that executed the instruction.
    pub cpu: CpuId,
    /// Kind of memory operation.
    pub op: MemOp,
    /// Memory access address (byte granularity).
    pub addr: Addr,
    /// Instruction pointer of the instruction performing the access.
    pub ip: Addr,
    /// Id of the earlier record this record is data-dependent on, if any.
    pub dep: Option<RecordId>,
}

impl TraceRecord {
    /// Returns the cache-line address for a given line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    pub fn line_addr(&self, line_size: u64) -> Addr {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        self.addr & !(line_size - 1)
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} @{:#x} ip={:#x}",
            self.id, self.cpu, self.op, self.addr, self.ip
        )?;
        if let Some(dep) = self.dep {
            write!(f, " dep={dep}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_id_ordering_follows_raw() {
        assert!(RecordId::new(1) < RecordId::new(2));
        assert_eq!(RecordId::from(7).raw(), 7);
    }

    #[test]
    fn mem_op_read_write_partition() {
        assert!(MemOp::Load.is_read());
        assert!(MemOp::IFetch.is_read());
        assert!(MemOp::Store.is_write());
        assert!(!MemOp::Store.is_read());
        assert!(!MemOp::Load.is_write());
    }

    #[test]
    fn line_addr_masks_offset() {
        let r = TraceRecord {
            id: RecordId::new(0),
            cpu: CpuId::new(0),
            op: MemOp::Load,
            addr: 0x1234_5678,
            ip: 0,
            dep: None,
        };
        assert_eq!(r.line_addr(64), 0x1234_5640);
        assert_eq!(r.line_addr(4096), 0x1234_5000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn line_addr_rejects_non_power_of_two() {
        let r = TraceRecord {
            id: RecordId::new(0),
            cpu: CpuId::new(0),
            op: MemOp::Load,
            addr: 0,
            ip: 0,
            dep: None,
        };
        let _ = r.line_addr(100);
    }

    #[test]
    fn display_mentions_dep_when_present() {
        let r = TraceRecord {
            id: RecordId::new(5),
            cpu: CpuId::new(1),
            op: MemOp::Store,
            addr: 0x10,
            ip: 0x20,
            dep: Some(RecordId::new(3)),
        };
        let s = r.to_string();
        assert!(s.contains("dep=#3"), "{s}");
        assert!(s.contains("cpu1"), "{s}");
    }
}
