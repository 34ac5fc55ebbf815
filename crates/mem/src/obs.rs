//! Observability instruments of the memory hierarchy.
//!
//! The declared-name table below is the contract checked by the `SL060`
//! lint pass: every instrument this crate registers at runtime must
//! appear here, names must be well-formed `component.metric` paths, and
//! no two components may claim the same name.

use stacksim_obs::{Counter, Gauge, Histogram};

/// Component tag of every instrument this crate owns.
pub const COMPONENT: &str = "mem";

/// Per-level hit counters.
pub const ACCESSES: &str = "mem.accesses";
/// L1 hits (instruction + data).
pub const L1_HITS: &str = "mem.l1_hits";
/// Shared-L2 hits.
pub const L2_HITS: &str = "mem.l2_hits";
/// Stacked-cache hits (tag + sector present).
pub const STACKED_HITS: &str = "mem.stacked_hits";
/// Stacked tag hits whose sector had to be fetched off-die.
pub const STACKED_SECTOR_MISSES: &str = "mem.stacked_sector_misses";
/// References that went to main memory.
pub const MEMORY_ACCESSES: &str = "mem.memory_accesses";
/// References ultimately served by main memory.
pub const MEMORY_SERVED: &str = "mem.memory_served";
/// Dirty L1 victims written to the next level.
pub const L1_WRITEBACKS: &str = "mem.l1_writebacks";
/// Dirty lines leaving the die.
pub const OFFDIE_WRITEBACKS: &str = "mem.offdie_writebacks";
/// Hits gated behind an in-flight fill (MSHR coalesces).
pub const FILL_WAITS: &str = "mem.fill_waits";
/// Bytes moved over the off-die bus (incl. command overhead).
pub const BUS_BYTES: &str = "mem.bus.bytes";
/// Off-die bus transfers.
pub const BUS_TRANSFERS: &str = "mem.bus.transfers";
/// Cycles the bus spent actively transferring.
pub const BUS_BUSY_CYCLES: &str = "mem.bus.busy_cycles";
/// How far ahead the bus is booked when a transfer arrives (a queue-depth
/// gauge in cycles).
pub const BUS_BACKLOG_CYCLES: &str = "mem.bus.backlog_cycles";
/// Histogram of per-transfer queueing delay in cycles.
pub const BUS_QUEUE_CYCLES: &str = "mem.bus.queue_cycles";
/// Main-memory DDR page hits.
pub const DRAM_PAGE_HITS: &str = "mem.dram.page_hits";
/// Main-memory accesses to a closed (empty) bank.
pub const DRAM_PAGE_EMPTY: &str = "mem.dram.page_empty";
/// Main-memory bank conflicts (open page, wrong row).
pub const DRAM_PAGE_CONFLICTS: &str = "mem.dram.page_conflicts";
/// Stacked-DRAM page hits.
pub const STACKED_PAGE_HITS: &str = "mem.stacked.page_hits";
/// Stacked-DRAM accesses to a closed (empty) bank.
pub const STACKED_PAGE_EMPTY: &str = "mem.stacked.page_empty";
/// Stacked-DRAM bank conflicts.
pub const STACKED_PAGE_CONFLICTS: &str = "mem.stacked.page_conflicts";
/// Trace records processed by the issue engine.
pub const ENGINE_RECORDS: &str = "mem.engine.records";
/// Span around one engine's replay of a Fig. 5 point under one stack
/// option (`end` carries the `option` label). Emitted by the harness,
/// which knows the option; declared here, with the layer it times.
pub const EVENT_REPLAY: &str = "mem.replay";

/// Every instrument and span name this crate may register or emit, for
/// the SL060 lint pass and the snapshot-coverage test.
pub const NAMES: &[&str] = &[
    ACCESSES,
    L1_HITS,
    L2_HITS,
    STACKED_HITS,
    STACKED_SECTOR_MISSES,
    MEMORY_ACCESSES,
    MEMORY_SERVED,
    L1_WRITEBACKS,
    OFFDIE_WRITEBACKS,
    FILL_WAITS,
    BUS_BYTES,
    BUS_TRANSFERS,
    BUS_BUSY_CYCLES,
    BUS_BACKLOG_CYCLES,
    BUS_QUEUE_CYCLES,
    DRAM_PAGE_HITS,
    DRAM_PAGE_EMPTY,
    DRAM_PAGE_CONFLICTS,
    STACKED_PAGE_HITS,
    STACKED_PAGE_EMPTY,
    STACKED_PAGE_CONFLICTS,
    ENGINE_RECORDS,
    EVENT_REPLAY,
];

/// Handles for every hierarchy instrument, resolved once at
/// [`MemoryHierarchy::new`](crate::MemoryHierarchy::new) so the hot path
/// never touches the registry. Clones share the process-global cells.
#[derive(Debug, Clone)]
pub(crate) struct HierObs {
    pub accesses: Counter,
    pub l1_hits: Counter,
    pub l2_hits: Counter,
    pub stacked_hits: Counter,
    pub stacked_sector_misses: Counter,
    pub memory_accesses: Counter,
    pub memory_served: Counter,
    pub l1_writebacks: Counter,
    pub offdie_writebacks: Counter,
    pub fill_waits: Counter,
    pub bus_bytes: Counter,
    pub bus_transfers: Counter,
    pub bus_busy_cycles: Counter,
    pub bus_backlog_cycles: Gauge,
    pub bus_queue_cycles: Histogram,
    pub dram_pages: PageObs,
    pub stacked_pages: PageObs,
}

/// Page-outcome counter triple for one DRAM array.
#[derive(Debug, Clone)]
pub(crate) struct PageObs {
    hits: Counter,
    empty: Counter,
    conflicts: Counter,
}

impl PageObs {
    fn new(hits: &str, empty: &str, conflicts: &str) -> Self {
        PageObs {
            hits: stacksim_obs::counter(hits),
            empty: stacksim_obs::counter(empty),
            conflicts: stacksim_obs::counter(conflicts),
        }
    }

    /// Add page-outcome deltas (`(hits, empties, conflicts)`, the layout
    /// of [`DramArray::outcome_counts`](crate::dram::DramArray::outcome_counts))
    /// accumulated since the last flush.
    pub fn add(&self, (hits, empty, conflicts): (u64, u64, u64)) {
        self.hits.add(hits);
        self.empty.add(empty);
        self.conflicts.add(conflicts);
    }
}

impl HierObs {
    pub fn new() -> Self {
        HierObs {
            accesses: stacksim_obs::counter(ACCESSES),
            l1_hits: stacksim_obs::counter(L1_HITS),
            l2_hits: stacksim_obs::counter(L2_HITS),
            stacked_hits: stacksim_obs::counter(STACKED_HITS),
            stacked_sector_misses: stacksim_obs::counter(STACKED_SECTOR_MISSES),
            memory_accesses: stacksim_obs::counter(MEMORY_ACCESSES),
            memory_served: stacksim_obs::counter(MEMORY_SERVED),
            l1_writebacks: stacksim_obs::counter(L1_WRITEBACKS),
            offdie_writebacks: stacksim_obs::counter(OFFDIE_WRITEBACKS),
            fill_waits: stacksim_obs::counter(FILL_WAITS),
            bus_bytes: stacksim_obs::counter(BUS_BYTES),
            bus_transfers: stacksim_obs::counter(BUS_TRANSFERS),
            bus_busy_cycles: stacksim_obs::counter(BUS_BUSY_CYCLES),
            bus_backlog_cycles: stacksim_obs::gauge(BUS_BACKLOG_CYCLES),
            bus_queue_cycles: stacksim_obs::histogram(BUS_QUEUE_CYCLES),
            dram_pages: PageObs::new(DRAM_PAGE_HITS, DRAM_PAGE_EMPTY, DRAM_PAGE_CONFLICTS),
            stacked_pages: PageObs::new(
                STACKED_PAGE_HITS,
                STACKED_PAGE_EMPTY,
                STACKED_PAGE_CONFLICTS,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique_and_prefixed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in NAMES {
            assert!(seen.insert(name), "duplicate declared name {name}");
            assert!(
                name.starts_with("mem."),
                "{name} must carry the {COMPONENT} prefix"
            );
        }
    }
}
