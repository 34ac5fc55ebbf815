//! Counters and derived metrics for the memory-hierarchy simulator.

use crate::config::Cycles;

/// Raw event counters accumulated by
/// [`MemoryHierarchy`](crate::MemoryHierarchy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Total memory references simulated.
    pub accesses: u64,
    /// References satisfied by a per-core L1.
    pub l1_hits: u64,
    /// References satisfied by the shared SRAM L2.
    pub l2_hits: u64,
    /// References satisfied by the stacked cache (tag + sector present).
    pub stacked_hits: u64,
    /// Tag hits whose sector had to be fetched off-die.
    pub stacked_sector_misses: u64,
    /// Demand accesses that reached main memory.
    pub memory_accesses: u64,
    /// References ultimately served by main memory.
    pub memory_served: u64,
    /// Dirty L1 victims written down the hierarchy.
    pub l1_writebacks: u64,
    /// Dirty lines that left the die (bus write-back transfers).
    pub offdie_writebacks: u64,
    /// Sum of per-reference latencies (issue to satisfaction).
    pub latency_sum: Cycles,
    /// Latest completion time seen.
    pub last_completion: Cycles,
}

impl HierarchyStats {
    /// Mean reference latency in cycles (0 if no accesses).
    pub fn mean_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.accesses as f64
        }
    }

    /// L1 hit rate over all references.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.accesses as f64
        }
    }

    /// Fraction of all references served by main memory.
    pub fn memory_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.memory_served as f64 / self.accesses as f64
        }
    }
}

/// Result of a whole-trace simulation run
/// (produced by [`Engine::run`](crate::Engine::run)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Cycles elapsed from first issue to last completion.
    pub total_cycles: Cycles,
    /// Number of memory references simulated.
    pub references: u64,
    /// Cycles per memory access: elapsed cycles divided by references —
    /// the paper's throughput-style CPMA metric (Fig. 5 bars sit well below
    /// the L1 latency, so CPMA is elapsed-time-per-access, not mean latency).
    pub cpma: f64,
    /// Mean per-reference latency in cycles (a secondary metric).
    pub mean_latency: f64,
    /// Achieved off-die bandwidth in GB/s over the run.
    pub offdie_gb_per_sec: f64,
    /// Total bytes that crossed the off-die bus.
    pub offdie_bytes: u64,
    /// Final hierarchy counters.
    pub stats: HierarchyStats,
}

impl RunResult {
    /// Off-die traffic in bytes per memory reference.
    pub fn bytes_per_reference(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.offdie_bytes as f64 / self.references as f64
        }
    }

    /// The compact per-run summary the experiment harness records as
    /// telemetry: trace length, CPMA, bandwidth and hit behaviour.
    pub fn telemetry(&self) -> MemTelemetry {
        MemTelemetry {
            trace_records: self.references,
            cpma: self.cpma,
            offdie_gb_per_sec: self.offdie_gb_per_sec,
            l1_hit_rate: self.stats.l1_hit_rate(),
            memory_fraction: self.stats.memory_fraction(),
        }
    }
}

/// The memory-engine telemetry row recorded per simulated trace by the
/// experiment harness (one per benchmark × option).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemTelemetry {
    /// References driven through the hierarchy (measured region).
    pub trace_records: u64,
    /// Cycles per memory access achieved.
    pub cpma: f64,
    /// Achieved off-die bandwidth in GB/s.
    pub offdie_gb_per_sec: f64,
    /// L1 hit rate over the measured region.
    pub l1_hit_rate: f64,
    /// Fraction of references served by main memory.
    pub memory_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_stats_have_zero_rates() {
        let s = HierarchyStats::default();
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.memory_fraction(), 0.0);
    }

    #[test]
    fn rates_compute_from_counters() {
        let s = HierarchyStats {
            accesses: 10,
            l1_hits: 8,
            memory_served: 2,
            latency_sum: 100,
            ..Default::default()
        };
        assert!((s.mean_latency() - 10.0).abs() < 1e-12);
        assert!((s.l1_hit_rate() - 0.8).abs() < 1e-12);
        assert!((s.memory_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bytes_per_reference_handles_empty_run() {
        let r = RunResult {
            total_cycles: 0,
            references: 0,
            cpma: 0.0,
            mean_latency: 0.0,
            offdie_gb_per_sec: 0.0,
            offdie_bytes: 0,
            stats: HierarchyStats::default(),
        };
        assert_eq!(r.bytes_per_reference(), 0.0);
    }
}
