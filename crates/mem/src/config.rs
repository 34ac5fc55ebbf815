//! Configuration of the simulated memory hierarchy (Table 3 of the paper).

use std::fmt;

/// Cycles, the simulator's time unit (core clock cycles).
pub type Cycles = u64;

/// Geometry and latency of a set-associative SRAM cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in core cycles.
    pub latency: Cycles,
    /// Sectors per line. `1` for conventional caches; the stacked DRAM cache
    /// uses 512 B lines with eight 64 B sectors.
    pub sectors: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.capacity / (self.line_size * u64::from(self.ways))
    }

    /// Size of one sector in bytes.
    pub fn sector_size(&self) -> u64 {
        self.line_size / u64::from(self.sectors)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.line_size.is_power_of_two() {
            return Err(ConfigError::new("line size must be a power of two"));
        }
        if self.sectors == 0 || !self.sectors.is_power_of_two() {
            return Err(ConfigError::new("sector count must be a power of two >= 1"));
        }
        if u64::from(self.sectors) > self.line_size {
            return Err(ConfigError::new("more sectors than bytes in a line"));
        }
        if self.ways == 0 {
            return Err(ConfigError::new("associativity must be at least 1"));
        }
        if !self
            .capacity
            .is_multiple_of(self.line_size * u64::from(self.ways))
        {
            return Err(ConfigError::new(
                "capacity must be a multiple of line_size * ways",
            ));
        }
        if !self.num_sets().is_power_of_two() {
            return Err(ConfigError::new("number of sets must be a power of two"));
        }
        Ok(())
    }

    /// The 32 KB, 8-way, 64 B-line, 4-cycle L1 data cache of Table 3.
    pub fn l1d_core2() -> Self {
        CacheConfig {
            capacity: 32 << 10,
            line_size: 64,
            ways: 8,
            latency: 4,
            sectors: 1,
        }
    }

    /// A 32 KB, 8-way, 64 B-line L1 instruction cache (paper: "private first
    /// level instruction and data caches of 32KB").
    pub fn l1i_core2() -> Self {
        CacheConfig {
            capacity: 32 << 10,
            line_size: 64,
            ways: 8,
            latency: 4,
            sectors: 1,
        }
    }

    /// The shared 4 MB, 16-way, 64 B-line, 16-cycle L2 of Table 3.
    pub fn l2_4mb() -> Self {
        CacheConfig {
            capacity: 4 << 20,
            line_size: 64,
            ways: 16,
            latency: 16,
            sectors: 1,
        }
    }

    /// The stacked 12 MB SRAM L2 (8 MB added on the top die), 24 cycles.
    ///
    /// 12 MB is not a power-of-two capacity; with 16 ways and 64 B lines it
    /// still yields 12288 sets, so we use 24-way associativity to keep the
    /// set count (8192) a power of two.
    pub fn l2_12mb_stacked() -> Self {
        CacheConfig {
            capacity: 12 << 20,
            line_size: 64,
            ways: 24,
            latency: 24,
            sectors: 1,
        }
    }
}

/// DRAM bank-state-machine delays shared by the stacked DRAM cache and the
/// DDR main memory (Table 3: page open 50, precharge 54, read 50).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Cycles to open (activate) a page.
    pub page_open: Cycles,
    /// Cycles to precharge a bank.
    pub precharge: Cycles,
    /// Cycles for a column read/write once the page is open.
    pub read: Cycles,
    /// Cycles the bank stays busy per column access (data burst). The
    /// `read` latency is pipelined: back-to-back accesses to an open page
    /// are spaced by the burst, not by the full CAS latency.
    pub burst: Cycles,
}

impl DramTiming {
    /// The Table 3 bank delays, with an 8-cycle data burst (64 B at DDR
    /// rate against a 3 GHz core clock).
    pub fn table3() -> Self {
        DramTiming {
            page_open: 50,
            precharge: 54,
            read: 50,
            burst: 8,
        }
    }

    /// Latency of an access that hits an already-open page.
    pub fn page_hit(&self) -> Cycles {
        self.read
    }

    /// Latency of an access to a bank with no open page.
    pub fn page_empty(&self) -> Cycles {
        self.page_open + self.read
    }

    /// Latency of an access that conflicts with a different open page.
    pub fn page_conflict(&self) -> Cycles {
        self.precharge + self.page_open + self.read
    }
}

/// Geometry and timing of a banked DRAM array (stacked cache data array or
/// DDR main memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent banks (Table 3: 16 for both arrays).
    pub banks: u32,
    /// Page (row) size in bytes: 512 B stacked, 4 KB main memory.
    pub page_size: u64,
    /// Bank state-machine delays.
    pub timing: DramTiming,
    /// Open rows tracked per bank. Conventional DDR keeps one row open;
    /// the stacked 3D DRAM models a small row-buffer cache (the dense
    /// die-to-die interface makes wide row buffers cheap), which also
    /// stands in for the row-hit batching a FR-FCFS controller achieves
    /// when several streams interleave on one bank.
    pub open_rows: u32,
}

impl DramConfig {
    /// The stacked DRAM cache array: 16 banks, 512 B pages, 4-entry
    /// row-buffer cache per bank.
    pub fn stacked() -> Self {
        DramConfig {
            banks: 16,
            page_size: 512,
            timing: DramTiming::table3(),
            open_rows: 4,
        }
    }

    /// The DDR3 main memory array: 16 banks, 4 KB pages, one open row per
    /// bank (conventional).
    pub fn ddr_main() -> Self {
        DramConfig {
            banks: 16,
            page_size: 4096,
            timing: DramTiming::table3(),
            open_rows: 1,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.banks == 0 || !self.banks.is_power_of_two() {
            return Err(ConfigError::new("bank count must be a power of two >= 1"));
        }
        if !self.page_size.is_power_of_two() {
            return Err(ConfigError::new("page size must be a power of two"));
        }
        if self.open_rows == 0 {
            return Err(ConfigError::new("banks must track at least one open row"));
        }
        Ok(())
    }
}

/// Main-memory configuration: a banked DRAM array behind a fixed transport
/// latency so that a page-hit access costs the paper's 192 cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MainMemoryConfig {
    /// Banked array geometry/timing.
    pub dram: DramConfig,
    /// Controller + transport cycles added before the bank access.
    /// `192 - read(50) = 142`, so a page-hit access totals 192 cycles.
    pub transport: Cycles,
}

impl MainMemoryConfig {
    /// Table 3 main memory: 16 banks, 4 KB pages, 192-cycle page-hit access.
    pub fn table3() -> Self {
        MainMemoryConfig {
            dram: DramConfig::ddr_main(),
            transport: 142,
        }
    }
}

/// Off-die bus configuration.
///
/// Table 3 gives 16 GB/s off-die bandwidth; combined with the core frequency
/// this determines how many cycles a cache-line transfer occupies the bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Peak bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Core frequency in Hz (used to convert bandwidth into bytes/cycle).
    pub core_hz: f64,
    /// Per-transaction command overhead in bytes (address/command phase).
    pub overhead_bytes: u64,
}

impl BusConfig {
    /// Table 3 off-die bus: 16 GB/s at a 3 GHz core clock.
    pub fn table3() -> Self {
        BusConfig {
            bandwidth_bytes_per_sec: 16e9,
            core_hz: 3e9,
            overhead_bytes: 8,
        }
    }

    /// Bytes the bus moves per core cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_bytes_per_sec / self.core_hz
    }

    /// Cycles a transfer of `bytes` occupies the bus (rounded up, minimum 1).
    pub fn transfer_cycles(&self, bytes: u64) -> Cycles {
        let c = (bytes as f64 / self.bytes_per_cycle()).ceil() as Cycles;
        c.max(1)
    }
}

/// The last level of the on-die hierarchy beyond the shared SRAM L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackedLevel {
    /// No stacked level: L2 misses go straight off-die.
    None,
    /// A stacked DRAM cache: on-die tags plus a banked DRAM data array on the
    /// top die (options (c) and (d) of Fig. 7).
    Dram {
        /// Tag/sector geometry (512 B lines, 8 sectors, tag latency on die).
        cache: CacheConfig,
        /// Banked data array.
        dram: DramConfig,
    },
}

/// Full hierarchy configuration for one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Number of CPUs (the paper simulates a two-processor SMP).
    pub cpus: usize,
    /// Per-core L1 instruction cache.
    pub l1i: CacheConfig,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Shared SRAM L2, if present (removed in the 32 MB DRAM option).
    pub l2: Option<CacheConfig>,
    /// Stacked level beyond the L2.
    pub stacked: StackedLevel,
    /// Off-die bus.
    pub bus: BusConfig,
    /// Main memory.
    pub memory: MainMemoryConfig,
}

impl HierarchyConfig {
    /// The baseline Intel Core 2 Duo–class hierarchy of Table 3 / Fig. 4:
    /// 2 cores, 32 KB L1s, shared 4 MB L2, 16 GB/s bus, DDR main memory.
    pub fn core2_baseline() -> Self {
        HierarchyConfig {
            cpus: 2,
            l1i: CacheConfig::l1i_core2(),
            l1d: CacheConfig::l1d_core2(),
            l2: Some(CacheConfig::l2_4mb()),
            stacked: StackedLevel::None,
            bus: BusConfig::table3(),
            memory: MainMemoryConfig::table3(),
        }
    }

    /// Option (b) of Fig. 7: 8 MB SRAM stacked on top of the 4 MB L2 for a
    /// total 12 MB L2 at 24 cycles.
    pub fn stacked_sram_12mb() -> Self {
        HierarchyConfig {
            l2: Some(CacheConfig::l2_12mb_stacked()),
            ..Self::core2_baseline()
        }
    }

    /// Option (c) of Fig. 7: the 4 MB SRAM L2 is removed and replaced with a
    /// 32 MB stacked DRAM cache whose tags live on the CPU die.
    pub fn stacked_dram_32mb() -> Self {
        HierarchyConfig {
            l2: None,
            stacked: StackedLevel::Dram {
                cache: CacheConfig {
                    capacity: 32 << 20,
                    line_size: 512,
                    ways: 8,
                    // on-die tag lookup; the data access adds DRAM bank timing
                    latency: 6,
                    sectors: 8,
                },
                dram: DramConfig::stacked(),
            },
            ..Self::core2_baseline()
        }
    }

    /// Option (d) of Fig. 7: 64 MB stacked DRAM; the existing 4 MB SRAM L2
    /// array holds the tags, so the tag latency equals the old L2 latency.
    pub fn stacked_dram_64mb() -> Self {
        HierarchyConfig {
            l2: None,
            stacked: StackedLevel::Dram {
                cache: CacheConfig {
                    capacity: 64 << 20,
                    line_size: 512,
                    ways: 8,
                    latency: 16,
                    sectors: 8,
                },
                dram: DramConfig::stacked(),
            },
            ..Self::core2_baseline()
        }
    }

    /// All four Fig. 7 options in the order of Fig. 5's bar groups, paired
    /// with their last-level-cache capacity label in MB.
    pub fn fig7_options() -> Vec<(u32, HierarchyConfig)> {
        vec![
            (4, Self::core2_baseline()),
            (12, Self::stacked_sram_12mb()),
            (32, Self::stacked_dram_32mb()),
            (64, Self::stacked_dram_64mb()),
        ]
    }

    /// Checks every sub-configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cpus == 0 || self.cpus > 256 {
            return Err(ConfigError::new("cpu count must be between 1 and 256"));
        }
        self.l1i.validate()?;
        self.l1d.validate()?;
        if let Some(l2) = &self.l2 {
            l2.validate()?;
        }
        if let StackedLevel::Dram { cache, dram } = &self.stacked {
            cache.validate()?;
            dram.validate()?;
            if cache.sector_size() != self.l1d.line_size {
                return Err(ConfigError::new(
                    "stacked DRAM sector size must equal the L1 line size",
                ));
            }
        }
        self.memory.dram.validate()?;
        if self.bus.bandwidth_bytes_per_sec <= 0.0 || self.bus.core_hz <= 0.0 {
            return Err(ConfigError::new(
                "bus bandwidth and core frequency must be positive",
            ));
        }
        Ok(())
    }

    /// Capacity of the last on-die cache level in bytes.
    pub fn llc_capacity(&self) -> u64 {
        match &self.stacked {
            StackedLevel::Dram { cache, .. } => cache.capacity,
            StackedLevel::None => self.l2.map_or(0, |c| c.capacity),
        }
    }
}

/// A configuration-validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    pub(crate) fn new(message: &'static str) -> Self {
        ConfigError { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid memory configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_presets_validate() {
        for (_, cfg) in HierarchyConfig::fig7_options() {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn l1d_geometry_matches_table3() {
        let c = CacheConfig::l1d_core2();
        assert_eq!(c.capacity, 32 * 1024);
        assert_eq!(c.ways, 8);
        assert_eq!(c.line_size, 64);
        assert_eq!(c.latency, 4);
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    fn l2_geometry_matches_table3() {
        let c = CacheConfig::l2_4mb();
        assert_eq!(c.capacity, 4 << 20);
        assert_eq!(c.ways, 16);
        assert_eq!(c.latency, 16);
        assert_eq!(c.num_sets(), 4096);
    }

    #[test]
    fn dram_timing_matches_table3() {
        let t = DramTiming::table3();
        assert_eq!(t.page_hit(), 50);
        assert_eq!(t.page_empty(), 100);
        assert_eq!(t.page_conflict(), 154);
    }

    #[test]
    fn main_memory_page_hit_is_192_cycles() {
        let m = MainMemoryConfig::table3();
        assert_eq!(m.transport + m.dram.timing.page_hit(), 192);
        assert_eq!(m.dram.page_size, 4096);
        assert_eq!(m.dram.banks, 16);
    }

    #[test]
    fn bus_line_transfer_is_12_cycles() {
        let b = BusConfig::table3();
        // 64 B at 16/3 bytes per cycle = 12 cycles
        assert_eq!(b.transfer_cycles(64), 12);
        assert!(b.bytes_per_cycle() > 5.3 && b.bytes_per_cycle() < 5.4);
        assert_eq!(b.transfer_cycles(0), 1);
    }

    #[test]
    fn stacked_dram_sector_size_is_l1_line() {
        let cfg = HierarchyConfig::stacked_dram_32mb();
        if let StackedLevel::Dram { cache, .. } = cfg.stacked {
            assert_eq!(cache.sector_size(), 64);
            assert_eq!(cache.line_size, 512);
        } else {
            panic!("expected stacked DRAM");
        }
    }

    #[test]
    fn llc_capacity_reports_correct_level() {
        assert_eq!(HierarchyConfig::core2_baseline().llc_capacity(), 4 << 20);
        assert_eq!(
            HierarchyConfig::stacked_sram_12mb().llc_capacity(),
            12 << 20
        );
        assert_eq!(
            HierarchyConfig::stacked_dram_32mb().llc_capacity(),
            32 << 20
        );
        assert_eq!(
            HierarchyConfig::stacked_dram_64mb().llc_capacity(),
            64 << 20
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = CacheConfig::l1d_core2();
        c.line_size = 63;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::l1d_core2();
        c.ways = 0;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::l1d_core2();
        c.sectors = 3;
        assert!(c.validate().is_err());

        let mut d = DramConfig::stacked();
        d.banks = 3;
        assert!(d.validate().is_err());

        let mut h = HierarchyConfig::core2_baseline();
        h.cpus = 0;
        assert!(h.validate().is_err());
    }

    #[test]
    fn mismatched_sector_size_is_rejected() {
        let mut cfg = HierarchyConfig::stacked_dram_32mb();
        if let StackedLevel::Dram { cache, .. } = &mut cfg.stacked {
            cache.sectors = 4; // sector = 128 B != 64 B L1 line
        }
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn config_error_display() {
        let e = ConfigError::new("boom");
        assert!(e.to_string().contains("boom"));
    }
}
