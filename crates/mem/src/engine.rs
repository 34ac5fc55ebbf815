//! The dependency-driven trace issue engine.
//!
//! Mirrors the methodology of §2.1: the memory-hierarchy simulator "honors
//! all the dependencies specified in the trace and issues memory accesses
//! accordingly" — a record whose dependency has not completed may not issue.
//! Independent records from the same CPU issue back-to-back (up to a
//! configurable outstanding-miss window, which bounds memory-level
//! parallelism like a set of MSHRs would).

use std::ops::Deref;

use stacksim_trace::{PackedRecord, Trace};

use crate::config::{ConfigError, Cycles};
use crate::hierarchy::MemoryHierarchy;
use crate::stats::{HierarchyStats, RunResult};

/// Issue-engine parameters.
///
/// Marked `#[non_exhaustive]`: construct with [`EngineConfig::default`] or
/// [`EngineConfig::builder`] so new knobs can be added without breaking
/// downstream callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Maximum outstanding references per CPU (MSHR-like window).
    pub window: usize,
    /// Minimum cycles between successive issues from one CPU.
    pub issue_interval: Cycles,
    /// Out-of-order lookahead in cycles: younger independent references may
    /// issue at most this far *before* the most recently issued reference.
    /// This is the time-domain analogue of a finite reorder buffer — a
    /// dependency stall lets younger work proceed, but only as much as the
    /// window can hold.
    pub rob_lookahead: Cycles,
    /// Ablation switch: ignore dependency edges entirely (records then issue
    /// as fast as the window allows). Used by the `ablate_deps` bench.
    pub ignore_deps: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window: 32,
            issue_interval: 1,
            rob_lookahead: 192,
            ignore_deps: false,
        }
    }
}

impl EngineConfig {
    /// Starts a builder seeded with the default configuration.
    #[must_use]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }

    /// Checks internal consistency. The lint pass `SL041` and the builder's
    /// [`EngineConfigBuilder::build`] both delegate here.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == 0 {
            return Err(ConfigError::new(
                "outstanding-reference window must be at least 1",
            ));
        }
        if self.issue_interval == 0 {
            return Err(ConfigError::new("issue interval must be at least 1 cycle"));
        }
        Ok(())
    }
}

/// Builder for [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Maximum outstanding references per CPU (MSHR-like window).
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.cfg.window = window;
        self
    }

    /// Minimum cycles between successive issues from one CPU.
    #[must_use]
    pub fn issue_interval(mut self, issue_interval: Cycles) -> Self {
        self.cfg.issue_interval = issue_interval;
        self
    }

    /// Out-of-order lookahead in cycles.
    #[must_use]
    pub fn rob_lookahead(mut self, rob_lookahead: Cycles) -> Self {
        self.cfg.rob_lookahead = rob_lookahead;
        self
    }

    /// Ablation switch: ignore dependency edges entirely.
    #[must_use]
    pub fn ignore_deps(mut self, ignore_deps: bool) -> Self {
        self.cfg.ignore_deps = ignore_deps;
        self
    }

    /// Finishes the configuration, validating it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`EngineConfig::validate`]). Use [`Self::try_build`] to handle the
    /// error instead.
    #[must_use]
    pub fn build(self) -> EngineConfig {
        match self.try_build() {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Finishes the configuration, returning the first constraint violation
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation reported by [`EngineConfig::validate`].
    pub fn try_build(self) -> Result<EngineConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Per-CPU issue state slots: one for every possible
/// [`CpuId`](stacksim_trace::CpuId) (a `u8`).
const CPU_SLOTS: usize = 1 << u8::BITS;

#[derive(Debug, Clone, Default)]
struct CpuState {
    /// Issue-bandwidth cursor: advances by `issue_interval` per record,
    /// independent of stalls — a dependency stall delays the stalled record
    /// only, while younger independent records keep issuing (out-of-order
    /// issue, as in the paper's tool where only the dependent record waits).
    cursor: Cycles,
    /// Completion times of outstanding references, sorted *descending* so
    /// both hot operations — draining completed references and claiming
    /// the earliest completion when the window is full — are pops off the
    /// tail instead of head removals or whole-vector scans.
    outstanding: Vec<Cycles>,
}

impl CpuState {
    #[inline(always)]
    fn drain_before(&mut self, t: Cycles) {
        while self.outstanding.last().is_some_and(|&c| c <= t) {
            self.outstanding.pop();
        }
    }

    #[inline(always)]
    fn insert(&mut self, done: Cycles) {
        // Linear scan from the tail (the *small*, recently-completing
        // entries) instead of a binary search: completions cluster, so
        // the scan stops after a couple of well-predicted probes, while
        // `partition_point` eats branch mispredicts on every level.
        // Ties may land on either side of existing equal entries — both
        // drain/pop paths treat equal times identically.
        // Open-coded as push-then-shift: `Vec::insert` costs a capacity
        // check and an out-of-line memmove even when nothing moves, while
        // this loop compiles to a couple of in-register moves for the
        // typical 0–4 displaced entries.
        let v = &mut self.outstanding;
        v.push(done);
        let mut pos = v.len() - 1;
        while pos > 0 && v[pos - 1] < done {
            v[pos] = v[pos - 1];
            pos -= 1;
        }
        v[pos] = done;
    }
}

/// Issue time and completion time of one stepped record.
#[derive(Debug, Clone, Copy)]
struct Issued {
    /// Cycle the record issued (after dependency / window stalls).
    at: Cycles,
    /// Cycle the reference was satisfied.
    done: Cycles,
}

/// Drives a [`MemoryHierarchy`] with a dependency-annotated trace.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    hierarchy: MemoryHierarchy,
}

impl Engine {
    /// Creates an engine around a hierarchy.
    pub fn new(hierarchy: MemoryHierarchy, cfg: EngineConfig) -> Self {
        Engine { cfg, hierarchy }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Read access to the driven hierarchy.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Runs a whole trace and reports metrics over all of it.
    pub fn run(&mut self, trace: &Trace) -> RunResult {
        self.run_warmed(trace, 0.0)
    }

    /// Runs a trace, excluding the first `warmup` fraction (0.0..1.0) of
    /// records — [`warm_records`] of them — from the reported metrics. The
    /// excluded prefix still updates cache, bank and bus state, so large
    /// caches are measured warm.
    ///
    /// The measured interval is bounded by *issue* and *completion* times
    /// of the measured records themselves: it opens at the earliest issue
    /// among them and closes at their latest completion. Pre-warmup
    /// references still in flight at the boundary therefore no longer
    /// deflate the interval (they used to: the interval previously opened
    /// at the max completion over the whole warmup prefix, which can lie
    /// *beyond* most of the measured work).
    ///
    /// # Panics
    ///
    /// As [`warm_records`].
    pub fn run_warmed(&mut self, trace: &Trace, warmup: f64) -> RunResult {
        // The whole trace is one block, and its largest dependency
        // distance is the window the ring must cover.
        let dep_window = trace.max_dep_offset().max(1) as usize;
        self.run_blocks(
            [trace.packed()],
            warm_records(trace.len(), warmup),
            dep_window,
        )
    }

    /// Runs a stream of packed-record blocks — the one replay loop behind
    /// every run path. Blocks typically arrive through a bounded channel
    /// fed by the generate-while-simulate pipeline (see
    /// `stacksim-workloads`), so the whole trace is never materialised. A
    /// block is anything that dereferences to records: an owned `Vec`, a
    /// slice, or an `Arc` shared with other engines. The first
    /// `warm_records` records (the boundary may fall anywhere, mid-block
    /// included) update hierarchy state but are excluded from the
    /// reported metrics. Batched observability counters flush once per
    /// block rather than per reference.
    ///
    /// Simulation results are bit-identical to [`Engine::run_warmed`] on
    /// the materialised concatenation of the blocks when `warm_records` is
    /// [`warm_records`] of its length, for any block partitioning — the
    /// channel carries data, never ordering.
    ///
    /// Completion times live in a power-of-two ring covering `dep_window`,
    /// not a full-length table: by the time slot `i & mask` is overwritten
    /// no later record can reference index `i` any more. A distance of
    /// exactly `dep_window` is legal — the slot is read before this
    /// record's own write clobbers it — while any greater distance has
    /// already been clobbered, so it panics rather than silently reading a
    /// younger completion time.
    ///
    /// # Panics
    ///
    /// Panics if `dep_window` is zero or a record's dependency reaches
    /// further back than `dep_window`; in debug builds, also if
    /// `warm_records` covers every record of a non-empty stream.
    pub fn run_blocks<I, B>(
        &mut self,
        blocks: I,
        warm_records: usize,
        dep_window: usize,
    ) -> RunResult
    where
        I: IntoIterator<Item = B>,
        B: Deref,
        B::Target: AsRef<[PackedRecord]>,
    {
        assert!(dep_window > 0, "dependency window must be positive");
        let mask = dep_window.next_power_of_two() - 1;
        let mut ring: Vec<Cycles> = vec![0; mask + 1];
        // Indexing by a `u8` id never needs a bounds check or a resize,
        // and unused slots never allocate.
        let mut cpus: Box<[CpuState; CPU_SLOTS]> =
            Box::new(std::array::from_fn(|_| CpuState::default()));
        let mut stats_at_warmup = HierarchyStats::default();
        let mut bus_bytes_at_warmup = 0u64;
        // Earliest issue / latest completion over the *measured* records
        // (`MAX` = none measured yet; min-tracking stays branchless).
        let mut measured_from: Cycles = Cycles::MAX;
        let mut measured_last: Cycles = 0;
        let mut n: usize = 0;
        for block in blocks {
            let block: &[PackedRecord] = (*block).as_ref();
            let (warm, measured) = block.split_at(warm_records.saturating_sub(n).min(block.len()));
            for p in warm {
                self.step(p, n, &mut ring, mask, dep_window, &mut cpus);
                n += 1;
            }
            if !warm.is_empty() && n == warm_records {
                stats_at_warmup = *self.hierarchy.stats();
                bus_bytes_at_warmup = self.hierarchy.bus().bytes();
            }
            for p in measured {
                let issued = self.step(p, n, &mut ring, mask, dep_window, &mut cpus);
                measured_from = measured_from.min(issued.at);
                measured_last = measured_last.max(issued.done);
                n += 1;
            }
            self.hierarchy.obs_flush();
        }
        if stacksim_obs::enabled() {
            stacksim_obs::counter(crate::obs::ENGINE_RECORDS).add(n as u64);
        }

        let stats = diff_stats(*self.hierarchy.stats(), stats_at_warmup);
        let bytes = self.hierarchy.bus().bytes() - bus_bytes_at_warmup;
        let total_cycles = measured_last.saturating_sub(if measured_from == Cycles::MAX {
            0
        } else {
            measured_from
        });
        let references = stats.accesses;
        debug_assert!(
            references > 0 || n == 0,
            "non-empty trace produced an empty measurement window"
        );
        let cpma = if references == 0 {
            0.0
        } else {
            total_cycles as f64 / references as f64
        };
        let gbs = if total_cycles == 0 {
            0.0
        } else {
            bytes as f64 * self.hierarchy.config().bus.core_hz / total_cycles as f64 / 1e9
        };
        RunResult {
            total_cycles,
            references,
            cpma,
            mean_latency: stats.mean_latency(),
            offdie_gb_per_sec: gbs,
            offdie_bytes: bytes,
            stats,
        }
    }

    /// The one issue/drain/access/cursor sequence for record `i`. The
    /// dependency's completion time comes from the ring (0 when the record
    /// has none) and is ignored under the `ignore_deps` ablation.
    /// Force-inlined: each of its two call sites in [`Engine::run_blocks`]
    /// wants the whole issue/access/insert chain flattened so the per-cpu
    /// state stays in registers across records.
    #[inline(always)]
    fn step(
        &mut self,
        p: &PackedRecord,
        i: usize,
        ring: &mut [Cycles],
        mask: usize,
        dep_window: usize,
        cpus: &mut [CpuState; CPU_SLOTS],
    ) -> Issued {
        let d = p.dep_offset() as usize;
        assert!(
            d <= dep_window,
            "dependency distance {d} exceeds the window {dep_window}"
        );
        let cpu_id = p.cpu();
        let cpu = &mut cpus[usize::from(cpu_id.raw())];
        let mut t = cpu.cursor;
        if !self.cfg.ignore_deps && d != 0 {
            t = t.max(ring[(i - d) & mask]);
        }
        cpu.drain_before(t);
        while cpu.outstanding.len() >= self.cfg.window {
            match cpu.outstanding.pop() {
                Some(earliest) => t = t.max(earliest),
                None => break, // unreachable: len >= window >= 1
            }
        }
        let res = self.hierarchy.access(cpu_id, p.op(), p.addr, t);
        cpu.insert(res.done);
        // the cursor advances at issue bandwidth, but may not lag the newest
        // issue by more than the lookahead — younger records overlap a stall
        // only as far as the reorder window reaches
        cpu.cursor =
            cpu.cursor.max(t.saturating_sub(self.cfg.rob_lookahead)) + self.cfg.issue_interval;
        ring[i & mask] = res.done;
        Issued {
            at: t,
            done: res.done,
        }
    }
}

/// Records of a `len`-record trace that a `warmup` fraction excludes from
/// measurement: `floor(len · warmup)`. Every run path derives its warm
/// boundary here, so a streamed run whose length is known up front lands
/// on exactly the record [`Engine::run_warmed`] would.
///
/// # Panics
///
/// Panics if `warmup` is not within `0.0..1.0`, or if it rounds the warm
/// prefix up to the entire (non-empty) trace and would leave an empty
/// measurement window — which would otherwise silently report a CPMA of
/// 0.0.
pub fn warm_records(len: usize, warmup: f64) -> usize {
    assert!(
        (0.0..1.0).contains(&warmup),
        "warmup fraction must be in [0, 1)"
    );
    let warm = (len as f64 * warmup) as usize;
    assert!(
        len == 0 || warm < len,
        "warmup fraction {warmup} warms all {len} records and leaves an \
         empty measurement window"
    );
    warm
}

fn diff_stats(end: HierarchyStats, start: HierarchyStats) -> HierarchyStats {
    HierarchyStats {
        accesses: end.accesses - start.accesses,
        l1_hits: end.l1_hits - start.l1_hits,
        l2_hits: end.l2_hits - start.l2_hits,
        stacked_hits: end.stacked_hits - start.stacked_hits,
        stacked_sector_misses: end.stacked_sector_misses - start.stacked_sector_misses,
        memory_accesses: end.memory_accesses - start.memory_accesses,
        memory_served: end.memory_served - start.memory_served,
        l1_writebacks: end.l1_writebacks - start.l1_writebacks,
        offdie_writebacks: end.offdie_writebacks - start.offdie_writebacks,
        fill_waits: end.fill_waits - start.fill_waits,
        latency_sum: end.latency_sum - start.latency_sum,
        last_completion: end.last_completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use stacksim_trace::{CpuId, MemOp, TraceBuilder};

    fn engine() -> Engine {
        engine_with(EngineConfig::default())
    }

    fn engine_with(cfg: EngineConfig) -> Engine {
        Engine::new(
            MemoryHierarchy::new(HierarchyConfig::core2_baseline()).expect("valid preset"),
            cfg,
        )
    }

    #[test]
    fn builder_accepts_valid_config() {
        let cfg = EngineConfig::builder().window(8).issue_interval(2).build();
        assert_eq!(cfg.window, 8);
        assert_eq!(cfg.issue_interval, 2);
    }

    #[test]
    fn zero_window_rejected() {
        let err = EngineConfig::builder().window(0).try_build();
        assert!(err.unwrap_err().to_string().contains("window"));
    }

    #[test]
    fn zero_issue_interval_rejected() {
        let err = EngineConfig::builder().issue_interval(0).try_build();
        assert!(err.unwrap_err().to_string().contains("issue interval"));
    }

    #[test]
    #[should_panic(expected = "invalid memory configuration")]
    fn build_panics_on_invalid() {
        let _ = EngineConfig::builder().window(0).build();
    }

    #[test]
    fn pure_hit_trace_reaches_issue_throughput() {
        // one cpu touching a single line repeatedly: after the cold miss,
        // every access is an L1 hit and issues once per cycle
        let mut b = TraceBuilder::new();
        for _ in 0..1000 {
            b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        }
        let t = b.build();
        let r = engine().run(&t);
        // elapsed ~ cold miss latency + ~1000 issue slots; cpma ~ 1.26
        assert!(r.cpma < 1.5, "cpma = {}", r.cpma);
        assert_eq!(r.references, 1000);
        assert_eq!(r.stats.l1_hits, 999);
    }

    #[test]
    fn two_cpus_halve_cpma() {
        let mut b = TraceBuilder::new();
        for _ in 0..1000 {
            b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
            b.record(CpuId::new(1), MemOp::Load, 0x9000, 0);
        }
        let t = b.build();
        let r = engine().run(&t);
        assert!(
            r.cpma < 0.8,
            "two independent streams overlap: cpma = {}",
            r.cpma
        );
    }

    #[test]
    fn serial_dependence_chain_exposes_latency() {
        // every load depends on the previous one and misses (distinct 4 KB
        // pages, distinct L2 sets): CPMA approaches the memory latency
        let mut b = TraceBuilder::new();
        let mut prev = None;
        for i in 0..200u64 {
            prev = Some(b.record_dep(CpuId::new(0), MemOp::Load, i << 20, 0, prev));
        }
        let t = b.build();
        let r = engine().run(&t);
        assert!(
            r.cpma > 150.0,
            "serial misses cannot overlap: cpma = {}",
            r.cpma
        );
    }

    #[test]
    fn ignoring_deps_restores_overlap() {
        // stride 4 KB so successive misses hit different DDR banks and can
        // genuinely overlap once dependencies are ignored
        let mut b = TraceBuilder::new();
        let mut prev = None;
        for i in 0..200u64 {
            prev = Some(b.record_dep(CpuId::new(0), MemOp::Load, i * 4096, 0, prev));
        }
        let t = b.build();
        let mut e = engine_with(EngineConfig {
            ignore_deps: true,
            ..EngineConfig::default()
        });
        let overlapped = e.run(&t).cpma;
        let mut e = engine_with(EngineConfig::default());
        let serial = e.run(&t).cpma;
        assert!(
            overlapped * 2.0 < serial,
            "ignoring deps must at least halve CPMA: {overlapped} vs {serial}"
        );
    }

    #[test]
    fn window_bounds_outstanding_misses() {
        // independent misses with window 1 serialize completely
        let mut b = TraceBuilder::new();
        for i in 0..100u64 {
            b.record(CpuId::new(0), MemOp::Load, i << 20, 0);
        }
        let t = b.build();
        let mut e = engine_with(EngineConfig {
            window: 1,
            ..EngineConfig::default()
        });
        let serial = e.run(&t).cpma;
        let parallel = engine().run(&t).cpma;
        assert!(
            serial > 2.0 * parallel,
            "window=1 ({serial}) must be much slower than window=16 ({parallel})"
        );
    }

    #[test]
    fn warmup_excludes_cold_misses() {
        // first half touches the working set (cold), second half re-touches
        // it (warm); with warmup=0.5 the reported run is all hits
        let mut b = TraceBuilder::new();
        for rep in 0..2 {
            for i in 0..64u64 {
                let _ = rep;
                b.record(CpuId::new(0), MemOp::Load, 0x1000 + i * 64, 0);
            }
        }
        let t = b.build();
        let mut e = engine();
        let r = e.run_warmed(&t, 0.5);
        assert_eq!(r.references, 64);
        assert_eq!(r.stats.l1_hits, 64, "measured region is fully warm");
    }

    #[test]
    fn warmup_interval_opens_at_measured_issue_not_warmup_completion() {
        // One cold off-die miss (completes ~262) followed by an L1 hit.
        // With warmup=0.5 the measured window is just the hit: it issues
        // at cycle 1 and completes at cycle 5. The old accounting opened
        // the interval at the *warmup prefix's* max completion (262),
        // saturating-subtracted its way to 0 cycles and reported CPMA 0.
        let mut b = TraceBuilder::new();
        b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        let t = b.build();
        let r = engine().run_warmed(&t, 0.5);
        assert_eq!(r.references, 1);
        assert_eq!(r.stats.l1_hits, 1);
        assert_eq!(r.total_cycles, 4, "issue at 1, L1 hit completes at 5");
        assert!((r.cpma - 4.0).abs() < 1e-12, "cpma = {}", r.cpma);
    }

    #[test]
    fn warmup_near_one_on_short_trace_still_measures() {
        let mut b = TraceBuilder::new();
        b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        let t = b.build();
        // 2 * 0.9 floors to 1 warm record: one measured reference remains.
        let r = engine().run_warmed(&t, 0.9);
        assert_eq!(r.references, 1);
        assert!(r.cpma > 0.0, "a measured reference must cost cycles");
    }

    #[test]
    fn extreme_warmup_never_empties_the_measurement_window() {
        // The largest f64 below 1.0. For any trace length the product
        // `len * warmup` stays strictly below `len` (the real value
        // `len - len * 2^-53` never rounds up to `len`), so at least one
        // record is always measured — and the explicit assert in
        // `warm_records` guards the invariant should the computation ever
        // change. Before the accounting fix this scenario reported a
        // silent CPMA of 0.0; now it must always cost cycles.
        let warmup = f64::from_bits(0x3FEF_FFFF_FFFF_FFFF);
        for len in [1usize, 2, 3, 1024, 32_700_000] {
            assert!(warm_records(len, warmup) < len, "len {len}");
        }
        for len in [1usize, 2, 3, 1024] {
            let mut b = TraceBuilder::new();
            for _ in 0..len {
                b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
            }
            let t = b.build();
            let r = engine().run_warmed(&t, warmup);
            assert!(r.references >= 1, "len {len} measured nothing");
            assert!(r.cpma > 0.0, "len {len}: measured work must cost cycles");
        }
    }

    #[test]
    fn empty_trace_is_a_zero_run() {
        let r = engine().run(&Trace::new());
        assert_eq!(r.references, 0);
        assert_eq!(r.cpma, 0.0);
        assert_eq!(r.offdie_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "warmup fraction")]
    fn invalid_warmup_panics() {
        let _ = engine().run_warmed(&Trace::new(), 1.5);
    }

    fn mixed_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new();
        let mut prev = None;
        for i in 0..n {
            let dep = if i % 4 == 0 { prev } else { None };
            prev = Some(b.record_dep(
                CpuId::new((i % 2) as u8),
                if i % 7 == 0 {
                    MemOp::Store
                } else {
                    MemOp::Load
                },
                (i * 2917) % (1 << 22),
                0,
                dep,
            ));
        }
        b.build()
    }

    fn blocks_of(t: &Trace, block_len: usize) -> Vec<Vec<PackedRecord>> {
        t.packed().chunks(block_len).map(<[_]>::to_vec).collect()
    }

    /// `run_blocks` over any partitioning must equal `run` bit for bit.
    fn assert_blocks_match_run(cfg: EngineConfig, t: &Trace, dep_window: usize) {
        let batch = engine_with(cfg).run(t);
        for block_len in [1usize, 7, 64, 4096] {
            let streamed = engine_with(cfg).run_blocks(blocks_of(t, block_len), 0, dep_window);
            assert_eq!(batch, streamed, "cfg {cfg:?}, block {block_len}");
        }
    }

    #[test]
    fn run_blocks_matches_run_at_any_block_size() {
        assert_blocks_match_run(EngineConfig::default(), &mixed_trace(5_000), 64);
    }

    #[test]
    fn run_blocks_matches_run_across_lookahead_and_window_variants() {
        // Lookahead 0 (cursor pinned to the newest issue), the default 192
        // and an effectively unbounded lookahead; then window=2, which
        // forces the outstanding-miss drain loop on nearly every record.
        let t = mixed_trace(5_000);
        for rob_lookahead in [0, 192, 1 << 40] {
            let cfg = EngineConfig {
                rob_lookahead,
                ..EngineConfig::default()
            };
            assert_blocks_match_run(cfg, &t, 64);
        }
        let cfg = EngineConfig {
            window: 2,
            ..EngineConfig::default()
        };
        assert_blocks_match_run(cfg, &t, 64);
    }

    /// The warm boundary `floor(0.4 · len)` may fall anywhere inside a
    /// block; the block-fed loop must still reproduce `run_warmed`.
    #[test]
    fn warm_prefix_boundary_mid_block_matches_run_warmed() {
        let t = mixed_trace(5_003);
        let warmed = engine().run_warmed(&t, 0.4);
        let warm = warm_records(t.len(), 0.4);
        for block_len in [1usize, 7, 4096] {
            if block_len > 1 {
                assert_ne!(warm % block_len, 0, "boundary falls mid-block");
            }
            let replayed = engine().run_blocks(blocks_of(&t, block_len), warm, 64);
            assert_eq!(warmed, replayed, "block {block_len}");
            assert_eq!(warmed.cpma.to_bits(), replayed.cpma.to_bits());
        }
    }

    #[test]
    fn run_blocks_accepts_dependency_at_exactly_dep_window() {
        // Distance == dep_window is the boundary the ring invariant makes
        // legal: the dependency's slot is read before this record
        // overwrites it. The stream must also agree with the batch path.
        let dep_window = 16usize;
        let mut b = TraceBuilder::new();
        let first = b.record_dep(CpuId::new(0), MemOp::Load, 0, 0, None);
        for i in 1..dep_window as u64 {
            b.record(CpuId::new(0), MemOp::Load, i << 20, 0);
        }
        // id == dep_window, dep id == 0: distance exactly dep_window
        b.record_dep(CpuId::new(0), MemOp::Load, 64, 0, Some(first));
        let t = b.build();
        assert_blocks_match_run(EngineConfig::default(), &t, dep_window);
    }

    #[test]
    #[should_panic(expected = "exceeds the window")]
    fn run_blocks_rejects_dependency_at_dep_window_plus_one() {
        // One past the boundary: the slot has been overwritten by the
        // depending record's predecessor, so the engine must refuse.
        let dep_window = 16usize;
        let mut b = TraceBuilder::new();
        let first = b.record_dep(CpuId::new(0), MemOp::Load, 0, 0, None);
        for i in 1..=dep_window as u64 {
            b.record(CpuId::new(0), MemOp::Load, i << 20, 0);
        }
        // id == dep_window + 1, dep id == 0
        b.record_dep(CpuId::new(0), MemOp::Load, 64, 0, Some(first));
        let t = b.build();
        let _ = engine().run_blocks(blocks_of(&t, 5), 0, dep_window);
    }

    #[test]
    #[should_panic(expected = "exceeds the window")]
    fn run_blocks_rejects_distant_dependencies() {
        let mut b = TraceBuilder::new();
        let first = b.record(CpuId::new(0), MemOp::Load, 0, 0);
        for _ in 0..100 {
            b.record(CpuId::new(0), MemOp::Load, 64, 0);
        }
        b.record_dep(CpuId::new(0), MemOp::Load, 128, 0, Some(first));
        let t = b.build();
        let _ = engine().run_blocks([t.packed().to_vec()], 0, 16);
    }

    #[test]
    fn offdie_bandwidth_reported_for_streaming_misses() {
        let mut b = TraceBuilder::new();
        for i in 0..5000u64 {
            b.record(CpuId::new(0), MemOp::Load, i * 64, 0);
        }
        let t = b.build();
        let mut e = engine();
        let r = e.run(&t);
        assert!(
            r.offdie_gb_per_sec > 1.0,
            "streaming misses load the bus: {}",
            r.offdie_gb_per_sec
        );
        assert!(r.offdie_bytes >= 5000 / 64 * 64, "every line fetched once");
    }
}
