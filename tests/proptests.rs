//! Randomized property tests over the core data structures and invariants
//! (DESIGN.md §7): cache legality, DRAM bank-state machine, engine
//! determinism, power-grid conservation and the thermal maximum principle.
//!
//! Each property is exercised over a deterministic family of seeds with
//! `stacksim_rng` generating the inputs, so failures reproduce exactly.

use stacksim::floorplan::PowerGrid;
use stacksim::mem::{
    Bus, BusConfig, Cache, CacheConfig, DramArray, DramConfig, DramTiming, Engine, EngineConfig,
    HierarchyConfig, Lookup, MemoryHierarchy,
};
use stacksim::thermal::{solve_with_stats, Boundary, Layer, LayerStack, SolverConfig};
use stacksim::trace::{CpuId, MemOp, TraceBuilder};
use stacksim_rng::StdRng;

fn small_cache() -> Cache {
    Cache::new(CacheConfig {
        capacity: 2048,
        line_size: 64,
        ways: 4,
        latency: 1,
        sectors: 1,
    })
    .expect("valid test config")
}

/// A cache never holds more lines than its capacity, and a line reported
/// as a hit was accessed before without an intervening eviction of it.
#[test]
fn cache_capacity_and_hit_legality() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..400);
        let mut c = small_cache();
        let mut resident: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for _ in 0..n {
            let a: u64 = rng.gen_range(0..1 << 16);
            let line = a & !63;
            match c.access(a, false) {
                Lookup::Hit => assert!(resident.contains(&line), "hit on absent line {line:#x}"),
                Lookup::SectorMiss => assert!(resident.contains(&line)),
                Lookup::Miss(ev) => {
                    if let Some(ev) = ev {
                        assert!(resident.remove(&ev.line_addr), "evicted non-resident line");
                    }
                    resident.insert(line);
                }
            }
            assert!(c.occupied_lines() <= 32, "4 ways x 8 sets");
            assert_eq!(c.occupied_lines(), resident.len());
        }
    }
}

/// DRAM accesses never travel back in time, bank service is exclusive and
/// page hits are only reported for genuinely open rows.
#[test]
fn dram_bank_state_machine_is_legal() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..200);
        let mut d = DramArray::new(DramConfig {
            banks: 4,
            page_size: 512,
            timing: DramTiming::table3(),
            open_rows: 2,
        })
        .expect("valid test config");
        let mut clock = 0u64;
        let mut bank_free = [0u64; 4];
        for _ in 0..n {
            let a: u64 = rng.gen_range(0..1 << 20);
            clock += rng.gen_range(0u64..50);
            let acc = d.access(a, clock);
            assert!(acc.start >= clock, "service before arrival");
            assert!(acc.done > acc.start, "zero-latency access");
            assert!(
                acc.start >= bank_free[acc.bank as usize],
                "bank double-booked"
            );
            // the bank is busy for at least the burst after service start
            bank_free[acc.bank as usize] = acc.start + 8;
        }
    }
}

/// The bus conserves bytes and never overlaps transfers.
#[test]
fn bus_transfers_never_overlap() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..100);
        let mut bus = Bus::new(BusConfig::table3());
        let mut t = 0u64;
        let mut prev_done = 0u64;
        let mut bytes = 0u64;
        for _ in 0..n {
            let s: u64 = rng.gen_range(1..512);
            t += rng.gen_range(0u64..40);
            let x = bus.transfer(s, t);
            assert!(x.start >= prev_done, "transfer overlap");
            assert!(x.start >= t);
            assert!(x.done > x.start);
            prev_done = x.done;
            bytes += s + BusConfig::table3().overhead_bytes;
        }
        assert_eq!(bus.bytes(), bytes);
    }
}

/// Under random arrival patterns (bursts, idle gaps, occasional
/// out-of-order arrival times) the bus's cycle accounting stays
/// consistent with the per-transfer timestamps: `busy_cycles` is exactly
/// the wire time summed over transfers, `queue_cycles` exactly the
/// arrival-to-start delays, and utilisation over any interval covering
/// the traffic never exceeds 1.0.
#[test]
fn bus_utilisation_bounded_and_cycle_accounting_consistent() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..200);
        let mut bus = Bus::new(BusConfig::table3());
        let mut at = 0u64;
        let mut busy = 0u64;
        let mut queue = 0u64;
        let mut last_done = 0u64;
        for _ in 0..n {
            let payload: u64 = rng.gen_range(0..4096);
            // Mix of back-to-back bursts, idle gaps, and (one time in
            // eight) a re-issued earlier arrival time: the bus must
            // tolerate non-monotone `at` because queued requesters
            // present their original arrival cycles.
            match rng.gen_range(0u32..8) {
                0 => at = at.saturating_sub(rng.gen_range(0u64..50)),
                1..=4 => {}
                _ => at += rng.gen_range(1u64..200),
            }
            let x = bus.transfer(payload, at);
            assert!(x.start >= at, "service cannot precede arrival");
            busy += x.done - x.start;
            queue += x.start - at;
            last_done = last_done.max(x.done);
        }
        assert_eq!(bus.busy_cycles(), busy, "busy != Σ(done - start)");
        assert_eq!(bus.queue_cycles(), queue, "queue != Σ(start - arrival)");
        let u = bus.utilisation(last_done);
        assert!(
            (0.0..=1.0).contains(&u),
            "utilisation {u} outside [0, 1] over {last_done} cycles"
        );
        // A longer interval only dilutes utilisation further.
        assert!(bus.utilisation(last_done * 2 + 1) <= u);
    }
}

/// The engine is a pure function of (trace, config): same inputs, same
/// timing — with and without dependencies honoured.
#[test]
fn engine_is_deterministic() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..300);
        let window = rng.gen_range(1usize..32);
        let mut b = TraceBuilder::new();
        for i in 0..n {
            let a: u64 = rng.gen_range(0..1 << 22);
            let dep = if i % 3 == 0 { b.last_id() } else { None };
            let op = if i % 5 == 0 {
                MemOp::Store
            } else {
                MemOp::Load
            };
            b.record_dep(CpuId::new((i % 2) as u8), op, a, 0, dep);
        }
        let t = b.build();
        let cfg = EngineConfig::builder().window(window).build();
        let run = || {
            let mut e = Engine::new(
                MemoryHierarchy::new(HierarchyConfig::stacked_dram_32mb()).expect("valid preset"),
                cfg,
            );
            e.run(&t)
        };
        let a = run();
        let b2 = run();
        assert_eq!(a.total_cycles, b2.total_cycles);
        assert_eq!(a.offdie_bytes, b2.offdie_bytes);
    }
}

/// Power-grid resampling conserves total power at any resolution.
#[test]
fn power_grid_resample_conserves() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = PowerGrid::zero(4, 3, 8.0, 6.0);
        for k in 0..12 {
            g.add(k % 4, k / 4, rng.gen_range(0.0..10.0));
        }
        let nx = rng.gen_range(1usize..9);
        let ny = rng.gen_range(1usize..9);
        let r = g.resampled(nx, ny);
        assert!((r.total() - g.total()).abs() < 1e-9 * (1.0 + g.total()));
    }
}

/// Thermal maximum principle: with convective boundaries at ambient, no
/// cell is ever colder than ambient or hotter than a lumped bound.
#[test]
fn thermal_solution_is_bounded() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = PowerGrid::zero(3, 3, 9.0, 9.0);
        for k in 0..9 {
            g.add(k % 3, k / 3, rng.gen_range(0.0..30.0));
        }
        let h = rng.gen_range(500.0..50_000.0);
        let total = g.total();
        let mut stack = LayerStack::new(9.0, 9.0);
        stack.push(Layer::passive("lid", 1e-3, 200.0));
        stack.push(Layer::active("die", 0.5e-3, 120.0, g));
        let bc = Boundary {
            h_top: h,
            h_bottom: 10.0,
            ambient: 40.0,
        };
        let cfg = SolverConfig::builder().nx(3).ny(3).build();
        let f = solve_with_stats(&stack, bc, cfg).unwrap().field;
        assert!(f.min() >= 40.0 - 1e-6, "below ambient: {}", f.min());
        // lumped upper bound: all power through the weakest single-cell path
        let cell_area = (3e-3f64) * (3e-3);
        let r_worst = 1.0 / (h * cell_area) + 1e-3 / (200.0 * cell_area);
        assert!(
            f.peak() <= 40.0 + total * r_worst + 1e-6,
            "peak {} too hot",
            f.peak()
        );
    }
}
