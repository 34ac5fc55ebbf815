//! Integration: workloads → trace → memory hierarchy → CPMA metrics,
//! spanning `stacksim-workloads`, `stacksim-trace`, `stacksim-mem` and
//! `stacksim-core`.

use stacksim::core::memory_logic::{run_benchmark_instrumented, WARMUP_FRACTION};
use stacksim::core::StackOption;
use stacksim::mem::{Engine, EngineConfig, MemoryHierarchy, ServiceLevel};
use stacksim::trace::{CpuId, MemOp, TraceStats};
use stacksim::workloads::{RmsBenchmark, WorkloadParams};

#[test]
fn every_benchmark_runs_on_every_stack_option() {
    let params = WorkloadParams::test();
    for benchmark in RmsBenchmark::all() {
        let (row, _) = run_benchmark_instrumented(benchmark, &params).unwrap();
        for (i, option) in StackOption::all().iter().enumerate() {
            assert!(
                row.cpma[i] >= 0.4 && row.cpma[i] < 500.0,
                "{benchmark} on {option}: cpma {}",
                row.cpma[i]
            );
            assert!(
                row.bandwidth[i] >= 0.0 && row.bandwidth[i] < 17.0,
                "{benchmark} bw"
            );
        }
    }
}

#[test]
fn cpma_floor_is_half_a_cycle_for_two_threads() {
    // two threads issuing one reference per cycle each bound CPMA at 0.5;
    // the warm-up boundary lets a little issue overlap leak across the
    // measurement window, so allow a few percent of slack
    let params = WorkloadParams::test();
    let (row, _) = run_benchmark_instrumented(RmsBenchmark::SAvdf, &params).unwrap();
    for c in row.cpma {
        assert!(c >= 0.45, "cpma {c} cannot beat the issue floor");
    }
}

#[test]
fn engine_results_are_deterministic_across_runs() {
    let params = WorkloadParams::test();
    let trace = RmsBenchmark::Pcg.generate(&params);
    let run = || {
        let mut e = Engine::new(
            MemoryHierarchy::new(StackOption::Dram32M.hierarchy()).expect("valid preset"),
            EngineConfig::default(),
        );
        e.run(&trace)
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.offdie_bytes, b.offdie_bytes);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn trace_statistics_survive_the_interleave() {
    let params = WorkloadParams::test();
    let trace = RmsBenchmark::Gauss.generate(&params);
    let stats = TraceStats::measure(&trace);
    assert_eq!(stats.per_cpu.len(), 2);
    // round-robin interleave keeps the two threads within one chunk of
    // each other in record counts (kernels may emit different extras)
    let ratio = stats.per_cpu[0] as f64 / stats.per_cpu[1] as f64;
    assert!(ratio > 0.8 && ratio < 1.25, "thread balance {ratio}");
}

#[test]
fn stacked_hierarchy_serves_from_the_stacked_level() {
    // walk a working set bigger than L2 but smaller than the stacked DRAM,
    // twice: the second pass must hit the stacked level, not memory
    let mut h = MemoryHierarchy::new(StackOption::Dram32M.hierarchy()).expect("valid preset");
    let lines: u64 = 8192; // 512 KB at 64 B
    let mut t = 0;
    for pass in 0..2 {
        for i in 0..lines {
            let r = h.access(CpuId::new(0), MemOp::Load, 0x100_0000 + i * 64, t);
            t = r.done;
            if pass == 1 {
                assert_ne!(
                    r.level,
                    ServiceLevel::Memory,
                    "warm line {i} must be on die (got memory)"
                );
            }
        }
    }
    assert!(
        h.stats().stacked_hits > 0,
        "the stacked level served traffic"
    );
}

#[test]
fn capacity_sensitive_benchmarks_improve_with_the_stack_at_paper_scale() {
    // one paper-scale spot check (the full sweep is `stacksim run fig5`):
    // gauss must improve dramatically from 4 MB to 32 MB
    let (row, _) =
        run_benchmark_instrumented(RmsBenchmark::Gauss, &WorkloadParams::paper()).unwrap();
    assert!(
        row.cpma_reduction(2) > 0.3,
        "gauss @32MB reduction {:.2}",
        row.cpma_reduction(2)
    );
    // and the insensitive dSym must stay within noise
    let (flat, _) =
        run_benchmark_instrumented(RmsBenchmark::DSym, &WorkloadParams::paper()).unwrap();
    assert!(
        flat.cpma_reduction(2).abs() < 0.15,
        "dSym @32MB reduction {:.2}",
        flat.cpma_reduction(2)
    );
}

#[test]
#[ignore = "paper scale: ~4 M records; run in CI with --release -- --ignored"]
fn paper_scale_streamed_point_matches_generate_and_run_warmed() {
    // sAVDF is the smallest paper-scale trace, and still far longer than
    // the generation stream's buffers, so the harness streams it: one
    // generation pass fanned out to four engine threads
    let params = WorkloadParams::paper();
    let (row, _) = run_benchmark_instrumented(RmsBenchmark::SAvdf, &params).unwrap();
    let trace = RmsBenchmark::SAvdf.generate(&params);
    for (i, option) in StackOption::all().into_iter().enumerate() {
        let mut engine = Engine::new(
            MemoryHierarchy::new(option.hierarchy()).expect("valid preset"),
            EngineConfig::default(),
        );
        let batch = engine.run_warmed(&trace, WARMUP_FRACTION);
        assert_eq!(row.cpma[i].to_bits(), batch.cpma.to_bits(), "{option} cpma");
        assert_eq!(
            row.bandwidth[i].to_bits(),
            batch.offdie_gb_per_sec.to_bits(),
            "{option} bandwidth"
        );
    }
}
