//! Ablation benches for the design decisions called out in DESIGN.md §5:
//! measured as end-metric deltas, not wall-clock — each "bench" runs the
//! two variants once and prints the comparison, then times the realistic
//! variant.

use stacksim_bench::timing::{bench, group};
use stacksim_floorplan::core2::core2_duo_92w;
use stacksim_mem::{
    DramConfig, Engine, EngineConfig, HierarchyConfig, MemoryHierarchy, StackedLevel,
};
use stacksim_thermal::{Boundary, ResistorStack, SolverConfig};
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

/// Ablation 1 (DESIGN.md): dependency-driven issue vs ignoring dependencies.
fn ablate_deps() {
    let trace = RmsBenchmark::Pcg.generate(&WorkloadParams::test());
    let run = |ignore: bool| {
        let mut e = Engine::new(
            MemoryHierarchy::new(HierarchyConfig::core2_baseline()).expect("valid preset"),
            EngineConfig::builder().ignore_deps(ignore).build(),
        );
        e.run(&trace).cpma
    };
    let honoured = run(false);
    let ignored = run(true);
    println!(
        "[ablate_deps] CPMA honouring deps {honoured:.3} vs ignoring {ignored:.3} \
         ({:.1}% optimistic without them)",
        100.0 * (honoured / ignored - 1.0)
    );
    bench("ablate_deps_honoured", || run(false));
}

/// Ablation 2: open-page row-buffer cache vs single open row in the
/// stacked DRAM.
fn ablate_page_policy() {
    let trace = RmsBenchmark::Gauss.generate(&WorkloadParams::test());
    let run = |open_rows: u32| {
        let mut cfg = HierarchyConfig::stacked_dram_32mb();
        if let StackedLevel::Dram { dram, .. } = &mut cfg.stacked {
            *dram = DramConfig { open_rows, ..*dram };
        }
        let mut e = Engine::new(
            MemoryHierarchy::new(cfg).expect("valid preset"),
            EngineConfig::default(),
        );
        e.run(&trace).cpma
    };
    let cached = run(4);
    let single = run(1);
    println!(
        "[ablate_page_policy] CPMA with 4 open rows {cached:.3} vs 1 {single:.3} \
         ({:+.1}% from row-buffer caching)",
        100.0 * (single / cached - 1.0)
    );
    bench("ablate_page_policy_cached", || run(4));
}

/// Ablation 3: finite-volume solve vs the 1-D resistor stack (no lateral
/// spreading).
fn ablate_resistor() {
    let cpu = core2_duo_92w();
    let cfg = SolverConfig::builder().nx(20).ny(17).build();
    let power = cpu.power_grid(cfg.nx, cfg.ny);
    let stack = stacksim_thermal::LayerStack::planar(cpu.width(), cpu.height(), power.clone());
    let fv = stacksim_thermal::solve_with_stats(&stack, Boundary::desktop(), cfg)
        .unwrap()
        .field
        .peak();
    let r1d = ResistorStack::new(&stack, Boundary::desktop());
    let active = stack.layer_index("active 1").unwrap();
    let peak_q = power.peak_density() * 1e6; // W/mm² -> W/m²
    let t1d = r1d.temperature(active, peak_q);
    println!(
        "[ablate_resistor] finite-volume peak {fv:.1} C vs 1-D resistor {t1d:.1} C \
         (spreading is worth {:.1} C)",
        t1d - fv
    );
    bench("ablate_resistor_1d", || r1d.temperature(active, peak_q));
}

/// Ablation 4: allocation-at-request vs MSHR fill latency.
fn ablate_fill_latency() {
    let trace = RmsBenchmark::Gauss.generate(&WorkloadParams::test());
    let run = |fill: bool| {
        let mut cfg = HierarchyConfig::core2_baseline();
        cfg.fill_latency = fill;
        let mut e = Engine::new(
            MemoryHierarchy::new(cfg).expect("valid preset"),
            EngineConfig::default(),
        );
        e.run(&trace).cpma
    };
    let optimistic = run(false);
    let realistic = run(true);
    println!(
        "[ablate_fill_latency] CPMA allocation-at-request {optimistic:.3} vs fill-latency \
         {realistic:.3} ({:+.1}% from modelling fills)",
        100.0 * (realistic / optimistic - 1.0)
    );
    bench("ablate_fill_latency_on", || run(true));
}

fn main() {
    group("ablations");
    ablate_deps();
    ablate_page_policy();
    ablate_resistor();
    ablate_fill_latency();
}
