//! Bench over the thermal solver: planar vs two-die stacks and the Fig. 3
//! conductivity sweep.

use stacksim_bench::timing::{bench, group};
use stacksim_floorplan::core2::core2_duo_92w;
use stacksim_floorplan::uniform_die;
use stacksim_thermal::sweep::conductivity_sweep_stats;
use stacksim_thermal::{solve_with_stats, Boundary, LayerStack, SolverConfig};

fn small_cfg() -> SolverConfig {
    SolverConfig::builder().nx(20).ny(17).build()
}

fn main() {
    let cpu = core2_duo_92w();
    let cfg = small_cfg();
    let power = cpu.power_grid(cfg.nx, cfg.ny);
    let dram = uniform_die("dram", cpu.width(), cpu.height(), 3.1).power_grid(cfg.nx, cfg.ny);

    let planar = LayerStack::planar(cpu.width(), cpu.height(), power.clone());
    let stacked = LayerStack::two_die(cpu.width(), cpu.height(), power, dram, true);

    group("thermal_solve");
    for (name, stack) in [("planar", &planar), ("two_die", &stacked)] {
        bench(&format!("thermal_solve/{name}"), || {
            solve_with_stats(stack, Boundary::desktop(), cfg).unwrap()
        });
    }

    group("fig3_sweep");
    bench("fig3_sweep_3pt", || {
        conductivity_sweep_stats(
            &stacked,
            "bond",
            &[60.0, 12.0, 3.0],
            Boundary::desktop(),
            cfg,
        )
        .unwrap()
    });
}
