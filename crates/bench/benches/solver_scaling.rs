//! Bench of thermal-solver scaling with grid resolution — documents the
//! cost of higher-fidelity maps.

use stacksim_bench::timing::{bench, group};
use stacksim_floorplan::core2::core2_duo_92w;
use stacksim_thermal::{solve_with_stats, Boundary, LayerStack, SolverConfig};

fn main() {
    let cpu = core2_duo_92w();
    group("solver_resolution");
    for nx in [10usize, 20, 40] {
        let ny = nx * 17 / 20;
        let cfg = SolverConfig::builder().nx(nx).ny(ny).build();
        let power = cpu.power_grid(nx, ny);
        let stack = LayerStack::planar(cpu.width(), cpu.height(), power);
        bench(&format!("solver_resolution/{nx}x{ny}"), || {
            solve_with_stats(&stack, Boundary::desktop(), cfg).unwrap()
        });
    }
}
