//! Thermal exploration: build the Fig. 1 two-die stack for a CPU + DRAM
//! cache, solve it, and print per-layer temperatures plus the die's heat
//! map — the §2.3 methodology end to end.
//!
//! ```sh
//! cargo run --release --example thermal_stack
//! ```

use stacksim::floorplan::core2::core2_duo_92w;
use stacksim::floorplan::uniform_die;
use stacksim::thermal::{solve_with_stats, Boundary, LayerStack, SolverConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cpu = core2_duo_92w();
    let dram = uniform_die("dram32", cpu.width(), cpu.height(), 3.1);
    let cfg = SolverConfig::default();
    let ny = cfg.nx * 17 / 20;

    // face-to-face stack of Fig. 1: CPU die next to the heat sink, thinned
    // DRAM die next to the C4 bumps
    let stack = LayerStack::two_die(
        cpu.width(),
        cpu.height(),
        cpu.power_grid(cfg.nx, ny),
        dram.power_grid(cfg.nx, ny),
        true,
    );
    println!(
        "stack ({} layers, {:.1} W total):",
        stack.layers().len(),
        stack.total_power()
    );

    let field = solve_with_stats(&stack, Boundary::desktop(), cfg)?.field;
    for (i, layer) in stack.layers().iter().enumerate() {
        println!(
            "  {:>12}: {:>7.1} um  k={:>5.0} W/mK   T = {:.2}..{:.2} C{}",
            layer.name(),
            layer.thickness() * 1e6,
            layer.conductivity(),
            field.layer_min(i),
            field.layer_peak(i),
            if layer.power().is_some() {
                "   <- power"
            } else {
                ""
            },
        );
    }

    println!();
    println!("CPU die heat map (peak {:.2} C):", field.peak());
    let active = field
        .layer_names()
        .iter()
        .position(|n| n == "active 1")
        .expect("active layer");
    println!("{}", field.ascii_map(active));

    // what if the bond layer were much worse? (the Fig. 3 question)
    let degraded = stack
        .with_layer_conductivity("bond", 3.0)
        .expect("bond layer exists");
    let worse = solve_with_stats(&degraded, Boundary::desktop(), cfg)?.field;
    println!(
        "bond layer at 3 W/mK instead of 60: peak {:.2} C ({:+.2} C)",
        worse.peak(),
        worse.peak() - field.peak()
    );
    Ok(())
}
