//! Voltage/frequency design-space walk: sweep the 3D floorplan's operating
//! point across the Table 5 range and print the resulting power /
//! performance / temperature frontier, with temperatures from the thermal
//! solver.
//!
//! ```sh
//! cargo run --release --example vf_scaling
//! ```

use stacksim::core::logic_logic::folded_p4;
use stacksim::floorplan::p4::pentium4_147w;
use stacksim::power::scaling::{OperatingPoint, ScalingModel};
use stacksim::thermal::{solve_with_stats, Boundary, LayerStack, SolverConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ScalingModel::fig11_3d();
    let folded = folded_p4().expect("the P4 floorplan folds");
    let planar = pentium4_147w();
    let cfg = SolverConfig::builder().nx(24).ny(20).build();
    let d0 = &folded.dies()[0];
    let d1 = &folded.dies()[1];
    let bc = Boundary::performance().scaled_to_area(planar.area(), d0.area());
    let nominal_power = folded.total_power();

    // the planar reference temperature the "Same Temp" row targets
    let planar_field = solve_with_stats(
        &LayerStack::planar(
            planar.width(),
            planar.height(),
            planar.power_grid(cfg.nx, cfg.ny),
        ),
        Boundary::performance(),
        cfg,
    )?
    .field;
    println!(
        "planar reference: 147.0 W, {:.1} C peak",
        planar_field.peak()
    );
    println!();
    println!(
        "{:>5} {:>7} {:>8} {:>8} {:>8}",
        "Vcc", "Pwr W", "Pwr %", "Perf %", "Temp C"
    );

    for pct in (70..=118).step_by(4) {
        let s = pct as f64 / 100.0;
        let point = if s > 1.0 {
            // above nominal voltage headroom is exhausted: frequency-only
            OperatingPoint { vcc: 1.0, freq: s }
        } else {
            OperatingPoint::scaled_together(s)
        };
        let power = model.power(point);
        let field = {
            let scale = power / nominal_power;
            let stack = LayerStack::two_die(
                d0.width(),
                d0.height(),
                d0.power_grid(cfg.nx, cfg.ny).scaled(scale),
                d1.power_grid(cfg.nx, cfg.ny).scaled(scale),
                false,
            );
            solve_with_stats(&stack, bc, cfg)?.field
        };
        let marker = if (field.peak() - planar_field.peak()).abs() < 1.5 {
            "  <- thermally neutral"
        } else {
            ""
        };
        println!(
            "{:>5.2} {:>7.1} {:>7.0}% {:>7.0}% {:>8.1}{marker}",
            point.vcc,
            power,
            100.0 * power / 147.0,
            model.perf(point),
            field.peak(),
        );
    }
    Ok(())
}
