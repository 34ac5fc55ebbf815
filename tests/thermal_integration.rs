//! Integration: floorplans → power grids → thermal solver, spanning
//! `stacksim-floorplan`, `stacksim-thermal` and `stacksim-core`.

use stacksim::core::memory_logic::{fig6_with, fig8_with, thermal_stack};
use stacksim::core::StackOption;
use stacksim::floorplan::core2::core2_duo_92w;
use stacksim::floorplan::p4::pentium4_147w;
use stacksim::floorplan::{fold, worst_case_stack, FoldOptions};
use stacksim::thermal::{solve_with_stats, Boundary, LayerStack, SolverConfig};

fn quick_cfg() -> SolverConfig {
    SolverConfig::builder().nx(20).ny(17).build()
}

#[test]
fn fig8_reproduces_the_papers_ordering_and_magnitudes() {
    let (points, _) = fig8_with(SolverConfig::default()).unwrap();
    let peaks: Vec<f64> = points.iter().map(|p| p.peak_c).collect();
    // paper: 88.35 / 92.85 / 88.43 / 90.27
    assert!((peaks[0] - 88.35).abs() < 1.2, "baseline {:.2}", peaks[0]);
    assert!((peaks[1] - 92.85).abs() < 1.2, "12MB {:.2}", peaks[1]);
    assert!((peaks[2] - 88.43).abs() < 1.2, "32MB {:.2}", peaks[2]);
    assert!((peaks[3] - 90.27).abs() < 1.2, "64MB {:.2}", peaks[3]);
    // ordering: SRAM hottest, DRAM-32 nearly free
    assert!(peaks[1] > peaks[3] && peaks[3] > peaks[2]);
}

#[test]
fn fig6_hotspots_sit_over_the_cores_not_the_cache() {
    let ((_, field), _) = fig6_with(SolverConfig::default()).unwrap();
    let active = field
        .layer_names()
        .iter()
        .position(|n| n == "active 1")
        .expect("active layer");
    let map = field.layer(active);
    let (nx, ny) = field.dims();
    // cores occupy the top half (y > 1/2); the L2 the bottom half
    let top_max = (ny / 2..ny)
        .flat_map(|j| (0..nx).map(move |i| (i, j)))
        .map(|(i, j)| map[j * nx + i])
        .fold(f64::NEG_INFINITY, f64::max);
    let bottom_max = (0..ny / 2)
        .flat_map(|j| (0..nx).map(move |i| (i, j)))
        .map(|(i, j)| map[j * nx + i])
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        top_max > bottom_max + 5.0,
        "cores ({top_max:.1}) must be much hotter than the L2 ({bottom_max:.1})"
    );
}

#[test]
fn thermal_stacks_carry_the_right_power() {
    for option in StackOption::all() {
        let stack = thermal_stack(option, 20);
        assert!(
            (stack.total_power() - option.total_power()).abs() < 1e-6,
            "{option}: {} vs {}",
            stack.total_power(),
            option.total_power()
        );
    }
}

#[test]
fn stacking_a_hot_die_is_worse_than_a_cool_die() {
    let cpu = core2_duo_92w();
    let cfg = quick_cfg();
    let grid = cpu.power_grid(cfg.nx, cfg.ny);
    let run = |top_w: f64| {
        let top = stacksim::floorplan::uniform_die("top", cpu.width(), cpu.height(), top_w);
        let stack = LayerStack::two_die(
            cpu.width(),
            cpu.height(),
            grid.clone(),
            top.power_grid(cfg.nx, cfg.ny),
            false,
        );
        solve_with_stats(&stack, Boundary::desktop(), cfg)
            .unwrap()
            .field
            .peak()
    };
    let cool = run(3.0);
    let hot = run(20.0);
    assert!(hot > cool + 1.0, "hot {hot:.2} vs cool {cool:.2}");
}

#[test]
fn folded_p4_stays_well_below_the_worst_case() {
    let planar = pentium4_147w();
    let folded = fold(&planar, FoldOptions::default()).unwrap();
    let wc = worst_case_stack(&planar);
    let cfg = quick_cfg();
    let solve_stack = |s: &stacksim::floorplan::StackedFloorplan| {
        let d0 = &s.dies()[0];
        let d1 = &s.dies()[1];
        let bc = Boundary::performance().scaled_to_area(planar.area(), d0.area());
        let stack = LayerStack::two_die(
            d0.width(),
            d0.height(),
            d0.power_grid(cfg.nx, cfg.ny),
            d1.power_grid(cfg.nx, cfg.ny),
            false,
        );
        solve_with_stats(&stack, bc, cfg).unwrap().field.peak()
    };
    let repaired = solve_stack(&folded);
    let worst = solve_stack(&wc);
    assert!(
        repaired + 10.0 < worst,
        "hotspot repair must buy >10 C: {repaired:.1} vs {worst:.1}"
    );
}

#[test]
fn solver_grid_refinement_converges() {
    // peak temperature at 20x17 and 40x34 must agree within a degree —
    // the discretisation is fine enough for the study's conclusions
    let cpu = core2_duo_92w();
    let run = |nx: usize, ny: usize| {
        let cfg = SolverConfig::builder().nx(nx).ny(ny).build();
        let stack = LayerStack::planar(cpu.width(), cpu.height(), cpu.power_grid(nx, ny));
        solve_with_stats(&stack, Boundary::desktop(), cfg)
            .unwrap()
            .field
            .peak()
    };
    let coarse = run(20, 17);
    let fine = run(40, 34);
    assert!(
        (coarse - fine).abs() < 1.5,
        "coarse {coarse:.2} vs fine {fine:.2}"
    );
}
