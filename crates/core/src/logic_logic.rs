//! The Logic+Logic study (§4): Table 4 per-path gains, Fig. 11 thermals
//! and Table 5 voltage/frequency scaling.

use stacksim_floorplan::p4::pentium4_147w;
use stacksim_floorplan::{fold, worst_case_stack, FoldOptions, StackedFloorplan};
use stacksim_ooo::{suite, CoreConfig, Simulator, WireConfig, WirePath};
use stacksim_power::scaling::{OperatingPoint, ScalingModel};
use stacksim_thermal::{solve_with_stats, Boundary, LayerStack, SolveStats, SolverConfig};

use crate::error::Error;

/// One Table 4 row: a wire path, the stage reduction, the paper's gain and
/// the measured gain.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// The functional path.
    pub path: WirePath,
    /// Table 4's "% of Stages Eliminated" text.
    pub stages: &'static str,
    /// Measured performance gain, percent.
    pub measured_pct: f64,
    /// The paper's reported gain, percent.
    pub paper_pct: f64,
}

/// The Table 4 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Per-path rows in Table 4 order.
    pub rows: Vec<Table4Row>,
    /// Measured gain with *all* paths folded (the "Total" row).
    pub total_pct: f64,
}

/// Runs the Table 4 experiment: per-path and combined speedups averaged
/// over the eight workload classes. `uops_per_class` trades precision for
/// runtime (60 000 reproduces the paper-scale numbers; tests use less).
///
/// # Errors
///
/// Currently infallible, but returns [`enum@Error`] like every other study
/// entry point so the harness can treat all experiments uniformly.
pub fn table4(uops_per_class: usize, seed: u64) -> Result<Table4, Error> {
    let workloads = suite(uops_per_class, seed);
    let planar: Vec<u64> = workloads
        .iter()
        .map(|(_, u)| Simulator::new(CoreConfig::planar()).run(u).cycles)
        .collect();

    let gain_for = |wire: WireConfig| -> f64 {
        let cfg = CoreConfig {
            wire,
            ..CoreConfig::planar()
        };
        let sim = Simulator::new(cfg);
        let mut acc = 0.0;
        for ((_, uops), base) in workloads.iter().zip(&planar) {
            acc += *base as f64 / sim.run(uops).cycles as f64 - 1.0;
        }
        100.0 * acc / workloads.len() as f64
    };

    let rows = WirePath::all()
        .into_iter()
        .map(|path| Table4Row {
            path,
            stages: path.paper_stage_reduction(),
            measured_pct: gain_for(path.apply(WireConfig::planar())),
            paper_pct: path.paper_gain_pct(),
        })
        .collect();
    Ok(Table4 {
        rows,
        total_pct: gain_for(WireConfig::folded_3d()),
    })
}

/// One Fig. 11 bar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Point {
    /// Bar label.
    pub label: &'static str,
    /// Peak temperature in °C.
    pub peak_c: f64,
    /// Total power in watts.
    pub power_w: f64,
    /// The paper's reported value.
    pub paper_c: f64,
}

/// Builds the folded 3D floorplan used by Fig. 11 / Table 5.
///
/// # Errors
///
/// Returns [`Error::Fold`] if the P4 floorplan cannot be packed onto
/// two dies — impossible for the shipped floorplan (a unit test pins
/// it), but propagated instead of panicking.
pub fn folded_p4() -> Result<StackedFloorplan, Error> {
    Ok(fold(&pentium4_147w(), FoldOptions::default())?)
}

fn solve_p4_stack(
    stack3d: &StackedFloorplan,
    power_scale: f64,
    cfg: SolverConfig,
) -> Result<(f64, SolveStats), Error> {
    let d0 = &stack3d.dies()[0];
    let d1 = &stack3d.dies()[1];
    let ny = (cfg.nx * 17 / 20).max(1);
    let planar_area = pentium4_147w().area();
    let bc = Boundary::performance().scaled_to_area(planar_area, d0.area());
    let stack = LayerStack::two_die(
        d0.width(),
        d0.height(),
        d0.power_grid(cfg.nx, ny).scaled(power_scale),
        d1.power_grid(cfg.nx, ny).scaled(power_scale),
        false,
    );
    let sol = solve_with_stats(&stack, bc, cfg)?;
    Ok((sol.field.peak(), sol.stats))
}

/// Solves the three Fig. 11 configurations: planar baseline (147 W), the
/// repaired 3D fold (125 W at ~1.3× density) and the worst case (147 W at
/// 2× density), also returning the accumulated CG statistics of the three
/// thermal solves. The harness threads its solver configuration (the
/// degradation ladder's rung) through `cfg`.
///
/// # Errors
///
/// Propagates the first solver failure.
pub fn fig11_with(cfg: SolverConfig) -> Result<(Vec<Fig11Point>, SolveStats), Error> {
    let planar = pentium4_147w();
    let ny = (cfg.nx * 17 / 20).max(1);
    let mut stats = SolveStats::default();

    let base = solve_with_stats(
        &LayerStack::planar(
            planar.width(),
            planar.height(),
            planar.power_grid(cfg.nx, ny),
        ),
        Boundary::performance(),
        cfg,
    )?;
    stats.absorb(base.stats);

    let folded = folded_p4()?;
    let (folded_peak, s) = solve_p4_stack(&folded, 1.0, cfg)?;
    stats.absorb(s);

    let wc = worst_case_stack(&planar);
    let (wc_peak, s) = solve_p4_stack(&wc, 1.0, cfg)?;
    stats.absorb(s);

    let points = vec![
        Fig11Point {
            label: "2D Baseline",
            peak_c: base.field.peak(),
            power_w: planar.total_power(),
            paper_c: 98.6,
        },
        Fig11Point {
            label: "3D",
            peak_c: folded_peak,
            power_w: folded.total_power(),
            paper_c: 112.5,
        },
        Fig11Point {
            label: "3D Worstcase",
            peak_c: wc_peak,
            power_w: wc.total_power(),
            paper_c: 124.75,
        },
    ];
    Ok((points, stats))
}

/// One Table 5 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Row label ("Baseline", "Same Pwr", ...).
    pub label: &'static str,
    /// Power in watts.
    pub power_w: f64,
    /// Power as a percentage of the planar baseline.
    pub power_pct: f64,
    /// Peak temperature in °C (thermally solved).
    pub temp_c: f64,
    /// Performance as a percentage of the planar baseline.
    pub perf_pct: f64,
    /// Supply voltage relative to nominal.
    pub vcc: f64,
    /// Frequency relative to nominal.
    pub freq: f64,
}

/// Runs the Table 5 scaling study. Each row's temperature column is solved
/// with the finite-volume model on the folded stack (the baseline row uses
/// the planar stack), exactly as the paper "simulated using the tool
/// described in Section 2.3". Also returns the accumulated CG statistics
/// of every thermal solve — including the ~24 solves of the Same-Temp
/// bisection. The harness threads its solver configuration (the
/// degradation ladder's rung) through `cfg`.
///
/// # Errors
///
/// Propagates the first thermal-solver failure.
pub fn table5_with(cfg: SolverConfig) -> Result<(Vec<Table5Row>, SolveStats), Error> {
    let planar = pentium4_147w();
    let ny = (cfg.nx * 17 / 20).max(1);
    let mut stats = SolveStats::default();
    let baseline = solve_with_stats(
        &LayerStack::planar(
            planar.width(),
            planar.height(),
            planar.power_grid(cfg.nx, ny),
        ),
        Boundary::performance(),
        cfg,
    )?;
    stats.absorb(baseline.stats);
    let baseline_temp = baseline.field.peak();

    let folded = folded_p4()?;
    let model = ScalingModel::fig11_3d();
    // the folded floorplan already carries the 15% power saving; scale
    // factors below are relative to its 125 W nominal
    let folded_nominal = folded.total_power();

    let mut rows = Vec::new();
    rows.push(Table5Row {
        label: "Baseline",
        power_w: 147.0,
        power_pct: 100.0,
        temp_c: baseline_temp,
        perf_pct: 100.0,
        vcc: 1.0,
        freq: 1.0,
    });

    let make_row =
        |label: &'static str, point: OperatingPoint| -> Result<(Table5Row, SolveStats), Error> {
            let power = model.power(point);
            let (temp, s) = solve_p4_stack(&folded, power / folded_nominal, cfg)?;
            Ok((
                Table5Row {
                    label,
                    power_w: power,
                    power_pct: 100.0 * power / 147.0,
                    temp_c: temp,
                    perf_pct: model.perf(point),
                    vcc: point.vcc,
                    freq: point.freq,
                },
                s,
            ))
        };

    let (row, s) = make_row("Same Pwr", model.scale_freq_to_power(147.0))?;
    stats.absorb(s);
    rows.push(row);
    let (row, s) = make_row("Same Freq.", OperatingPoint::nominal())?;
    stats.absorb(s);
    rows.push(row);
    // find the joint scale where the folded stack returns to the baseline
    // peak temperature (bisection over thermal solves)
    let same_temp = {
        let mut lo = 0.5f64;
        let mut hi = 1.1f64;
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            let point = OperatingPoint::scaled_together(mid);
            let (t, s) = solve_p4_stack(&folded, point.power_factor(), cfg)?;
            stats.absorb(s);
            if t > baseline_temp {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        OperatingPoint::scaled_together(0.5 * (lo + hi))
    };
    let (row, s) = make_row("Same Temp", same_temp)?;
    stats.absorb(s);
    rows.push(row);
    let (row, s) = make_row("Same Perf.", model.scale_to_perf(100.0))?;
    stats.absorb(s);
    rows.push(row);
    Ok((rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_small_run_preserves_shape() {
        let t = table4(12_000, 3).unwrap();
        assert_eq!(t.rows.len(), 10);
        // the big three remain the big three
        let gain = |p: WirePath| {
            t.rows
                .iter()
                .find(|r| r.path == p)
                .expect("row exists")
                .measured_pct
        };
        let fp = gain(WirePath::FpLatency);
        let store = gain(WirePath::StoreLifetime);
        let fe = gain(WirePath::FrontEnd);
        assert!(fp > 2.0, "FP latency dominates: {fp}");
        assert!(store > 1.0, "store lifetime matters: {store}");
        assert!(fe < 1.0, "front end is minor: {fe}");
        // the combined machine gains roughly the paper's 15%
        assert!(
            t.total_pct > 10.0 && t.total_pct < 25.0,
            "total {}",
            t.total_pct
        );
    }

    #[test]
    fn fig11_ordering_and_baseline() {
        let (pts, _) = fig11_with(SolverConfig::default()).unwrap();
        assert_eq!(pts.len(), 3);
        assert!(
            (pts[0].peak_c - 98.6).abs() < 1.5,
            "baseline {:.2}",
            pts[0].peak_c
        );
        assert!(
            (pts[1].peak_c - 112.5).abs() < 2.5,
            "3D {:.2}",
            pts[1].peak_c
        );
        assert!(pts[1].peak_c < pts[2].peak_c, "repair beats worst case");
        assert!((pts[1].power_w - 125.0).abs() < 1.0, "15% power saving");
        assert!(
            (pts[2].power_w - 147.0).abs() < 1e-6,
            "worst case saves nothing"
        );
    }

    #[test]
    fn table5_rows_follow_the_papers_shape() {
        let (rows, _) = table5_with(SolverConfig::default()).unwrap();
        assert_eq!(rows.len(), 5);
        let by = |l: &str| rows.iter().find(|r| r.label == l).expect("row");
        let baseline = by("Baseline");
        let same_pwr = by("Same Pwr");
        let same_freq = by("Same Freq.");
        let same_temp = by("Same Temp");
        let same_perf = by("Same Perf.");
        // Same Pwr: 147 W, ~129% perf at ~1.18 freq
        assert!((same_pwr.power_w - 147.0).abs() < 0.5);
        assert!((same_pwr.freq - 1.176).abs() < 0.02);
        assert!((same_pwr.perf_pct - 129.0).abs() < 2.0);
        // Same Freq: 125 W / 115%
        assert!((same_freq.power_pct - 85.0).abs() < 0.5);
        assert!((same_freq.perf_pct - 115.0).abs() < 1e-9);
        // Same Temp: lower voltage, large power cut, still faster than 2D
        assert!(
            same_temp.vcc < 1.0 && same_temp.vcc > 0.85,
            "vcc {}",
            same_temp.vcc
        );
        assert!((same_temp.temp_c - baseline.temp_c).abs() < 0.5);
        assert!(same_temp.perf_pct > 104.0);
        assert!(same_temp.power_pct < 80.0, "power {}", same_temp.power_pct);
        // Same Perf: ~0.82 scale, under half the baseline power
        assert!((same_perf.vcc - 0.817).abs() < 0.02);
        assert!(same_perf.power_pct < 50.0);
        assert!(same_perf.temp_c < baseline.temp_c);
    }
}
