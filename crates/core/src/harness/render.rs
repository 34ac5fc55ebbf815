//! Text rendering of artifacts — the presentation layer behind
//! `stacksim run <name> --show`.

use std::fmt::Write as _;

use stacksim_floorplan::p4::pentium4_147w;
use stacksim_floorplan::wire::fig9_paths;
use stacksim_floorplan::PowerGrid;
use stacksim_thermal::TemperatureField;

use super::artifact::Artifact;
use crate::memory_logic::Fig5Data;
use crate::report::{fmt_f, TextTable};
use crate::stacking::StackOption;

/// Renders any artifact as the text a human wants to read for that
/// figure or table.
pub fn render(artifact: &Artifact) -> String {
    match artifact {
        Artifact::Fig3(d) => {
            let mut t = TextTable::new(["k (W/mK)", "Cu metal layers (C)", "Bonding layer (C)"]);
            for (m, b) in d.cu_metal.iter().zip(&d.bond) {
                t.row([fmt_f(m.k, 0), fmt_f(m.peak_c, 2), fmt_f(b.peak_c, 2)]);
            }
            let mut out = t.render();
            let _ = write!(
                out,
                "span over the sweep: metal {:.2} C vs bond {:.2} C — the metal stack \
                 dominates, as in the paper",
                crate::sensitivity::Fig3Data::span(&d.cu_metal),
                crate::sensitivity::Fig3Data::span(&d.bond),
            );
            out
        }
        Artifact::Fig5Row(r) => {
            let mut t = TextTable::new(["bench", "4MB", "12MB", "32MB", "64MB", "red@32"]);
            t.row([
                r.benchmark.name().to_string(),
                fmt_f(r.cpma[0], 3),
                fmt_f(r.cpma[1], 3),
                fmt_f(r.cpma[2], 3),
                fmt_f(r.cpma[3], 3),
                format!("{:+.1}%", -100.0 * r.cpma_reduction(2)),
            ]);
            t.render()
        }
        Artifact::Fig5(d) => render_fig5(d),
        Artifact::Fig6 { power, field } => {
            let mut out = power_map(power);
            out.push('\n');
            out.push_str(&thermal_map(field, "active 1"));
            out
        }
        Artifact::Fig8(points) => {
            let paper = [88.35, 92.85, 88.43, 90.27];
            let mut t =
                TextTable::new(["option", "peak C (ours)", "peak C (paper)", "delta vs 2D"]);
            let base = points.first().map_or(0.0, |p| p.peak_c);
            for (p, target) in points.iter().zip(paper) {
                t.row([
                    p.option.label().to_string(),
                    fmt_f(p.peak_c, 2),
                    fmt_f(target, 2),
                    format!("{:+.2}", p.peak_c - base),
                ]);
            }
            let mut out = fig7_options();
            out.push('\n');
            out.push_str(&t.render());
            if let Some(p32) = points.get(2) {
                out.push_str("\n3D 32MB CPU-die thermal map (Fig. 8b), '@' = hottest:\n");
                out.push_str(&thermal_map(&p32.field, "active 1"));
            }
            out
        }
        Artifact::Fig11(points) => {
            let mut out = fig9_10_floorplans();
            out.push('\n');
            let mut t = TextTable::new([
                "configuration",
                "power W",
                "peak C (ours)",
                "peak C (paper)",
            ]);
            for p in points {
                t.row([
                    p.label.to_string(),
                    fmt_f(p.power_w, 1),
                    fmt_f(p.peak_c, 2),
                    fmt_f(p.paper_c, 2),
                ]);
            }
            out.push_str(&t.render());
            out
        }
        Artifact::Table4(t4) => {
            let mut t =
                TextTable::new(["Functionality", "% stages eliminated", "ours %", "paper %"]);
            for r in &t4.rows {
                t.row([
                    r.path.name().to_string(),
                    r.stages.to_string(),
                    fmt_f(r.measured_pct, 2),
                    fmt_f(r.paper_pct, 2),
                ]);
            }
            t.row([
                "Total".to_string(),
                "~25%".to_string(),
                fmt_f(t4.total_pct, 2),
                "~15".to_string(),
            ]);
            t.render()
        }
        Artifact::Table5(rows) => {
            let mut t =
                TextTable::new(["row", "Pwr W", "Pwr %", "Temp C", "Perf %", "Vcc", "Freq"]);
            for r in rows {
                t.row([
                    r.label.to_string(),
                    fmt_f(r.power_w, 1),
                    fmt_f(r.power_pct, 0),
                    fmt_f(r.temp_c, 1),
                    fmt_f(r.perf_pct, 0),
                    fmt_f(r.vcc, 2),
                    fmt_f(r.freq, 2),
                ]);
            }
            t.render()
        }
        Artifact::Headline(h) => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "mean CPMA reduction   : {:>6.1}%   (paper: 13%)",
                100.0 * h.mean_cpma_reduction
            );
            let _ = writeln!(
                out,
                "peak CPMA reduction   : {:>6.1}%   (paper: as much as 55%)",
                100.0 * h.peak_cpma_reduction
            );
            let _ = writeln!(
                out,
                "off-die BW reduction  : {:>6.2}x   (paper: 3x)",
                h.bandwidth_reduction_factor
            );
            let _ = write!(
                out,
                "bus power saving      : {:>6.2} W ({:.0}%)  (paper: ~0.5 W, 66%)",
                h.bus_power_saving_w,
                100.0 * h.bus_power_reduction()
            );
            out
        }
        Artifact::ExplorePoint { metrics } => {
            let mut t = TextTable::new(["metric", "value"]);
            for (name, value) in metrics {
                t.row([name.clone(), fmt_f(*value, 4)]);
            }
            t.render()
        }
    }
}

/// The Fig. 7 option table: each stacking option's LLC and power budget.
/// Static configuration, not an experiment result.
fn fig7_options() -> String {
    let mut t = TextTable::new(["option", "LLC", "CPU die W", "stacked die W", "total W"]);
    for o in StackOption::all() {
        t.row([
            o.label().to_string(),
            format!("{} MB", o.capacity_mb()),
            fmt_f(o.cpu_floorplan().total_power(), 1),
            fmt_f(o.stacked_die_power(), 1),
            fmt_f(o.total_power(), 1),
        ]);
    }
    format!("Fig. 7 stacking options:\n{}", t.render())
}

/// The Fig. 9/10 floorplan summary: the planar P4-class core, its
/// critical wire routes, and the two-die fold. Static geometry, not an
/// experiment result.
fn fig9_10_floorplans() -> String {
    let planar = pentium4_147w();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 9 planar: {:.0} x {:.0} mm, {:.0} W, {} blocks (hottest: scheduler)",
        planar.width(),
        planar.height(),
        planar.total_power(),
        planar.blocks().len()
    );
    for path in fig9_paths(&planar) {
        let _ = writeln!(
            out,
            "  wire route {:<28}: {:.1} mm planar -> {:.1} mm stacked ({:.0}%)",
            path.name,
            path.planar_mm,
            path.stacked_mm,
            100.0 * path.ratio()
        );
    }
    match crate::logic_logic::folded_p4() {
        Ok(folded) => {
            let d0 = &folded.dies()[0];
            let _ = writeln!(
                out,
                "Fig. 10 3D: two dies of {:.1} x {:.1} mm ({:.0}% footprint), {:.1} W total \
                 ({} + {} blocks), peak stacked density {:.2}x planar",
                d0.width(),
                d0.height(),
                100.0 * d0.area() / planar.area(),
                folded.total_power(),
                folded.dies()[0].blocks().len(),
                folded.dies()[1].blocks().len(),
                folded.peak_stacked_density(48, 40) / planar.power_grid(48, 40).peak_density(),
            );
        }
        Err(e) => {
            let _ = writeln!(out, "Fig. 10 3D: fold failed: {e}");
        }
    }
    out
}

/// The full Fig. 5 rendering: CPMA table, bandwidth table and headline.
pub fn render_fig5(data: &Fig5Data) -> String {
    let mut cpma = TextTable::new(["bench (CPMA)", "4MB", "12MB", "32MB", "64MB", "red@32"]);
    for r in &data.rows {
        cpma.row([
            r.benchmark.name().to_string(),
            fmt_f(r.cpma[0], 3),
            fmt_f(r.cpma[1], 3),
            fmt_f(r.cpma[2], 3),
            fmt_f(r.cpma[3], 3),
            format!("{:+.1}%", -100.0 * r.cpma_reduction(2)),
        ]);
    }
    let mean = data.mean_cpma();
    cpma.row([
        "Avg".to_string(),
        fmt_f(mean[0], 3),
        fmt_f(mean[1], 3),
        fmt_f(mean[2], 3),
        fmt_f(mean[3], 3),
        format!("{:+.1}%", -100.0 * (1.0 - mean[2] / mean[0])),
    ]);

    let mut bw = TextTable::new(["bench (BW GB/s)", "4MB", "12MB", "32MB", "64MB"]);
    for r in &data.rows {
        bw.row([
            r.benchmark.name().to_string(),
            fmt_f(r.bandwidth[0], 2),
            fmt_f(r.bandwidth[1], 2),
            fmt_f(r.bandwidth[2], 2),
            fmt_f(r.bandwidth[3], 2),
        ]);
    }
    let mb = data.mean_bandwidth();
    bw.row([
        "Avg".to_string(),
        fmt_f(mb[0], 2),
        fmt_f(mb[1], 2),
        fmt_f(mb[2], 2),
        fmt_f(mb[3], 2),
    ]);

    let h = data.headline();
    let mut out = cpma.render();
    out.push('\n');
    out.push_str(&bw.render());
    let _ = write!(
        out,
        "\noptions: {}\nheadline @32MB: mean CPMA -{:.1}% (paper 13%), peak -{:.1}% \
         (paper ~50-55%), BW /{:.2} (paper 3x)",
        StackOption::all()
            .map(|o| o.label().to_string())
            .join(" / "),
        100.0 * h.mean_cpma_reduction,
        100.0 * h.peak_cpma_reduction,
        h.bandwidth_reduction_factor,
    );
    out
}

/// ASCII power-density map (denser glyph = higher power).
pub fn power_map(power: &PowerGrid) -> String {
    let (nx, ny) = power.dims();
    let cells = power.cells();
    let max = cells.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = format!("power map (total {:.1} W), '@' = densest:\n", power.total());
    for j in (0..ny).rev() {
        for i in 0..nx {
            let g = ((cells[j * nx + i] / max) * (glyphs.len() - 1) as f64).round() as usize;
            out.push(glyphs[g.min(glyphs.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

/// ASCII thermal map of the named layer, with peak/min summary.
pub fn thermal_map(field: &TemperatureField, layer_name: &str) -> String {
    let Some(idx) = field.layer_names().iter().position(|n| n == layer_name) else {
        return format!("(no layer named '{layer_name}')");
    };
    let die = field.layer(idx);
    let min = die.iter().cloned().fold(f64::INFINITY, f64::min);
    format!(
        "thermal map, peak {:.2} C, coolest on die {:.2} C:\n{}",
        field.peak(),
        min,
        field.ascii_map(idx)
    )
}
