//! Thermal passes: layer ordering, material parameters and power-map
//! geometry (§2.3 of the paper).

use super::positive;
use crate::diag::Report;
use crate::model::{Model, ThermalDesc};
use crate::pass::Pass;

/// Geometric slack in mm below which differences are floating-point noise.
const GEOM_EPS: f64 = 1e-9;

/// `SL010`: the stack must run heat sink → IHS → dies (+ bond) → package →
/// motherboard. Checked structurally: the named anchor layers must sit in
/// that order and every powered (active) layer must lie between the IHS and
/// the package.
pub struct LayerOrder;

fn position(t: &ThermalDesc, name: &str) -> Option<usize> {
    t.layers.iter().position(|l| l.name == name)
}

impl Pass for LayerOrder {
    fn id(&self) -> &'static str {
        "thermal-layer-order"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SL010"]
    }

    fn description(&self) -> &'static str {
        "thermal layers must run heat sink → IHS → dies → package → motherboard"
    }

    fn run(&self, model: &Model, report: &mut Report) {
        for t in &model.thermal {
            if let Some(i) = position(t, "heat sink") {
                if i != 0 {
                    report.error(
                        "SL010",
                        format!("{}.layer[{i}] 'heat sink'", t.path),
                        "the heat sink must be the first (topmost) layer",
                    );
                }
            }
            if let Some(i) = position(t, "motherboard") {
                if i + 1 != t.layers.len() {
                    report.error(
                        "SL010",
                        format!("{}.layer[{i}] 'motherboard'", t.path),
                        "the motherboard must be the last layer",
                    );
                }
            }
            let ihs = position(t, "ihs");
            let package = position(t, "package");
            if let (Some(i), Some(p)) = (ihs, package) {
                if i > p {
                    report.error(
                        "SL010",
                        format!("{}.layer[{i}] 'ihs'", t.path),
                        "the IHS must sit above the package",
                    );
                }
            }
            for (i, l) in t.layers.iter().enumerate() {
                if l.power.is_none() {
                    continue;
                }
                let span = format!("{}.layer[{i}] '{}'", t.path, l.name);
                if let Some(h) = ihs {
                    if i < h {
                        report.error(
                            "SL010",
                            span,
                            "an active (powered) layer sits above the IHS",
                        );
                        continue;
                    }
                }
                if let Some(p) = package {
                    if i > p {
                        report.error(
                            "SL010",
                            span,
                            "an active (powered) layer sits below the package",
                        );
                    }
                }
            }
        }
    }
}

/// `SL011`: every layer needs positive, finite thickness and
/// conductivities, and the stack needs a positive die footprint.
pub struct LayerParams;

impl Pass for LayerParams {
    fn id(&self) -> &'static str {
        "thermal-layer-params"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SL011"]
    }

    fn description(&self) -> &'static str {
        "layer thickness and conductivity must be positive and finite"
    }

    fn run(&self, model: &Model, report: &mut Report) {
        for t in &model.thermal {
            if !positive(t.die_w_mm) || !positive(t.die_h_mm) {
                report.error(
                    "SL011",
                    format!("{}.die_dims", t.path),
                    format!(
                        "die footprint {} × {} mm is not positive",
                        t.die_w_mm, t.die_h_mm
                    ),
                );
            }
            for (i, l) in t.layers.iter().enumerate() {
                let span = format!("{}.layer[{i}] '{}'", t.path, l.name);
                let fields = [
                    ("thickness", l.thickness_m),
                    ("vertical conductivity", l.k_vertical),
                    ("lateral conductivity", l.k_lateral),
                ];
                for (what, v) in fields {
                    if !positive(v) || !v.is_finite() {
                        report.error(
                            "SL011",
                            span.clone(),
                            format!("{what} is {v}; it must be positive and finite"),
                        );
                    }
                }
            }
        }
    }
}

/// `SL012`: an active layer's power map must be a non-empty grid covering
/// exactly the stack's die footprint, with finite non-negative total power.
pub struct PowerGridMatch;

impl Pass for PowerGridMatch {
    fn id(&self) -> &'static str {
        "thermal-power-grid"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SL012"]
    }

    fn description(&self) -> &'static str {
        "power maps must match the die footprint and carry sane totals"
    }

    fn run(&self, model: &Model, report: &mut Report) {
        for t in &model.thermal {
            for (i, l) in t.layers.iter().enumerate() {
                let Some(p) = &l.power else { continue };
                let span = format!("{}.layer[{i}] '{}'", t.path, l.name);
                if p.nx == 0 || p.ny == 0 {
                    report.error(
                        "SL012",
                        span.clone(),
                        format!(
                            "power grid is {} × {} cells; both must be at least 1",
                            p.nx, p.ny
                        ),
                    );
                }
                if (p.width_mm - t.die_w_mm).abs() > GEOM_EPS
                    || (p.height_mm - t.die_h_mm).abs() > GEOM_EPS
                {
                    report.error(
                        "SL012",
                        span.clone(),
                        format!(
                            "power map covers {} × {} mm but the stack footprint is {} × {} mm",
                            p.width_mm, p.height_mm, t.die_w_mm, t.die_h_mm
                        ),
                    );
                }
                if !p.total_w.is_finite() || p.total_w < 0.0 {
                    report.error(
                        "SL012",
                        span,
                        format!("total injected power is {} W", p.total_w),
                    );
                }
            }
        }
    }
}

/// `SL013` (warning): a stack with no powered layer, or zero total power,
/// solves to a flat ambient field — usually a forgotten power map.
pub struct ActivePower;

impl Pass for ActivePower {
    fn id(&self) -> &'static str {
        "thermal-active-power"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SL013"]
    }

    fn description(&self) -> &'static str {
        "a thermal stack should inject some power somewhere"
    }

    fn run(&self, model: &Model, report: &mut Report) {
        for t in &model.thermal {
            let total: f64 = t
                .layers
                .iter()
                .filter_map(|l| l.power.as_ref())
                .map(|p| p.total_w)
                .sum();
            let active = t.layers.iter().filter(|l| l.power.is_some()).count();
            if active == 0 {
                report.warn(
                    "SL013",
                    t.path.clone(),
                    "no layer carries a power map; the solve will return ambient everywhere",
                );
            } else if total == 0.0 {
                report.warn(
                    "SL013",
                    t.path.clone(),
                    "all power maps sum to 0 W; the solve will return ambient everywhere",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LayerDesc, PowerDesc};

    fn layer(name: &str, power: Option<PowerDesc>) -> LayerDesc {
        LayerDesc {
            name: name.into(),
            thickness_m: 1e-3,
            k_vertical: 100.0,
            k_lateral: 100.0,
            power,
        }
    }

    fn power(w: f64) -> PowerDesc {
        PowerDesc {
            nx: 4,
            ny: 4,
            width_mm: 13.0,
            height_mm: 11.0,
            total_w: w,
        }
    }

    fn stack(layers: Vec<LayerDesc>) -> Model {
        Model {
            thermal: vec![ThermalDesc {
                path: "fx".into(),
                die_w_mm: 13.0,
                die_h_mm: 11.0,
                layers,
            }],
            ..Model::new()
        }
    }

    fn run(pass: &dyn Pass, model: &Model) -> Report {
        let mut r = Report::new();
        pass.run(model, &mut r);
        r
    }

    #[test]
    fn sl010_fires_when_active_layer_is_above_the_ihs() {
        let model = stack(vec![
            layer("heat sink", None),
            layer("active 1", Some(power(92.0))),
            layer("ihs", None),
            layer("package", None),
            layer("motherboard", None),
        ]);
        let r = run(&LayerOrder, &model);
        assert!(r.has_code("SL010"), "{}", r.render_pretty());
    }

    #[test]
    fn sl010_fires_when_heat_sink_is_buried() {
        let model = stack(vec![
            layer("ihs", None),
            layer("heat sink", None),
            layer("active 1", Some(power(92.0))),
            layer("package", None),
        ]);
        assert!(run(&LayerOrder, &model).has_code("SL010"));
    }

    #[test]
    fn sl010_accepts_the_conventional_order() {
        let model = stack(vec![
            layer("heat sink", None),
            layer("ihs", None),
            layer("active 1", Some(power(92.0))),
            layer("bond", None),
            layer("active 2", Some(power(3.0))),
            layer("package", None),
            layer("motherboard", None),
        ]);
        assert!(run(&LayerOrder, &model).is_clean());
    }

    #[test]
    fn sl011_fires_on_non_positive_material_params() {
        let mut bad = layer("tim", None);
        bad.thickness_m = 0.0;
        let mut nan = layer("bond", None);
        nan.k_vertical = f64::NAN;
        let model = stack(vec![layer("heat sink", None), bad, nan]);
        let r = run(&LayerParams, &model);
        assert!(r.has_code("SL011"));
        assert_eq!(r.error_count(), 2);
    }

    #[test]
    fn sl012_fires_on_power_grid_mismatch() {
        let mut p = power(92.0);
        p.width_mm = 10.0; // stack footprint is 13 mm wide
        let model = stack(vec![layer("active 1", Some(p))]);
        let r = run(&PowerGridMatch, &model);
        assert!(r.has_code("SL012"), "{}", r.render_pretty());

        let mut empty = power(92.0);
        empty.nx = 0;
        let model = stack(vec![layer("active 1", Some(empty))]);
        assert!(run(&PowerGridMatch, &model).has_code("SL012"));
    }

    #[test]
    fn sl013_warns_on_unpowered_stack() {
        let model = stack(vec![layer("heat sink", None), layer("package", None)]);
        let r = run(&ActivePower, &model);
        assert!(r.has_code("SL013"));
        assert!(!r.has_errors(), "SL013 is a warning");

        let model = stack(vec![layer("active 1", Some(power(0.0)))]);
        assert!(run(&ActivePower, &model).has_code("SL013"));
    }
}
