//! Layered thermal stacks: the die/package/board system of Fig. 1 + Fig. 2.

use stacksim_floorplan::PowerGrid;

use crate::materials::{self, thickness, Conductivity, Metres};
use crate::solver::SolveError;

/// One layer of the thermal stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    name: String,
    thickness: Metres,
    k: Conductivity,
    k_lateral: Conductivity,
    power: Option<PowerGrid>,
}

impl Layer {
    /// A passive layer.
    ///
    /// # Panics
    ///
    /// Panics if thickness or conductivity is not positive.
    pub fn passive(name: impl Into<String>, thickness: Metres, k: Conductivity) -> Self {
        assert!(thickness > 0.0, "layer thickness must be positive");
        assert!(k > 0.0, "conductivity must be positive");
        Layer {
            name: name.into(),
            thickness,
            k,
            k_lateral: k,
            power: None,
        }
    }

    /// A passive layer with distinct vertical and lateral conductivities.
    /// Used to model layers that physically extend beyond the die footprint
    /// (heat-sink base, IHS): their extra cross-section shows up as enhanced
    /// lateral spreading within the die-sized solver domain.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not positive.
    pub fn passive_anisotropic(
        name: impl Into<String>,
        thickness: Metres,
        k_vertical: Conductivity,
        k_lateral: Conductivity,
    ) -> Self {
        assert!(k_lateral > 0.0, "lateral conductivity must be positive");
        let mut l = Layer::passive(name, thickness, k_vertical);
        l.k_lateral = k_lateral;
        l
    }

    /// An active (power-dissipating) silicon layer with its power map.
    pub fn active(
        name: impl Into<String>,
        thickness: Metres,
        k: Conductivity,
        power: PowerGrid,
    ) -> Self {
        let mut l = Layer::passive(name, thickness, k);
        l.power = Some(power);
        l
    }

    /// The layer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Thickness in metres.
    pub fn thickness(&self) -> Metres {
        self.thickness
    }

    /// Vertical conductivity in W/mK.
    pub fn conductivity(&self) -> Conductivity {
        self.k
    }

    /// Lateral (in-plane) conductivity in W/mK.
    pub fn lateral_conductivity(&self) -> Conductivity {
        self.k_lateral
    }

    /// The power map, if this is an active layer.
    pub fn power(&self) -> Option<&PowerGrid> {
        self.power.as_ref()
    }

    /// A copy with a different conductivity (for sensitivity sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not positive.
    pub fn with_conductivity(&self, k: Conductivity) -> Layer {
        assert!(k > 0.0, "conductivity must be positive");
        Layer {
            k,
            k_lateral: k,
            ..self.clone()
        }
    }
}

/// Convective boundary conditions at the two faces of the stack (Fig. 2:
/// forced convection at the heat sink, natural convection at the board).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boundary {
    /// Effective heat-transfer coefficient at the heat-sink face, W/(m²·K).
    /// This folds the fin array and airflow (and the sink's area advantage
    /// over the die) into one coefficient referenced to die area.
    pub h_top: f64,
    /// Natural-convection coefficient at the motherboard face, W/(m²·K).
    pub h_bottom: f64,
    /// Ambient air temperature in °C.
    pub ambient: f64,
}

impl Default for Boundary {
    fn default() -> Self {
        Boundary {
            h_top: DESKTOP_H_TOP,
            h_bottom: 15.0,
            ambient: materials::AMBIENT_C,
        }
    }
}

impl Boundary {
    /// Desktop cooling for the Core 2–class Memory+Logic study (§3).
    pub fn desktop() -> Self {
        Boundary::default()
    }

    /// High-performance cooling for the 147 W Logic+Logic study (§4).
    pub fn performance() -> Self {
        Boundary {
            h_top: PERFORMANCE_H_TOP,
            ..Boundary::default()
        }
    }

    /// Cooling referenced to a different die footprint: a smaller die under
    /// the same physical sink enjoys a larger sink-to-die area ratio, which
    /// shows up as a proportionally higher effective coefficient.
    pub fn scaled_to_area(&self, ref_area_mm2: f64, die_area_mm2: f64) -> Self {
        assert!(
            ref_area_mm2 > 0.0 && die_area_mm2 > 0.0,
            "areas must be positive"
        );
        Boundary {
            h_top: self.h_top * ref_area_mm2 / die_area_mm2,
            ..*self
        }
    }
}

/// Effective desktop-cooling coefficient (referenced to die area; the fin
/// array and the sink's area advantage over the die are folded in),
/// calibrated so the 92 W Core 2 baseline floorplan reaches the paper's
/// 88.35 °C peak with a ~59 °C coolest spot (Fig. 6).
pub const DESKTOP_H_TOP: f64 = 42_000.0;

/// High-performance cooling coefficient for the 147 W Pentium 4–class skew
/// of §4 (Fig. 11 / Table 5): a larger sink and stronger airflow, calibrated
/// so the planar 147 W design reaches the paper's 98.6 °C peak.
pub const PERFORMANCE_H_TOP: f64 = 66_000.0;

/// Effective lateral conductivity of the heat-sink base and IHS: these
/// plates extend far beyond the die, so within the die-sized solver domain
/// they spread heat as if their in-plane conductivity were much higher.
pub const SPREADING_K: f64 = 1_500.0;

/// A full stack: layers ordered heat-sink side first.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStack {
    die_w_mm: f64,
    die_h_mm: f64,
    layers: Vec<Layer>,
}

impl LayerStack {
    /// Builds a stack over a `die_w × die_h` mm footprint.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is not positive.
    pub fn new(die_w_mm: f64, die_h_mm: f64) -> Self {
        assert!(
            die_w_mm > 0.0 && die_h_mm > 0.0,
            "die footprint must be positive"
        );
        LayerStack {
            die_w_mm,
            die_h_mm,
            layers: Vec::new(),
        }
    }

    /// Appends a layer (building from the heat sink downwards).
    pub fn push(&mut self, layer: Layer) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// The layers, heat-sink side first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Die footprint in mm.
    pub fn die_dims_mm(&self) -> (f64, f64) {
        (self.die_w_mm, self.die_h_mm)
    }

    /// Index of the layer with the given name.
    pub fn layer_index(&self, name: &str) -> Option<usize> {
        self.layers.iter().position(|l| l.name() == name)
    }

    /// Total power injected by all active layers.
    pub fn total_power(&self) -> f64 {
        self.layers
            .iter()
            .filter_map(|l| l.power.as_ref())
            .map(PowerGrid::total)
            .sum()
    }

    /// A copy with one layer's conductivity replaced (Fig. 3 sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::UnknownLayer`] if no layer has that name.
    pub fn with_layer_conductivity(
        &self,
        name: &str,
        k: Conductivity,
    ) -> Result<LayerStack, SolveError> {
        let idx = self
            .layer_index(name)
            .ok_or_else(|| SolveError::UnknownLayer { name: name.into() })?;
        let mut s = self.clone();
        s.layers[idx] = s.layers[idx].with_conductivity(k);
        Ok(s)
    }

    /// The standard planar (single-die) desktop stack of Fig. 2: heat sink,
    /// IHS, TIM, bulk Si, active Si (with the die's power map), Cu metal,
    /// C4/underfill, package, socket, motherboard.
    pub fn planar(die_w_mm: f64, die_h_mm: f64, power: PowerGrid) -> LayerStack {
        let mut s = LayerStack::new(die_w_mm, die_h_mm);
        s.push(Layer::passive_anisotropic(
            "heat sink",
            thickness::HEAT_SINK,
            materials::HEAT_SINK.k,
            SPREADING_K,
        ))
        .push(Layer::passive_anisotropic(
            "ihs",
            thickness::IHS,
            materials::IHS.k,
            SPREADING_K,
        ))
        .push(Layer::passive("tim", thickness::TIM, materials::TIM.k))
        .push(Layer::passive(
            "bulk si 1",
            thickness::SI_1,
            materials::SILICON.k,
        ))
        .push(Layer::active(
            "active 1",
            thickness::ACTIVE,
            materials::SILICON.k,
            power,
        ))
        .push(Layer::passive(
            "cu metal 1",
            thickness::CU_METAL,
            materials::CU_METAL.k,
        ))
        .push(Layer::passive(
            "underfill",
            thickness::UNDERFILL,
            materials::UNDERFILL.k,
        ))
        .push(Layer::passive(
            "package",
            thickness::PACKAGE,
            materials::PACKAGE.k,
        ))
        .push(Layer::passive(
            "socket",
            thickness::SOCKET,
            materials::SOCKET.k,
        ))
        .push(Layer::passive(
            "motherboard",
            thickness::MOTHERBOARD,
            materials::MOTHERBOARD.k,
        ));
        s
    }

    /// The face-to-face two-die stack of Fig. 1. `near` is the die next to
    /// the heat sink (the paper puts the highest-power die there); `far` is
    /// the thinned die next to the C4 bumps. `far_is_dram` selects the Al
    /// (DRAM) metal stack for the far die, else Cu.
    pub fn two_die(
        die_w_mm: f64,
        die_h_mm: f64,
        near: PowerGrid,
        far: PowerGrid,
        far_is_dram: bool,
    ) -> LayerStack {
        let (far_metal_t, far_metal_k, far_metal_name) = if far_is_dram {
            (thickness::AL_METAL, materials::AL_METAL.k, "al metal 2")
        } else {
            (thickness::CU_METAL, materials::CU_METAL.k, "cu metal 2")
        };
        let mut s = LayerStack::new(die_w_mm, die_h_mm);
        s.push(Layer::passive_anisotropic(
            "heat sink",
            thickness::HEAT_SINK,
            materials::HEAT_SINK.k,
            SPREADING_K,
        ))
        .push(Layer::passive_anisotropic(
            "ihs",
            thickness::IHS,
            materials::IHS.k,
            SPREADING_K,
        ))
        .push(Layer::passive("tim", thickness::TIM, materials::TIM.k))
        .push(Layer::passive(
            "bulk si 1",
            thickness::SI_1,
            materials::SILICON.k,
        ))
        .push(Layer::active(
            "active 1",
            thickness::ACTIVE,
            materials::SILICON.k,
            near,
        ))
        .push(Layer::passive(
            "cu metal 1",
            thickness::CU_METAL,
            materials::CU_METAL.k,
        ))
        .push(Layer::passive("bond", thickness::BOND, materials::BOND.k))
        .push(Layer::passive(far_metal_name, far_metal_t, far_metal_k))
        .push(Layer::active(
            "active 2",
            thickness::ACTIVE,
            materials::SILICON.k,
            far,
        ))
        .push(Layer::passive(
            "bulk si 2",
            thickness::SI_2,
            materials::SILICON.k,
        ))
        .push(Layer::passive(
            "underfill",
            thickness::UNDERFILL,
            materials::UNDERFILL.k,
        ))
        .push(Layer::passive(
            "package",
            thickness::PACKAGE,
            materials::PACKAGE.k,
        ))
        .push(Layer::passive(
            "socket",
            thickness::SOCKET,
            materials::SOCKET.k,
        ))
        .push(Layer::passive(
            "motherboard",
            thickness::MOTHERBOARD,
            materials::MOTHERBOARD.k,
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(w: f64) -> PowerGrid {
        let mut g = PowerGrid::zero(4, 4, 13.0, 11.0);
        g.add(1, 1, w);
        g
    }

    #[test]
    fn planar_stack_has_one_active_layer() {
        let s = LayerStack::planar(13.0, 11.0, grid(92.0));
        let actives = s.layers().iter().filter(|l| l.power().is_some()).count();
        assert_eq!(actives, 1);
        assert!((s.total_power() - 92.0).abs() < 1e-9);
        assert!(s.layer_index("heat sink").unwrap() < s.layer_index("motherboard").unwrap());
    }

    #[test]
    fn two_die_stack_layers_follow_fig1() {
        let s = LayerStack::two_die(13.0, 11.0, grid(92.0), grid(3.1), true);
        let names: Vec<&str> = s.layers().iter().map(Layer::name).collect();
        // face-to-face: metal 1, bond, metal 2 between the two active layers
        let a1 = s.layer_index("active 1").unwrap();
        let m1 = s.layer_index("cu metal 1").unwrap();
        let bond = s.layer_index("bond").unwrap();
        let m2 = s.layer_index("al metal 2").unwrap();
        let a2 = s.layer_index("active 2").unwrap();
        assert!(
            a1 < m1 && m1 < bond && bond < m2 && m2 < a2,
            "order: {names:?}"
        );
        assert!((s.total_power() - 95.1).abs() < 1e-9);
    }

    #[test]
    fn dram_die_uses_al_metal() {
        let dram = LayerStack::two_die(13.0, 11.0, grid(1.0), grid(1.0), true);
        assert!(dram.layer_index("al metal 2").is_some());
        let logic = LayerStack::two_die(13.0, 11.0, grid(1.0), grid(1.0), false);
        assert!(logic.layer_index("cu metal 2").is_some());
    }

    #[test]
    fn conductivity_sweep_replaces_one_layer() {
        let s = LayerStack::planar(13.0, 11.0, grid(10.0));
        let swept = s.with_layer_conductivity("cu metal 1", 3.0).unwrap();
        let idx = swept.layer_index("cu metal 1").unwrap();
        assert_eq!(swept.layers()[idx].conductivity(), 3.0);
        assert_eq!(s.layers()[idx].conductivity(), 12.0, "original untouched");
    }

    #[test]
    fn sweeping_missing_layer_is_a_typed_error() {
        let s = LayerStack::planar(13.0, 11.0, grid(1.0));
        let err = s.with_layer_conductivity("nope", 1.0).unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }
}
