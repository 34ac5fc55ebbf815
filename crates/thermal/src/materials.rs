//! Material thermal constants (Table 2 of the paper, plus standard package
//! materials for the parts of the Fig. 2 system the table omits).

/// Thermal conductivity in W/(m·K).
pub type Conductivity = f64;

/// Metres.
pub type Metres = f64;

/// A homogeneous material layer description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Human-readable name.
    pub name: &'static str,
    /// Thermal conductivity in W/(m·K).
    pub k: Conductivity,
}

/// Bulk silicon: 120 W/mK (Table 2).
pub const SILICON: Material = Material {
    name: "bulk Si",
    k: 120.0,
};

/// Cu metal stack including low-k dielectrics and via occupancy:
/// 12 W/mK over 12 µm (Table 2).
pub const CU_METAL: Material = Material {
    name: "Cu metal layers",
    k: 12.0,
};

/// Al (DRAM) metal stack including insulators: 9 W/mK over 2 µm (Table 2).
pub const AL_METAL: Material = Material {
    name: "Al metal layers",
    k: 9.0,
};

/// Die-to-die bonding layer including air cavities and d2d via density:
/// 60 W/mK over 15 µm (Table 2).
pub const BOND: Material = Material {
    name: "bonding layer",
    k: 60.0,
};

/// Heat sink (copper base): 400 W/mK (Table 2).
pub const HEAT_SINK: Material = Material {
    name: "heat sink",
    k: 400.0,
};

/// Integrated heat spreader (copper).
pub const IHS: Material = Material {
    name: "IHS",
    k: 400.0,
};

/// Thermal interface material between die and IHS.
pub const TIM: Material = Material {
    name: "TIM",
    k: 8.0,
};

/// C4 bump / underfill layer.
pub const UNDERFILL: Material = Material {
    name: "C4/underfill",
    k: 2.0,
};

/// Organic package substrate.
pub const PACKAGE: Material = Material {
    name: "package",
    k: 15.0,
};

/// Socket (pins + plastic).
pub const SOCKET: Material = Material {
    name: "socket",
    k: 0.5,
};

/// FR4 motherboard.
pub const MOTHERBOARD: Material = Material {
    name: "motherboard",
    k: 0.3,
};

/// Ambient temperature in °C (Table 2: 40 °C).
pub const AMBIENT_C: f64 = 40.0;

/// Table 2 layer thicknesses.
pub mod thickness {
    use super::Metres;

    /// Bulk Si of the die next to the heat sink: 750 µm.
    pub const SI_1: Metres = 750e-6;
    /// Bulk Si of the die next to the bumps: 20 µm.
    pub const SI_2: Metres = 20e-6;
    /// Logic (Cu) metal stack: 12 µm.
    pub const CU_METAL: Metres = 12e-6;
    /// DRAM (Al) metal stack: 2 µm.
    pub const AL_METAL: Metres = 2e-6;
    /// Die-to-die bonding layer: 15 µm.
    pub const BOND: Metres = 15e-6;
    /// Active-device silicon (where the power dissipates).
    pub const ACTIVE: Metres = 2e-6;
    /// Heat-sink base plate (the fins are folded into the boundary
    /// coefficient).
    pub const HEAT_SINK: Metres = 5e-3;
    /// Integrated heat spreader.
    pub const IHS: Metres = 2e-3;
    /// Thermal interface material (high-end solder TIM).
    pub const TIM: Metres = 20e-6;
    /// C4 bumps and underfill.
    pub const UNDERFILL: Metres = 70e-6;
    /// Package substrate.
    pub const PACKAGE: Metres = 1e-3;
    /// Socket.
    pub const SOCKET: Metres = 2e-3;
    /// Motherboard.
    pub const MOTHERBOARD: Metres = 1.6e-3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_constants_match_the_paper() {
        assert_eq!(SILICON.k, 120.0);
        assert_eq!(CU_METAL.k, 12.0);
        assert_eq!(AL_METAL.k, 9.0);
        assert_eq!(BOND.k, 60.0);
        assert_eq!(HEAT_SINK.k, 400.0);
        assert_eq!(AMBIENT_C, 40.0);
        assert_eq!(thickness::SI_1, 750e-6);
        assert_eq!(thickness::SI_2, 20e-6);
        assert_eq!(thickness::CU_METAL, 12e-6);
        assert_eq!(thickness::AL_METAL, 2e-6);
        assert_eq!(thickness::BOND, 15e-6);
    }

    #[test]
    fn metal_is_the_worst_conductor_of_the_die_stack() {
        // Fig. 3's point: the metal layers, not the bond, are the thermal
        // bottleneck of the 3D structure
        let (cu, al, bond) = (CU_METAL.k, AL_METAL.k, BOND.k);
        assert!(cu < bond && al < bond, "cu {cu}, al {al}, bond {bond}");
    }
}
