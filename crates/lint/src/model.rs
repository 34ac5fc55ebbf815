//! The neutral machine-description view the lint passes run over.
//!
//! Passes do not consume the simulation types directly: several of those
//! types enforce part of their invariants in asserting constructors, which
//! would make it impossible to even *represent* the invalid descriptions the
//! linter exists to reject. Instead each component is mirrored into a plain
//! "desc" value — every field public, no invariants — and the real types
//! convert losslessly into descs via the `from_*` constructors. A [`Model`]
//! bundles whatever components one experiment uses; passes check the
//! components present and ignore the rest.

use stacksim_floorplan::{Floorplan, StackedFloorplan};
use stacksim_mem::{EngineConfig, HierarchyConfig};
use stacksim_ooo::{CoreConfig, WireConfig};
use stacksim_thermal::{Layer, LayerStack, SolverConfig};
use stacksim_workloads::WorkloadParams;

/// A placed rectangular block with a power budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDesc {
    /// Block name.
    pub name: String,
    /// Lower-left x in mm.
    pub x: f64,
    /// Lower-left y in mm.
    pub y: f64,
    /// Width in mm.
    pub w: f64,
    /// Height in mm.
    pub h: f64,
    /// Power in watts.
    pub power: f64,
}

impl BlockDesc {
    /// Overlap area with another block in mm².
    pub fn overlap_area(&self, other: &BlockDesc) -> f64 {
        let ox = (self.x + self.w).min(other.x + other.w) - self.x.max(other.x);
        let oy = (self.y + self.h).min(other.y + other.h) - self.y.max(other.y);
        if ox > 0.0 && oy > 0.0 {
            ox * oy
        } else {
            0.0
        }
    }

    /// Block area in mm².
    pub fn area(&self) -> f64 {
        self.w * self.h
    }
}

/// One die's floorplan: a frame plus placed blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct DieDesc {
    /// Die name.
    pub name: String,
    /// Frame width in mm.
    pub width: f64,
    /// Frame height in mm.
    pub height: f64,
    /// Placed blocks.
    pub blocks: Vec<BlockDesc>,
}

impl DieDesc {
    /// Mirrors a real [`Floorplan`].
    pub fn from_floorplan(f: &Floorplan) -> Self {
        DieDesc {
            name: f.name().to_string(),
            width: f.width(),
            height: f.height(),
            blocks: f
                .blocks()
                .iter()
                .map(|b| BlockDesc {
                    name: b.name().to_string(),
                    x: b.rect().x,
                    y: b.rect().y,
                    w: b.rect().w,
                    h: b.rect().h,
                    power: b.power(),
                })
                .collect(),
        }
    }

    /// Sum of all block areas in mm².
    pub fn block_area(&self) -> f64 {
        self.blocks.iter().map(BlockDesc::area).sum()
    }

    /// Sum of all block powers in watts.
    pub fn total_power(&self) -> f64 {
        self.blocks.iter().map(|b| b.power).sum()
    }
}

/// A vertical stack of dies (heat-sink side first).
#[derive(Debug, Clone, PartialEq)]
pub struct StackDesc {
    /// Stack name.
    pub name: String,
    /// Dies, heat-sink side first.
    pub dies: Vec<DieDesc>,
}

impl StackDesc {
    /// Mirrors a real [`StackedFloorplan`].
    pub fn from_stacked(name: impl Into<String>, s: &StackedFloorplan) -> Self {
        StackDesc {
            name: name.into(),
            dies: s.dies().iter().map(DieDesc::from_floorplan).collect(),
        }
    }
}

/// A 2D→3D fold: the planar original and the folded result, for
/// conservation checks.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldDesc {
    /// Config path of this fold.
    pub path: String,
    /// The planar floorplan that was folded.
    pub planar: DieDesc,
    /// The folded two-die stack.
    pub folded: StackDesc,
    /// The power scale the fold applied (§4: 0.85 from shorter wires).
    pub power_scale: f64,
}

/// A wire route whose endpoint blocks must exist in the floorplan.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDesc {
    /// Config path of this route.
    pub path: String,
    /// Route name (e.g. `load-to-use`).
    pub route: String,
    /// Block names the route connects.
    pub endpoints: Vec<String>,
    /// Block names available in the floorplan the route is drawn on.
    pub available: Vec<String>,
}

/// A rasterised power map's geometry (the grid itself is not needed for
/// validation, only its frame and total).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDesc {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Die width the grid covers, in mm.
    pub width_mm: f64,
    /// Die height the grid covers, in mm.
    pub height_mm: f64,
    /// Total injected power in watts.
    pub total_w: f64,
}

/// One layer of a thermal stack.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDesc {
    /// Layer name.
    pub name: String,
    /// Thickness in metres.
    pub thickness_m: f64,
    /// Vertical conductivity in W/mK.
    pub k_vertical: f64,
    /// Lateral conductivity in W/mK.
    pub k_lateral: f64,
    /// The power map, if this is an active layer.
    pub power: Option<PowerDesc>,
}

impl LayerDesc {
    /// Mirrors a real [`Layer`].
    pub fn from_layer(l: &Layer) -> Self {
        LayerDesc {
            name: l.name().to_string(),
            thickness_m: l.thickness(),
            k_vertical: l.conductivity(),
            k_lateral: l.lateral_conductivity(),
            power: l.power().map(|g| {
                let (nx, ny) = g.dims();
                let (w, h) = g.die_dims();
                PowerDesc {
                    nx,
                    ny,
                    width_mm: w,
                    height_mm: h,
                    total_w: g.total(),
                }
            }),
        }
    }
}

/// A full thermal stack over a die footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalDesc {
    /// Config path of this stack.
    pub path: String,
    /// Die footprint width in mm.
    pub die_w_mm: f64,
    /// Die footprint height in mm.
    pub die_h_mm: f64,
    /// Layers, heat-sink side first.
    pub layers: Vec<LayerDesc>,
}

impl ThermalDesc {
    /// Mirrors a real [`LayerStack`].
    pub fn from_stack(path: impl Into<String>, s: &LayerStack) -> Self {
        let (w, h) = s.die_dims_mm();
        ThermalDesc {
            path: path.into(),
            die_w_mm: w,
            die_h_mm: h,
            layers: s.layers().iter().map(LayerDesc::from_layer).collect(),
        }
    }
}

/// One component's statically declared observability-instrument table
/// (the `NAMES` slice of its `obs` module). The SL060 pass checks the
/// tables themselves; the harness separately proves runtime
/// registrations stay inside the declared union.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsTableDesc {
    /// Config path of this table (e.g. `obs.mem`).
    pub path: String,
    /// Component tag every name must be prefixed with (e.g. `mem`).
    pub component: String,
    /// Declared instrument names.
    pub names: Vec<String>,
}

/// One crate's statically declared fault-site table (the `SITES` slice of
/// its `faults` module). The SL070 pass checks the tables — and the
/// declared injection points referencing them — the same way SL060 checks
/// instrument tables.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSiteDesc {
    /// Config path of this table (e.g. `faults.harness`).
    pub path: String,
    /// Component tag every site must be prefixed with (e.g. `harness`).
    pub component: String,
    /// Declared fault-site names.
    pub sites: Vec<String>,
}

/// A planar/folded wire-stage pair for the §4 pipeline-consistency checks.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePairDesc {
    /// Config path of this pair.
    pub path: String,
    /// Wire stages before the 3D split.
    pub planar: WireConfig,
    /// Wire stages after the 3D split.
    pub folded: WireConfig,
}

/// Everything one experiment describes, bundled for the passes. Empty
/// component lists simply mean "not applicable" — a memory-study model
/// carries no thermal stacks and vice versa.
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct Model {
    /// Standalone planar floorplans, with their config paths.
    pub dies: Vec<(String, DieDesc)>,
    /// Stacked floorplans, with their config paths.
    pub stacks: Vec<(String, StackDesc)>,
    /// 2D→3D folds (planar original + folded result).
    pub folds: Vec<FoldDesc>,
    /// Wire routes to resolve against their floorplans.
    pub wires: Vec<WireDesc>,
    /// Thermal layer stacks.
    pub thermal: Vec<ThermalDesc>,
    /// Memory-hierarchy configurations, with their config paths.
    pub hierarchies: Vec<(String, HierarchyConfig)>,
    /// Out-of-order core configurations, with their config paths.
    pub cores: Vec<(String, CoreConfig)>,
    /// Planar/folded wire-stage pairs.
    pub wire_pairs: Vec<WirePairDesc>,
    /// Workload-generation parameter sets, with their config paths.
    pub workloads: Vec<(String, WorkloadParams)>,
    /// Memory-engine configurations, with their config paths.
    pub engines: Vec<(String, EngineConfig)>,
    /// Thermal-solver configurations, with their config paths.
    pub solvers: Vec<(String, SolverConfig)>,
    /// Declared observability-instrument tables, one per component.
    pub obs_tables: Vec<ObsTableDesc>,
    /// Declared fault-site tables, one per instrumented crate.
    pub fault_sites: Vec<FaultSiteDesc>,
    /// Fault-site references from injection points in the code, as
    /// `(config path, site name)` pairs. Every reference must name a
    /// declared site; a declared site nothing references is stale.
    pub fault_refs: Vec<(String, String)>,
}

impl Model {
    /// An empty model (no components; every pass is a no-op on it).
    pub fn new() -> Self {
        Model::default()
    }

    /// Every die in the model — standalone, inside stacks and inside folds
    /// — with a config path for each.
    pub fn all_dies(&self) -> Vec<(String, &DieDesc)> {
        let mut out = Vec::new();
        for (path, d) in &self.dies {
            out.push((path.clone(), d));
        }
        for (path, s) in &self.stacks {
            for (i, d) in s.dies.iter().enumerate() {
                out.push((format!("{path}.die[{i}] '{}'", d.name), d));
            }
        }
        for f in &self.folds {
            for (i, d) in f.folded.dies.iter().enumerate() {
                out.push((format!("{}.folded.die[{i}] '{}'", f.path, d.name), d));
            }
        }
        out
    }

    /// Every stack in the model — standalone and inside folds.
    pub fn all_stacks(&self) -> Vec<(String, &StackDesc)> {
        let mut out = Vec::new();
        for (path, s) in &self.stacks {
            out.push((path.clone(), s));
        }
        for f in &self.folds {
            out.push((format!("{}.folded", f.path), &f.folded));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_floorplan::{uniform_die, PowerGrid};

    #[test]
    fn die_desc_mirrors_floorplan() {
        let f = uniform_die("dram", 13.0, 11.0, 3.1);
        let d = DieDesc::from_floorplan(&f);
        assert_eq!(d.name, "dram");
        assert_eq!(d.blocks.len(), 1);
        assert!((d.total_power() - 3.1).abs() < 1e-12);
        assert!((d.block_area() - 143.0).abs() < 1e-9);
    }

    #[test]
    fn layer_desc_mirrors_active_layer() {
        let mut g = PowerGrid::zero(4, 4, 13.0, 11.0);
        g.add(1, 1, 92.0);
        let l = Layer::active("active 1", 0.75e-3, 120.0, g);
        let d = LayerDesc::from_layer(&l);
        assert_eq!(d.name, "active 1");
        let p = d.power.expect("active layer has power");
        assert_eq!((p.nx, p.ny), (4, 4));
        assert!((p.total_w - 92.0).abs() < 1e-12);
    }

    #[test]
    fn all_dies_collects_from_every_container() {
        let f = uniform_die("a", 2.0, 2.0, 1.0);
        let d = DieDesc::from_floorplan(&f);
        let model = Model {
            dies: vec![("solo".into(), d.clone())],
            stacks: vec![(
                "st".into(),
                StackDesc {
                    name: "st".into(),
                    dies: vec![d.clone(), d.clone()],
                },
            )],
            folds: vec![FoldDesc {
                path: "fd".into(),
                planar: d.clone(),
                folded: StackDesc {
                    name: "fd".into(),
                    dies: vec![d.clone()],
                },
                power_scale: 1.0,
            }],
            ..Model::new()
        };
        assert_eq!(model.all_dies().len(), 4);
        assert_eq!(model.all_stacks().len(), 2);
    }
}
