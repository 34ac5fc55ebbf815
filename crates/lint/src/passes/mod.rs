//! The concrete lint passes, grouped by the model crate they check.

pub mod faults;
pub mod floorplan;
pub mod mem;
pub mod obs;
pub mod ooo;
pub mod params;
pub mod thermal;

use crate::pass::Pass;

/// Strictly-positive check that rejects NaN (which every plain `>`
/// comparison silently lets through on the negated side).
pub(crate) fn positive(v: f64) -> bool {
    v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
}

/// Every pass of the standard registry, in code order.
pub fn all() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(floorplan::BlockOverlap),
        Box::new(floorplan::BlockBounds),
        Box::new(floorplan::FoldAreaConservation),
        Box::new(floorplan::FoldPowerConservation),
        Box::new(floorplan::OrphanWire),
        Box::new(floorplan::StackAlignment),
        Box::new(thermal::LayerOrder),
        Box::new(thermal::LayerParams),
        Box::new(thermal::PowerGridMatch),
        Box::new(thermal::ActivePower),
        Box::new(mem::CacheGeometry),
        Box::new(mem::InclusionCapacity),
        Box::new(mem::BusTiming),
        Box::new(ooo::WireStages),
        Box::new(ooo::CoreResources),
        Box::new(params::WorkloadParamsValid),
        Box::new(params::EngineConfigValid),
        Box::new(params::SolverConfigValid),
        Box::new(obs::ObsInstrumentNames),
        Box::new(faults::FaultSiteNames),
    ]
}
