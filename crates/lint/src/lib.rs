//! Static model validation for `stacksim`.
//!
//! Every result in the paper depends on the *descriptions* of the machines
//! being simulated — floorplans and their 2D→3D folds (§4), stacked thermal
//! stacks with per-layer materials (§2.3), multi-level cache hierarchies
//! (§3). An inconsistent description (overlapping blocks, a bond layer in
//! the wrong order, an L2 smaller than the L1) would otherwise surface deep
//! inside a run as a panic or, worse, as a silently wrong figure.
//!
//! This crate checks descriptions *before* simulation:
//!
//! - [`model::Model`] is a neutral bundle of "desc" mirrors of the
//!   simulation types, able to represent invalid states so the passes have
//!   something to reject;
//! - a [`Pass`] is one validation rule; [`PassRegistry::standard`] collects
//!   all of them (mirroring the experiment harness's registry);
//! - running a registry produces a [`Report`] of [`Diagnostic`]s — stable
//!   `SLnnn` codes, error/warning severities, config-path spans, and both
//!   pretty-terminal and JSON renderings.
//!
//! ```
//! use stacksim_lint::{Model, PassRegistry};
//!
//! let registry = PassRegistry::standard();
//! let report = registry.run(&Model::new());
//! assert!(report.is_clean());
//! ```
//!
//! The diagnostic code space is allocated in blocks: `SL00x` floorplan,
//! `SL01x` thermal, `SL02x` memory hierarchy, `SL03x` out-of-order core,
//! `SL04x` parameter sets, `SL05x` harness digest audit (emitted by
//! `stacksim-core`, which owns the experiment registry the audit inspects)
//! `SL06x` observability instrument tables and `SL07x` fault-injection
//! site tables.

#![forbid(unsafe_code)]

pub mod diag;
pub mod model;
pub mod pass;
pub mod passes;

pub use diag::{Diagnostic, Report, Severity, DIAG_SCHEMA};
pub use model::{
    BlockDesc, DieDesc, FaultSiteDesc, FoldDesc, LayerDesc, Model, ObsTableDesc, PowerDesc,
    StackDesc, ThermalDesc, WireDesc, WirePairDesc,
};
pub use pass::{Pass, PassRegistry};
