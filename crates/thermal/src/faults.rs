//! Declared fault-injection sites of the thermal solver.
//!
//! The declared-site table is the SL070 lint contract: every site the
//! solver hands to [`stacksim_faults::check`] must appear in [`SITES`],
//! and every declared site must actually be referenced by an injection
//! point.

/// Component tag of every fault site the solver owns.
pub const COMPONENT: &str = "thermal";

/// The CG solve entry: keyed `jacobi` (the solver's one preconditioner),
/// supports `no-convergence` and `stall`.
pub const SITE_CG: &str = "thermal.cg";

/// Every fault site the solver may check.
pub const SITES: &[&str] = &[SITE_CG];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_sites_are_unique_and_prefixed() {
        let mut seen = std::collections::BTreeSet::new();
        for site in SITES {
            assert!(seen.insert(site), "duplicate declared site {site}");
            assert!(
                site.starts_with("thermal."),
                "{site} must carry the {COMPONENT} prefix"
            );
        }
    }
}
