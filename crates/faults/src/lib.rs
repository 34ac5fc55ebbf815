//! Deterministic fault injection for chaos testing the harness.
//!
//! A [`FaultPlan`] names *sites* (stable strings like `harness.cache.load`
//! or `thermal.cg`, declared by the instrumented crates) and describes
//! which evaluations of each site should fail, keyed by the site's
//! *key* — the experiment name at harness sites, `jacobi` at the solver's
//! CG site. Instrumented code asks [`check`] at each site; the
//! decision depends only on the plan, the key and the per-(rule, key)
//! evaluation count, never on wall-clock time or thread interleaving, so
//! the same plan and seed reproduce the same fault schedule run after run.
//!
//! A plan is a value, [`Faults`], that [`scope`] puts in force on the
//! calling thread only, so sessions sharing a process never see each
//! other's faults; code fanning work out to threads hands its `Faults`
//! value on and scopes it on each thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Schema tag of the fault-plan JSON document.
pub const SCHEMA: &str = "stacksim-faults/1";

/// Observability instruments of the fault plane (SL060 contract).
pub mod obs {
    /// Component tag of every instrument the fault plane owns.
    pub const COMPONENT: &str = "faults";
    /// Faults actually injected (fired rules, not mere evaluations).
    pub const INJECTED: &str = "faults.injected";
    /// Every instrument name the fault plane may register.
    pub const NAMES: &[&str] = &[INJECTED];
}

/// What an injection site is told to do when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Make the cache entry undecodable (in memory — the file on disk is
    /// untouched, so the quarantine path has something real to move).
    Corrupt,
    /// Present the cache entry as a 0-byte file.
    Truncate,
    /// Fail with a transient I/O error (retryable).
    IoTransient,
    /// Force the solver to report CG non-convergence.
    NoConvergence,
    /// Sleep before proceeding (a slow-solve stall; not an error).
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Panic inside the instrumented code (caught by the runner's
    /// `catch_unwind` and surfaced as a worker panic).
    Panic,
}

impl Fault {
    /// Stable lowercase label, used by plan JSON and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fault::Corrupt => "corrupt",
            Fault::Truncate => "truncate",
            Fault::IoTransient => "io-transient",
            Fault::NoConvergence => "no-convergence",
            Fault::Stall { .. } => "stall",
            Fault::Panic => "panic",
        }
    }

    /// Parses a plan-JSON kind label; `ms` is only used by `stall`.
    #[must_use]
    pub fn parse(kind: &str, ms: u64) -> Option<Fault> {
        match kind {
            "corrupt" => Some(Fault::Corrupt),
            "truncate" => Some(Fault::Truncate),
            "io-transient" => Some(Fault::IoTransient),
            "no-convergence" => Some(Fault::NoConvergence),
            "stall" => Some(Fault::Stall { ms }),
            "panic" => Some(Fault::Panic),
            _ => None,
        }
    }
}

/// One injection rule: which site, which keys, what to inject, and on
/// which matching evaluations to fire.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The declared site name (e.g. `harness.cache.load`).
    pub site: String,
    /// Key pattern: empty matches every key, a trailing `*` matches by
    /// prefix, anything else matches exactly.
    pub key: String,
    /// What to inject when the rule fires.
    pub fault: Fault,
    /// Fire on at most this many matching evaluations; `None` fires on
    /// every one.
    pub times: Option<u64>,
    /// Skip this many matching evaluations before firing.
    pub after: u64,
    /// Fire pseudo-randomly with this probability instead of the
    /// `after`/`times` window. Deterministic: the decision hashes the
    /// plan seed, site, key and evaluation index.
    pub prob: Option<f64>,
}

impl FaultRule {
    /// A rule that always fires `fault` at `site` for keys matching `key`.
    pub fn always(site: impl Into<String>, key: impl Into<String>, fault: Fault) -> Self {
        FaultRule {
            site: site.into(),
            key: key.into(),
            fault,
            times: None,
            after: 0,
            prob: None,
        }
    }

    /// The same rule limited to the first `times` matching evaluations.
    #[must_use]
    pub fn times(mut self, times: u64) -> Self {
        self.times = Some(times);
        self
    }

    fn matches(&self, site: &str, key: &str) -> bool {
        self.site == site
            && match self.key.strip_suffix('*') {
                Some(prefix) => key.starts_with(prefix),
                None => self.key.is_empty() || self.key == key,
            }
    }
}

/// A complete fault schedule: a seed (for probabilistic rules) plus the
/// rule list, evaluated in order — the first firing rule wins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for probabilistic rules; irrelevant to windowed rules.
    pub seed: u64,
    /// Rules, evaluated in order.
    pub rules: Vec<FaultRule>,
}

/// An armed fault plan: the plan, its per-(rule, key) evaluation
/// counters and its injected count. Clones share one schedule.
#[derive(Debug, Clone)]
pub struct Faults(Arc<Mutex<Armed>>);

#[derive(Debug, Default)]
struct Armed {
    plan: FaultPlan,
    /// Evaluation counts per (rule index, concrete key): one deterministic
    /// stream per key, however experiments interleave across threads.
    evals: HashMap<(usize, String), u64>,
    injected: u64,
}

impl Faults {
    /// Arms `plan` with fresh evaluation counters.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Faults(Arc::new(Mutex::new(Armed {
            plan,
            ..Armed::default()
        })))
    }

    /// Faults injected (rules fired) since this plan was armed.
    #[must_use]
    pub fn injected(&self) -> u64 {
        let armed = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        armed.injected
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Faults>> = const { RefCell::new(None) };
}

/// Runs `f` with `faults` as the calling thread's plan, restoring the
/// previous plan afterwards, also when `f` unwinds.
pub fn scope<R>(faults: Option<&Faults>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Faults>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.replace(self.0.take()));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(faults.cloned())));
    f()
}

/// The calling thread's plan; threads start with none.
fn current() -> Option<Faults> {
    CURRENT.with(|c| c.borrow().clone())
}

/// FNV-1a over the seed, site, key and evaluation index, folded to a
/// fraction in `[0, 1)` — the deterministic coin for probabilistic rules.
fn fraction(seed: u64, site: &str, key: &str, idx: u64) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&seed.to_le_bytes());
    eat(site.as_bytes());
    eat(&[0xff]);
    eat(key.as_bytes());
    eat(&idx.to_le_bytes());
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Asks the calling thread's plan whether this evaluation of `site` with
/// `key` should fail, and how. Counts the evaluation against every
/// matching rule; the first rule whose window (or coin) says "fire" wins.
/// A `stall` sleeps here, unlocked, and like no plan or no rule is `None`.
pub fn check(site: &str, key: &str) -> Option<Fault> {
    let faults = current()?;
    let mut guard = faults.0.lock().unwrap_or_else(PoisonError::into_inner);
    let st = &mut *guard;
    let mut fired = None;
    for (i, rule) in st.plan.rules.iter().enumerate() {
        if !rule.matches(site, key) {
            continue;
        }
        let n = st.evals.entry((i, key.to_string())).or_insert(0);
        let idx = *n;
        *n += 1;
        if fired.is_some() {
            continue; // keep counting evaluations on shadowed rules
        }
        let fire = match rule.prob {
            Some(p) => fraction(st.plan.seed, site, key, idx) < p,
            None => idx >= rule.after && rule.times.is_none_or(|t| idx - rule.after < t),
        };
        if fire {
            fired = Some(rule.fault);
        }
    }
    if fired.is_some() {
        st.injected += 1;
        if stacksim_obs::enabled() {
            stacksim_obs::counter(obs::INJECTED).inc();
        }
    }
    drop(guard);
    if let Some(Fault::Stall { ms }) = fired {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        return None;
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(rules: Vec<FaultRule>) -> Faults {
        Faults::new(FaultPlan { seed: 0, rules })
    }

    #[test]
    fn unarmed_checks_are_none_and_cheap() {
        // a plan that exists but is not in scope injects nothing
        let faults = armed(vec![FaultRule::always(
            "harness.dispatch",
            "",
            Fault::Panic,
        )]);
        assert!(current().is_none());
        assert_eq!(check("harness.dispatch", "fig3"), None);
        assert_eq!(faults.injected(), 0);
    }

    #[test]
    fn windowed_rule_fires_exactly_in_its_window() {
        let mut rule = FaultRule::always("s", "k", Fault::Panic).times(2);
        rule.after = 1;
        let faults = armed(vec![rule]);
        scope(Some(&faults), || {
            assert_eq!(check("s", "k"), None); // eval 0: before window
            assert_eq!(check("s", "k"), Some(Fault::Panic)); // eval 1
            assert_eq!(check("s", "k"), Some(Fault::Panic)); // eval 2
            assert_eq!(check("s", "k"), None); // eval 3: exhausted
        });
        assert_eq!(faults.injected(), 2);
    }

    #[test]
    fn keys_count_independently_so_scheduling_cannot_reorder_decisions() {
        let faults = armed(vec![FaultRule::always("s", "", Fault::Corrupt).times(1)]);
        scope(Some(&faults), || {
            // interleaved keys: each key's first evaluation fires
            // regardless of the order other keys were evaluated in
            assert_eq!(check("s", "a"), Some(Fault::Corrupt));
            assert_eq!(check("s", "b"), Some(Fault::Corrupt));
            assert_eq!(check("s", "a"), None);
            assert_eq!(check("s", "b"), None);
        });
    }

    #[test]
    fn key_patterns_match_exact_prefix_and_any() {
        let r = FaultRule::always("s", "fig5:*", Fault::Truncate);
        assert!(r.matches("s", "fig5:gauss"));
        assert!(!r.matches("s", "fig3"));
        assert!(!r.matches("other", "fig5:gauss"));
        let exact = FaultRule::always("s", "fig3", Fault::Truncate);
        assert!(exact.matches("s", "fig3"));
        assert!(!exact.matches("s", "fig3x"));
        let any = FaultRule::always("s", "", Fault::Truncate);
        assert!(any.matches("s", "anything"));
    }

    #[test]
    fn probabilistic_rules_are_deterministic_in_the_seed() {
        let plan = |seed| FaultPlan {
            seed,
            rules: vec![FaultRule {
                site: "s".into(),
                key: String::new(),
                fault: Fault::IoTransient,
                times: None,
                after: 0,
                prob: Some(0.5),
            }],
        };
        let sample = |seed| {
            scope(Some(&Faults::new(plan(seed))), || {
                (0..64)
                    .map(|_| check("s", "k").is_some())
                    .collect::<Vec<bool>>()
            })
        };
        let a = sample(7);
        let b = sample(7);
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        let c = sample(8);
        assert_ne!(a, c, "a different seed should move the schedule");
    }

    #[test]
    fn first_matching_rule_wins_but_later_rules_still_count() {
        let faults = armed(vec![
            FaultRule::always("s", "k", Fault::Corrupt).times(1),
            FaultRule::always("s", "k", Fault::Truncate).times(1),
        ]);
        scope(Some(&faults), || {
            // eval 0 fires rule 0; rule 1's window was consumed by the
            // same evaluation, so nothing fires on eval 1
            assert_eq!(check("s", "k"), Some(Fault::Corrupt));
            assert_eq!(check("s", "k"), None);
        });
    }

    #[test]
    fn scope_restores_the_previous_plan_after_a_panic() {
        let outer = armed(vec![FaultRule::always("s", "", Fault::Corrupt)]);
        let inner = armed(vec![FaultRule::always("s", "", Fault::Truncate)]);
        scope(Some(&outer), || {
            let unwound = std::panic::catch_unwind(|| {
                scope(Some(&inner), || {
                    assert_eq!(check("s", "k"), Some(Fault::Truncate));
                    panic!("unwind through the scope");
                })
            });
            assert!(unwound.is_err());
            assert_eq!(check("s", "k"), Some(Fault::Corrupt), "outer plan is back");
        });
        assert!(current().is_none(), "and no plan outside every scope");
        assert_eq!((outer.injected(), inner.injected()), (1, 1));
    }

    #[test]
    fn threads_spawned_inside_a_scope_see_no_plan() {
        let faults = armed(vec![FaultRule::always("s", "", Fault::Panic)]);
        scope(Some(&faults), || {
            let seen = std::thread::spawn(|| (current().is_some(), check("s", "k")))
                .join()
                .expect("probe thread");
            assert_eq!(seen, (false, None));
        });
        assert_eq!(faults.injected(), 0);
    }

    #[test]
    fn fault_labels_round_trip_through_parse() {
        for f in [
            Fault::Corrupt,
            Fault::Truncate,
            Fault::IoTransient,
            Fault::NoConvergence,
            Fault::Stall { ms: 5 },
            Fault::Panic,
        ] {
            assert_eq!(Fault::parse(f.label(), 5), Some(f));
        }
        assert_eq!(Fault::parse("nonesuch", 0), None);
    }
}
