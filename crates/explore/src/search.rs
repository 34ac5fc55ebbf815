//! Seeded, deterministic point selection: grid, random sampling and a
//! frontier-guided evolutionary search.
//!
//! Everything here is a pure function of `(spec, budget, seed)` plus —
//! for the evolutionary mode — the frontier fed back between waves.
//! Ordered containers (`BTreeSet`, sorted waves) keep iteration order
//! independent of hash seeds and thread schedules, which is what makes
//! the frontier artifact bit-identical at any `--jobs`.

use std::collections::BTreeSet;

use stacksim_rng::StdRng;

use crate::space::{PointIdx, SpaceSpec};

/// How the search walks the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// The first `budget` points in canonical enumeration order.
    Grid,
    /// A seeded uniform sample without replacement.
    Random,
    /// Wave-based evolution: mutate the current Pareto frontier.
    Evolve,
}

impl SearchMode {
    /// The CLI/JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            SearchMode::Grid => "grid",
            SearchMode::Random => "random",
            SearchMode::Evolve => "evolve",
        }
    }

    /// Parses a [`label`](Self::label) back into a mode.
    pub fn parse(label: &str) -> Option<SearchMode> {
        [SearchMode::Grid, SearchMode::Random, SearchMode::Evolve]
            .into_iter()
            .find(|m| m.label() == label)
    }
}

/// The first `budget` points in canonical order (the whole space when
/// the budget covers it).
pub fn grid_select(spec: &SpaceSpec, budget: usize) -> Vec<PointIdx> {
    (0..spec.total_points().min(budget))
        .map(|n| spec.nth(n))
        .collect()
}

/// A seeded uniform sample of `budget` distinct points (partial
/// Fisher–Yates over the canonical enumeration), returned in canonical
/// order. Same seed, same spec, same budget ⇒ same selection.
pub fn random_select(spec: &SpaceSpec, budget: usize, seed: u64) -> Vec<PointIdx> {
    let total = spec.total_points();
    let take = budget.min(total);
    let mut rng = StdRng::seed_from_u64(seed);
    // sparse Fisher–Yates: only the touched slots of the virtual
    // 0..total permutation are materialized
    let mut swapped: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    let mut picked = Vec::with_capacity(take);
    for i in 0..take {
        let j = rng.gen_range(i..total);
        let at = |k: usize, map: &std::collections::BTreeMap<usize, usize>| {
            map.get(&k).copied().unwrap_or(k)
        };
        let vj = at(j, &swapped);
        let vi = at(i, &swapped);
        swapped.insert(j, vi);
        picked.push(vj);
    }
    picked.sort_unstable();
    picked.into_iter().map(|n| spec.nth(n)).collect()
}

/// Per-axis mutation probability of the evolutionary search.
const MUTATE_P: f64 = 0.35;
/// How many mutation attempts to spend per offspring slot before
/// falling back to a random unseen point.
const MUTATE_TRIES: usize = 8;

/// The evolutionary search's state: a seeded RNG plus the set of points
/// already evaluated (offspring are deduplicated against it).
#[derive(Debug)]
pub struct Evolver {
    rng: StdRng,
    seen: BTreeSet<PointIdx>,
}

impl Evolver {
    /// A fresh evolver; `seed` fixes the whole search trajectory.
    pub fn new(seed: u64) -> Evolver {
        Evolver {
            rng: StdRng::seed_from_u64(seed),
            seen: BTreeSet::new(),
        }
    }

    /// The opening wave: `n` random unseen points, canonically sorted.
    pub fn initial_wave(&mut self, spec: &SpaceSpec, n: usize) -> Vec<PointIdx> {
        let mut wave = BTreeSet::new();
        while wave.len() < n {
            let Some(p) = self.random_unseen(spec) else {
                break;
            };
            self.seen.insert(p);
            wave.insert(p);
        }
        wave.into_iter().collect()
    }

    /// The next wave: up to `n` offspring mutated (±1 per axis with
    /// probability `MUTATE_P`) from the current frontier `parents`,
    /// deduplicated against everything already evaluated and topped up
    /// with random unseen points. Canonically sorted. Empty once the
    /// space is exhausted.
    pub fn next_wave(&mut self, spec: &SpaceSpec, parents: &[PointIdx], n: usize) -> Vec<PointIdx> {
        let mut wave = BTreeSet::new();
        for slot in 0..n {
            let mut child = None;
            if !parents.is_empty() {
                let parent = parents[slot % parents.len()];
                for _ in 0..MUTATE_TRIES {
                    let candidate = self.mutate(spec, parent);
                    if !self.seen.contains(&candidate) {
                        child = Some(candidate);
                        break;
                    }
                }
            }
            let Some(p) = child.or_else(|| self.random_unseen(spec)) else {
                break; // space exhausted
            };
            self.seen.insert(p);
            wave.insert(p);
        }
        wave.into_iter().collect()
    }

    /// One offspring: each axis steps ±1 (clamped to the axis) with
    /// probability [`MUTATE_P`].
    fn mutate(&mut self, spec: &SpaceSpec, parent: PointIdx) -> PointIdx {
        let mut child = parent;
        let axes: [(&mut usize, usize); 4] = [
            (&mut child.oi, spec.options.len()),
            (&mut child.bi, spec.benchmarks.len()),
            (&mut child.di, spec.boundaries.len()),
            (&mut child.vi, spec.vf.len()),
        ];
        for (value, len) in axes {
            if len > 1 && self.rng.gen_bool(MUTATE_P) {
                let up = self.rng.gen_bool(0.5);
                *value = if up {
                    (*value + 1).min(len - 1)
                } else {
                    value.saturating_sub(1)
                };
            }
        }
        child
    }

    /// A uniformly random point not yet evaluated, or `None` when the
    /// space is exhausted. Rejection-samples first (cheap while the
    /// space is mostly unexplored), then falls back to a linear scan.
    fn random_unseen(&mut self, spec: &SpaceSpec) -> Option<PointIdx> {
        let total = spec.total_points();
        if self.seen.len() >= total {
            return None;
        }
        for _ in 0..32 {
            let p = spec.nth(self.rng.gen_range(0..total));
            if !self.seen.contains(&p) {
                return Some(p);
            }
        }
        let start = self.rng.gen_range(0..total);
        (0..total)
            .map(|k| spec.nth((start + k) % total))
            .find(|p| !self.seen.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SpaceSpec {
        SpaceSpec::parse(
            r#"{"options": ["2D 4MB", "3D 32MB"],
                "benchmarks": ["conj", "gauss"],
                "boundaries": ["desktop"],
                "vf": [1.0, 1.1]}"#,
        )
        .expect("valid spec")
    }

    #[test]
    fn grid_takes_the_canonical_prefix() {
        let spec = tiny_spec();
        let sel = grid_select(&spec, 3);
        assert_eq!(sel.len(), 3);
        assert_eq!(sel[0], spec.nth(0));
        assert_eq!(sel[2], spec.nth(2));
        // over-budget selection caps at the space size
        assert_eq!(grid_select(&spec, 1000).len(), spec.total_points());
    }

    #[test]
    fn random_is_seeded_distinct_and_sorted() {
        let spec = SpaceSpec::default_space();
        let a = random_select(&spec, 50, 7);
        let b = random_select(&spec, 50, 7);
        assert_eq!(a, b, "same seed, same sample");
        assert_ne!(a, random_select(&spec, 50, 8), "seed changes the sample");
        assert_eq!(a.len(), 50);
        let set: BTreeSet<PointIdx> = a.iter().copied().collect();
        assert_eq!(set.len(), 50, "sampling is without replacement");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "canonically sorted");
        // budget over the space size returns the whole space
        assert_eq!(random_select(&spec, 10_000, 7).len(), spec.total_points());
    }

    #[test]
    fn evolver_is_seeded_and_exhausts_the_space() {
        let spec = tiny_spec();
        let total = spec.total_points();
        let run = |seed: u64| {
            let mut ev = Evolver::new(seed);
            let mut all = ev.initial_wave(&spec, 3);
            while all.len() < total {
                let wave = ev.next_wave(&spec, &all[..2.min(all.len())], 3);
                if wave.is_empty() {
                    break;
                }
                all.extend(wave);
            }
            all
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a, b, "same seed, same trajectory");
        let set: BTreeSet<PointIdx> = a.iter().copied().collect();
        assert_eq!(set.len(), a.len(), "no point evaluated twice");
        assert_eq!(set.len(), total, "the search can exhaust the space");
        // once exhausted, waves come back empty
        let mut ev = Evolver::new(1);
        let all = ev.initial_wave(&spec, total);
        assert_eq!(all.len(), total);
        assert!(ev.next_wave(&spec, &all, 3).is_empty());
    }

    #[test]
    fn mutation_stays_in_bounds() {
        let spec = tiny_spec();
        let mut ev = Evolver::new(9);
        let corner = PointIdx {
            oi: 1,
            bi: 1,
            di: 0,
            vi: 1,
        };
        for _ in 0..200 {
            let c = ev.mutate(&spec, corner);
            assert!(c.oi < 2 && c.bi < 2 && c.di < 1 && c.vi < 2);
        }
    }
}
