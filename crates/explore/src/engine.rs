//! The exploration engine: drives a design-space search through the
//! [`Sim`] session API and assembles the `stacksim-explore/1` frontier
//! artifact.
//!
//! Each design point decomposes into two sub-experiments — the standard
//! `fig5:<bench>` memory point and an `explore:thermal:*` operating
//! point — so overlapping configurations deduplicate naturally: a
//! 576-point default space needs only 12 memory runs and 48 thermal
//! solves, everything else is reuse. Both sub-results land in the memo
//! cache under their ordinary digests, which is what makes a second,
//! overlapping exploration (or a plain `stacksim run fig5`) nearly
//! free.
//!
//! Determinism contract: for a fixed `(spec, mode, budget, seed)` the
//! emitted artifact is byte-identical at any `--jobs`, any thread
//! schedule and any cache state — selection is a pure function of the
//! seed, results are bit-identical by the solver/engine contracts, and
//! the artifact orders points canonically. Wall-clock facts (cache and
//! dedup hits, CG iterations) are therefore reported *next to* the
//! artifact, never inside it.

use std::collections::{BTreeMap, BTreeSet};

use stacksim_core::harness::json::Json;
use stacksim_core::harness::{obs as harness_obs, Artifact, ExperimentRequest, MemoCache, Sim};
use stacksim_core::{Error, StackOption};
use stacksim_power::{bus_power_w, PERF_PER_FREQ};
use stacksim_workloads::WorkloadParams;

use crate::experiments::{mem_point_name, registry_for, thermal_point_name};
use crate::pareto::{frontier, sensitivities, Objectives};
use crate::search::{grid_select, random_select, Evolver, SearchMode};
use crate::space::{PointIdx, SpaceSpec};

/// The artifact schema identifier.
pub const EXPLORE_SCHEMA: &str = "stacksim-explore/1";

/// Largest evolutionary wave (the effective population size).
const EVOLVE_POP: usize = 16;

/// Why an exploration failed.
#[derive(Debug)]
pub enum ExploreError {
    /// The space spec was invalid.
    Spec(String),
    /// A sub-experiment could not be submitted or failed to run.
    Run(Error),
    /// A sub-experiment ran and failed.
    Failed {
        /// The sub-experiment's name.
        name: String,
        /// The failure it reported.
        detail: String,
    },
    /// A sub-experiment completed with the wrong artifact shape.
    Artifact {
        /// The sub-experiment's name.
        name: String,
        /// What was wrong with its result.
        detail: String,
    },
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Spec(detail) => write!(f, "invalid design space: {detail}"),
            ExploreError::Run(e) => write!(f, "exploration sub-experiment failed: {e}"),
            ExploreError::Failed { name, detail } => {
                write!(f, "sub-experiment '{name}' failed: {detail}")
            }
            ExploreError::Artifact { name, detail } => {
                write!(
                    f,
                    "sub-experiment '{name}' returned an unusable artifact: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<Error> for ExploreError {
    fn from(e: Error) -> Self {
        ExploreError::Run(e)
    }
}

/// One exploration's inputs.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The design space to search.
    pub spec: SpaceSpec,
    /// How the space is walked.
    pub mode: SearchMode,
    /// Maximum design points to evaluate; `0` means the whole space.
    pub budget: usize,
    /// Seed fixing the search trajectory (random and evolve modes).
    pub seed: u64,
}

impl ExploreConfig {
    /// A full-grid search of `spec`.
    pub fn grid(spec: SpaceSpec) -> ExploreConfig {
        ExploreConfig {
            spec,
            mode: SearchMode::Grid,
            budget: 0,
            seed: 0,
        }
    }

    /// The effective budget (the whole space when `budget` is `0`).
    fn effective_budget(&self) -> usize {
        let total = self.spec.total_points();
        if self.budget == 0 {
            total
        } else {
            self.budget.min(total)
        }
    }
}

/// What an exploration produced: the canonical artifact plus the
/// execution accounting the artifact deliberately excludes.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// The `stacksim-explore/1` artifact, canonically encoded.
    pub artifact_json: String,
    /// Design points evaluated.
    pub evaluated: usize,
    /// Points on the Pareto frontier.
    pub frontier_size: usize,
    /// Sub-experiment requests actually submitted to the session.
    pub requests: u64,
    /// Submitted requests served from the memo cache.
    pub cache_hits: u64,
    /// Sub-experiment needs satisfied without a submission, because an
    /// earlier point in this exploration already covered them.
    pub dedup_hits: u64,
    /// CG iterations the session spent on this exploration (zero when
    /// everything came from cache).
    pub cg_iterations: u64,
}

impl ExploreOutcome {
    /// Fraction of sub-experiment needs served without fresh work:
    /// `(dedup + cached) / (dedup + submitted)`. `1.0` for an empty
    /// exploration.
    pub fn hit_rate(&self) -> f64 {
        let total = self.dedup_hits + self.requests;
        if total == 0 {
            return 1.0;
        }
        (self.dedup_hits + self.cache_hits) as f64 / total as f64
    }
}

/// Builds a session over [`registry_for`]`(spec)` and runs one
/// exploration on it — the entry point the CLI and the serve endpoint
/// share.
///
/// # Errors
///
/// [`ExploreError`] on an invalid spec or a failing sub-experiment.
pub fn run_exploration(
    cfg: &ExploreConfig,
    params: WorkloadParams,
    jobs: usize,
    cache: MemoCache,
) -> Result<ExploreOutcome, ExploreError> {
    cfg.spec.validate().map_err(ExploreError::Spec)?;
    let sim = Sim::builder()
        .registry(registry_for(&cfg.spec))
        .params(params)
        .jobs(jobs)
        .cache(cache)
        .preflight(true)
        .build();
    let outcome = explore(&sim, cfg);
    sim.shutdown();
    outcome
}

/// Runs one exploration on an existing session (whose registry must
/// cover the spec — use [`registry_for`]). See [`run_exploration`] for
/// the self-contained form.
///
/// # Errors
///
/// [`ExploreError`] on an invalid spec or a failing sub-experiment.
pub fn explore(sim: &Sim, cfg: &ExploreConfig) -> Result<ExploreOutcome, ExploreError> {
    cfg.spec.validate().map_err(ExploreError::Spec)?;
    let budget = cfg.effective_budget();
    let mut eval = Evaluator::new(sim, &cfg.spec);

    let mut evaluated: Vec<PointIdx> = match cfg.mode {
        SearchMode::Grid => grid_select(&cfg.spec, budget),
        SearchMode::Random => random_select(&cfg.spec, budget, cfg.seed),
        SearchMode::Evolve => Vec::new(),
    };
    if cfg.mode == SearchMode::Evolve {
        let mut evolver = Evolver::new(cfg.seed);
        while evaluated.len() < budget {
            let n = (budget - evaluated.len()).min(EVOLVE_POP);
            let wave = if evaluated.is_empty() {
                evolver.initial_wave(&cfg.spec, n)
            } else {
                let objectives: Vec<Objectives> =
                    evaluated.iter().map(|p| eval.objectives(p)).collect();
                let parents: Vec<PointIdx> = evaluated
                    .iter()
                    .zip(frontier(&objectives))
                    .filter(|(_, on_front)| *on_front)
                    .map(|(p, _)| *p)
                    .collect();
                evolver.next_wave(&cfg.spec, &parents, n)
            };
            if wave.is_empty() {
                break; // space exhausted below budget
            }
            eval.evaluate(&wave)?;
            evaluated.extend(wave);
        }
        evaluated.sort_unstable();
    } else {
        eval.evaluate(&evaluated)?;
    }

    let objectives: Vec<Objectives> = evaluated.iter().map(|p| eval.objectives(p)).collect();
    let on_frontier = frontier(&objectives);
    let frontier_size = on_frontier.iter().filter(|f| **f).count() as u64;

    if stacksim_obs::enabled() {
        stacksim_obs::counter(harness_obs::EXPLORE_POINTS).add(evaluated.len() as u64);
        stacksim_obs::counter(harness_obs::EXPLORE_REQUESTS).add(eval.requests);
        stacksim_obs::counter(harness_obs::EXPLORE_CACHE_HITS).add(eval.cache_hits);
        stacksim_obs::counter(harness_obs::EXPLORE_DEDUP_HITS).add(eval.dedup_hits);
        stacksim_obs::gauge(harness_obs::EXPLORE_FRONTIER_SIZE).set(frontier_size as f64);
    }

    let artifact_json = encode_artifact(cfg, &evaluated, &objectives, &on_frontier, &eval);
    Ok(ExploreOutcome {
        artifact_json,
        evaluated: evaluated.len(),
        frontier_size: frontier_size as usize,
        requests: eval.requests,
        cache_hits: eval.cache_hits,
        dedup_hits: eval.dedup_hits,
        cg_iterations: eval.cg_iterations,
    })
}

/// What a sub-experiment handle was fetched for.
enum Want {
    /// The memory point of benchmark index `bi`.
    Mem(usize),
    /// The thermal point of `(oi, di, vi)`.
    Thermal(usize, usize, usize),
}

/// Accumulated sub-experiment results and request accounting.
struct Evaluator<'a> {
    sim: &'a Sim,
    spec: &'a SpaceSpec,
    /// `bi` → `(cpma, bandwidth)` across [`StackOption::all`] order.
    mem: BTreeMap<usize, ([f64; 4], [f64; 4])>,
    /// `(oi, di, vi)` → `(peak_c, scaled die power)`.
    thermal: BTreeMap<(usize, usize, usize), (f64, f64)>,
    /// `oi` → column into the Fig. 5 row arrays.
    option_col: Vec<usize>,
    requests: u64,
    cache_hits: u64,
    dedup_hits: u64,
    cg_iterations: u64,
}

impl<'a> Evaluator<'a> {
    fn new(sim: &'a Sim, spec: &'a SpaceSpec) -> Evaluator<'a> {
        let all = StackOption::all();
        let option_col = spec
            .options
            .iter()
            .map(|o| all.iter().position(|a| a == o).unwrap_or(0))
            .collect();
        Evaluator {
            sim,
            spec,
            mem: BTreeMap::new(),
            thermal: BTreeMap::new(),
            option_col,
            requests: 0,
            cache_hits: 0,
            dedup_hits: 0,
            cg_iterations: 0,
        }
    }

    /// Fetches every sub-result the batch still misses. Needs already
    /// covered — by an earlier batch or by an earlier point of this one
    /// — count as dedup hits and cost nothing.
    fn evaluate(&mut self, batch: &[PointIdx]) -> Result<(), ExploreError> {
        let mut want_mem: BTreeSet<usize> = BTreeSet::new();
        let mut want_thermal: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
        for p in batch {
            if self.mem.contains_key(&p.bi) || !want_mem.insert(p.bi) {
                self.dedup_hits += 1;
            }
            let key = (p.oi, p.di, p.vi);
            if self.thermal.contains_key(&key) || !want_thermal.insert(key) {
                self.dedup_hits += 1;
            }
        }

        let mut handles = Vec::with_capacity(want_mem.len() + want_thermal.len());
        for &bi in &want_mem {
            let name = mem_point_name(self.spec.benchmarks[bi]);
            let handle = self.sim.submit(&ExperimentRequest::new(&name))?;
            handles.push((handle, Want::Mem(bi)));
        }
        for &(oi, di, vi) in &want_thermal {
            let name = thermal_point_name(
                self.spec.options[oi],
                self.spec.boundaries[di],
                self.spec.vf[vi],
            );
            let handle = self.sim.submit(&ExperimentRequest::new(&name))?;
            handles.push((handle, Want::Thermal(oi, di, vi)));
        }
        self.requests += handles.len() as u64;

        for (handle, want) in handles {
            let outcome = handle.wait();
            if let Some(detail) = &outcome.report.error {
                return Err(ExploreError::Failed {
                    name: handle.name().to_string(),
                    detail: detail.clone(),
                });
            }
            if outcome.report.cached {
                self.cache_hits += 1;
            }
            self.cg_iterations += outcome.report.telemetry.solver.iterations as u64;
            let artifact = outcome.artifact.as_deref();
            match (want, artifact) {
                (Want::Mem(bi), Some(Artifact::Fig5Row(row))) => {
                    self.mem.insert(bi, (row.cpma, row.bandwidth));
                }
                (Want::Thermal(oi, di, vi), Some(Artifact::ExplorePoint { metrics })) => {
                    let metric = |key: &str| {
                        metrics
                            .iter()
                            .find(|(name, _)| name == key)
                            .map(|(_, value)| *value)
                            .ok_or_else(|| ExploreError::Artifact {
                                name: handle.name().to_string(),
                                detail: format!("missing metric '{key}'"),
                            })
                    };
                    self.thermal
                        .insert((oi, di, vi), (metric("peak_c")?, metric("power_w")?));
                }
                (want, artifact) => {
                    return Err(ExploreError::Artifact {
                        name: handle.name().to_string(),
                        detail: format!(
                            "expected a {} artifact, got {}",
                            match want {
                                Want::Mem(_) => "fig5_row",
                                Want::Thermal(..) => "explore_point",
                            },
                            artifact.map_or("nothing", Artifact::kind)
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// The raw measurements of one evaluated point.
    ///
    /// # Panics
    ///
    /// Panics if the point was never [`evaluate`](Self::evaluate)d — an
    /// engine-internal ordering bug, not a user-reachable state.
    fn measurements(&self, p: &PointIdx) -> PointMeasurements {
        let col = self.option_col[p.oi];
        let (cpma_row, bw_row) = self.mem[&p.bi];
        let (peak_c, die_power_w) = self.thermal[&(p.oi, p.di, p.vi)];
        let vf = self.spec.vf[p.vi];
        // +0.82% performance per +1% frequency (Table 5), applied to the
        // inverse of cycles-per-memory-access; off-die traffic scales
        // with frequency, so bus power sees the scaled bandwidth
        let cpma = cpma_row[col];
        let bus_w = bus_power_w(bw_row[col] * vf);
        PointMeasurements {
            cpma,
            bus_w,
            objectives: Objectives {
                perf: (1.0 + PERF_PER_FREQ * (vf - 1.0)) / cpma,
                peak_c,
                power_w: die_power_w + bus_w,
            },
        }
    }

    /// The point's objectives (see [`measurements`](Self::measurements)).
    fn objectives(&self, p: &PointIdx) -> Objectives {
        self.measurements(p).objectives
    }
}

/// One evaluated point's measurements, for the artifact.
struct PointMeasurements {
    cpma: f64,
    bus_w: f64,
    objectives: Objectives,
}

/// Encodes the canonical `stacksim-explore/1` artifact. `evaluated`
/// must already be canonically sorted.
fn encode_artifact(
    cfg: &ExploreConfig,
    evaluated: &[PointIdx],
    objectives: &[Objectives],
    on_frontier: &[bool],
    eval: &Evaluator<'_>,
) -> String {
    let spec = &cfg.spec;
    let points: Vec<Json> = evaluated
        .iter()
        .zip(on_frontier)
        .map(|(p, front)| {
            let m = eval.measurements(p);
            Json::obj(vec![
                ("option", Json::Str(spec.options[p.oi].label().to_string())),
                (
                    "benchmark",
                    Json::Str(spec.benchmarks[p.bi].name().to_string()),
                ),
                (
                    "boundary",
                    Json::Str(spec.boundaries[p.di].label().to_string()),
                ),
                ("vf", Json::Num(spec.vf[p.vi])),
                ("perf", Json::Num(m.objectives.perf)),
                ("cpma", Json::Num(m.cpma)),
                ("peak_c", Json::Num(m.objectives.peak_c)),
                ("power_w", Json::Num(m.objectives.power_w)),
                ("bus_w", Json::Num(m.bus_w)),
                ("frontier", Json::Bool(*front)),
            ])
        })
        .collect();
    let ranked = sensitivities(
        &evaluated
            .iter()
            .copied()
            .zip(objectives.iter().copied())
            .collect::<Vec<_>>(),
        spec,
    );
    let sensitivity: Vec<Json> = ranked
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("axis", Json::Str(s.axis.to_string())),
                ("score", Json::Num(s.score)),
                ("perf", Json::Num(s.perf)),
                ("peak_c", Json::Num(s.peak_c)),
                ("power_w", Json::Num(s.power_w)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str(EXPLORE_SCHEMA.to_string())),
        ("mode", Json::Str(cfg.mode.label().to_string())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("budget", Json::Num(cfg.effective_budget() as f64)),
        ("space", spec.to_json()),
        ("total_points", Json::Num(spec.total_points() as f64)),
        ("evaluated", Json::Num(evaluated.len() as f64)),
        (
            "frontier_size",
            Json::Num(on_frontier.iter().filter(|f| **f).count() as f64),
        ),
        ("points", Json::Arr(points)),
        ("sensitivity", Json::Arr(sensitivity)),
    ])
    .encode()
}
