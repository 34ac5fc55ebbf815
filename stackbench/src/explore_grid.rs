//! `explore_grid`: repeated cold 576-point grid explorations at test
//! scale — the thermal-solver and session-dedup workload.

use std::time::Instant;

use stacksim_core::harness::json::Json;
use stacksim_core::harness::MemoCache;
use stacksim_core::memory_logic::thermal_stack_scaled;
use stacksim_explore::experiments::{mem_point_name, thermal_point_name};
use stacksim_explore::{
    frontier, run_exploration, sensitivities, ExploreConfig, ExploreOutcome, Objectives, SpaceSpec,
};
use stacksim_power::OperatingPoint;
use stacksim_thermal::SolverConfig;
use stacksim_workloads::{Scale, WorkloadParams};

use crate::host::Host;
use crate::layers::{self, Layers};
use crate::report::Report;
use crate::stats::Outcome;
use crate::{end_to_end, load_budget, ms_since, Args, Op, PROGRAM_JOBS, SETUPS, SOLVER_THREADS};

/// One exploration's duration on the reference host; sizes the number of
/// explorations per run from `--seconds`.
const NOMINAL_EXPLORE_S: f64 = 2.5;
/// Grid-prefix budget of each set-up's warm-up exploration.
const WARMUP_BUDGET: usize = 24;

fn explore_once(cfg: &ExploreConfig, params: WorkloadParams) -> Result<ExploreOutcome, String> {
    run_exploration(cfg, params, PROGRAM_JOBS, MemoCache::disabled())
        .map_err(|e| format!("exploration failed: {e}"))
}

/// Checks one exploration against the first: byte-identical artifact,
/// the whole space evaluated, a non-empty frontier.
fn check(outcome: &ExploreOutcome, first: &str, total: usize) -> Outcome {
    if outcome.artifact_json != first {
        return Outcome::Wrong("frontier artifact differs from the run's first".to_string());
    }
    if outcome.evaluated != total || outcome.frontier_size == 0 {
        return Outcome::Wrong(format!(
            "evaluated {} of {total} points, frontier {}",
            outcome.evaluated, outcome.frontier_size
        ));
    }
    match Json::parse(&outcome.artifact_json) {
        Ok(doc) if doc.get("schema").and_then(Json::as_str) == Some("stacksim-explore/1") => {
            Outcome::Ok
        }
        _ => Outcome::Wrong("artifact is not stacksim-explore/1 JSON".to_string()),
    }
}

pub fn run(a: &Args, r: &mut Report) -> Result<(), String> {
    load_budget(1, 0, 0)?;
    let spec = SpaceSpec::default_space();
    let total = spec.total_points();
    let params = WorkloadParams::builder()
        .scale(Scale::Test)
        .seed(a.seed)
        .solver_threads(SOLVER_THREADS)
        .build();

    // Set-up: spec validation, the explore registry, and a short grid
    // prefix through a fresh session. Every set-up and exploration is
    // divided by the host factor around it (see `host`).
    let mut host = Host::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (outcome, _, ms) = host.time(|| {
            let mut warm = ExploreConfig::grid(SpaceSpec::default_space());
            warm.budget = WARMUP_BUDGET;
            explore_once(&warm, params)
        });
        let outcome = outcome?;
        setups.push(ms / 1e3);
        r.check(
            "set-up: warm-up exploration evaluated its budget",
            outcome.evaluated == WARMUP_BUDGET,
        );
    }

    let cfg = ExploreConfig::grid(spec.clone());
    let count = ((a.seconds / NOMINAL_EXPLORE_S).round() as usize).max(3);
    let mut ops = Vec::with_capacity(count);
    let mut raw = Vec::with_capacity(count);
    let mut first: Option<ExploreOutcome> = None;
    for _ in 0..count {
        let (outcome, raw_ms, ms) = host.time(|| explore_once(&cfg, params));
        let outcome = outcome?;
        raw.push(raw_ms);
        ops.push(Op {
            latency_ms: ms,
            hit: false,
        });
        let reference = first.get_or_insert_with(|| outcome.clone());
        r.tally
            .record(&check(&outcome, &reference.artifact_json, total));
    }
    // the explorations back to back, without the reference timings
    let wall_s = ops.iter().map(|o| o.latency_ms).sum::<f64>() / 1e3;
    let first = first.ok_or("no exploration ran")?;
    let rss = crate::peak_rss_mb("self")?;
    let p50 = crate::stats::median(&raw);
    println!("{}; raw median exploration {p50:.1} ms", host.summary());

    if !a.trace {
        end_to_end(r, &setups, rss, wall_s, &ops);
        return Ok(());
    }

    // Traced run: one exploration re-executed sub-experiment by
    // sub-experiment, then the Pareto pass over its points.
    let mut l = Layers::default();
    let solver = SolverConfig::builder().threads(SOLVER_THREADS).build();
    let traced_start = Instant::now();
    let mut points = Vec::new();
    for bench in &spec.benchmarks {
        let name = mem_point_name(*bench);
        r.check(
            format!("traced: {name} passes preflight"),
            layers::preflight_timed(&name, &params, &mut l),
        );
        points.push(layers::fig5_point(*bench, &params, &mut l));
    }
    let mut cg_iters = 0u64;
    for option in &spec.options {
        for boundary in &spec.boundaries {
            for vf in &spec.vf {
                let name = thermal_point_name(*option, *boundary, *vf);
                r.check(
                    format!("traced: {name} passes preflight"),
                    layers::preflight_timed(&name, &params, &mut l),
                );
                let factor = OperatingPoint::scaled_together(*vf).power_factor();
                let stats = layers::thermal_solve(
                    || thermal_stack_scaled(*option, solver.nx, factor),
                    boundary.boundary(),
                    solver,
                    &mut l,
                );
                cg_iters += stats.iterations as u64;
            }
        }
    }
    r.check(
        "traced thermal points reproduce the exploration's CG iterations",
        cg_iters == first.cg_iterations,
    );
    let on_front = pareto_timed(&spec, &first.artifact_json, &mut l)?;
    r.check(
        "traced Pareto pass reproduces the artifact's frontier",
        on_front,
    );
    let traced_ms = ms_since(traced_start);

    let needs = first.dedup_hits + first.requests;
    l.set(
        "session.dedup_ratio",
        first.dedup_hits as f64 / needs as f64,
        needs as usize,
    );
    l.set("explore.subexperiments", first.requests as f64, 1);
    layers::record_sim_mem(&points, &mut l);
    l.finish_rates();
    l.set("obs.overhead_ratio", traced_ms / p50, 1);
    l.set("unattributed_ms", p50 - l.self_ms, 1);
    l.emit(r);
    Ok(())
}

/// Recomputes the frontier and the axis sensitivities from the
/// artifact's points, timed, and reports whether the frontier matches.
fn pareto_timed(spec: &SpaceSpec, artifact: &str, l: &mut Layers) -> Result<bool, String> {
    let doc = Json::parse(artifact).map_err(|e| format!("artifact JSON: {e}"))?;
    let rows = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("artifact has no points")?;
    let mut objectives = Vec::with_capacity(rows.len());
    let mut flags = Vec::with_capacity(rows.len());
    for row in rows {
        let num = |k: &str| {
            row.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("point lacks {k}"))
        };
        objectives.push(Objectives {
            perf: num("perf")?,
            peak_c: num("peak_c")?,
            power_w: num("power_w")?,
        });
        flags.push(row.get("frontier").and_then(Json::as_bool) == Some(true));
    }
    // grid mode over the whole space evaluates points in canonical order
    let indexed: Vec<_> = (0..objectives.len())
        .map(|i| spec.nth(i))
        .zip(objectives.iter().copied())
        .collect();
    let front = l.time("explore.pareto_ms", || {
        let front = frontier(&objectives);
        std::hint::black_box(sensitivities(&indexed, spec));
        front
    });
    Ok(front == flags)
}
