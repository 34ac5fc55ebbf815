//! `paper_cold`: one cold `run --all` at paper scale — what a user
//! reproducing the paper waits for.
//!
//! The run goes through the `Sim` session API at `--jobs 1`: every
//! registered experiment, one at a time in registry (dependency) order,
//! on an empty cache, so each is computed once and an aggregate loads
//! the points it depends on. Each experiment is timed between host
//! reference timings and divided by its host factor (see `host`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use stacksim_core::harness::{Artifact, ExperimentRequest, MemoCache, RequestOutcome, Sim};
use stacksim_thermal::SolverConfig;
use stacksim_workloads::{RmsBenchmark, Scale, WorkloadParams};

use crate::host::Host;
use crate::layers::{self, Layers};
use crate::report::Report;
use crate::stats::Outcome;
use crate::{end_to_end, load_budget, ms_since, Args, Op, PROGRAM_JOBS, SETUPS, SOLVER_THREADS};

fn params(scale: Scale, seed: u64) -> WorkloadParams {
    WorkloadParams::builder()
        .scale(scale)
        .seed(seed)
        .solver_threads(SOLVER_THREADS)
        .build()
}

/// Submits `names` to a fresh paused session with the cache disabled and
/// runs them as one batch; returns each outcome.
fn run_batch(params: WorkloadParams, names: &[String]) -> Result<Vec<Arc<RequestOutcome>>, String> {
    let sim = Sim::builder()
        .params(params)
        .jobs(PROGRAM_JOBS)
        .cache(MemoCache::disabled())
        .preflight(true)
        .start_paused(true)
        .build();
    let mut handles = Vec::with_capacity(names.len());
    for name in names {
        let handle = sim
            .submit(&ExperimentRequest::new(name))
            .map_err(|e| format!("submit {name}: {e}"))?;
        handles.push(handle);
    }
    sim.resume();
    let outcomes = handles.iter().map(|h| h.wait()).collect();
    sim.shutdown();
    Ok(outcomes)
}

/// The timed cold run: its outcomes, its raw and host-divided wall time
/// in ms, and the summed time spent inside `Sim::submit`.
struct ColdRun {
    outcomes: Vec<Arc<RequestOutcome>>,
    raw_ms: f64,
    ms: f64,
    submit_ms: f64,
}

/// Runs `names` one experiment at a time, in order, through one session
/// on the empty cache `dir`, each timed by `host`.
fn cold_run(
    params: WorkloadParams,
    names: &[String],
    dir: &std::path::Path,
    host: &mut Host,
) -> Result<ColdRun, String> {
    let sim = Sim::builder()
        .params(params)
        .jobs(PROGRAM_JOBS)
        .cache(MemoCache::builder().dir(dir).build())
        .preflight(true)
        .build();
    let mut run = ColdRun {
        outcomes: Vec::with_capacity(names.len()),
        raw_ms: 0.0,
        ms: 0.0,
        submit_ms: 0.0,
    };
    for name in names {
        let (out, raw_ms, ms) = host.time(|| {
            let start = Instant::now();
            let handle = sim.submit(&ExperimentRequest::new(name));
            let submit_ms = ms_since(start);
            handle.map(|h| (h.wait(), submit_ms))
        });
        let (outcome, submit_ms) = out.map_err(|e| format!("submit {name}: {e}"))?;
        run.outcomes.push(outcome);
        run.raw_ms += raw_ms;
        run.ms += ms;
        run.submit_ms += submit_ms;
    }
    sim.shutdown();
    Ok(run)
}

/// Checks one outcome: it succeeded and its artifact survives an
/// encode → decode → encode round trip unchanged.
fn check_outcome(outcome: &RequestOutcome) -> Outcome {
    let Some(artifact) = &outcome.artifact else {
        return Outcome::Error(format!(
            "{} failed: {}",
            outcome.report.name,
            outcome.report.error.clone().unwrap_or_default()
        ));
    };
    let encoded = artifact.encode();
    match Artifact::decode(&encoded) {
        Ok(decoded) if decoded.encode() == encoded => Outcome::Ok,
        Ok(_) => Outcome::Wrong(format!("{} re-encodes differently", outcome.report.name)),
        Err(e) => Outcome::Wrong(format!("{} does not decode: {e}", outcome.report.name)),
    }
}

pub fn run(a: &Args, r: &mut Report) -> Result<(), String> {
    load_budget(1, 0, 0)?;
    let registry_names: Vec<String> = stacksim_core::harness::Registry::standard()
        .names()
        .iter()
        .map(|n| n.to_string())
        .collect();

    // Set-up: a test-scale pass over the scale-sensitive experiments (the
    // twelve Fig. 5 points and Table 4) — trace generation, replay and the
    // OoO core warmed end to end before the paper-scale run.
    let warm: Vec<String> = registry_names
        .iter()
        .filter(|n| n.starts_with("fig5:") || *n == "table4")
        .cloned()
        .collect();
    let mut host = Host::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (outcomes, _, ms) = host.time(|| run_batch(params(Scale::Test, a.seed), &warm));
        setups.push(ms / 1e3);
        let ok = outcomes?.iter().all(|o| check_outcome(o) == Outcome::Ok);
        r.check("set-up: test-scale warm-up artifacts decode", ok);
    }

    // The timed operation: the cold paper-scale run.
    let paper = params(Scale::Paper, a.seed);
    let cold = cold_run(paper, &registry_names, &a.workdir.join("cache"), &mut host)?;
    let (outcomes, submit_ms) = (cold.outcomes, cold.submit_ms);
    let raw_s = cold.raw_ms / 1e3;
    let wall_s = cold.ms / 1e3;
    println!(
        "cold run: {raw_s:.2} s raw, {wall_s:.2} s divided by the host factor of each \
         experiment; {}",
        host.summary()
    );
    for outcome in &outcomes {
        r.tally.record(&check_outcome(outcome));
    }
    r.check(
        "cold run: no experiment was served from the cache",
        outcomes.iter().all(|o| !o.report.cached),
    );
    let by_name: BTreeMap<&str, &RequestOutcome> = outcomes
        .iter()
        .map(|o| (o.report.name.as_str(), o.as_ref()))
        .collect();
    r.check(
        "fig5 aggregate equals its twelve points",
        fig5_consistent(&by_name),
    );
    let rss = crate::peak_rss_mb("self")?;

    if !a.trace {
        let op = Op {
            latency_ms: wall_s * 1e3,
            hit: false,
        };
        end_to_end(r, &setups, rss, wall_s, &[op]);
        return Ok(());
    }

    // Traced run: re-execute the same experiments layer by layer.
    let mut l = Layers::default();
    l.set("session.submit_ms", submit_ms, registry_names.len());
    let cfg = SolverConfig::builder().threads(SOLVER_THREADS).build();
    let traced_start = Instant::now();
    let mut points = Vec::new();
    for name in &registry_names {
        r.check(
            format!("traced: {name} passes preflight"),
            layers::preflight_timed(name, &paper, &mut l),
        );
        let untraced = by_name.get(name.as_str()).copied();
        if let Some(bench) = name.strip_prefix("fig5:") {
            let bench = RmsBenchmark::all()
                .into_iter()
                .find(|b| b.name() == bench)
                .ok_or(format!("unknown benchmark {bench}"))?;
            let point = layers::fig5_point(bench, &paper, &mut l);
            let same = matches!(
                untraced.and_then(|o| o.artifact.as_deref()),
                Some(Artifact::Fig5Row(row)) if row.cpma == point.cpma && row.bandwidth == point.bandwidth
            );
            r.check(
                format!("traced {name} reproduces CPMA and bandwidth exactly"),
                same,
            );
            points.push(point);
        } else if name == "table4" {
            let (rows, total) = layers::table4(&paper, &mut l);
            let same = matches!(
                untraced.and_then(|o| o.artifact.as_deref()),
                Some(Artifact::Table4(t)) if t.total_pct == total
                    && t.rows.iter().map(|row| row.measured_pct).eq(rows.iter().copied())
            );
            r.check("traced table4 reproduces every gain exactly", same);
        } else if let Some(iters) = layers::thermal_experiment(name, cfg, &mut l) {
            let expected = untraced.map(|o| o.report.telemetry.solver.iterations);
            r.check(
                format!("traced {name} reproduces its CG iteration count"),
                expected == Some(iters),
            );
        }
    }
    let traced_ms = ms_since(traced_start);
    layers::record_sim_mem(&points, &mut l);
    l.finish_rates();
    l.set("obs.overhead_ratio", traced_ms / cold.raw_ms, 1);
    l.set("unattributed_ms", cold.raw_ms - l.self_ms, 1);
    print_fig5_split(&l, traced_ms, raw_s);
    l.emit(r);
    Ok(())
}

/// The `fig5` aggregate must carry exactly the twelve point rows.
fn fig5_consistent(by_name: &BTreeMap<&str, &RequestOutcome>) -> bool {
    let Some(Artifact::Fig5(data)) = by_name.get("fig5").and_then(|o| o.artifact.as_deref()) else {
        return false;
    };
    data.rows.len() == 12
        && data.rows.iter().all(|row| {
            let name = format!("fig5:{}", row.benchmark.name());
            matches!(
                by_name.get(name.as_str()).and_then(|o| o.artifact.as_deref()),
                Some(Artifact::Fig5Row(point)) if point == row
            )
        })
}

/// Where the Fig. 5 share of the cold run goes: trace generation versus
/// the four replays, as shares of the traced re-execution (`wall_s` is
/// the raw cold run).
fn print_fig5_split(l: &Layers, traced_ms: f64, wall_s: f64) {
    let gen = l.get("workloads.generate_ms");
    let replay = l.replay_ms();
    println!(
        "fig5 split: generate {gen:.0} ms ({:.1}%), replay x4 {replay:.0} ms ({:.1}%) \
         of the {traced_ms:.0} ms traced re-execution; untraced cold run {:.0} ms",
        100.0 * gen / traced_ms,
        100.0 * replay / traced_ms,
        wall_s * 1e3
    );
}
