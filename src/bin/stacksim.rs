//! The experiment-harness CLI: list, run and cache every table and figure
//! of the paper.
//!
//! ```text
//! stacksim list
//! stacksim run --all [--jobs N] [--no-cache] [--cache-dir D]
//!              [--test-scale] [--report FILE] [--show]
//!              [--metrics-out FILE] [--events FILE]
//!              [--fault-plan FILE] [--keep-going] [--failures FILE]
//!              [--retries N] [--deadline S]
//! stacksim run fig5 table4 ...
//! stacksim explore [--mode grid|random|evolve] [--budget N] [--seed N]
//!                  [--spec FILE] [--out FILE] [--report] [--jobs N]
//!                  [--test-scale] [--no-cache] [--cache-dir D]
//!                  [--cache-max-bytes B]
//!                  [--metrics-out FILE] [--events FILE]
//! stacksim check --all [--format json] [--test-scale]
//! stacksim check fig8 table4 ...
//! stacksim bench [--quick] [--out-dir D]
//!                [--metrics-out FILE] [--events FILE]
//! stacksim stats [FILE] [--events FILE] [--failures FILE] [--format json]
//! stacksim clean [--cache-dir D]
//! ```
//!
//! `run` executes the selection (plus transitive dependencies) in
//! parallel, memoizes artifacts under the cache directory, and prints a
//! per-experiment telemetry summary: wall time, cache hits, CG solver
//! iterations, simulated trace lengths. A second `run` with the same
//! configuration completes from cache — the telemetry shows zero solver
//! iterations and zero trace records.
//!
//! `--metrics-out` / `--events` turn on the observability layer
//! (DESIGN.md §10): the run additionally writes a `stacksim-obs/1`
//! metrics snapshot and/or a JSONL span log, and `stacksim stats`
//! renders the most recent snapshot (also kept at
//! `target/stacksim-obs/last.json`). Simulation artifacts are
//! bit-identical with observability on or off.
//!
//! `--fault-plan` arms a deterministic `stacksim-faults/1` injection
//! plan for the duration of the run (DESIGN.md §11); `--keep-going`
//! completes every experiment the failures don't transitively poison and
//! writes a machine-readable `stacksim-failures/1` report, which
//! `stacksim stats --failures` validates. Resilience knobs: `--retries`
//! caps transient retries per experiment, `--deadline` bounds each
//! experiment's recovery time in seconds.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stacksim::core::harness::{
    check, default_cache_dir, obs_report, render, resilience, FailureReport, MemoCache, Registry,
    Sim,
};
use stacksim::core::{fmt_f, TextTable};
use stacksim::workloads::WorkloadParams;

fn usage() -> ExitCode {
    eprintln!(
        "usage: stacksim <command> [options]\n\
         \n\
         commands:\n\
         \x20 list                      list registered experiments and dependencies\n\
         \x20 run [NAMES | --all]       run experiments (deps included automatically)\n\
         \x20 explore                   Pareto design-space search over the session API\n\
         \x20 serve                     long-running HTTP/JSON experiment service\n\
         \x20 check [NAMES | --all]     statically validate experiment models\n\
         \x20 bench                     time solver + memory suites, write BENCH_*.json\n\
         \x20 stats [FILE]              validate + render an observability snapshot\n\
         \x20 clean                     delete the memo cache\n\
         \n\
         run options:\n\
         \x20 --all              run every registered experiment\n\
         \x20 --jobs N           executor worker threads (default: all CPUs)\n\
         \x20 --no-cache         neither read nor write the memo cache\n\
         \x20 --cache-dir D      cache directory (default: target/stacksim-cache)\n\
         \x20 --test-scale       small traces for a fast smoke run\n\
         \x20 --report FILE      write the JSON run report to FILE\n\
         \x20 --show             print each artifact's rendered table\n\
         \x20 --metrics-out FILE write a stacksim-obs/1 metrics snapshot to FILE\n\
         \x20 --events FILE      append span/point events to FILE (JSONL)\n\
         \x20 --fault-plan FILE  arm a stacksim-faults/1 injection plan for this run\n\
         \x20 --keep-going       complete unpoisoned experiments, write the failure\n\
         \x20                    report, exit non-zero iff anything failed\n\
         \x20 --failures FILE    where --keep-going writes the stacksim-failures/1\n\
         \x20                    report (default: target/stacksim-failures.json)\n\
         \x20 --retries N        transient-failure retries per experiment (default: 2)\n\
         \x20 --deadline S       per-experiment recovery deadline in seconds\n\
         \n\
         explore options:\n\
         \x20 --mode M           search mode: grid (default), random or evolve\n\
         \x20 --budget N         max design points to evaluate (default: the whole space)\n\
         \x20 --seed N           search seed; same seed + space = bit-identical frontier\n\
         \x20 --spec FILE        JSON space spec (default: the built-in 576-point space)\n\
         \x20 --out FILE         write the stacksim-explore/1 artifact to FILE\n\
         \x20 --report           print the rendered frontier + sensitivity tables\n\
         \x20 --jobs / --test-scale / --no-cache / --cache-dir / --cache-max-bytes /\n\
         \x20 --metrics-out / --events  as for run and serve\n\
         \n\
         serve options:\n\
         \x20 --addr A           listen address (default: 127.0.0.1:7878; port 0 = any)\n\
         \x20 --jobs N           executor worker threads (default: all CPUs)\n\
         \x20 --no-cache         neither read nor write the memo cache\n\
         \x20 --cache-dir D      cache directory (default: target/stacksim-cache)\n\
         \x20 --cache-max-bytes B  bound the cache; oldest-LRU entries evicted\n\
         \x20 --test-scale       small traces (smoke/CI serving)\n\
         \x20 --fault-plan FILE  plan requests may opt into with \"faults\": true;\n\
         \x20                    its serve.*/session.* rules apply for the\n\
         \x20                    daemon's lifetime (network chaos)\n\
         \x20 --max-pending N    shed submissions past N queued+running (503 +\n\
         \x20                    Retry-After; default: 0 = unbounded)\n\
         \x20 --max-conns N      serve at most N connections at once, one thread\n\
         \x20                    each; more get 429 (N >= 1; default: 64)\n\
         \x20 --io-timeout S     per-socket read/write timeout and whole-request\n\
         \x20                    read deadline, seconds (default: 10)\n\
         \x20 --journal FILE     append-only crash-recovery journal (default:\n\
         \x20                    <cache-dir>/journal/requests.jsonl when the\n\
         \x20                    cache is enabled)\n\
         \x20 --no-journal       disable the journal\n\
         \n\
         check options:\n\
         \x20 --all            check every registered experiment + the digest audit\n\
         \x20 --format FMT     output format: pretty (default) or json\n\
         \x20 --test-scale     validate the test-scale parameter set\n\
         \n\
         bench options:\n\
         \x20 --quick          one timed sample per benchmark, coarse thermal grid\n\
         \x20                  (CI smoke)\n\
         \x20 --out-dir D      where BENCH_*.json land (default: .)\n\
         \x20 --metrics-out FILE / --events FILE  as for run\n\
         \n\
         stats options:\n\
         \x20 FILE             snapshot to read (default: target/stacksim-obs/last.json)\n\
         \x20 --events FILE    also validate a JSONL event log\n\
         \x20 --failures FILE  also validate a stacksim-failures/1 report\n\
         \x20 --format FMT     output format: pretty (default) or json"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "list" => list(),
        "run" => run(&args[1..]),
        "explore" => explore(&args[1..]),
        "serve" => serve(&args[1..]),
        "check" => check(&args[1..]),
        "bench" => bench(&args[1..]),
        "stats" => stats(&args[1..]),
        "clean" => clean(&args[1..]),
        _ => usage(),
    }
}

/// Observability session bracketing a `run` or `bench` invocation:
/// enable + install the event sink up front, then flush, snapshot and
/// disable on drop (so every exit path of the command reports).
struct ObsSession {
    metrics_out: Option<PathBuf>,
}

impl ObsSession {
    /// Start observability if either output flag was given.
    fn start(
        metrics_out: Option<&PathBuf>,
        events: Option<&PathBuf>,
    ) -> Result<Option<Self>, String> {
        if metrics_out.is_none() && events.is_none() {
            return Ok(None);
        }
        stacksim::obs::reset();
        stacksim::obs::enable();
        if let Some(path) = events {
            let sink = stacksim::obs::JsonlSink::create(path)
                .map_err(|e| format!("cannot create event log {}: {e}", path.display()))?;
            stacksim::obs::set_sink(Some(std::sync::Arc::new(sink)));
        }
        Ok(Some(ObsSession {
            metrics_out: metrics_out.cloned(),
        }))
    }

    /// Flush the event sink, write snapshots, disable observability.
    fn finish(self) -> Result<(), String> {
        stacksim::obs::set_sink(None);
        let mut targets = vec![obs_report::default_snapshot_path()];
        if let Some(path) = &self.metrics_out {
            targets.push(path.clone());
        }
        let result = targets
            .iter()
            .try_for_each(|path| obs_report::write_snapshot(path).map_err(|e| e.to_string()));
        stacksim::obs::disable();
        result
    }
}

/// Reads and validates the fault plan at `path`, if one was given.
fn read_fault_plan(path: Option<&Path>) -> Result<Option<stacksim::faults::FaultPlan>, String> {
    let Some(path) = path else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fault plan {}: {e}", path.display()))?;
    resilience::parse_fault_plan(&text)
        .map(Some)
        .map_err(|e| format!("invalid fault plan {}: {e}", path.display()))
}

fn list() -> ExitCode {
    let registry = Registry::standard();
    let mut t = TextTable::new(["experiment", "depends on"]);
    for exp in registry.experiments() {
        let deps = exp.deps();
        t.row([
            exp.name().to_string(),
            if deps.len() > 4 {
                format!("{} experiments", deps.len())
            } else {
                deps.join(", ")
            },
        ]);
    }
    println!("{}", t.render());
    ExitCode::SUCCESS
}

struct RunArgs {
    names: Vec<String>,
    all: bool,
    jobs: usize,
    no_cache: bool,
    cache_dir: PathBuf,
    test_scale: bool,
    report: Option<PathBuf>,
    show: bool,
    metrics_out: Option<PathBuf>,
    events: Option<PathBuf>,
    fault_plan: Option<PathBuf>,
    keep_going: bool,
    failures: PathBuf,
    retries: Option<usize>,
    deadline_s: Option<f64>,
}

fn parse_run_args(args: &[String]) -> Option<RunArgs> {
    let mut out = RunArgs {
        names: Vec::new(),
        all: false,
        jobs: 0,
        no_cache: false,
        cache_dir: default_cache_dir(),
        test_scale: false,
        report: None,
        show: false,
        metrics_out: None,
        events: None,
        fault_plan: None,
        keep_going: false,
        failures: PathBuf::from("target").join("stacksim-failures.json"),
        retries: None,
        deadline_s: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => out.all = true,
            "--no-cache" => out.no_cache = true,
            "--test-scale" => out.test_scale = true,
            "--show" => out.show = true,
            "--keep-going" => out.keep_going = true,
            "--jobs" => out.jobs = it.next()?.parse().ok()?,
            "--cache-dir" => out.cache_dir = PathBuf::from(it.next()?),
            "--report" => out.report = Some(PathBuf::from(it.next()?)),
            "--metrics-out" => out.metrics_out = Some(PathBuf::from(it.next()?)),
            "--events" => out.events = Some(PathBuf::from(it.next()?)),
            "--fault-plan" => out.fault_plan = Some(PathBuf::from(it.next()?)),
            "--failures" => out.failures = PathBuf::from(it.next()?),
            "--retries" => out.retries = Some(it.next()?.parse().ok()?),
            "--deadline" => match it.next()?.parse::<f64>().ok() {
                Some(s) if s.is_finite() && s > 0.0 => out.deadline_s = Some(s),
                _ => return None,
            },
            name if !name.starts_with('-') => out.names.push(name.to_string()),
            _ => return None,
        }
    }
    if out.all == out.names.is_empty() {
        Some(out)
    } else {
        // both or neither of --all / explicit names
        None
    }
}

fn run(args: &[String]) -> ExitCode {
    let Some(run_args) = parse_run_args(args) else {
        return usage();
    };
    let params = if run_args.test_scale {
        WorkloadParams::test()
    } else {
        WorkloadParams::paper()
    };
    let cache = if run_args.no_cache {
        MemoCache::disabled()
    } else {
        MemoCache::at(&run_args.cache_dir)
    };
    let mut resilience = resilience::Resilience::default();
    if let Some(retries) = run_args.retries {
        resilience.retries = retries;
    }
    resilience.deadline_s = run_args.deadline_s;
    let fault_plan = match read_fault_plan(run_args.fault_plan.as_deref()) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sim = Sim::builder()
        .params(params)
        .jobs(run_args.jobs)
        .cache(cache)
        .resilience(resilience)
        .fault_plan(fault_plan)
        .build();
    let obs = match ObsSession::start(run_args.metrics_out.as_ref(), run_args.events.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = if run_args.all {
        sim.registry()
            .names()
            .into_iter()
            .map(str::to_string)
            .collect()
    } else {
        run_args.names
    };
    let outcome = sim.run(&names);
    // join the workers, so the metrics snapshot sees their last update
    sim.shutdown();
    if let (Some(path), Some(faults)) = (&run_args.fault_plan, sim.faults()) {
        println!(
            "fault plan {}: {} faults injected",
            path.display(),
            faults.injected()
        );
    }
    if let Some(obs) = obs {
        if let Err(e) = obs.finish() {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
        if let Some(path) = &run_args.metrics_out {
            println!("metrics snapshot written to {}", path.display());
        }
        if let Some(path) = &run_args.events {
            println!("event log written to {}", path.display());
        }
    }
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut t = TextTable::new(["experiment", "status", "wall s", "CG iters", "trace refs"]);
    for entry in &outcome.report.entries {
        t.row([
            entry.name.clone(),
            if entry.error.is_some() {
                "FAILED".to_string()
            } else if entry.cached {
                "cached".to_string()
            } else {
                match &entry.fallback {
                    Some(rung) => format!("ran ({rung})"),
                    None => "ran".to_string(),
                }
            },
            fmt_f(entry.wall_s, 3),
            entry.telemetry.solver.iterations.to_string(),
            entry.telemetry.trace_records().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "{} experiments, {} workers, {:.3} s wall, {} CG iterations, {} trace refs",
        outcome.report.entries.len(),
        outcome.report.jobs,
        outcome.report.wall_s,
        outcome.report.total_cg_iterations(),
        outcome.report.total_trace_records(),
    );

    if run_args.show {
        // deterministic order: as reported
        for entry in &outcome.report.entries {
            if let Some(artifact) = outcome.artifacts.get(&entry.name) {
                println!("\n== {} ==", entry.name);
                println!("{}", render::render(artifact));
            }
        }
    }

    if let Some(path) = &run_args.report {
        if let Err(e) = outcome.report.write(path) {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {}", path.display());
    }

    if run_args.keep_going {
        let failures = FailureReport::from_outcome(&outcome);
        if let Err(e) = failures.write(&run_args.failures) {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "failure report written to {} ({} failures)",
            run_args.failures.display(),
            failures.failures.len()
        );
        for f in &failures.failures {
            eprintln!(
                "stacksim: {} failed [{}] after {} attempts: {}",
                f.name, f.kind, f.attempts, f.error
            );
        }
        return if failures.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut failed = false;
    for (name, error) in &outcome.errors {
        eprintln!("stacksim: {name} failed: {error}");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `stacksim explore`: search a declarative design space for its Pareto
/// frontier over (performance, peak temperature, power), reusing the
/// memo cache for every overlapping sub-experiment.
fn explore(args: &[String]) -> ExitCode {
    use stacksim::explore::{run_exploration, ExploreConfig, SearchMode, SpaceSpec};

    let mut mode = SearchMode::Grid;
    let mut budget = 0usize;
    let mut seed = 0u64;
    let mut spec_file: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut report = false;
    let mut jobs = 0usize;
    let mut test_scale = false;
    let mut no_cache = false;
    let mut cache_dir = default_cache_dir();
    let mut cache_max_bytes: Option<u64> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut events: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => report = true,
            "--test-scale" => test_scale = true,
            "--no-cache" => no_cache = true,
            "--mode" => match it.next().map(String::as_str).and_then(SearchMode::parse) {
                Some(m) => mode = m,
                None => return usage(),
            },
            "--budget" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => budget = n,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage(),
            },
            "--spec" => match it.next() {
                Some(p) => spec_file = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = PathBuf::from(d),
                None => return usage(),
            },
            "--cache-max-bytes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => cache_max_bytes = Some(n),
                _ => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--events" => match it.next() {
                Some(p) => events = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let spec = match &spec_file {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("stacksim: cannot read spec {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            match SpaceSpec::parse(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("stacksim: invalid spec {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        None => SpaceSpec::default_space(),
    };
    let params = if test_scale {
        WorkloadParams::test()
    } else {
        WorkloadParams::paper()
    };
    let cache = if no_cache {
        MemoCache::disabled()
    } else {
        MemoCache::builder()
            .dir(&cache_dir)
            .max_bytes(cache_max_bytes)
            .build()
    };
    let cfg = ExploreConfig {
        spec,
        mode,
        budget,
        seed,
    };

    let obs = match ObsSession::start(metrics_out.as_ref(), events.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = run_exploration(&cfg, params, jobs, cache);
    if let Some(obs) = obs {
        if let Err(e) = obs.finish() {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
    }
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stacksim: explore failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "explored {} of {} design points ({} mode, seed {}): {} on the Pareto frontier",
        outcome.evaluated,
        cfg.spec.total_points(),
        cfg.mode.label(),
        cfg.seed,
        outcome.frontier_size,
    );
    println!(
        "{} sub-experiment requests, {} cache hits, {} dedup hits ({:.1}% hit rate), {} CG iterations",
        outcome.requests,
        outcome.cache_hits,
        outcome.dedup_hits,
        100.0 * outcome.hit_rate(),
        outcome.cg_iterations,
    );

    if report {
        match stacksim::explore::render_report(&outcome.artifact_json) {
            Ok(rendered) => println!("{rendered}"),
            Err(e) => {
                eprintln!("stacksim: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, format!("{}\n", outcome.artifact_json)) {
            eprintln!("stacksim: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("frontier artifact written to {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Set by the SIGTERM/SIGINT handler; the serve accept loop polls it.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Routes SIGTERM and SIGINT to the shutdown flag so `stacksim serve`
/// drains instead of dying mid-experiment. Raw `signal(2)` keeps this
/// dependency-free; an async-signal-safe store is all the handler does.
#[cfg(unix)]
fn install_shutdown_signals() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_shutdown_signals() {}

/// Caps glibc's malloc arenas at one per CPU. Each connection runs on a
/// new thread, which takes whichever arena is free, so at glibc's default
/// of 8 per CPU a multi-megabyte artifact encode stays resident in every
/// arena that ever served one (+17 % peak RSS, two clients, 2 vCPUs).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    unsafe {
        mallopt(M_ARENA_MAX, i32::try_from(cpus).unwrap_or(i32::MAX));
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas() {}

/// `stacksim serve`: the long-running HTTP/JSON experiment service —
/// one warm `Sim` session (registry + shared cache + resilience policy)
/// behind submit/status/artifact/metrics/healthz endpoints. SIGTERM or
/// SIGINT drains in-flight experiments before exiting.
fn serve(args: &[String]) -> ExitCode {
    let mut options = stacksim::serve::ServeOptions::default();
    let mut cache_dir = default_cache_dir();
    let mut cache_max_bytes: Option<u64> = None;
    let mut no_cache = false;
    let mut test_scale = false;
    let mut fault_plan: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut no_journal = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--no-cache" => no_cache = true,
            "--test-scale" => test_scale = true,
            "--no-journal" => no_journal = true,
            "--addr" => match it.next() {
                Some(a) => options.addr = a.clone(),
                None => return usage(),
            },
            // accepted and ignored so existing command lines still start:
            // connections get their own threads, bounded by --max-conns
            "--pool" => match it.next() {
                Some(_) => {}
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => options.jobs = n,
                None => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = PathBuf::from(d),
                None => return usage(),
            },
            "--cache-max-bytes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => cache_max_bytes = Some(n),
                _ => return usage(),
            },
            "--fault-plan" => match it.next() {
                Some(p) => fault_plan = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--max-pending" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => options.max_pending = n,
                None => return usage(),
            },
            "--max-conns" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => options.max_conns = n,
                _ => return usage(),
            },
            "--io-timeout" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => options.io_timeout = std::time::Duration::from_secs(n),
                _ => return usage(),
            },
            "--journal" => match it.next() {
                Some(p) => journal = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    options.params = if test_scale {
        WorkloadParams::test()
    } else {
        WorkloadParams::paper()
    };
    options.cache = if no_cache {
        MemoCache::disabled()
    } else {
        MemoCache::builder()
            .dir(&cache_dir)
            .max_bytes(cache_max_bytes)
            .build()
    };
    // crash recovery rides the cache by default: a journaled request is
    // only cheap to replay when the artifact memoizes
    options.journal = if no_journal {
        None
    } else {
        journal.or_else(|| (!no_cache).then(|| cache_dir.join("journal").join("requests.jsonl")))
    };
    options.fault_plan = match read_fault_plan(fault_plan.as_deref()) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
    };

    cap_malloc_arenas();
    let server = match stacksim::serve::Server::bind(options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stacksim: cannot bind serve address: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("stacksim serve listening on http://{addr}"),
        Err(e) => {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
    }
    install_shutdown_signals();
    match server.run(&SHUTDOWN) {
        Ok(()) => {
            println!("stacksim serve drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stacksim: serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `stacksim check`: run the static lint passes over experiment models
/// (plus the digest-coverage audit with `--all`) without simulating
/// anything. Exit code 1 if any error-severity diagnostic fires.
fn check(args: &[String]) -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut all = false;
    let mut json = false;
    let mut test_scale = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--test-scale" => test_scale = true,
            "--format" => match it.next().map(String::as_str) {
                Some("pretty") => json = false,
                Some("json") => json = true,
                _ => return usage(),
            },
            name if !name.starts_with('-') => names.push(name.to_string()),
            _ => return usage(),
        }
    }
    // valid: either --all with no names, or names with no --all
    if all != names.is_empty() {
        return usage();
    }

    let params = if test_scale {
        WorkloadParams::test()
    } else {
        WorkloadParams::paper()
    };
    let registry = Registry::standard();
    let report = if all {
        check::check_registry(&registry, &params)
    } else {
        let mut combined = stacksim::lint::Report::new();
        for name in &names {
            match check::check_experiment(&registry, name, &params) {
                Ok(r) => combined.merge_under(name, r),
                Err(e) => {
                    eprintln!("stacksim: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        combined
    };

    if json {
        println!("{}", report.render_json());
    } else {
        println!("{}", report.render_pretty());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `stacksim bench`: time the thermal-solver fast path against the
/// pre-optimization baseline plus memory-pipeline throughput, writing
/// `BENCH_thermal.json` and `BENCH_mem.json` (re-parsed after writing, so
/// a malformed artefact fails the command).
fn bench(args: &[String]) -> ExitCode {
    let mut opts = stacksim::bench::perf::BenchOptions::default();
    let mut metrics_out = None;
    let mut events = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out-dir" => match it.next() {
                Some(d) => opts.out_dir = PathBuf::from(d),
                None => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--events" => match it.next() {
                Some(p) => events = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let obs = match ObsSession::start(metrics_out.as_ref(), events.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = stacksim::bench::perf::run(&opts);
    if let Some(obs) = obs {
        if let Err(e) = obs.finish() {
            eprintln!("stacksim: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stacksim: bench failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `stacksim stats`: validate an observability snapshot (default: the
/// one the last `run`/`bench` left at `target/stacksim-obs/last.json`)
/// and render it as tables, optionally validating a JSONL event log
/// alongside. Exit code 1 on any schema violation.
fn stats(args: &[String]) -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut events: Option<PathBuf> = None;
    let mut failures: Option<PathBuf> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--events" => match it.next() {
                Some(p) => events = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--failures" => match it.next() {
                Some(p) => failures = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("pretty") => json = false,
                Some("json") => json = true,
                _ => return usage(),
            },
            name if !name.starts_with('-') && file.is_none() => file = Some(PathBuf::from(name)),
            _ => return usage(),
        }
    }
    let path = file.unwrap_or_else(obs_report::default_snapshot_path);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("stacksim: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let summary = match obs_report::validate_snapshot(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stacksim: invalid snapshot {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if json {
        // already validated: the file itself is the machine-readable form
        println!("{}", text.trim_end());
    } else {
        match obs_report::render_snapshot(&text) {
            Ok(rendered) => {
                println!("{rendered}");
                println!(
                    "{} counters, {} gauges, {} histograms ({})",
                    summary.counters,
                    summary.gauges,
                    summary.histograms,
                    path.display()
                );
            }
            Err(e) => {
                eprintln!("stacksim: invalid snapshot {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(events_path) = events {
        let text = match std::fs::read_to_string(&events_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("stacksim: cannot read {}: {e}", events_path.display());
                return ExitCode::FAILURE;
            }
        };
        match obs_report::validate_events(&text) {
            Ok(s) => println!(
                "event log {}: {} spans, {} point events",
                events_path.display(),
                s.spans,
                s.points
            ),
            Err(e) => {
                eprintln!("stacksim: invalid event log {}: {e}", events_path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(failures_path) = failures {
        let text = match std::fs::read_to_string(&failures_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("stacksim: cannot read {}: {e}", failures_path.display());
                return ExitCode::FAILURE;
            }
        };
        match FailureReport::validate(&text) {
            Ok(report) => {
                println!(
                    "failure report {}: {} failures",
                    failures_path.display(),
                    report.failures.len()
                );
                for f in &report.failures {
                    println!("  {} [{}] attempts={}", f.name, f.kind, f.attempts);
                }
            }
            Err(e) => {
                eprintln!(
                    "stacksim: invalid failure report {}: {e}",
                    failures_path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn clean(args: &[String]) -> ExitCode {
    let mut cache_dir = default_cache_dir();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = PathBuf::from(d),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    match MemoCache::at(&cache_dir).clean() {
        Ok(n) => {
            println!("removed {n} cache entries from {}", cache_dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stacksim: {e}");
            ExitCode::FAILURE
        }
    }
}
