//! stackbench: the end-to-end and per-layer benchmark of stacksim.
//!
//! ```text
//! stackbench --workload paper_cold|explore_grid|serve_mixed \
//!            --seed N --seconds S --trace 0|1 \
//!            --stacksim PATH --workdir DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` re-executes the
//! workload's operations with per-layer timing and prints the per-layer
//! metrics. The last stdout line is always the one-object JSON result.
//! `run.py` builds this binary and the `stacksim` binary and calls it.

mod client;
mod explore_grid;
mod host;
mod layers;
mod paper_cold;
mod report;
mod serve_mixed;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The program runs with one experiment worker and one solver thread.
pub const PROGRAM_JOBS: usize = 1;
pub const SOLVER_THREADS: usize = 1;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub stacksim: PathBuf,
    pub workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        stacksim: PathBuf::new(),
        workdir: PathBuf::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--stacksim" => args.stacksim = PathBuf::from(value),
            "--workdir" => args.workdir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if args.workdir.as_os_str().is_empty() {
        return Err("--workdir is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("stackbench: cannot create {}: {e}", args.workdir.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "paper_cold" => paper_cold::run(&args, &mut report),
        "explore_grid" => explore_grid::run(&args, &mut report),
        "serve_mixed" => serve_mixed::run(&args, &mut report),
        other => Err(format!("unknown workload '{other}'")),
    };
    let _ = std::fs::remove_dir_all(&args.workdir);
    match result {
        Ok(()) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints and checks the load budget: the benchmark's own threads and
/// connections, and the program's worker, pool and solver threads, all
/// within the CPUs available.
pub fn load_budget(load_threads: usize, connections: usize, pool: usize) -> Result<(), String> {
    let cpus = nproc();
    println!(
        "load budget: nproc {cpus}, load threads {load_threads}, connections {connections}, \
         program --jobs {PROGRAM_JOBS}, --pool {pool}, solver threads {SOLVER_THREADS}"
    );
    if load_threads > cpus || connections > cpus || pool > cpus.max(connections) {
        return Err(format!(
            "load budget exceeded: {load_threads} threads / {connections} connections / \
             pool {pool} on {cpus} CPUs"
        ));
    }
    Ok(())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of a process, in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_string())
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One timed operation of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub latency_ms: f64,
    /// Served from the memo cache.
    pub hit: bool,
}

/// Writes the end-to-end metrics every workload reports.
pub fn end_to_end(r: &mut Report, setups: &[f64], rss_mb: f64, wall_s: f64, ops: &[Op]) {
    let all: Vec<f64> = ops.iter().map(|o| o.latency_ms).collect();
    let hits: Vec<f64> = ops.iter().filter(|o| o.hit).map(|o| o.latency_ms).collect();
    r.metric_note(
        "setup_s",
        stats::median(setups),
        "s",
        setups.len(),
        "median of the run's set-ups",
    );
    r.metric("peak_rss_mb", rss_mb, "MB", 1);
    r.metric_note("wall_s", wall_s, "s", 1, "timed phase");
    r.metric("latency_p50_ms", stats::median(&all), "ms", all.len());
    let (tail, pct) = stats::tail(&all);
    r.metric_note(
        "latency_tail_ms",
        tail,
        "ms",
        all.len(),
        &format!("p{pct:.1}"),
    );
    let (hit_tail, note) = if hits.is_empty() {
        (
            tail,
            "no cache hits here: tail of all operations".to_string(),
        )
    } else {
        let (v, p) = stats::tail(&hits);
        (v, format!("p{p:.1} of cache hits"))
    };
    r.metric_note(
        "hit_latency_tail_ms",
        hit_tail,
        "ms",
        if hits.is_empty() {
            all.len()
        } else {
            hits.len()
        },
        &note,
    );
    r.metric(
        "requests_per_s",
        ops.len() as f64 / wall_s,
        "1/s",
        ops.len(),
    );
}
