//! `stacksim bench`: end-to-end performance baselines written as JSON.
//!
//! Two files land in the output directory:
//!
//! - `BENCH_thermal.json` — the full Fig. 3 conductivity sweep solved three
//!   ways: the frozen pre-optimization solver
//!   ([`stacksim_thermal::reference`], the baseline every speedup is
//!   measured against), the optimized kernel solving every point cold
//!   (isolating the kernel gains), and the fast path (warm-started
//!   chaining, line-Z preconditioner). The file
//!   records wall time, CG iteration counts, cell-update throughput and the
//!   speedup of fast over baseline, plus the worst peak-temperature
//!   disagreement between baseline and fast as a correctness guard.
//! - `BENCH_mem.json` — trace-generation and memory-hierarchy simulation
//!   throughput for the `gauss` RMS benchmark on the 32 MB stacked-DRAM
//!   option, in records per second; the engine leg is timed twice, with
//!   observability disabled (the shipping default) and enabled, and the
//!   artefact records the enabled/disabled wall-time ratio as
//!   `obs_overhead` — the live cost of the metrics layer (DESIGN.md §10).
//!   A `streamed` leg times the generate-while-simulate pipeline (kernels
//!   feeding the engine through bounded block channels, DESIGN.md §14) and
//!   `pipeline_speedup` compares it against serial generation + simulation.
//!
//! Both files are re-parsed after writing, so a malformed artefact fails
//! the run — CI's bench-smoke job relies on that.

use std::path::{Path, PathBuf};

use stacksim_core::harness::json::Json;
use stacksim_core::sensitivity::{fig3_cold_with, fig3_reference, fig3_stack, fig3_with};
use stacksim_core::Fig3Data;
use stacksim_mem::{Engine, EngineConfig, HierarchyConfig, MemoryHierarchy};
use stacksim_thermal::{Preconditioner, SolveStats, SolverConfig};
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

use crate::timing::{bench_n, group, Sample};

/// How `stacksim bench` should run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// One timed sample per benchmark instead of [`SAMPLES`] — for CI
    /// smoke runs, where only the artefact shape matters, not the numbers.
    pub quick: bool,
    /// Directory the `BENCH_*.json` files are written into.
    pub out_dir: PathBuf,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            quick: false,
            out_dir: PathBuf::from("."),
        }
    }
}

/// Timed samples per benchmark in a full (non-quick) run.
pub const SAMPLES: usize = 5;

/// Records per block in the streamed generate-while-simulate leg.
const STREAM_BLOCK_LEN: usize = 4096;

/// Runs both benchmark suites and writes the two JSON artefacts.
/// Returns the paths written, thermal first.
///
/// # Errors
///
/// Returns a message naming the failing stage: a solver failure, an
/// unwritable output directory, or a written file that fails to re-parse.
pub fn run(opts: &BenchOptions) -> Result<Vec<PathBuf>, String> {
    let samples = if opts.quick { 1 } else { SAMPLES };
    let thermal = bench_thermal(opts, samples)?;
    let mem = bench_mem(opts, samples);
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let thermal_path = write_validated(&opts.out_dir.join("BENCH_thermal.json"), &thermal)?;
    let mem_path = write_validated(&opts.out_dir.join("BENCH_mem.json"), &mem)?;
    Ok(vec![thermal_path, mem_path])
}

/// Encodes `json` to `path` and re-parses the written bytes, so a
/// malformed artefact fails the run instead of landing on disk unnoticed.
fn write_validated(path: &Path, json: &Json) -> Result<PathBuf, String> {
    let text = json.encode();
    std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let back = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
    Json::parse(&back).map_err(|e| format!("{} does not re-parse: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(path.to_path_buf())
}

/// One timed solver configuration of the thermal benchmark.
struct ThermalLeg {
    label: &'static str,
    sample: Sample,
    stats: SolveStats,
    data: Fig3Data,
    preconditioner: Preconditioner,
    warm_start: bool,
}

impl ThermalLeg {
    fn to_json(&self, cells: usize) -> Json {
        let wall_s = self.sample.median_s;
        let updates = cells as f64 * self.stats.iterations as f64;
        Json::obj(vec![
            ("label", Json::Str(self.label.to_string())),
            ("wall_ns", Json::Num((wall_s * 1e9).round())),
            ("solves", Json::Num(self.stats.solves as f64)),
            ("cg_iterations", Json::Num(self.stats.iterations as f64)),
            (
                "preconditioner",
                Json::Str(self.preconditioner.label().to_string()),
            ),
            ("warm_start", Json::Bool(self.warm_start)),
            (
                "cell_updates_per_sec",
                Json::Num(if wall_s > 0.0 { updates / wall_s } else { 0.0 }),
            ),
        ])
    }
}

/// Times the Fig. 3 sweep through the frozen reference solver, the
/// optimized kernel run cold, and the full fast path, and builds the
/// artefact. The headline `speedup` is reference over fast — everything
/// this PR's solver work buys, combined; `kernel_speedup` isolates the
/// kernel-only share.
fn bench_thermal(opts: &BenchOptions, samples: usize) -> Result<Json, String> {
    group("thermal: fig3 conductivity sweep");

    let base_cfg = SolverConfig::default();
    let fast_cfg = SolverConfig::builder()
        .preconditioner(Preconditioner::LineZ)
        .build();

    // Untimed runs first: collect CG statistics and the result sets so the
    // artefact can record how far the slow and fast paths disagree.
    let (ref_data, ref_stats) = fig3_reference(base_cfg).map_err(|e| e.to_string())?;
    let (cold_data, cold_stats) = fig3_cold_with(base_cfg).map_err(|e| e.to_string())?;
    let (fast_data, fast_stats) = fig3_with(fast_cfg).map_err(|e| e.to_string())?;

    let ref_sample = bench_n("fig3_sweep/reference", samples, || fig3_reference(base_cfg));
    let cold_sample = bench_n("fig3_sweep/cold_jacobi_t1", samples, || {
        fig3_cold_with(base_cfg)
    });
    let fast_sample = bench_n("fig3_sweep/warm_linez", samples, || fig3_with(fast_cfg));

    let baseline = ThermalLeg {
        label: "reference",
        sample: ref_sample,
        stats: ref_stats,
        data: ref_data,
        preconditioner: Preconditioner::Jacobi,
        warm_start: false,
    };
    let kernel = ThermalLeg {
        label: "cold_jacobi_t1",
        sample: cold_sample,
        stats: cold_stats,
        data: cold_data,
        preconditioner: Preconditioner::Jacobi,
        warm_start: false,
    };
    let fast = ThermalLeg {
        label: "warm_linez",
        sample: fast_sample,
        stats: fast_stats,
        data: fast_data,
        preconditioner: Preconditioner::LineZ,
        warm_start: true,
    };

    let ny = (base_cfg.nx * 17 / 20).max(1);
    let (stack, _) = fig3_stack(&base_cfg).map_err(|e| e.to_string())?;
    let cells = base_cfg.nx * ny * stack.layers().len();
    let ratio = |num: &ThermalLeg, den: &ThermalLeg| {
        if den.sample.median_s > 0.0 {
            num.sample.median_s / den.sample.median_s
        } else {
            0.0
        }
    };
    let speedup = ratio(&baseline, &fast);
    let kernel_speedup = ratio(&baseline, &kernel);
    println!("speedup: {speedup:.2}x vs reference (kernel alone {kernel_speedup:.2}x, median over {samples} samples)");

    Ok(Json::obj(vec![
        ("benchmark", Json::Str("fig3_sweep".to_string())),
        ("quick", Json::Bool(opts.quick)),
        ("samples", Json::Num(samples as f64)),
        (
            "grid",
            Json::obj(vec![
                ("nx", Json::Num(base_cfg.nx as f64)),
                ("ny", Json::Num(ny as f64)),
                ("layers", Json::Num(stack.layers().len() as f64)),
                ("cells", Json::Num(cells as f64)),
            ]),
        ),
        ("baseline", baseline.to_json(cells)),
        ("kernel", kernel.to_json(cells)),
        ("fast", fast.to_json(cells)),
        ("speedup", Json::Num(speedup)),
        ("kernel_speedup", Json::Num(kernel_speedup)),
        (
            "peak_disagreement_c",
            Json::Num(peak_disagreement(&baseline.data, &fast.data)),
        ),
    ]))
}

/// Worst absolute peak-temperature difference between two Fig. 3 results
/// across every point of both curves. Both paths solve the same systems to
/// the same tolerance, so this stays within a small multiple of it.
fn peak_disagreement(a: &Fig3Data, b: &Fig3Data) -> f64 {
    let pairs = a
        .cu_metal
        .iter()
        .zip(&b.cu_metal)
        .chain(a.bond.iter().zip(&b.bond));
    pairs
        .map(|(p, q)| (p.peak_c - q.peak_c).abs())
        .fold(0.0, f64::max)
}

/// Times gauss trace generation and hierarchy simulation and builds the
/// artefact.
fn bench_mem(opts: &BenchOptions, samples: usize) -> Json {
    group("mem: gauss trace + 32MB stacked-DRAM hierarchy");
    let params = if opts.quick {
        WorkloadParams::test()
    } else {
        WorkloadParams::paper()
    };
    let benchmark = RmsBenchmark::Gauss;

    let gen_sample = bench_n("trace_generation/gauss", samples, || {
        benchmark.generate(&params)
    });
    let trace = benchmark.generate(&params);
    let records = trace.len() as f64;

    let cfg = HierarchyConfig::stacked_dram_32mb();
    // Build (and thereby validate) the hierarchy once; each timed
    // iteration starts from a clone of the cold prototype.
    let proto = match MemoryHierarchy::new(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("stacked_dram_32mb preset rejected: {e}");
            return Json::obj(vec![("error", Json::Str(e.to_string()))]);
        }
    };
    let engine_sample = bench_n("hierarchy_simulation/gauss_32mb", samples, || {
        let mut e = Engine::new(proto.clone(), EngineConfig::default());
        e.run(&trace)
    });

    // Generate-while-simulate: kernels stream packed blocks through
    // bounded channels while the engine consumes them, so one wall-clock
    // interval covers both generation and simulation (DESIGN.md §14).
    let streamed_sample = bench_n("streamed_pipeline/gauss_32mb", samples, || {
        let stream = benchmark.stream(&params, STREAM_BLOCK_LEN);
        let window = stream.dep_window();
        let mut e = Engine::new(proto.clone(), EngineConfig::default());
        e.run_blocks(stream, 0, window)
    });

    // The same leg with live metrics: counters resolve and count, no
    // event sink. The ratio against the disabled leg is the price of
    // turning observability on; disabled, the instruments cost one
    // relaxed atomic load per call site.
    stacksim_obs::enable();
    let engine_obs_sample = bench_n("hierarchy_simulation/gauss_32mb_obs", samples, || {
        let mut e = Engine::new(proto.clone(), EngineConfig::default());
        e.run(&trace)
    });
    stacksim_obs::disable();
    stacksim_obs::reset();
    let obs_overhead = if engine_sample.median_s > 0.0 {
        engine_obs_sample.median_s / engine_sample.median_s
    } else {
        0.0
    };
    println!("obs overhead: {obs_overhead:.3}x (enabled vs disabled engine leg)");
    // what overlap buys: serial generate-then-simulate vs the pipeline
    let pipeline_speedup = if streamed_sample.median_s > 0.0 {
        (gen_sample.median_s + engine_sample.median_s) / streamed_sample.median_s
    } else {
        0.0
    };
    println!("pipeline speedup: {pipeline_speedup:.2}x (serial gen+sim vs streamed)");

    let per_sec = |s: Sample| {
        if s.median_s > 0.0 {
            records / s.median_s
        } else {
            0.0
        }
    };
    Json::obj(vec![
        ("benchmark", Json::Str("gauss".to_string())),
        ("quick", Json::Bool(opts.quick)),
        ("samples", Json::Num(samples as f64)),
        ("hierarchy", Json::Str("stacked_dram_32mb".to_string())),
        ("records", Json::Num(records)),
        (
            "trace_generation",
            Json::obj(vec![
                ("wall_ns", Json::Num((gen_sample.median_s * 1e9).round())),
                ("records_per_sec", Json::Num(per_sec(gen_sample))),
            ]),
        ),
        (
            "engine",
            Json::obj(vec![
                ("wall_ns", Json::Num((engine_sample.median_s * 1e9).round())),
                ("records_per_sec", Json::Num(per_sec(engine_sample))),
            ]),
        ),
        (
            "engine_obs",
            Json::obj(vec![
                (
                    "wall_ns",
                    Json::Num((engine_obs_sample.median_s * 1e9).round()),
                ),
                ("records_per_sec", Json::Num(per_sec(engine_obs_sample))),
            ]),
        ),
        (
            "streamed",
            Json::obj(vec![
                (
                    "wall_ns",
                    Json::Num((streamed_sample.median_s * 1e9).round()),
                ),
                ("records_per_sec", Json::Num(per_sec(streamed_sample))),
                ("block_len", Json::Num(STREAM_BLOCK_LEN as f64)),
            ]),
        ),
        ("pipeline_speedup", Json::Num(pipeline_speedup)),
        ("obs_overhead", Json::Num(obs_overhead)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quick single-sample run writes both artefacts and they re-parse
    /// with the fields the smoke job greps for.
    #[test]
    fn quick_bench_writes_valid_artefacts() {
        let dir = std::env::temp_dir().join("stacksim-bench-test");
        let opts = BenchOptions {
            quick: true,
            out_dir: dir.clone(),
        };
        let paths = run(&opts).unwrap();
        assert_eq!(paths.len(), 2);
        let thermal = Json::parse(&std::fs::read_to_string(&paths[0]).unwrap()).unwrap();
        for key in [
            "baseline",
            "kernel",
            "fast",
            "speedup",
            "kernel_speedup",
            "grid",
            "peak_disagreement_c",
        ] {
            assert!(thermal.get(key).is_some(), "BENCH_thermal.json lacks {key}");
        }
        assert!(thermal.get("speedup").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            thermal
                .get("baseline")
                .and_then(|b| b.get("label"))
                .and_then(Json::as_str),
            Some("reference"),
            "the speedup denominator must be the frozen reference solver"
        );
        let disagreement = thermal
            .get("peak_disagreement_c")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(
            disagreement < 0.1,
            "baseline and fast paths disagree by {disagreement} C"
        );
        let mem = Json::parse(&std::fs::read_to_string(&paths[1]).unwrap()).unwrap();
        for key in [
            "trace_generation",
            "engine",
            "engine_obs",
            "streamed",
            "pipeline_speedup",
            "obs_overhead",
            "records",
        ] {
            assert!(mem.get(key).is_some(), "BENCH_mem.json lacks {key}");
        }
        assert!(mem.get("obs_overhead").unwrap().as_f64().unwrap() > 0.0);
        let streamed = mem.get("streamed").unwrap();
        assert!(
            streamed.get("records_per_sec").unwrap().as_f64().unwrap() > 0.0,
            "streamed leg must process records"
        );
    }
}
