//! Per-layer timing for the traced run.
//!
//! The traced run re-executes a workload's operations by calling each
//! layer's public entry point from here and timing the call, so the
//! program itself carries no benchmark instrumentation. Each re-executed
//! step mirrors what the corresponding registered experiment does; the
//! traced run then checks that the re-execution produced the same
//! simulated statistics as the untraced operation, so a drifting mirror
//! fails loudly instead of timing the wrong work.

use std::collections::BTreeMap;
use std::time::Instant;

use stacksim_core::harness::preflight;
use stacksim_core::logic_logic;
use stacksim_core::memory_logic::{self, WARMUP_FRACTION};
use stacksim_core::StackOption;
use stacksim_mem::{Engine, EngineConfig, MemoryHierarchy};
use stacksim_ooo::{suite, CoreConfig, Simulator, WireConfig, WirePath};
use stacksim_thermal::{Boundary, LayerStack, SolveStats, SolverConfig, System};
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

use crate::report::Report;

/// Bytes per packed trace record.
const RECORD_BYTES: f64 = 24.0;

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// traced run prints all of them; a layer the workload's path does not
/// reach reads `0` with `n=0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("workloads.records_per_s", "1/s"),
    ("trace.bytes_mb", "MB"),
    ("mem.replay_ms.planar4m", "ms"),
    ("mem.replay_ms.sram12m", "ms"),
    ("mem.replay_ms.dram32m", "ms"),
    ("mem.replay_ms.dram64m", "ms"),
    ("mem.records_per_s", "1/s"),
    ("ooo.run_ms", "ms"),
    ("ooo.uops_per_s", "1/s"),
    ("thermal.assemble_ms", "ms"),
    ("thermal.solve_ms", "ms"),
    ("thermal.cg_iters", "count"),
    ("thermal.cell_updates_per_s", "1/s"),
    ("floorplan.stack_ms", "ms"),
    ("lint.preflight_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("artifact.encode_ms", "ms"),
    ("artifact.decode_ms", "ms"),
    ("artifact.kb", "KB"),
    ("session.submit_ms", "ms"),
    ("session.queue_wait_ms", "ms"),
    ("session.dedup_ratio", "ratio"),
    ("explore.pareto_ms", "ms"),
    ("explore.subexperiments", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.artifact_ms", "ms"),
    ("serve.parse_us", "us"),
    ("obs.overhead_ratio", "ratio"),
    ("unattributed_ms", "ms"),
    ("sim.cpma.planar4m", "cycles"),
    ("sim.cpma.sram12m", "cycles"),
    ("sim.cpma.dram32m", "cycles"),
    ("sim.cpma.dram64m", "cycles"),
    ("sim.offdie_gbps.planar4m", "GB/s"),
    ("sim.offdie_gbps.sram12m", "GB/s"),
    ("sim.offdie_gbps.dram32m", "GB/s"),
    ("sim.offdie_gbps.dram64m", "GB/s"),
    ("sim.uops", "count"),
    ("sim.ipc", "ratio"),
];

/// Per-option metric names, in [`StackOption::all`] order.
const REPLAY_KEYS: [&str; 4] = [
    "mem.replay_ms.planar4m",
    "mem.replay_ms.sram12m",
    "mem.replay_ms.dram32m",
    "mem.replay_ms.dram64m",
];
const CPMA_KEYS: [&str; 4] = [
    "sim.cpma.planar4m",
    "sim.cpma.sram12m",
    "sim.cpma.dram32m",
    "sim.cpma.dram64m",
];
const OFFDIE_KEYS: [&str; 4] = [
    "sim.offdie_gbps.planar4m",
    "sim.offdie_gbps.sram12m",
    "sim.offdie_gbps.dram32m",
    "sim.offdie_gbps.dram64m",
];

/// The µops per class and seed the `table4` experiment runs with —
/// mirrors the registry (the traced run verifies the result matches).
const TABLE4_SEED: u64 = 7;
fn table4_uops(params: &WorkloadParams) -> usize {
    params.pick(10_000, 60_000)
}

/// Accumulated per-layer values of one traced operation.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Sum of layer self times, for the unattributed residual.
    pub self_ms: f64,
    /// Records generated, replayed; µops simulated; cells × iterations.
    pub records_generated: u64,
    pub records_replayed: u64,
    pub uops: u64,
    pub cell_updates: f64,
    /// Time of the solves whose cell count is known (cell-update rate).
    pub direct_solve_ms: f64,
}

impl Layers {
    /// Adds one sample to a metric.
    pub fn add(&mut self, key: &'static str, v: f64) {
        let e = self.values.entry(key).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    /// Sets a metric outright, with its sample count.
    pub fn set(&mut self, key: &'static str, v: f64, n: usize) {
        self.values.insert(key, (v, n));
    }

    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).map_or(0.0, |e| e.0)
    }

    /// Replay time summed over the four stack options.
    pub fn replay_ms(&self) -> f64 {
        REPLAY_KEYS.iter().map(|k| self.get(k)).sum()
    }

    /// Times `f` as a layer self time under `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.add(key, ms);
        self.self_ms += ms;
        out
    }

    /// Derives the throughput metrics from the accumulated counts; a rate
    /// whose layer did no work stays unset.
    pub fn finish_rates(&mut self) {
        let replay_ms = self.replay_ms();
        let rates = [
            (
                "workloads.records_per_s",
                self.records_generated as f64,
                self.get("workloads.generate_ms"),
            ),
            ("mem.records_per_s", self.records_replayed as f64, replay_ms),
            ("ooo.uops_per_s", self.uops as f64, self.get("ooo.run_ms")),
            (
                "thermal.cell_updates_per_s",
                self.cell_updates,
                self.direct_solve_ms,
            ),
        ];
        for (key, count, ms) in rates {
            if count > 0.0 && ms > 0.0 {
                self.set(key, count / (ms / 1e3), 1);
            }
        }
    }

    /// Writes every [`PER_LAYER`] metric into the report.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            let (v, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
            let note = if n == 0 {
                "not on this workload's path"
            } else {
                ""
            };
            report.metric_note(name, v, unit, n, note);
        }
    }
}

/// The per-option simulated statistics of one Fig. 5 point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPoint {
    pub cpma: [f64; 4],
    pub bandwidth: [f64; 4],
}

/// Re-executes one `fig5:<bench>` point: generate the trace once, then
/// replay it through every stack option.
pub fn fig5_point(bench: RmsBenchmark, params: &WorkloadParams, l: &mut Layers) -> MemPoint {
    let trace = l.time("workloads.generate_ms", || bench.generate(params));
    let records = trace.len() as u64;
    l.records_generated += records;
    let mb = records as f64 * RECORD_BYTES / 1e6;
    if mb > l.get("trace.bytes_mb") {
        l.set("trace.bytes_mb", mb, 1);
    }
    let mut point = MemPoint {
        cpma: [0.0; 4],
        bandwidth: [0.0; 4],
    };
    for (i, (option, key)) in StackOption::all().into_iter().zip(REPLAY_KEYS).enumerate() {
        let hierarchy =
            MemoryHierarchy::new(option.hierarchy()).expect("preset hierarchy validates");
        let result = l.time(key, || {
            Engine::new(hierarchy, EngineConfig::default()).run_warmed(&trace, WARMUP_FRACTION)
        });
        l.records_replayed += records;
        point.cpma[i] = result.cpma;
        point.bandwidth[i] = result.offdie_gb_per_sec;
    }
    point
}

/// Records mean CPMA and off-die bandwidth per option over `points`.
pub fn record_sim_mem(points: &[MemPoint], l: &mut Layers) {
    if points.is_empty() {
        return;
    }
    let n = points.len() as f64;
    for i in 0..4 {
        let cpma = points.iter().map(|p| p.cpma[i]).sum::<f64>() / n;
        let bw = points.iter().map(|p| p.bandwidth[i]).sum::<f64>() / n;
        l.set(CPMA_KEYS[i], cpma, points.len());
        l.set(OFFDIE_KEYS[i], bw, points.len());
    }
}

/// One steady-state solve split into floorplan, assembly and CG, for a
/// stack built by `build`.
pub fn thermal_solve(
    build: impl FnOnce() -> LayerStack,
    bc: Boundary,
    cfg: SolverConfig,
    l: &mut Layers,
) -> SolveStats {
    let stack = l.time("floorplan.stack_ms", build);
    let cells = (cfg.nx * cfg.ny * stack.layers().len()) as f64;
    let system = l.time("thermal.assemble_ms", || {
        System::assemble(&stack, bc, cfg).expect("stack assembles")
    });
    let start = Instant::now();
    let solution = l.time("thermal.solve_ms", || {
        system.steady_with_stats().expect("solve converges")
    });
    l.direct_solve_ms += start.elapsed().as_secs_f64() * 1e3;
    l.cell_updates += cells * solution.stats.iterations as f64;
    l.add("thermal.cg_iters", solution.stats.iterations as f64);
    solution.stats
}

/// Times a whole thermal study that has no finer public seam, charging
/// it to the solver and counting its CG iterations.
pub fn thermal_study(
    l: &mut Layers,
    f: impl FnOnce() -> Result<SolveStats, stacksim_core::Error>,
) -> SolveStats {
    let stats = l
        .time("thermal.solve_ms", f)
        .expect("thermal study succeeds");
    l.add("thermal.cg_iters", stats.iterations as f64);
    stats
}

/// Re-executes a paper experiment by name (anything but the `fig5:*`
/// points and the two aggregates) and returns its CG iteration count.
pub fn thermal_experiment(name: &str, cfg: SolverConfig, l: &mut Layers) -> Option<usize> {
    let iters = match name {
        "fig3" => thermal_study(l, || Ok(stacksim_core::sensitivity::fig3_with(cfg)?.1)).iterations,
        "fig6" => {
            let option = StackOption::Planar4M;
            thermal_solve(
                || memory_logic::thermal_stack(option, cfg.nx),
                Boundary::desktop(),
                cfg,
                l,
            )
            .iterations
        }
        "fig8" => StackOption::all()
            .into_iter()
            .map(|option| {
                thermal_solve(
                    || memory_logic::thermal_stack(option, cfg.nx),
                    Boundary::desktop(),
                    cfg,
                    l,
                )
                .iterations
            })
            .sum(),
        "fig11" => thermal_study(l, || Ok(logic_logic::fig11_with(cfg)?.1)).iterations,
        "table5" => thermal_study(l, || Ok(logic_logic::table5_with(cfg)?.1)).iterations,
        _ => return None,
    };
    Some(iters)
}

/// Re-executes Table 4 on the OoO core: the planar baseline per class,
/// then every single-path fold and the all-paths fold. Returns the
/// all-paths gain (percent) and per-path gains for verification.
pub fn table4(params: &WorkloadParams, l: &mut Layers) -> (Vec<f64>, f64) {
    let workloads = l.time("ooo.run_ms", || suite(table4_uops(params), TABLE4_SEED));
    let per_pass: u64 = workloads.iter().map(|(_, u)| u.len() as u64).sum();
    let planar: Vec<stacksim_ooo::SimStats> = l.time("ooo.run_ms", || {
        workloads
            .iter()
            .map(|(_, u)| Simulator::new(CoreConfig::planar()).run(u))
            .collect()
    });
    l.uops += per_pass;
    let ipc = planar
        .iter()
        .map(|s| s.uops as f64 / s.cycles as f64)
        .sum::<f64>()
        / planar.len() as f64;
    l.set("sim.ipc", ipc, planar.len());
    let gain_for = |wire: WireConfig, l: &mut Layers| -> f64 {
        let cfg = CoreConfig {
            wire,
            ..CoreConfig::planar()
        };
        let sim = Simulator::new(cfg);
        let acc: f64 = l.time("ooo.run_ms", || {
            workloads
                .iter()
                .zip(&planar)
                .map(|((_, uops), base)| base.cycles as f64 / sim.run(uops).cycles as f64 - 1.0)
                .sum()
        });
        l.uops += per_pass;
        100.0 * acc / workloads.len() as f64
    };
    let rows: Vec<f64> = WirePath::all()
        .into_iter()
        .map(|path| gain_for(path.apply(WireConfig::planar()), l))
        .collect();
    let total = gain_for(WireConfig::folded_3d(), l);
    l.set("sim.uops", l.uops as f64, 1);
    (rows, total)
}

/// Times the preflight the runner performs before an uncached run.
pub fn preflight_timed(name: &str, params: &WorkloadParams, l: &mut Layers) -> bool {
    l.time("lint.preflight_ms", || preflight(name, params))
        .is_ok()
}
