//! The Memory+Logic study (§3): Fig. 5 performance/bandwidth, Fig. 6/8
//! thermals, and the headline numbers.

use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

use stacksim_floorplan::PowerGrid;
use stacksim_mem::{warm_records, Engine, EngineConfig, MemTelemetry, MemoryHierarchy, RunResult};
use stacksim_obs::Span;
use stacksim_power::bus_power_w;
use stacksim_thermal::{
    solve_with_stats, Boundary, LayerStack, SolveStats, SolverConfig, TemperatureField,
};
use stacksim_trace::RecordBlock;
use stacksim_workloads::{RmsBenchmark, TraceShape, TraceStream, WorkloadParams};

use crate::error::Error;
use crate::stacking::StackOption;

/// Fraction of each trace treated as cache warm-up (excluded from metrics).
pub const WARMUP_FRACTION: f64 = 0.4;

/// One Fig. 5 bar group: a benchmark's CPMA and off-die bandwidth across
/// the four capacity options.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// The benchmark.
    pub benchmark: RmsBenchmark,
    /// CPMA per option, in [`StackOption::all`] order.
    pub cpma: [f64; 4],
    /// Off-die bandwidth (GB/s) per option.
    pub bandwidth: [f64; 4],
}

impl Fig5Row {
    /// CPMA reduction of option `i` relative to the 4 MB baseline
    /// (positive = better).
    pub fn cpma_reduction(&self, i: usize) -> f64 {
        1.0 - self.cpma[i] / self.cpma[0]
    }
}

/// The full Fig. 5 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Data {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Data {
    /// Arithmetic-mean CPMA per option (the Fig. 5 "Avg" group).
    pub fn mean_cpma(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for r in &self.rows {
            for (o, c) in out.iter_mut().zip(&r.cpma) {
                *o += c;
            }
        }
        for o in &mut out {
            *o /= self.rows.len() as f64;
        }
        out
    }

    /// Arithmetic-mean bandwidth per option.
    pub fn mean_bandwidth(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for r in &self.rows {
            for (o, b) in out.iter_mut().zip(&r.bandwidth) {
                *o += b;
            }
        }
        for o in &mut out {
            *o /= self.rows.len() as f64;
        }
        out
    }

    /// The §3 headline numbers at the 32 MB option (index 2): mean CPMA
    /// reduction, peak per-benchmark reduction, bandwidth reduction factor
    /// and bus-power saving in watts.
    pub fn headline(&self) -> Headline {
        let mean = self.mean_cpma();
        let bw = self.mean_bandwidth();
        let peak = self
            .rows
            .iter()
            .map(|r| r.cpma_reduction(2))
            .fold(f64::NEG_INFINITY, f64::max);
        Headline {
            mean_cpma_reduction: 1.0 - mean[2] / mean[0],
            peak_cpma_reduction: peak,
            bandwidth_reduction_factor: if bw[2] > 0.0 {
                bw[0] / bw[2]
            } else {
                f64::INFINITY
            },
            bus_power_saving_w: bus_power_w(bw[0]) - bus_power_w(bw[2]),
            baseline_bus_power_w: bus_power_w(bw[0]),
        }
    }
}

/// The §3 headline summary (paper: 13% mean, ~50–55% peak, 3× bandwidth,
/// ~0.5 W bus power).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Mean CPMA reduction at 32 MB vs the 4 MB baseline.
    pub mean_cpma_reduction: f64,
    /// Largest per-benchmark CPMA reduction at 32 MB.
    pub peak_cpma_reduction: f64,
    /// Mean bandwidth reduction factor at 32 MB.
    pub bandwidth_reduction_factor: f64,
    /// Bus power saved at 32 MB, in watts.
    pub bus_power_saving_w: f64,
    /// Baseline bus power, in watts.
    pub baseline_bus_power_w: f64,
}

impl Headline {
    /// Fractional bus-power reduction.
    pub fn bus_power_reduction(&self) -> f64 {
        if self.baseline_bus_power_w > 0.0 {
            self.bus_power_saving_w / self.baseline_bus_power_w
        } else {
            0.0
        }
    }
}

/// Records per block of a streamed Fig. 5 point.
const STREAM_BLOCK_LEN: usize = 4096;

/// Shared blocks queued ahead of each engine thread of a streamed point.
const FEED_BLOCKS: usize = 8;

/// Runs one benchmark across all four options, also returning the
/// per-option memory-engine telemetry (one [`MemTelemetry`] per Fig. 7
/// option, in [`StackOption::all`] order).
///
/// A count-only pre-pass ([`TraceShape::count`]) first measures the trace.
/// A trace that fits in the generation stream's own buffers is
/// materialised and replayed four times on the calling thread: streaming
/// it would save no memory. A longer one is generated once and every block
/// is fanned out to four engine threads, one per option, so memory stays
/// bounded by the channels rather than the trace length. Both paths
/// produce bit-identical results (see `DESIGN.md` §14).
///
/// # Errors
///
/// Returns [`Error::Config`] if an option's hierarchy preset fails
/// validation; otherwise infallible.
pub fn run_benchmark_instrumented(
    benchmark: RmsBenchmark,
    params: &WorkloadParams,
) -> Result<(Fig5Row, [MemTelemetry; 4]), Error> {
    let start = Instant::now();
    let shape = TraceShape::count(benchmark, params);
    let count_us = start.elapsed().as_micros() as u64;
    if shape.records <= TraceStream::buffer_records(params.threads, STREAM_BLOCK_LEN) {
        run_materialised(benchmark, params, shape, count_us)
    } else {
        run_streamed(benchmark, params, shape, count_us, STREAM_BLOCK_LEN)
    }
}

/// Generates the whole trace, then replays it under each option in turn
/// on the calling thread, one hierarchy alive at a time.
fn run_materialised(
    benchmark: RmsBenchmark,
    params: &WorkloadParams,
    shape: TraceShape,
    count_us: u64,
) -> Result<(Fig5Row, [MemTelemetry; 4]), Error> {
    let generating = generate_span(benchmark, shape, count_us);
    let trace = benchmark.generate(params);
    drop(generating);
    let mut runs = Vec::with_capacity(4);
    for option in StackOption::all() {
        let mut engine = engine(option)?;
        let _replay = replay_span(option);
        runs.push(engine.run_warmed(&trace, WARMUP_FRACTION));
    }
    Ok(fig5_row(benchmark, runs))
}

/// Generates the trace once through a [`TraceStream`] sized by `shape` and
/// replays every block under all four options at once, one engine thread
/// per option.
fn run_streamed(
    benchmark: RmsBenchmark,
    params: &WorkloadParams,
    shape: TraceShape,
    count_us: u64,
    block_len: usize,
) -> Result<(Fig5Row, [MemTelemetry; 4]), Error> {
    let mut consumers = Vec::with_capacity(4);
    let warm = warm_records(shape.records, WARMUP_FRACTION);
    for option in StackOption::all() {
        let mut engine = engine(option)?;
        consumers.push(move |blocks: Receiver<Arc<RecordBlock>>| {
            let _replay = replay_span(option);
            engine.run_blocks(blocks, warm, shape.dep_window)
        });
    }
    let generating = generate_span(benchmark, shape, count_us);
    let stream = TraceStream::spawn(benchmark, *params, shape, block_len);
    let runs = fan_out(stream, generating, consumers);
    Ok(fig5_row(benchmark, runs))
}

/// Hands every block of `stream` to each consumer — one thread and one
/// bounded channel per consumer — and returns their results in order.
/// `generating` (a span guard) is dropped once the stream is exhausted.
///
/// A consumer hangs up only by panicking, which stops the feed; a kernel
/// panic unwinds out of the stream. Either way every producer and consumer
/// thread is joined before the first panic is re-raised here, so a failure
/// can neither deadlock nor leak a thread.
fn fan_out<R, F, G>(stream: TraceStream, generating: G, consumers: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce(Receiver<Arc<RecordBlock>>) -> R + Send,
{
    std::thread::scope(|s| {
        let mut feeds = Vec::with_capacity(consumers.len());
        let threads: Vec<_> = consumers
            .into_iter()
            .map(|consume| {
                let (feed, blocks) = sync_channel(FEED_BLOCKS);
                feeds.push(feed);
                s.spawn(move || consume(blocks))
            })
            .collect();
        for block in stream {
            let block = Arc::new(block);
            if feeds
                .iter()
                .any(|feed| feed.send(Arc::clone(&block)).is_err())
            {
                break;
            }
        }
        drop(generating);
        drop(feeds);
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// A cold engine for one Fig. 7 option.
fn engine(option: StackOption) -> Result<Engine, Error> {
    let hierarchy = MemoryHierarchy::new(option.hierarchy())?;
    Ok(Engine::new(hierarchy, EngineConfig::default()))
}

/// The open `workloads.generate` span of one point. Dropping it closes
/// the span with the span's own wall time as `wall_us`.
struct Generating {
    span: Span,
    start: Instant,
}

impl Drop for Generating {
    fn drop(&mut self) {
        let wall_us = self.start.elapsed().as_micros() as u64;
        self.span.field("wall_us", wall_us);
    }
}

/// Opens the `workloads.generate` span of one point.
fn generate_span(benchmark: RmsBenchmark, shape: TraceShape, count_us: u64) -> Generating {
    let mut span = stacksim_obs::span(stacksim_workloads::obs::EVENT_GENERATE);
    span.field("bench", benchmark.name());
    span.field("records", shape.records);
    span.field("count_us", count_us);
    Generating {
        span,
        start: Instant::now(),
    }
}

/// The `mem.replay` span of one option's engine.
fn replay_span(option: StackOption) -> Span {
    let mut span = stacksim_obs::span(stacksim_mem::obs::EVENT_REPLAY);
    span.field("option", option.label());
    span
}

/// Collects the four per-option runs of `benchmark` into its Fig. 5 row.
fn fig5_row(
    benchmark: RmsBenchmark,
    runs: impl IntoIterator<Item = RunResult>,
) -> (Fig5Row, [MemTelemetry; 4]) {
    let mut row = Fig5Row {
        benchmark,
        cpma: [0.0; 4],
        bandwidth: [0.0; 4],
    };
    let mut telemetry = [MemTelemetry::default(); 4];
    for (i, run) in runs.into_iter().enumerate() {
        row.cpma[i] = run.cpma;
        row.bandwidth[i] = run.offdie_gb_per_sec;
        telemetry[i] = run.telemetry();
    }
    (row, telemetry)
}

/// Runs the full Fig. 5 study: all twelve RMS benchmarks across the four
/// Fig. 7 options. At paper scale this simulates ~130 M references.
///
/// # Errors
///
/// See [`run_benchmark_instrumented`].
pub fn fig5(params: &WorkloadParams) -> Result<Fig5Data, Error> {
    Ok(Fig5Data {
        rows: RmsBenchmark::all()
            .iter()
            .map(|b| run_benchmark_instrumented(*b, params).map(|(row, _)| row))
            .collect::<Result<_, _>>()?,
    })
}

/// The thermal result for one Fig. 8 bar.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalPoint {
    /// The option.
    pub option: StackOption,
    /// Peak stack temperature in °C.
    pub peak_c: f64,
    /// Total stack power in watts.
    pub power_w: f64,
    /// The solved field (for thermal-map rendering, Fig. 6(b)/8(b)).
    pub field: TemperatureField,
}

/// Builds the thermal stack for one option.
pub fn thermal_stack(option: StackOption, grid: usize) -> LayerStack {
    thermal_stack_scaled(option, grid, 1.0)
}

/// [`thermal_stack`] with every power grid scaled by `power_factor` —
/// the V/f axis of `stacksim explore`: dynamic power scales as V²·f
/// while the floorplan geometry is unchanged.
pub fn thermal_stack_scaled(option: StackOption, grid: usize, power_factor: f64) -> LayerStack {
    let cpu = option.cpu_floorplan();
    let (w, h) = (cpu.width(), cpu.height());
    let ny = (grid * 17 / 20).max(1);
    let power = cpu.power_grid(grid, ny).scaled(power_factor);
    match option.stacked_floorplan() {
        None => LayerStack::planar(w, h, power),
        Some(top) => LayerStack::two_die(
            w,
            h,
            power,
            top.power_grid(grid, ny).scaled(power_factor),
            option.stacked_die_is_dram(),
        ),
    }
}

/// Solves the Fig. 8 thermal comparison across all four options, also
/// returning the accumulated CG statistics of the four thermal solves. The
/// harness threads its solver configuration (the degradation ladder's
/// rung) through `cfg`.
///
/// # Errors
///
/// Propagates the first solver failure.
pub fn fig8_with(cfg: SolverConfig) -> Result<(Vec<ThermalPoint>, SolveStats), Error> {
    let bc = Boundary::desktop();
    let mut stats = SolveStats::default();
    let mut points = Vec::new();
    for option in StackOption::all() {
        let stack = thermal_stack(option, cfg.nx);
        let sol = solve_with_stats(&stack, bc, cfg)?;
        stats.absorb(sol.stats);
        points.push(ThermalPoint {
            option,
            peak_c: sol.field.peak(),
            power_w: option.total_power(),
            field: sol.field,
        });
    }
    Ok((points, stats))
}

/// Solves the baseline planar thermal map of Fig. 6: returns the power
/// grid and the temperature field of the active layer, with the CG
/// statistics of the solve, under an explicit solver configuration.
///
/// # Errors
///
/// Propagates solver failure.
pub fn fig6_with(cfg: SolverConfig) -> Result<((PowerGrid, TemperatureField), SolveStats), Error> {
    let option = StackOption::Planar4M;
    let cpu = option.cpu_floorplan();
    let ny = (cfg.nx * 17 / 20).max(1);
    let grid = cpu.power_grid(cfg.nx, ny);
    let stack = thermal_stack(option, cfg.nx);
    let sol = solve_with_stats(&stack, Boundary::desktop(), cfg)?;
    Ok(((grid, sol.field), sol.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_matches_paper_within_a_degree() {
        let (pts, _) = fig8_with(SolverConfig::default()).unwrap();
        let paper = [88.35, 92.85, 88.43, 90.27];
        for (p, target) in pts.iter().zip(paper) {
            assert!(
                (p.peak_c - target).abs() < 1.2,
                "{}: {:.2} vs paper {target}",
                p.option,
                p.peak_c
            );
        }
        // the 32 MB DRAM option is thermally near-free (paper: +0.08 C)
        let delta = pts[2].peak_c - pts[0].peak_c;
        assert!(delta.abs() < 0.6, "32 MB delta {delta:.2}");
        // SRAM stacking heats the most
        assert!(pts[1].peak_c > pts[3].peak_c && pts[3].peak_c > pts[2].peak_c);
    }

    #[test]
    fn fig6_baseline_map_shape() {
        let ((grid, field), _) = fig6_with(SolverConfig::default()).unwrap();
        assert!((grid.total() - 92.0).abs() < 1e-6);
        let peak = field.peak();
        assert!((peak - 88.35).abs() < 1.0, "peak {peak:.2}");
        // the die's coolest spot sits over the L2 (bottom half);
        // paper: 59 C with the epoxy-fillet edge effect we do not model
        let active = field.layer_by_name("active 1").expect("active layer");
        let min = active.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 55.0 && min < 70.0, "coolest {min:.2}");
    }

    #[test]
    fn test_scale_fig5_shows_capacity_separation() {
        // at test scale only shape sanity is checked: valid metrics and
        // capacity-insensitive benchmarks staying flat
        let (row, _) =
            run_benchmark_instrumented(RmsBenchmark::Conj, &WorkloadParams::test()).unwrap();
        for c in row.cpma {
            assert!(c > 0.0 && c < 100.0);
        }
    }

    /// The streamed path must reproduce the materialised one bit for bit,
    /// wherever the warm boundary falls in a block.
    #[test]
    fn streamed_point_matches_materialised_for_every_benchmark() {
        let params = WorkloadParams::test();
        for bench in RmsBenchmark::all() {
            let shape = TraceShape::count(bench, &params);
            let (row, telemetry) = run_materialised(bench, &params, shape, 0).unwrap();
            for block_len in [1usize, 7, 4096] {
                let (streamed, streamed_telemetry) =
                    run_streamed(bench, &params, shape, 0, block_len).unwrap();
                let at = format!("{bench}, block {block_len}");
                let bits = |v: [f64; 4]| v.map(f64::to_bits);
                assert_eq!(bits(row.cpma), bits(streamed.cpma), "{at}");
                assert_eq!(bits(row.bandwidth), bits(streamed.bandwidth), "{at}");
                assert_eq!(telemetry, streamed_telemetry, "{at}");
            }
        }
    }

    /// One engine consumer panics mid-stream: the panic reaches the run
    /// report as a worker panic, and every thread of the fan-out has
    /// finished by the time the run returns.
    #[test]
    fn consumer_panic_mid_stream_surfaces_without_deadlock() {
        use crate::harness::{Artifact, Ctx, Digest, Experiment, Registry, Sim};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts consumers that have finished, normally or by unwinding.
        struct Finished(Arc<AtomicUsize>);
        impl Drop for Finished {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        struct PanicsMidStream(Arc<AtomicUsize>);
        impl Experiment for PanicsMidStream {
            fn name(&self) -> &str {
                "fan-out-panic"
            }

            fn params_digest(&self, _params: &WorkloadParams) -> String {
                Digest::new().str("fan-out-panic").hex()
            }

            fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
                let stream = RmsBenchmark::Gauss.stream(&ctx.params, 64);
                let consumers = (0..4)
                    .map(|i| {
                        let finished = Finished(Arc::clone(&self.0));
                        move |blocks: Receiver<Arc<RecordBlock>>| {
                            let _finished = finished;
                            for (n, _) in blocks.into_iter().enumerate() {
                                assert!(i != 2 || n < 3, "engine {i} fails mid-stream");
                            }
                        }
                    })
                    .collect();
                let generating = stacksim_obs::span(stacksim_workloads::obs::EVENT_GENERATE);
                fan_out(stream, generating, consumers);
                unreachable!("the fan-out re-raises the consumer panic")
            }
        }

        let finished = Arc::new(AtomicUsize::new(0));
        let mut registry = Registry::new();
        registry.add(Arc::new(PanicsMidStream(Arc::clone(&finished))));
        let outcome = Sim::builder()
            .registry(registry)
            .params(WorkloadParams::test())
            .jobs(1)
            .build()
            .run(&["fan-out-panic".to_string()])
            .unwrap();
        let kinds: Vec<&str> = outcome.errors.iter().map(|(_, e)| e.kind()).collect();
        assert_eq!(kinds, ["worker-panic"]);
        let attempts = outcome.report.entries[0].attempts;
        assert_eq!(finished.load(Ordering::SeqCst), 4 * attempts as usize);
    }

    #[test]
    fn headline_math() {
        let data = Fig5Data {
            rows: vec![
                Fig5Row {
                    benchmark: RmsBenchmark::Gauss,
                    cpma: [4.0, 4.0, 2.0, 2.0],
                    bandwidth: [12.0, 12.0, 4.0, 4.0],
                },
                Fig5Row {
                    benchmark: RmsBenchmark::Conj,
                    cpma: [1.0, 1.0, 1.0, 1.0],
                    bandwidth: [0.0, 0.0, 0.0, 0.0],
                },
            ],
        };
        let h = data.headline();
        assert!((h.mean_cpma_reduction - 0.4).abs() < 1e-9);
        assert!((h.peak_cpma_reduction - 0.5).abs() < 1e-9);
        assert!((h.bandwidth_reduction_factor - 3.0).abs() < 1e-9);
        assert!((h.bus_power_reduction() - 2.0 / 3.0).abs() < 1e-9);
    }
}
