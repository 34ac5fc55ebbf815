//! Steady-state 3-D finite-volume conduction solver.
//!
//! Discretises Eq. (1) of the paper (`ρc ∂T/∂t = ∇·(K∇T) + Q`) at steady
//! state, where the time term drops out, on a structured grid — one cell
//! layer per material layer, `nx × ny` cells in plane — with the Robin
//! boundary condition of Eq. (2) at the heat-sink and motherboard faces.
//! The result is a symmetric positive-definite system solved matrix-free
//! with preconditioned conjugate gradients.
//!
//! # Kernel layout
//!
//! The hot loop is the 7-point stencil in [`stencil_row`]: one x-row per
//! call, west/east terms fused into `gx·(xr[i−1]+xr[i+1])`, boundary
//! columns peeled out of the interior loop. Absent north/south/above/below
//! neighbours are handled without branches by passing a zero coefficient
//! together with an aliased row, so the interior loop body is identical
//! for every cell and vectorisable. The CG vector passes are fused:
//! the axpy pair (`x += αp`, `r -= αap`) also accumulates `‖r‖²`, and the
//! Jacobi precondition pass also accumulates `r·z`, so the residual norm
//! is never recomputed from scratch.
//!
//! # Determinism contract
//!
//! Every solve runs through one single-threaded CG loop. Every reduction
//! is accumulated into fixed per-row partials, each row folded through
//! [`dot_row`]'s four lanes, and the partials are folded in index order.
//! The fold order is a fixed function of the grid, so a solve's result is
//! a fixed function of its inputs — the same bits at any executor
//! `--jobs`, since parallelism comes from running many solves at once,
//! never from splitting one.

use std::fmt;

use crate::field::TemperatureField;
use crate::stack::{Boundary, LayerStack};

/// Solver parameters.
///
/// Marked `#[non_exhaustive]`: construct with [`SolverConfig::default`] or
/// [`SolverConfig::builder`] so new knobs can be added without breaking
/// downstream callers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SolverConfig {
    /// Cells along the die width.
    pub nx: usize,
    /// Cells along the die height.
    pub ny: usize,
    /// Maximum CG iterations.
    pub max_iters: usize,
    /// Relative residual tolerance.
    pub tolerance: f64,
    /// Whether sweep drivers may warm-start consecutive solves from the
    /// previous field. An execution knob within the solver tolerance; the
    /// resilience ladder's last rung clears it to rule the warm-start path
    /// out of a non-convergence.
    pub warm_start: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            nx: 40,
            ny: 34,
            max_iters: 20_000,
            tolerance: 1e-10,
            warm_start: true,
        }
    }
}

impl SolverConfig {
    /// Starts a builder seeded with the default configuration.
    #[must_use]
    pub fn builder() -> SolverConfigBuilder {
        SolverConfigBuilder {
            cfg: SolverConfig::default(),
        }
    }

    /// Checks internal consistency. The lint pass `SL042` and the
    /// builder's [`SolverConfigBuilder::build`] both delegate here.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SolverConfigError> {
        if self.nx == 0 || self.ny == 0 {
            return Err(SolverConfigError::new(
                "grid must have at least one cell in each direction",
            ));
        }
        if self.max_iters == 0 {
            return Err(SolverConfigError::new(
                "solver must be allowed at least one iteration",
            ));
        }
        if self.tolerance.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(SolverConfigError::new(
                "residual tolerance must be positive and not NaN",
            ));
        }
        Ok(())
    }
}

/// A solver-configuration validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverConfigError {
    message: &'static str,
}

impl SolverConfigError {
    fn new(message: &'static str) -> Self {
        SolverConfigError { message }
    }
}

impl fmt::Display for SolverConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid solver configuration: {}", self.message)
    }
}

impl std::error::Error for SolverConfigError {}

/// Builder for [`SolverConfig`].
#[derive(Debug, Clone)]
pub struct SolverConfigBuilder {
    cfg: SolverConfig,
}

impl SolverConfigBuilder {
    /// Cells along the die width.
    #[must_use]
    pub fn nx(mut self, nx: usize) -> Self {
        self.cfg.nx = nx;
        self
    }

    /// Cells along the die height.
    #[must_use]
    pub fn ny(mut self, ny: usize) -> Self {
        self.cfg.ny = ny;
        self
    }

    /// Maximum CG iterations.
    #[must_use]
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.cfg.max_iters = max_iters;
        self
    }

    /// Relative residual tolerance.
    #[must_use]
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.cfg.tolerance = tolerance;
        self
    }

    /// Ignores its argument: a solve always runs on the calling thread.
    /// Kept only so the frozen `stackbench/` harness, which still calls
    /// it, keeps building.
    #[doc(hidden)]
    #[must_use]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Whether sweep drivers may warm-start from the previous solution
    /// (on by default; results stay within the solver tolerance either
    /// way).
    #[must_use]
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.cfg.warm_start = warm_start;
        self
    }

    /// Finishes the configuration, validating it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SolverConfig::validate`]). Use [`Self::try_build`] to handle the
    /// error instead.
    #[must_use]
    pub fn build(self) -> SolverConfig {
        match self.try_build() {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Finishes the configuration, returning the first constraint violation
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation reported by [`SolverConfig::validate`].
    pub fn try_build(self) -> Result<SolverConfig, SolverConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Solver failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The stack has no layers.
    EmptyStack,
    /// An active layer's power-map die size differs from the stack's.
    PowerMapMismatch {
        /// Offending layer name.
        layer: String,
    },
    /// CG did not reach the tolerance.
    NoConvergence {
        /// Iterations performed.
        iters: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// A conductivity sweep named a layer the stack does not have.
    UnknownLayer {
        /// The requested layer name.
        name: String,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::EmptyStack => write!(f, "thermal stack has no layers"),
            SolveError::PowerMapMismatch { layer } => {
                write!(
                    f,
                    "power map of layer '{layer}' does not match the stack footprint"
                )
            }
            SolveError::NoConvergence { iters, residual } => {
                write!(
                    f,
                    "CG did not converge after {iters} iterations (residual {residual:.2e})"
                )
            }
            SolveError::UnknownLayer { name } => {
                write!(f, "no layer named '{name}' in the stack")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Convergence statistics of one (or several accumulated) CG solves.
///
/// The experiment harness records these per run: a memoized artifact is
/// served with zero iterations, which is how telemetry proves a cache hit
/// did no solver work.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Number of CG solves accumulated.
    pub solves: usize,
    /// Total CG iterations across those solves.
    pub iterations: usize,
    /// Worst (largest) final relative residual observed.
    pub residual: f64,
}

impl SolveStats {
    /// Folds another solve's statistics into this accumulator.
    pub fn absorb(&mut self, other: SolveStats) {
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.residual = self.residual.max(other.residual);
    }
}

/// A solved steady-state field together with its convergence statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The temperature field.
    pub field: TemperatureField,
    /// CG convergence statistics for this solve.
    pub stats: SolveStats,
}

/// One x-row of the 7-point stencil:
/// `out = d·xr − gx·(west + east) − gyn·xn − gys·xs − gzu·xu − gzd·xd`,
/// with the west/east terms peeled at the row ends. Absent neighbours are
/// passed with a **zero coefficient and an aliased row**, which keeps the
/// interior loop body branch-free and identical for every cell. The
/// diagonal is two scalars — `de` for the row's end cells, `dm` for its
/// interior — because within a layer the assembled diagonal only varies
/// with the cell's neighbour-count class (see [`row_cls`]); not streaming
/// a per-cell diagonal array saves a full vector read per apply.
#[allow(clippy::too_many_arguments)]
#[inline]
fn stencil_row(
    out: &mut [f64],
    de: f64,
    dm: f64,
    gx: f64,
    xr: &[f64],
    gyn: f64,
    xn: &[f64],
    gys: f64,
    xs: &[f64],
    gzu: f64,
    xu: &[f64],
    gzd: f64,
    xd: &[f64],
) {
    let nx = out.len();
    // Pin every slice to the same length so the bounds checks hoist out of
    // the interior loop and it autovectorizes.
    let xr = &xr[..nx];
    let (xn, xs) = (&xn[..nx], &xs[..nx]);
    let (xu, xd) = (&xu[..nx], &xd[..nx]);
    if nx == 1 {
        out[0] = de * xr[0] - gyn * xn[0] - gys * xs[0] - gzu * xu[0] - gzd * xd[0];
        return;
    }
    out[0] = de * xr[0] - gx * xr[1] - gyn * xn[0] - gys * xs[0] - gzu * xu[0] - gzd * xd[0];
    for i in 1..nx - 1 {
        out[i] = dm * xr[i]
            - gx * (xr[i - 1] + xr[i + 1])
            - gyn * xn[i]
            - gys * xs[i]
            - gzu * xu[i]
            - gzd * xd[i];
    }
    let e = nx - 1;
    out[e] = de * xr[e] - gx * xr[e - 1] - gyn * xn[e] - gys * xs[e] - gzu * xu[e] - gzd * xd[e];
}

/// Looks up a per-row coefficient pair `(end, mid)` in a per-layer class
/// table.
///
/// The assembled diagonal (and everything factored from it) takes at most
/// nine distinct values per layer — one per (x-neighbour-count,
/// y-neighbour-count) class — because each layer's material is uniform.
/// The solver therefore stores those values in `nl × 3` tables indexed by
/// `layer · 3 + y-class` with the three x-class values inline, and the hot
/// loops read two scalars per row instead of streaming `n`-element
/// coefficient arrays. The tables are built with the exact addition chains
/// the per-cell assembly uses, so the looked-up values are bit-identical
/// to the per-cell ones.
#[inline]
fn row_cls(t: &[[f64; 3]], l: usize, j: usize, ny: usize, nx: usize) -> (f64, f64) {
    let yn = if ny == 1 {
        0
    } else if j == 0 || j + 1 == ny {
        1
    } else {
        2
    };
    let c = &t[l * 3 + yn];
    (c[if nx == 1 { 0 } else { 1 }], c[2])
}

/// Dot product of one row, accumulated in four fixed lanes.
///
/// Every reduction in this module folds its rows through this function: a
/// single `s += a·b` chain keeps the whole surrounding loop scalar (LLVM
/// will not reassociate floats), while four independent lanes map onto one
/// vector accumulator and let the loop autovectorize. The lane assignment
/// (`i mod 4`), the `(l0+l1) + (l2+l3)` combine and the in-order scalar
/// tail are fixed functions of the row length, so the result is
/// deterministic.
#[inline]
fn dot_row(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let b = &b[..n];
    let mut l = [0.0f64; 4];
    for (qa, qb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        l[0] += qa[0] * qb[0];
        l[1] += qa[1] * qb[1];
        l[2] += qa[2] * qb[2];
        l[3] += qa[3] * qb[3];
    }
    let mut s = (l[0] + l[1]) + (l[2] + l[3]);
    for i in (n / 4) * 4..n {
        s += a[i] * b[i];
    }
    s
}

/// In-place `r ← b − r` (where `r` holds `A·x` on entry) with per-row
/// (`nx`-chunk) `‖b‖²` and `‖r‖²` partials.
///
/// All reduction partials in this module are **per plane row**, not per
/// layer, and every row folds through [`dot_row`]'s four lanes: short
/// independent chains vectorize and let the CPU overlap their FP-add
/// latency, where a per-layer chain of `nx·ny` dependent adds would
/// serialise at ~4 cycles each and dominate the whole iteration. The
/// chain boundaries are a fixed function of the grid.
fn residual(b: &[f64], r: &mut [f64], ptb: &mut [f64], ptr2: &mut [f64], nx: usize) {
    for (ci, (bc, rc)) in b.chunks_exact(nx).zip(r.chunks_exact_mut(nx)).enumerate() {
        for i in 0..nx {
            rc[i] = bc[i] - rc[i];
        }
        ptb[ci] = dot_row(bc, bc);
        ptr2[ci] = dot_row(rc, rc);
    }
}

/// Fully fused CG iteration tail: `x += α·p`, `r −= α·ap`, `z = inv·r`,
/// with per-row `‖r‖²` and `r·z` partials, in one pass over memory. The
/// reciprocal diagonal comes from the [`row_cls`] class table, not a
/// per-cell array.
#[allow(clippy::too_many_arguments)]
fn update(
    alpha: f64,
    p: &[f64],
    ap: &[f64],
    inv: &[[f64; 3]],
    ny: usize,
    x: &mut [f64],
    r: &mut [f64],
    z: &mut [f64],
    ptr2: &mut [f64],
    ptrz: &mut [f64],
    nx: usize,
) {
    #[inline(always)]
    fn cell(alpha: f64, iv: f64, p: f64, ap: f64, x: &mut f64, r: &mut f64, z: &mut f64) {
        *x += alpha * p;
        let rv = *r - alpha * ap;
        *r = rv;
        *z = rv * iv;
    }
    for (ci, ((((pc, apc), xc), rc), zc)) in p
        .chunks_exact(nx)
        .zip(ap.chunks_exact(nx))
        .zip(x.chunks_exact_mut(nx))
        .zip(r.chunks_exact_mut(nx))
        .zip(z.chunks_exact_mut(nx))
        .enumerate()
    {
        let (ie, im) = row_cls(inv, ci / ny, ci % ny, ny, nx);
        cell(alpha, ie, pc[0], apc[0], &mut xc[0], &mut rc[0], &mut zc[0]);
        for i in 1..nx.saturating_sub(1) {
            cell(alpha, im, pc[i], apc[i], &mut xc[i], &mut rc[i], &mut zc[i]);
        }
        let e = nx - 1;
        if e > 0 {
            cell(alpha, ie, pc[e], apc[e], &mut xc[e], &mut rc[e], &mut zc[e]);
        }
        ptr2[ci] = dot_row(rc, rc);
        ptrz[ci] = dot_row(rc, zc);
    }
}

/// Jacobi precondition: `z = inv·r` with per-row `r·z` partials, the
/// reciprocal diagonal looked up per row in the [`row_cls`] class table.
fn jacobi(inv: &[[f64; 3]], ny: usize, r: &[f64], z: &mut [f64], pt: &mut [f64], nx: usize) {
    for (ci, (rc, zc)) in r.chunks_exact(nx).zip(z.chunks_exact_mut(nx)).enumerate() {
        let (ie, im) = row_cls(inv, ci / ny, ci % ny, ny, nx);
        zc[0] = rc[0] * ie;
        for i in 1..nx.saturating_sub(1) {
            zc[i] = rc[i] * im;
        }
        let e = nx - 1;
        if e > 0 {
            zc[e] = rc[e] * ie;
        }
        pt[ci] = dot_row(rc, zc);
    }
}

/// The assembled finite-volume system for one stack/boundary/grid triple.
/// Build once with [`System::assemble`], then run
/// [`System::steady_with_stats`] or [`System::steady_from`].
#[derive(Debug, Clone)]
pub struct System {
    nx: usize,
    ny: usize,
    nl: usize,
    gx: Vec<f64>,
    gy: Vec<f64>,
    gz: Vec<f64>,
    diag: Vec<f64>,
    /// The diagonal's [`row_cls`] class table — what the hot loops read
    /// instead of `diag` (kept per-cell only for the frozen [`reference`]
    /// solver).
    dcls: Vec<[f64; 3]>,
    rhs: Vec<f64>,
    names: Vec<String>,
    ambient: f64,
    cfg: SolverConfig,
}

impl System {
    /// Assembles conductances, sources and boundary couplings.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::EmptyStack`] or
    /// [`SolveError::PowerMapMismatch`].
    pub fn assemble(
        stack: &LayerStack,
        bc: Boundary,
        cfg: SolverConfig,
    ) -> Result<System, SolveError> {
        let layers = stack.layers();
        if layers.is_empty() {
            return Err(SolveError::EmptyStack);
        }
        let nl = layers.len();
        let (nx, ny) = (cfg.nx, cfg.ny);
        let nxy = nx * ny;
        let n = nl * nxy;

        let (die_w_mm, die_h_mm) = stack.die_dims_mm();
        let dx = die_w_mm * 1e-3 / nx as f64;
        let dy = die_h_mm * 1e-3 / ny as f64;
        let cell_area = dx * dy;

        let mut gx = vec![0.0f64; nl];
        let mut gy = vec![0.0f64; nl];
        let mut gz = vec![0.0f64; nl.saturating_sub(1)];
        for (l, layer) in layers.iter().enumerate() {
            gx[l] = layer.lateral_conductivity() * layer.thickness() * dy / dx;
            gy[l] = layer.lateral_conductivity() * layer.thickness() * dx / dy;
            if l + 1 < nl {
                let a = layer.thickness() / (2.0 * layer.conductivity());
                let b = layers[l + 1].thickness() / (2.0 * layers[l + 1].conductivity());
                gz[l] = cell_area / (a + b);
            }
        }
        let g_top =
            cell_area / (layers[0].thickness() / (2.0 * layers[0].conductivity()) + 1.0 / bc.h_top);
        let last = nl - 1;
        let g_bot = cell_area
            / (layers[last].thickness() / (2.0 * layers[last].conductivity()) + 1.0 / bc.h_bottom);

        let mut rhs = vec![0.0f64; n];
        for (l, layer) in layers.iter().enumerate() {
            if let Some(p) = layer.power() {
                let (pw, ph) = p.die_dims();
                if (pw - die_w_mm).abs() > 1e-6 || (ph - die_h_mm).abs() > 1e-6 {
                    return Err(SolveError::PowerMapMismatch {
                        layer: layer.name().to_string(),
                    });
                }
                let grid = p.resampled(nx, ny);
                for j in 0..ny {
                    for i in 0..nx {
                        rhs[l * nxy + j * nx + i] += grid.get(i, j);
                    }
                }
            }
        }
        for u in 0..nxy {
            rhs[u] += g_top * bc.ambient;
            rhs[last * nxy + u] += g_bot * bc.ambient;
        }

        let mut diag = vec![0.0f64; n];
        for l in 0..nl {
            for j in 0..ny {
                for i in 0..nx {
                    let u = l * nxy + j * nx + i;
                    let mut d = 0.0;
                    if i > 0 {
                        d += gx[l];
                    }
                    if i + 1 < nx {
                        d += gx[l];
                    }
                    if j > 0 {
                        d += gy[l];
                    }
                    if j + 1 < ny {
                        d += gy[l];
                    }
                    if l > 0 {
                        d += gz[l - 1];
                    }
                    if l + 1 < nl {
                        d += gz[l];
                    }
                    if l == 0 {
                        d += g_top;
                    }
                    if l == last {
                        d += g_bot;
                    }
                    diag[u] = d;
                }
            }
        }

        // The diagonal's class table (see `row_cls`): one entry per
        // (layer, y-neighbour-count) pair holding the three
        // x-neighbour-count values. Built with the same addition chain as
        // the per-cell loop above, so each entry is bit-identical to the
        // `diag` value of every cell in its class.
        let mut dcls = vec![[0.0f64; 3]; nl * 3];
        for l in 0..nl {
            for yn in 0..3 {
                for (xn, slot) in dcls[l * 3 + yn].iter_mut().enumerate() {
                    let mut d = 0.0;
                    for _ in 0..xn {
                        d += gx[l];
                    }
                    for _ in 0..yn {
                        d += gy[l];
                    }
                    if l > 0 {
                        d += gz[l - 1];
                    }
                    if l + 1 < nl {
                        d += gz[l];
                    }
                    if l == 0 {
                        d += g_top;
                    }
                    if l == last {
                        d += g_bot;
                    }
                    *slot = d;
                }
            }
        }

        Ok(System {
            nx,
            ny,
            nl,
            gx,
            gy,
            gz,
            diag,
            dcls,
            rhs,
            names: layers.iter().map(|l| l.name().to_string()).collect(),
            ambient: bc.ambient,
            cfg,
        })
    }

    fn nxy(&self) -> usize {
        self.nx * self.ny
    }

    /// Applies `A` to `x`, writing `out`.
    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.apply_impl::<false>(x, out, &mut []);
    }

    /// [`System::apply`] fused with the per-row `x·out` partials — CG's
    /// `p·ap` reduction folded while each stencil output row is still in
    /// cache (`pt` holds one partial per plane row, index order, the
    /// granularity every reduction here uses — see [`residual`]).
    fn apply_dot(&self, x: &[f64], out: &mut [f64], pt: &mut [f64]) {
        self.apply_impl::<true>(x, out, pt);
    }

    fn apply_impl<const DOT: bool>(&self, x: &[f64], out: &mut [f64], pt: &mut [f64]) {
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let nxy = self.nxy();
        for l in 0..nl {
            let gx = self.gx[l];
            let gy = self.gy[l];
            let (gzu, du) = if l > 0 {
                (self.gz[l - 1], nxy)
            } else {
                (0.0, 0)
            };
            let (gzd, dd) = if l + 1 < nl {
                (self.gz[l], nxy)
            } else {
                (0.0, 0)
            };
            for j in 0..ny {
                let g = l * nxy + j * nx;
                let (gyn, dn) = if j > 0 { (gy, nx) } else { (0.0, 0) };
                let (gys, ds) = if j + 1 < ny { (gy, nx) } else { (0.0, 0) };
                let (de, dm) = row_cls(&self.dcls, l, j, ny, nx);
                stencil_row(
                    &mut out[g..g + nx],
                    de,
                    dm,
                    gx,
                    &x[g..g + nx],
                    gyn,
                    &x[g - dn..g - dn + nx],
                    gys,
                    &x[g + ds..g + ds + nx],
                    gzu,
                    &x[g - du..g - du + nx],
                    gzd,
                    &x[g + dd..g + dd + nx],
                );
                if DOT {
                    pt[l * ny + j] = dot_row(&out[g..g + nx], &x[g..g + nx]);
                }
            }
        }
    }

    /// The Jacobi preconditioner: the reciprocal diagonal as a
    /// [`row_cls`] class table mirroring [`System::dcls`], hoisted out of
    /// the CG loop. Every cell of a neighbour-count class shares its
    /// diagonal, so the table stays resident in L1 where a per-cell array
    /// would cost a vector read per pass.
    fn inv_diag(&self) -> Vec<[f64; 3]> {
        self.dcls
            .iter()
            .map(|c| [1.0 / c[0], 1.0 / c[1], 1.0 / c[2]])
            .collect()
    }

    /// Jacobi-preconditioned CG for `A x = b`, warm-started at `x`.
    /// On success also returns the iteration count and final relative
    /// residual. The residual norm is carried over from the fused update
    /// pass — never recomputed — and the preconditioner divisions are
    /// hoisted into [`System::inv_diag`]. Every solve runs through the one
    /// loop, [`System::cg_loop`].
    fn cg(&self, b: &[f64], x: Vec<f64>) -> Result<(Vec<f64>, SolveStats), SolveError> {
        if let Some(stacksim_faults::Fault::NoConvergence) =
            stacksim_faults::check(crate::faults::SITE_CG, "jacobi")
        {
            return Err(SolveError::NoConvergence {
                iters: 0,
                residual: f64::INFINITY,
            });
        }
        let inv = self.inv_diag();
        if !stacksim_obs::enabled() {
            return self.cg_loop(b, x, &inv);
        }
        // Observability wrapper: pure timing and counter updates around
        // the unchanged numeric path — results stay bit-identical.
        let t0 = std::time::Instant::now();
        let result = self.cg_loop(b, x, &inv);
        let wall_us = t0.elapsed().as_micros() as u64;
        stacksim_obs::counter(crate::obs::CG_SOLVE_US).add(wall_us);
        if let Ok((_, stats)) = &result {
            stacksim_obs::counter(crate::obs::CG_SOLVES).inc();
            stacksim_obs::counter(crate::obs::CG_ITERATIONS).add(stats.iterations as u64);
            stacksim_obs::histogram(crate::obs::CG_ITERS_PER_SOLVE).record(stats.iterations as u64);
            stacksim_obs::gauge(crate::obs::CG_RESIDUAL).set(stats.residual);
            stacksim_obs::event(
                crate::obs::EVENT_SOLVE,
                &[
                    ("iters", stacksim_obs::FieldValue::from(stats.iterations)),
                    ("residual", stacksim_obs::FieldValue::from(stats.residual)),
                    ("wall_us", stacksim_obs::FieldValue::from(wall_us)),
                ],
            );
        }
        result
    }

    /// Emit the residual-trajectory point event.
    #[cold]
    fn emit_trajectory_event(iters: usize, final_rel: f64, samples: &[f64]) {
        let joined = samples
            .iter()
            .map(|v| format!("{v:e}"))
            .collect::<Vec<_>>()
            .join(",");
        stacksim_obs::event(
            crate::obs::EVENT_TRAJECTORY,
            &[
                ("iters", stacksim_obs::FieldValue::from(iters)),
                ("residual", stacksim_obs::FieldValue::from(final_rel)),
                ("samples", stacksim_obs::FieldValue::from(joined)),
            ],
        );
    }

    /// The CG loop. Each pass writes its reduction into per-row partials
    /// (`pt_a`, `pt_b`), which are then folded in index order — see the
    /// module's determinism contract.
    fn cg_loop(
        &self,
        b: &[f64],
        mut x: Vec<f64>,
        inv: &[[f64; 3]],
    ) -> Result<(Vec<f64>, SolveStats), SolveError> {
        let n = x.len();
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let mut r = vec![0.0f64; n];
        let mut z = vec![0.0f64; n];
        let mut p = vec![0.0f64; n];
        let mut ap = vec![0.0f64; n];
        // Per-row partials at `l·ny + j`: `pt_a` holds `‖b‖²` at init and
        // `p·ap` / `‖r‖²` in the loop; `pt_b` holds `‖r‖²` and then `r·z`
        // at init, and `r·z` in the loop.
        let mut pt_a = vec![0.0f64; nl * ny];
        let mut pt_b = vec![0.0f64; nl * ny];
        let stats = |iterations: usize, residual: f64| SolveStats {
            solves: 1,
            iterations,
            residual,
        };

        // The phase clock flushes to the phase counters on drop, covering
        // every return path; it and the relative-residual trajectory
        // (sampled at iteration 0 and at powers of two) are observation
        // only and never feed back into the numerics.
        let observe = stacksim_obs::enabled();
        let mut clock = crate::obs::PhaseClock::new(observe);
        let mut trajectory: Vec<f64> = Vec::new();

        // init: r ← b − A·x with norm partials, z ← M⁻¹·r, fold and check
        // convergence, then p ← z.
        self.apply(&x, &mut r);
        residual(b, &mut r, &mut pt_a, &mut pt_b, nx);
        let bnorm = pt_a.iter().sum::<f64>().sqrt().max(1e-300);
        let mut rnorm2: f64 = pt_b.iter().sum();
        clock.lap(crate::obs::PH_APPLY);
        jacobi(inv, ny, &r, &mut z, &mut pt_b, nx);
        clock.lap(crate::obs::PH_PRECOND);
        let mut rz: f64 = pt_b.iter().sum();
        let rel = rnorm2.sqrt() / bnorm;
        if observe {
            trajectory.push(rel);
        }
        if rel < self.cfg.tolerance {
            if observe {
                Self::emit_trajectory_event(0, rel, &trajectory);
            }
            clock.lap(crate::obs::PH_REDUCE);
            return Ok((x, stats(0, rel)));
        }
        clock.lap(crate::obs::PH_REDUCE);
        p.copy_from_slice(&z);
        clock.lap(crate::obs::PH_UPDATE);

        for iter in 0..self.cfg.max_iters {
            // ap ← A·p fused with the per-row p·ap partials.
            self.apply_dot(&p, &mut ap, &mut pt_a);
            clock.lap(crate::obs::PH_APPLY);
            let alpha = rz / pt_a.iter().sum::<f64>();
            clock.lap(crate::obs::PH_REDUCE);
            update(
                alpha, &p, &ap, inv, ny, &mut x, &mut r, &mut z, &mut pt_a, &mut pt_b, nx,
            );
            clock.lap(crate::obs::PH_UPDATE);
            let rz_new: f64 = pt_b.iter().sum();
            rnorm2 = pt_a.iter().sum();
            let beta = rz_new / rz;
            rz = rz_new;
            // Convergence is judged for iteration `k` only when a `k`-th
            // iteration is allowed, so a solve that first meets tolerance
            // after the final allowed update still errors.
            let k = iter + 1;
            if k < self.cfg.max_iters {
                let rel = rnorm2.sqrt() / bnorm;
                if observe && k.is_power_of_two() {
                    trajectory.push(rel);
                }
                if rel < self.cfg.tolerance {
                    if observe {
                        Self::emit_trajectory_event(k, rel, &trajectory);
                    }
                    clock.lap(crate::obs::PH_REDUCE);
                    return Ok((x, stats(k, rel)));
                }
            }
            clock.lap(crate::obs::PH_REDUCE);
            for (pv, &zv) in p.iter_mut().zip(&z) {
                *pv = zv + beta * *pv;
            }
            clock.lap(crate::obs::PH_UPDATE);
        }
        Err(SolveError::NoConvergence {
            iters: self.cfg.max_iters,
            residual: rnorm2.sqrt() / bnorm,
        })
    }

    fn field(&self, t: Vec<f64>) -> TemperatureField {
        TemperatureField::new(self.nx, self.ny, self.names.clone(), t)
    }

    /// Solves the steady-state problem, reporting CG convergence
    /// statistics (iteration count, final relative residual) with the
    /// field.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NoConvergence`] if CG stalls.
    pub fn steady_with_stats(&self) -> Result<Solution, SolveError> {
        let x0 = vec![self.ambient; self.rhs.len()];
        let (t, stats) = self.cg(&self.rhs, x0)?;
        Ok(Solution {
            field: self.field(t),
            stats,
        })
    }

    /// Solves the steady-state problem warm-started from `x0` — typically
    /// the previous point of a parameter sweep. The answer matches
    /// [`System::steady_with_stats`] to within the solver tolerance; only
    /// the iteration count drops.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NoConvergence`] if CG stalls.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s grid or layer count differs from this system's.
    pub fn steady_from(&self, x0: &TemperatureField) -> Result<Solution, SolveError> {
        let (fnx, fny) = x0.dims();
        let fl = x0.layer_names().len();
        assert!(
            fnx == self.nx && fny == self.ny && fl == self.nl,
            "warm-start field is {fnx}x{fny}x{fl} but the system is {}x{}x{}",
            self.nx,
            self.ny,
            self.nl
        );
        let (t, stats) = self.cg(&self.rhs, x0.cells().to_vec())?;
        Ok(Solution {
            field: self.field(t),
            stats,
        })
    }
}

/// Solves the stack for its steady-state temperature field with CG
/// convergence statistics (convenience wrapper around
/// [`System::assemble`] + [`System::steady_with_stats`]) — the experiment
/// harness uses the statistics to attribute solver work to each run.
///
/// # Errors
///
/// Returns [`SolveError`] if the stack is empty, a power map's die size
/// disagrees with the stack footprint, or CG fails to converge.
pub fn solve_with_stats(
    stack: &LayerStack,
    bc: Boundary,
    cfg: SolverConfig,
) -> Result<Solution, SolveError> {
    System::assemble(stack, bc, cfg)?.steady_with_stats()
}

/// The solver as it stood **before** the performance work, frozen verbatim
/// as the benchmark baseline (`stacksim bench` reports speedups against
/// it). Branchy per-cell stencil, unfused CG vector passes, per-iteration
/// preconditioner divisions, residual norm recomputed every iteration,
/// always cold-started. Do not optimise this module; its whole value is
/// standing still.
pub mod reference {
    use super::*;

    /// Applies `A x` with the original branchy per-cell loop.
    fn apply(sys: &System, x: &[f64], out: &mut [f64]) {
        let (nx, ny, nl) = (sys.nx, sys.ny, sys.nl);
        let nxy = sys.nxy();
        for l in 0..nl {
            for j in 0..ny {
                for i in 0..nx {
                    let u = l * nxy + j * nx + i;
                    let mut acc = sys.diag[u] * x[u];
                    if i > 0 {
                        acc -= sys.gx[l] * x[u - 1];
                    }
                    if i + 1 < nx {
                        acc -= sys.gx[l] * x[u + 1];
                    }
                    if j > 0 {
                        acc -= sys.gy[l] * x[u - nx];
                    }
                    if j + 1 < ny {
                        acc -= sys.gy[l] * x[u + nx];
                    }
                    if l > 0 {
                        acc -= sys.gz[l - 1] * x[u - nxy];
                    }
                    if l + 1 < nl {
                        acc -= sys.gz[l] * x[u + nxy];
                    }
                    out[u] = acc;
                }
            }
        }
    }

    /// The original Jacobi-preconditioned CG: separate passes for every
    /// vector update and reduction.
    fn cg(sys: &System, b: &[f64], mut x: Vec<f64>) -> Result<(Vec<f64>, SolveStats), SolveError> {
        let n = x.len();
        let mut r = vec![0.0f64; n];
        let mut ax = vec![0.0f64; n];
        apply(sys, &x, &mut ax);
        for u in 0..n {
            r[u] = b[u] - ax[u];
        }
        let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        let mut z: Vec<f64> = (0..n).map(|u| r[u] / sys.diag[u]).collect();
        let mut p = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let mut ap = vec![0.0f64; n];
        for iter in 0..sys.cfg.max_iters {
            let rnorm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if rnorm / bnorm < sys.cfg.tolerance {
                let stats = SolveStats {
                    solves: 1,
                    iterations: iter,
                    residual: rnorm / bnorm,
                };
                return Ok((x, stats));
            }
            apply(sys, &p, &mut ap);
            let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            let alpha = rz / pap;
            for u in 0..n {
                x[u] += alpha * p[u];
                r[u] -= alpha * ap[u];
            }
            for (u, zv) in z.iter_mut().enumerate() {
                *zv = r[u] / sys.diag[u];
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for u in 0..n {
                p[u] = z[u] + beta * p[u];
            }
        }
        let rnorm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        Err(SolveError::NoConvergence {
            iters: sys.cfg.max_iters,
            residual: rnorm / bnorm,
        })
    }

    /// Steady-state solve with the frozen baseline solver (always a cold
    /// start from ambient).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NoConvergence`] if CG stalls.
    pub fn steady_with_stats(sys: &System) -> Result<Solution, SolveError> {
        let x0 = vec![sys.ambient; sys.rhs.len()];
        let (t, stats) = cg(sys, &sys.rhs, x0)?;
        Ok(Solution {
            field: sys.field(t),
            stats,
        })
    }

    /// Assemble-and-solve convenience wrapper around
    /// [`steady_with_stats`], mirroring [`super::solve_with_stats`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] under the same conditions as
    /// [`super::solve_with_stats`].
    pub fn solve_with_stats(
        stack: &LayerStack,
        bc: Boundary,
        cfg: SolverConfig,
    ) -> Result<Solution, SolveError> {
        steady_with_stats(&System::assemble(stack, bc, cfg)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Layer;
    use stacksim_floorplan::PowerGrid;

    fn solve_field(
        stack: &LayerStack,
        bc: Boundary,
        cfg: SolverConfig,
    ) -> Result<TemperatureField, SolveError> {
        Ok(solve_with_stats(stack, bc, cfg)?.field)
    }

    #[test]
    fn builder_accepts_valid_config() {
        let cfg = SolverConfig::builder().nx(8).ny(8).build();
        assert_eq!((cfg.nx, cfg.ny), (8, 8));
    }

    #[test]
    fn zero_grid_rejected() {
        let err = SolverConfig::builder().nx(0).try_build();
        assert!(err.unwrap_err().to_string().contains("grid"));
        assert!(SolverConfig::builder().ny(0).try_build().is_err());
    }

    #[test]
    fn zero_iterations_rejected() {
        assert!(SolverConfig::builder().max_iters(0).try_build().is_err());
    }

    #[test]
    fn bad_tolerance_rejected() {
        assert!(SolverConfig::builder().tolerance(0.0).try_build().is_err());
        assert!(SolverConfig::builder().tolerance(-1.0).try_build().is_err());
        assert!(SolverConfig::builder()
            .tolerance(f64::NAN)
            .try_build()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid solver configuration")]
    fn build_panics_on_invalid() {
        let _ = SolverConfig::builder().max_iters(0).build();
    }

    fn uniform_power(nx: usize, ny: usize, w: f64) -> PowerGrid {
        let mut g = PowerGrid::zero(nx, ny, 10.0, 10.0);
        let per = w / (nx * ny) as f64;
        for j in 0..ny {
            for i in 0..nx {
                g.add(i, j, per);
            }
        }
        g
    }

    /// One uniform slab with uniform power: compare against the closed-form
    /// 1-D solution `T = Tamb + q'' * (1/h + t/(2k))` at the source plane.
    #[test]
    fn matches_one_dimensional_analytic_solution() {
        let area_m2 = 0.01 * 0.01; // 10 mm x 10 mm
        let power = 50.0;
        let q = power / area_m2; // W/m²

        let mut stack = LayerStack::new(10.0, 10.0);
        stack.push(Layer::active(
            "slab",
            1e-3,
            100.0,
            uniform_power(4, 4, power),
        ));
        let bc = Boundary {
            h_top: 5000.0,
            h_bottom: 1e-9,
            ambient: 40.0,
        };
        let f = solve_field(
            &stack,
            bc,
            SolverConfig {
                nx: 4,
                ny: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let expected = 40.0 + q * (1.0 / 5000.0 + 1e-3 / (2.0 * 100.0));
        let got = f.layer_peak(0);
        assert!(
            (got - expected).abs() < 0.5,
            "expected ~{expected:.2} C, got {got:.2} C"
        );
        assert!((f.layer_peak(0) - f.layer_min(0)).abs() < 1e-6);
    }

    /// Energy conservation: boundary flux equals injected power.
    #[test]
    fn conserves_energy() {
        let mut stack = LayerStack::new(10.0, 10.0);
        stack.push(Layer::passive("lid", 2e-3, 50.0));
        stack.push(Layer::active("die", 1e-3, 100.0, uniform_power(6, 6, 30.0)));
        stack.push(Layer::passive("base", 2e-3, 1.0));
        let bc = Boundary {
            h_top: 3000.0,
            h_bottom: 20.0,
            ambient: 40.0,
        };
        let cfg = SolverConfig {
            nx: 6,
            ny: 6,
            ..Default::default()
        };
        let f = solve_field(&stack, bc, cfg).unwrap();
        let dx = 0.01 / 6.0;
        let a = dx * dx;
        let g_top = a / (2e-3 / (2.0 * 50.0) + 1.0 / 3000.0);
        let g_bot = a / (2e-3 / (2.0 * 1.0) + 1.0 / 20.0);
        let top: f64 = f.layer(0).iter().map(|t| g_top * (t - 40.0)).sum();
        let bottom: f64 = f.layer(2).iter().map(|t| g_bot * (t - 40.0)).sum();
        let out = top + bottom;
        assert!((out - 30.0).abs() < 0.01, "flux out {out:.4} W vs 30 W in");
    }

    /// Maximum principle: with a single heat source, the temperature is
    /// bounded by ambient from below and decreases away from the source.
    #[test]
    fn respects_maximum_principle() {
        let mut g = PowerGrid::zero(9, 9, 10.0, 10.0);
        g.add(4, 4, 20.0);
        let mut stack = LayerStack::new(10.0, 10.0);
        stack.push(Layer::active("die", 0.5e-3, 120.0, g));
        stack.push(Layer::passive("spreader", 2e-3, 200.0));
        let bc = Boundary {
            h_top: 1e-9,
            h_bottom: 2000.0,
            ambient: 40.0,
        };
        let f = solve_field(
            &stack,
            bc,
            SolverConfig {
                nx: 9,
                ny: 9,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(f.min() >= 40.0 - 1e-6, "nothing below ambient: {}", f.min());
        let die = f.layer(0);
        let centre = die[4 * 9 + 4];
        let corner = die[0];
        assert!(
            centre > corner + 0.5,
            "hotspot at the source: {centre} vs {corner}"
        );
    }

    #[test]
    fn empty_stack_is_an_error() {
        let stack = LayerStack::new(10.0, 10.0);
        assert_eq!(
            solve_field(&stack, Boundary::default(), SolverConfig::default()),
            Err(SolveError::EmptyStack)
        );
    }

    #[test]
    fn mismatched_power_map_is_an_error() {
        let mut stack = LayerStack::new(10.0, 10.0);
        stack.push(Layer::active(
            "die",
            1e-3,
            100.0,
            PowerGrid::zero(4, 4, 5.0, 5.0),
        ));
        assert!(matches!(
            solve_field(&stack, Boundary::default(), SolverConfig::default()),
            Err(SolveError::PowerMapMismatch { .. })
        ));
    }

    /// A hotter boundary coefficient cools the stack monotonically.
    #[test]
    fn better_cooling_lowers_peak() {
        let mk = |h: f64| {
            let mut stack = LayerStack::new(10.0, 10.0);
            stack.push(Layer::active("die", 1e-3, 100.0, uniform_power(4, 4, 40.0)));
            let bc = Boundary {
                h_top: h,
                h_bottom: 10.0,
                ambient: 40.0,
            };
            solve_field(
                &stack,
                bc,
                SolverConfig {
                    nx: 4,
                    ny: 4,
                    ..Default::default()
                },
            )
            .unwrap()
            .peak()
        };
        let weak = mk(1000.0);
        let strong = mk(20_000.0);
        assert!(strong < weak, "{strong} < {weak}");
    }

    /// A five-layer stack with an off-centre hotspot — enough structure to
    /// exercise every peeled boundary.
    fn layered_stack() -> (LayerStack, Boundary) {
        let mut g = PowerGrid::zero(8, 7, 10.0, 10.0);
        g.add(1, 1, 10.0);
        g.add(6, 5, 25.0);
        let mut stack = LayerStack::new(10.0, 10.0);
        stack.push(Layer::passive("sink", 3e-3, 300.0));
        stack.push(Layer::passive("lid", 1e-3, 50.0));
        stack.push(Layer::active("die", 0.5e-3, 120.0, g));
        stack.push(Layer::passive("bond", 0.05e-3, 1.0));
        stack.push(Layer::passive("base", 2e-3, 10.0));
        let bc = Boundary {
            h_top: 4000.0,
            h_bottom: 30.0,
            ambient: 40.0,
        };
        (stack, bc)
    }

    /// The optimised solver reaches the frozen reference solver's answer.
    #[test]
    fn solver_matches_the_reference_solver() {
        let (stack, bc) = layered_stack();
        let cfg = SolverConfig::builder().nx(8).ny(7).build();
        let sys = System::assemble(&stack, bc, cfg).unwrap();
        let fast = sys.steady_with_stats().unwrap().field;
        let oracle = reference::steady_with_stats(&sys).unwrap().field;
        for (a, b) in fast.cells().iter().zip(oracle.cells()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    /// A solve emits one residual-trajectory event on the calling thread,
    /// sampled at iteration 0 and at every power of two up to the final
    /// iteration count.
    #[test]
    fn trajectory_event_samples_every_power_of_two() {
        use std::sync::{Arc, Mutex};

        /// Keeps the trajectory lines emitted on one thread: other tests
        /// run solves concurrently against the same process-global sink.
        struct Capture {
            thread: std::thread::ThreadId,
            lines: Mutex<Vec<String>>,
        }
        impl stacksim_obs::EventSink for Capture {
            fn line(&self, s: &str) {
                if std::thread::current().id() == self.thread
                    && s.contains(crate::obs::EVENT_TRAJECTORY)
                {
                    self.lines.lock().unwrap().push(s.to_string());
                }
            }
        }

        let (stack, bc) = layered_stack();
        let cfg = SolverConfig::builder().nx(8).ny(7).build();
        let sys = System::assemble(&stack, bc, cfg).unwrap();
        let sink = Arc::new(Capture {
            thread: std::thread::current().id(),
            lines: Mutex::new(Vec::new()),
        });
        stacksim_obs::enable();
        stacksim_obs::set_sink(Some(sink.clone()));
        let iterations = sys.steady_with_stats().unwrap().stats.iterations;
        stacksim_obs::set_sink(None);
        stacksim_obs::disable();

        let lines = sink.lines.lock().unwrap();
        assert_eq!(lines.len(), 1, "one trajectory event per solve: {lines:?}");
        let line = &lines[0];
        assert!(line.contains(&format!("\"iters\":{iterations}")), "{line}");
        // iteration 0 plus every power of two up to the final count
        let samples = 1 + (usize::BITS - iterations.leading_zeros()) as usize;
        let listed = line.split("\"samples\":\"").nth(1).expect("samples field");
        let listed = &listed[..listed.find('"').expect("samples string closes")];
        assert_eq!(listed.split(',').count(), samples, "{line}");
    }

    /// Warm-starting from the converged solution is (nearly) free, and the
    /// answer does not move.
    #[test]
    fn warm_start_from_the_solution_is_free() {
        let (stack, bc) = layered_stack();
        let cfg = SolverConfig::builder().nx(8).ny(7).build();
        let sys = System::assemble(&stack, bc, cfg).unwrap();
        let cold = sys.steady_with_stats().unwrap();
        let warm = sys.steady_from(&cold.field).unwrap();
        assert!(
            warm.stats.iterations * 4 < cold.stats.iterations,
            "warm start took {} iterations vs {} cold",
            warm.stats.iterations,
            cold.stats.iterations
        );
        assert!((warm.field.peak() - cold.field.peak()).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "warm-start field")]
    fn warm_start_shape_mismatch_panics() {
        let (stack, bc) = layered_stack();
        let cfg = SolverConfig::builder().nx(8).ny(7).build();
        let sys = System::assemble(&stack, bc, cfg).unwrap();
        let wrong = TemperatureField::new(4, 4, vec!["only".into()], vec![40.0; 16]);
        let _ = sys.steady_from(&wrong);
    }
}
