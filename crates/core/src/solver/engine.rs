//! The generic ALS engine: alternating closed-form sweeps over an
//! ordered list of [`PenaltyTerm`]s.
//!
//! # Phase-split parallel sweeps
//!
//! A column update of `R` solves `A_j θ_j = c_j` per column (Eq. 24).
//! The key structural fact the engine exploits: **every quadratic
//! coefficient `A_j` depends only on the fixed factor** (`L` during
//! column sweeps), while only the Exact-coupling cross terms of
//! constraint 2 read the factor being updated. Each sweep therefore
//! runs in two phases:
//!
//! 1. **Assemble + factor (parallel)**: for all columns at once, build
//!    `A_j` and the fixed part of `c_j`, then LU-factor `A_j` — the
//!    `O(M r² + r³)` bulk of the sweep, embarrassingly parallel.
//! 2. **Cross + solve**: add the cross terms and back-substitute. With
//!    no active cross terms (paper-literal mode, or constraint 2 off)
//!    this phase is also parallel; in Exact mode its order is
//!    configurable ([`SweepOrder`]):
//!    - `GaussSeidel` (default) walks columns in the original
//!      ascending order, reading the partially-updated factor exactly
//!      like the sequential monolith did;
//!    - `RedBlack` checkerboard-colours the (link, cell) grid by
//!      `(link + cell) % 2` and runs two *parallel* half-sweeps, each
//!      half reading the factor snapshot from the start of that half.
//!      **Colouring invariant:** every distance-1 coupling — along-link
//!      continuity neighbours via `X_D G`, adjacent links via `H X_D`
//!      — connects opposite colours, so those reads are as fresh as
//!      Gauss–Seidel's; only the distance-2 continuity interactions
//!      inside a colour (cells `u` and `u ± 2` share the `G` column of
//!      the cell between them) read start-of-half values Jacobi-style.
//!      Within a half-sweep every update is a pure function of the
//!      snapshot, so the result is deterministic and identical at any
//!      worker count — but the *trajectory* differs from the
//!      historical order, which is why `RedBlack` is opt-in and has
//!      its own convergence tier (`core/tests/exact_convergence.rs`).
//!
//! Under the default order both phases preserve the historical
//! per-element accumulation order, so the refactored engine reproduces
//! `solver::reference` bit-for-bit — the golden parity tests assert
//! ≤ 1e-9 end to end.
//!
//! # When sweeps fan out
//!
//! Parallel sweeps run on the rayon shim's persistent worker pool.
//! A sweep of `count` systems fans out when `count * r²` (the dominant
//! assembly cost) reaches [`MIN_PARALLEL_WORK`] and the pool has more
//! than one thread; below that the fused serial path wins. The pool
//! width is cached at engine construction ([`AlsEngine::new`]), so the
//! serial/parallel decision is stable for the life of a solver and
//! costs no per-sweep `current_num_threads()` query. Both paths
//! produce bit-identical results — the threshold gates cost only.

use iupdater_linalg::solve::Lu;
use iupdater_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::config::{ScalingMode, SweepOrder, UpdaterConfig};
use crate::solver::terms::{
    ContinuityTerm, DataFitTerm, PenaltyTerm, ReferenceTerm, SimilarityTerm, SweepCache,
    TermContext,
};
use crate::solver::{SolveReport, SolverInputs, TermWeights};
use crate::Result;

/// The assembled, factored state of one normal-equation system.
struct ColumnPlan {
    lu: Lu,
    rhs: Vec<f64>,
}

/// Which factor a sweep updates: `R` one column system at a time
/// (Algorithm 1 line 3, `L` fixed), or `L` one row system at a time
/// (line 4, `R` fixed). Maps the sweep's `(fixed, updated)` factor
/// pair onto the terms' column or row hooks.
#[derive(Debug, Clone, Copy)]
enum Axis {
    Columns,
    Rows,
}

impl Axis {
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        self,
        term: &dyn PenaltyTerm,
        ctx: &TermContext<'_>,
        idx: usize,
        fixed: &Matrix,
        sweep: &SweepCache,
        a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()> {
        match self {
            Axis::Columns => term.assemble_column(ctx, idx, fixed, sweep, a, rhs),
            Axis::Rows => term.assemble_row(ctx, idx, fixed, sweep, a, rhs),
        }
    }

    fn has_cross(self, term: &dyn PenaltyTerm) -> bool {
        match self {
            Axis::Columns => term.has_column_cross(),
            Axis::Rows => term.has_row_cross(),
        }
    }

    fn cross(
        self,
        term: &dyn PenaltyTerm,
        ctx: &TermContext<'_>,
        idx: usize,
        fixed: &Matrix,
        updated: &Matrix,
        rhs: &mut [f64],
    ) {
        match self {
            Axis::Columns => term.column_cross(ctx, idx, fixed, updated, rhs),
            Axis::Rows => term.row_cross(ctx, idx, updated, fixed, rhs),
        }
    }

    /// Red-black colour of system `idx`. Columns: column `j` is cell
    /// `(j / per, j % per)` of the (link, cell) checkerboard. Rows: row
    /// cross terms only couple adjacent links (`H` is bidiagonal), so
    /// link parity is a *proper* 2-colouring — every cross read targets
    /// the opposite colour.
    fn colour(self, idx: usize, per: usize) -> usize {
        match self {
            Axis::Columns => (idx / per + idx % per) % 2,
            Axis::Rows => idx % 2,
        }
    }
}

/// Minimum sweep size, measured as `systems x r²` (the dominant
/// assembly cost), before a sweep fans out to the worker pool.
///
/// A fan-out costs a job publish plus the phase-split path's per-system
/// plans, while the fused serial path reuses one system and one LU
/// workspace for the whole sweep. The bar sits above the paper's site
/// sizes (hall 120 columns × r² = 64 → 7 680, office 6 144, library
/// 2 592), so their sweeps stay fused, for two measured reasons (2
/// vCPUs): inside `UpdateService::run_cycle`, which already runs one
/// pool item per batch solve, a nested sweep fan-out only competes
/// with the other solves for the same threads — lowering the bar to
/// 4 096 made fleet-cycle publish p90 13–17% slower — and a lone
/// paper-size solve at width 2 is no faster fanned out than fused.
/// Larger problems (32 × 1536 at r = 32) still fan out. Results are
/// identical either way — see the parity tests.
const MIN_PARALLEL_WORK: usize = 16_384;

/// Resets a reusable normal-equation workspace to `A = λI`, `rhs = 0`
/// (the exact values `Matrix::identity(r).scale(λ)` produces).
fn reset_system(a: &mut Matrix, rhs: &mut [f64], lambda: f64) {
    a.as_mut_slice().fill(0.0);
    for i in 0..a.rows() {
        a[(i, i)] = 1.0 * lambda;
    }
    rhs.fill(0.0);
}

/// The ALS engine: validated inputs plus derived relationship matrices.
#[derive(Debug)]
pub(crate) struct AlsEngine {
    pub(crate) inputs: SolverInputs,
    pub(crate) cfg: UpdaterConfig,
    pub(crate) g: Option<Matrix>,
    pub(crate) h: Option<Matrix>,
    pub(crate) rank: usize,
    /// Worker-pool width, cached at construction: sweeps consult it on
    /// every serial/parallel decision and must not pay (or observe) a
    /// per-sweep `rayon::current_num_threads()` query. Tests can pin
    /// it process-wide via `rayon::set_num_threads_for_tests` *before*
    /// building the solver, which is how single-CPU CI drives the
    /// parallel paths deterministically.
    threads: usize,
}

impl AlsEngine {
    /// Binds validated inputs to the engine, caching the pool width.
    pub(crate) fn new(
        inputs: SolverInputs,
        cfg: UpdaterConfig,
        g: Option<Matrix>,
        h: Option<Matrix>,
        rank: usize,
    ) -> Self {
        AlsEngine {
            inputs,
            cfg,
            g,
            h,
            rank,
            threads: rayon::current_num_threads(),
        }
    }

    /// Whether a sweep of `count` systems should take the fused serial
    /// path instead of the phase-split parallel one.
    fn serial_sweep(&self, count: usize) -> bool {
        self.threads == 1 || count * self.rank * self.rank < MIN_PARALLEL_WORK
    }

    /// Whether phase 2 runs as red-black half-sweeps: only under Exact
    /// coupling with active cross terms is phase 2 order-sensitive at
    /// all, and only then does the opt-in matter.
    fn red_black(&self, has_cross: bool) -> bool {
        has_cross && self.cfg.sweep_order == SweepOrder::RedBlack
    }

    fn ctx(&self) -> TermContext<'_> {
        TermContext {
            x_b: &self.inputs.x_b,
            b: &self.inputs.b,
            p: self.inputs.p.as_ref(),
            per: self.inputs.per,
            g: self.g.as_ref(),
            h: self.h.as_ref(),
        }
    }

    /// The standard four paper terms for the given effective weights, in
    /// the canonical assembly order (fit, reference, continuity,
    /// similarity — the order the objective lists them).
    fn build_terms(&self, w: &TermWeights) -> Vec<Box<dyn PenaltyTerm>> {
        vec![
            Box::new(DataFitTerm { weight: w.fit }),
            Box::new(ReferenceTerm {
                weight: w.reference,
            }),
            Box::new(ContinuityTerm {
                weight: w.continuity,
                coupling: self.cfg.coupling,
            }),
            Box::new(SimilarityTerm {
                weight: w.similarity,
                coupling: self.cfg.coupling,
            }),
        ]
    }

    /// Algorithm 1 line 1: random or warm-started factors.
    fn init_factors(&self) -> Result<(Matrix, Matrix)> {
        let (m, n) = self.inputs.x_b.shape();
        let r = self.rank;
        Ok(match &self.inputs.warm_start {
            Some(x0) => {
                let svd = x0.svd()?;
                let mut l = Matrix::zeros(m, r);
                let mut rr = Matrix::zeros(n, r);
                for t in 0..r.min(svd.singular_values.len()) {
                    let s = svd.singular_values[t].sqrt();
                    for i in 0..m {
                        l[(i, t)] = svd.u[(i, t)] * s;
                    }
                    for j in 0..n {
                        rr[(j, t)] = svd.v[(j, t)] * s;
                    }
                }
                (l, rr)
            }
            None => {
                let mut rng = StdRng::seed_from_u64(self.cfg.seed);
                // Random L0; scale so L Rᵀ can reach dBm magnitudes fast.
                let scale = (self.inputs.x_b.max_abs().max(1.0) / r as f64).sqrt();
                let l = Matrix::from_fn(m, r, |_, _| (rng.gen::<f64>() * 2.0 - 1.0) * scale);
                let rm = Matrix::from_fn(n, r, |_, _| (rng.gen::<f64>() * 2.0 - 1.0) * scale);
                (l, rm)
            }
        })
    }

    /// Computes effective weights: `Fixed` passes the config through,
    /// `Auto` additionally balances each constraint against the data-fit
    /// magnitude at the initial point.
    fn effective_weights(&self, l: &Matrix, rm: &Matrix) -> Result<TermWeights> {
        let cfg = &self.cfg;
        let base = TermWeights {
            fit: cfg.weight_fit,
            reference: if cfg.use_constraint1 && self.inputs.p.is_some() {
                cfg.weight_ref
            } else {
                0.0
            },
            continuity: if cfg.use_constraint2 {
                cfg.weight_continuity
            } else {
                0.0
            },
            similarity: if cfg.use_constraint2 {
                cfg.weight_similarity
            } else {
                0.0
            },
        };
        if cfg.scaling == ScalingMode::Fixed {
            return Ok(base);
        }
        // Auto: express each term per element and scale to the data-fit
        // per-element magnitude at the initial point.
        let xhat = l.matmul(&rm.transpose())?;
        let fit_resid = self
            .inputs
            .b
            .hadamard(&xhat)?
            .checked_sub(&self.inputs.x_b)?;
        let known = self.inputs.b.iter().filter(|&&v| v != 0.0).count().max(1);
        let fit_mag = (fit_resid.frobenius_norm_sq() / known as f64).max(1e-9);

        let scale_for = |value: f64, count: usize| -> f64 {
            let per_elem = (value / count.max(1) as f64).max(1e-12);
            (fit_mag / per_elem).clamp(0.05, 20.0)
        };

        let mut w = base;
        if w.reference > 0.0 {
            if let Some(p) = &self.inputs.p {
                let resid = xhat.checked_sub(p)?;
                w.reference *= scale_for(resid.frobenius_norm_sq(), p.rows() * p.cols());
            }
        }
        if w.continuity > 0.0 || w.similarity > 0.0 {
            let xd = crate::decrease::extract(&xhat, self.inputs.per)?;
            if let (Some(g), w_g) = (&self.g, w.continuity) {
                if w_g > 0.0 {
                    let v = xd.matmul(g)?.frobenius_norm_sq();
                    w.continuity *= scale_for(v, xd.rows() * xd.cols());
                }
            }
            if let (Some(h), w_h) = (&self.h, w.similarity) {
                if w_h > 0.0 {
                    let v = h.matmul(&xd)?.frobenius_norm_sq();
                    w.similarity *= scale_for(v, xd.rows() * xd.cols());
                }
            }
        }
        Ok(w)
    }

    /// The full objective (Eq. 18) at `(L, R)`: ridge plus every term,
    /// evaluated on a reusable `xhat` buffer.
    fn objective(
        &self,
        terms: &[Box<dyn PenaltyTerm>],
        l: &Matrix,
        rm: &Matrix,
        xhat: &mut Matrix,
    ) -> Result<f64> {
        l.matmul_bt_into(rm, xhat)?;
        let mut v = self.cfg.lambda * (l.frobenius_norm_sq() + rm.frobenius_norm_sq());
        let ctx = self.ctx();
        for term in terms {
            if term.active() {
                v += term.objective(&ctx, xhat)?;
            }
        }
        Ok(v)
    }

    /// Phase 1 of a sweep: assemble and LU-factor all `count` systems in
    /// parallel.
    fn assemble_systems(
        &self,
        axis: Axis,
        terms: &[&dyn PenaltyTerm],
        fixed: &Matrix,
        sweep: &SweepCache,
        count: usize,
    ) -> Result<Vec<ColumnPlan>> {
        let r = self.rank;
        let lambda = self.cfg.lambda;
        let ctx = self.ctx();
        let plans: Vec<Result<ColumnPlan>> = (0..count)
            .into_par_iter()
            .map(|idx| {
                let mut a = Matrix::identity(r);
                a.scale_mut(lambda);
                let mut rhs = vec![0.0_f64; r];
                for term in terms {
                    axis.assemble(*term, &ctx, idx, fixed, sweep, &mut a, &mut rhs)?;
                }
                let lu = a.lu()?;
                Ok(ColumnPlan { lu, rhs })
            })
            .collect();
        plans.into_iter().collect()
    }

    /// One sweep of closed-form updates along `axis`: every row of
    /// `updated` (`R` for [`Axis::Columns`], `L` for [`Axis::Rows`])
    /// is re-solved with `fixed` (the other factor) held fixed — the
    /// `MyInverse` calls of Algorithm 1 lines 3 and 4.
    fn sweep(
        &self,
        axis: Axis,
        terms: &[Box<dyn PenaltyTerm>],
        fixed: &Matrix,
        updated: &mut Matrix,
    ) -> Result<()> {
        let count = updated.rows();
        let r = self.rank;
        let ctx = self.ctx();
        let active: Vec<&dyn PenaltyTerm> = terms
            .iter()
            .map(|t| t.as_ref())
            .filter(|t| t.active())
            .collect();
        let sweep = SweepCache {
            gram: active.iter().any(|t| t.wants_gram()).then(|| fixed.gram()),
        };
        let cross_terms: Vec<&dyn PenaltyTerm> = active
            .iter()
            .copied()
            .filter(|t| axis.has_cross(*t))
            .collect();

        let red_black = self.red_black(!cross_terms.is_empty());
        if !red_black && self.serial_sweep(count) {
            // Fused serial sweep: assemble, cross, solve and write per
            // system in one pass, reusing one system and one LU
            // workspace throughout — no plan materialisation,
            // same numbers as the phase-split path. (Red-black sweeps
            // never take it: its interleaved writes are inherently
            // Gauss–Seidel, and red-black results must not depend on
            // the work-size threshold or the machine width.)
            let mut a = Matrix::zeros(r, r);
            let mut rhs = vec![0.0_f64; r];
            let mut lu = Lu::default();
            for idx in 0..count {
                reset_system(&mut a, &mut rhs, self.cfg.lambda);
                for term in &active {
                    axis.assemble(*term, &ctx, idx, fixed, &sweep, &mut a, &mut rhs)?;
                }
                lu.refactor(&a)?;
                for term in &cross_terms {
                    axis.cross(*term, &ctx, idx, fixed, updated, &mut rhs);
                }
                lu.solve_into(&rhs, updated.row_mut(idx));
            }
            return Ok(());
        }

        let plans = self.assemble_systems(axis, &active, fixed, &sweep, count)?;
        if cross_terms.is_empty() {
            // Fully independent systems: solve and write in parallel.
            let rows: Vec<Vec<f64>> = plans
                .par_iter()
                .map(|plan| plan.lu.solve(&plan.rhs))
                .collect();
            for (idx, row) in rows.iter().enumerate() {
                updated.set_row(idx, row);
            }
        } else if red_black {
            // Red-black half-sweeps: each half computes every update of
            // its colour in parallel from the snapshot of `updated`
            // held fixed during the half, then writes — see the module
            // docs for the colouring invariant.
            let per = self.inputs.per;
            for colour in 0..2 {
                let indices: Vec<usize> = (0..count)
                    .filter(|&idx| axis.colour(idx, per) == colour)
                    .collect();
                let snapshot: &Matrix = updated;
                let solved: Vec<Vec<f64>> = indices
                    .par_iter()
                    .map(|&idx| {
                        let mut rhs = plans[idx].rhs.clone();
                        for term in &cross_terms {
                            axis.cross(*term, &ctx, idx, fixed, snapshot, &mut rhs);
                        }
                        plans[idx].lu.solve(&rhs)
                    })
                    .collect();
                for (&idx, row) in indices.iter().zip(&solved) {
                    updated.set_row(idx, row);
                }
            }
        } else {
            // Gauss–Seidel: original ascending order, reading the
            // partially updated factor.
            for (idx, plan) in plans.into_iter().enumerate() {
                let mut rhs = plan.rhs;
                for term in &cross_terms {
                    axis.cross(*term, &ctx, idx, fixed, updated, &mut rhs);
                }
                plan.lu.solve_into(&rhs, updated.row_mut(idx));
            }
        }
        Ok(())
    }

    /// Runs Algorithm 1 to convergence or the iteration budget.
    pub(crate) fn solve(&self) -> Result<SolveReport> {
        let (m, n) = self.inputs.x_b.shape();
        let (mut l, mut rm) = self.init_factors()?;
        let weights = self.effective_weights(&l, &rm)?;
        let terms = self.build_terms(&weights);

        let mut xhat = Matrix::zeros(m, n);
        let mut trace = Vec::with_capacity(self.cfg.max_iter + 1);
        trace.push(self.objective(&terms, &l, &rm, &mut xhat)?);
        let mut iterations = 0;
        for _ in 0..self.cfg.max_iter {
            self.sweep(Axis::Columns, &terms, &l, &mut rm)?;
            self.sweep(Axis::Rows, &terms, &rm, &mut l)?;
            iterations += 1;
            let v = self.objective(&terms, &l, &rm, &mut xhat)?;
            // invariants: allow(panic-freedom) — the initial
            // objective is pushed before the loop, so the trace is
            // never empty.
            let prev = *trace.last().expect("trace non-empty");
            trace.push(v);
            // Stop on relative stagnation (plays the role of v_th).
            if (prev - v).abs() <= self.cfg.tol * prev.abs().max(1e-12) {
                break;
            }
        }
        Ok(SolveReport {
            l,
            r: rm,
            objective_trace: trace,
            iterations,
            weights,
        })
    }
}
