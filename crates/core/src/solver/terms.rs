//! Pluggable penalty terms of the self-augmented objective (Eq. 18).
//!
//! Each additive term of the objective is a [`PenaltyTerm`]: it knows
//! how to evaluate itself and how to contribute to the per-column /
//! per-row normal equations the ALS engine solves (`MyInverse` in
//! Algorithm 1). The engine composes an ordered list of terms, so the
//! paper's constraints are configuration, not control flow:
//!
//! - [`DataFitTerm`] — `w_fit ‖B ∘ (L Rᵀ) − X_B‖²` (Eq. 8),
//! - [`ReferenceTerm`] — `w_ref ‖L Rᵀ − X_R Z‖²` (constraint 1),
//! - [`ContinuityTerm`] — `w_g ‖X_D G‖²` (constraint 2a),
//! - [`SimilarityTerm`] — `w_h ‖H X_D‖²` (constraint 2b).
//!
//! A term's contribution to a column update of `R` splits into a part
//! that only depends on `L` (the quadratic coefficients and the fixed
//! linear terms — [`PenaltyTerm::assemble_column`]) and, for
//! [`CouplingMode::Exact`], a linear *cross* part that reads the
//! current `R` ([`PenaltyTerm::column_cross`]). The engine exploits
//! the split: the `R`-independent systems are assembled and factored
//! in parallel, while the Gauss–Seidel cross terms run in the original
//! sequential order — so parallel solves are bit-identical to the
//! historical monolith (see `solver::reference`).

use iupdater_linalg::{axpy_slice, Matrix};

use crate::config::CouplingMode;
use crate::Result;

/// Borrowed problem data shared by every term.
#[derive(Debug, Clone, Copy)]
pub struct TermContext<'a> {
    /// Known no-decrease values (zeros elsewhere), Eq. (8)'s `X_B`.
    pub x_b: &'a Matrix,
    /// Binary mask: 1 = known cell.
    pub b: &'a Matrix,
    /// Constraint-1 target `P = X_R Z` (when constraint 1 is active).
    pub p: Option<&'a Matrix>,
    /// Locations per link `N/M`.
    pub per: usize,
    /// Continuity relationship matrix `G` (when constraint 2 is active).
    pub g: Option<&'a Matrix>,
    /// Similarity relationship matrix `H` (when constraint 2 is active).
    pub h: Option<&'a Matrix>,
}

/// Per-sweep shared precomputation (currently the Gram matrix `FᵀF` of
/// the fixed factor, requested via [`PenaltyTerm::wants_gram`]).
#[derive(Debug, Default)]
pub struct SweepCache {
    /// `LᵀL` during column sweeps, `RᵀR` during row sweeps.
    pub gram: Option<Matrix>,
}

/// One additive penalty of the solver objective.
///
/// Implementations must keep three contracts:
///
/// 1. `assemble_*` may depend on the *fixed* factor of the sweep only
///    (`L` for columns, `R` for rows) — never on the factor being
///    updated. Everything that reads the updated factor goes into the
///    `*_cross` hook and must be flagged by `has_*_cross`.
/// 2. Contributions add into `a` / `rhs`; they never overwrite.
/// 3. Implementations are `Send + Sync` so sweeps can fan out.
pub trait PenaltyTerm: Send + Sync {
    /// Short identifier used in diagnostics.
    fn name(&self) -> &'static str;

    /// Effective (post-scaling) weight of the term.
    fn weight(&self) -> f64;

    /// Whether the term contributes at all.
    fn active(&self) -> bool {
        self.weight() > 0.0
    }

    /// Whether the engine should provide [`SweepCache::gram`].
    fn wants_gram(&self) -> bool {
        false
    }

    /// The term's value at `(L, R)`; `xhat` is the precomputed `L Rᵀ`.
    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64>;

    /// Adds the `R`-independent part of the term's contribution to the
    /// normal equations of column `j` (`a θ = rhs`, both `r x r` / `r`).
    fn assemble_column(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        sweep: &SweepCache,
        a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()>;

    /// Whether [`PenaltyTerm::column_cross`] contributes.
    fn has_column_cross(&self) -> bool {
        false
    }

    /// Adds the `R`-dependent linear cross contribution for column `j`
    /// (Gauss–Seidel: reads the current, partially updated `R`).
    fn column_cross(
        &self,
        _ctx: &TermContext<'_>,
        _j: usize,
        _l: &Matrix,
        _rm: &Matrix,
        _rhs: &mut [f64],
    ) {
    }

    /// Adds the `L`-independent part of the term's contribution to the
    /// normal equations of row `i`.
    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        sweep: &SweepCache,
        a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()>;

    /// Whether [`PenaltyTerm::row_cross`] contributes.
    fn has_row_cross(&self) -> bool {
        false
    }

    /// Adds the `L`-dependent linear cross contribution for row `i`.
    fn row_cross(
        &self,
        _ctx: &TermContext<'_>,
        _i: usize,
        _l: &Matrix,
        _rm: &Matrix,
        _rhs: &mut [f64],
    ) {
    }
}

/// The masked data-fit term `w ‖B ∘ (L Rᵀ) − X_B‖²` (Q2/C2).
#[derive(Debug, Clone, Copy)]
pub struct DataFitTerm {
    /// Effective weight.
    pub weight: f64,
}

impl PenaltyTerm for DataFitTerm {
    fn name(&self) -> &'static str {
        "data-fit"
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64> {
        // Row-major elementwise pass: same accumulation order as
        // `hadamard` + `checked_sub` + `frobenius_norm_sq`, no allocs.
        let mut sum = 0.0;
        for ((&bv, &xv), &tv) in ctx
            .b
            .as_slice()
            .iter()
            .zip(xhat.as_slice())
            .zip(ctx.x_b.as_slice())
        {
            let d = bv * xv - tv;
            sum += d * d;
        }
        Ok(self.weight * sum)
    }

    fn assemble_column(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()> {
        let known = column(ctx.b, j).zip(column(ctx.x_b, j));
        for ((&bij, &y), li) in known.zip(rows(l)) {
            if bij == 0.0 {
                continue;
            }
            axpy_slice(self.weight * y, li, rhs);
            a.add_outer(self.weight, li);
        }
        Ok(())
    }

    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()> {
        let known = ctx.b.row(i).iter().zip(ctx.x_b.row(i));
        for ((&bij, &y), tj) in known.zip(rows(rm)) {
            if bij == 0.0 {
                continue;
            }
            axpy_slice(self.weight * y, tj, rhs);
            a.add_outer(self.weight, tj);
        }
        Ok(())
    }
}

/// Constraint 1: `w ‖L Rᵀ − P‖²` with `P = X_R Z` (Q3/C3).
#[derive(Debug, Clone, Copy)]
pub struct ReferenceTerm {
    /// Effective weight.
    pub weight: f64,
}

impl PenaltyTerm for ReferenceTerm {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn wants_gram(&self) -> bool {
        true
    }

    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64> {
        let Some(p) = ctx.p else { return Ok(0.0) };
        let mut sum = 0.0;
        for (&xv, &pv) in xhat.as_slice().iter().zip(p.as_slice()) {
            let d = xv - pv;
            sum += d * d;
        }
        Ok(self.weight * sum)
    }

    fn assemble_column(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        sweep: &SweepCache,
        a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()> {
        let Some(p) = ctx.p else { return Ok(()) };
        let gram = sweep
            .gram
            .as_ref()
            // invariants: allow(panic-freedom) — the engine builds
            // the sweep Gram whenever a reference term is active;
            // TermContext::p is Some only in that configuration.
            .expect("reference term requires the sweep Gram");
        a.axpy(self.weight, gram)?;
        for (&pij, li) in column(p, j).zip(rows(l)) {
            if pij == 0.0 {
                continue;
            }
            axpy_slice(self.weight * pij, li, rhs);
        }
        Ok(())
    }

    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        sweep: &SweepCache,
        a: &mut Matrix,
        rhs: &mut [f64],
    ) -> Result<()> {
        let Some(p) = ctx.p else { return Ok(()) };
        let gram = sweep
            .gram
            .as_ref()
            // invariants: allow(panic-freedom) — the engine builds
            // the sweep Gram whenever a reference term is active;
            // TermContext::p is Some only in that configuration.
            .expect("reference term requires the sweep Gram");
        a.axpy(self.weight, gram)?;
        for (&pij, tj) in p.row(i).iter().zip(rows(rm)) {
            if pij == 0.0 {
                continue;
            }
            axpy_slice(self.weight * pij, tj, rhs);
        }
        Ok(())
    }
}

/// Constraint 2a: neighbouring-location continuity `w ‖X_D G‖²`
/// (Q4/C4). [`CouplingMode`] is a *term configuration* here: it picks
/// the quadratic coefficient (paper-literal column of `G` vs the exact
/// row) and whether the cross term contributes.
#[derive(Debug, Clone, Copy)]
pub struct ContinuityTerm {
    /// Effective weight.
    pub weight: f64,
    /// Cross-term handling.
    pub coupling: CouplingMode,
}

impl PenaltyTerm for ContinuityTerm {
    fn name(&self) -> &'static str {
        "continuity"
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64> {
        let Some(g) = ctx.g else { return Ok(0.0) };
        let xd = crate::decrease::extract(xhat, ctx.per)?;
        Ok(self.weight * xd.matmul(g)?.frobenius_norm_sq())
    }

    fn assemble_column(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
        _rhs: &mut [f64],
    ) -> Result<()> {
        let Some(g) = ctx.g else { return Ok(()) };
        let per = ctx.per;
        let (ii, jj) = (j / per, j % per);
        let norm_sq: f64 = match self.coupling {
            // Algorithm 1 line 18: column jj of G.
            CouplingMode::PaperLiteral => column(g, jj).map(|&x| x * x).sum(),
            // Row jj of G: the true coefficient of X_D(ii, jj) in X_D G.
            CouplingMode::Exact => g.row(jj).iter().map(|&x| x * x).sum(),
        };
        a.add_outer(self.weight * norm_sq, l.row(ii));
        Ok(())
    }

    fn has_column_cross(&self) -> bool {
        self.coupling == CouplingMode::Exact
    }

    fn column_cross(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        rm: &Matrix,
        rhs: &mut [f64],
    ) {
        let Some(g) = ctx.g else { return };
        let per = ctx.per;
        let (ii, jj) = (j / per, j % per);
        let lrow = l.row(ii);
        let mut cross = 0.0;
        for (p_, &gjp) in g.row(jj).iter().enumerate() {
            if gjp == 0.0 {
                continue;
            }
            // c_p = Σ_{u≠jj} X_D(ii, u) G(u, p), with the current
            // X_D(ii, u) = ℓ_ii · θ_{ii*per+u} evaluated only where
            // G(u, p) ≠ 0 (G is sparse: neighbouring cells only).
            let mut c_p = 0.0;
            for (u, (&gup, tu)) in column(g, p_).zip(link_block(rm, ii, per)).enumerate() {
                if u == jj || gup == 0.0 {
                    continue;
                }
                c_p += Matrix::dot(lrow, tu) * gup;
            }
            cross += c_p * gjp;
        }
        axpy_slice(-self.weight * cross, lrow, rhs);
    }

    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
        _rhs: &mut [f64],
    ) -> Result<()> {
        // Row i of X_D is wholly owned by ℓ_i, so the term is a clean
        // quadratic Σ_p (ℓᵀ m_p)² with m_p = Σ_u G(u, p) θ_{i*per+u}:
        // no cross terms in any mode.
        let Some(g) = ctx.g else { return Ok(()) };
        let per = ctx.per;
        let r = rhs_len(a);
        let mut m_p = vec![0.0_f64; r];
        for p_ in 0..per {
            m_p.fill(0.0);
            for (&gup, tu) in column(g, p_).zip(link_block(rm, i, per)) {
                if gup == 0.0 {
                    continue;
                }
                axpy_slice(gup, tu, &mut m_p);
            }
            a.add_outer(self.weight, &m_p);
        }
        Ok(())
    }
}

/// Constraint 2b: adjacent-link similarity `w ‖H X_D‖²` (Q5/C5).
#[derive(Debug, Clone, Copy)]
pub struct SimilarityTerm {
    /// Effective weight.
    pub weight: f64,
    /// Cross-term handling.
    pub coupling: CouplingMode,
}

impl PenaltyTerm for SimilarityTerm {
    fn name(&self) -> &'static str {
        "similarity"
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn objective(&self, ctx: &TermContext<'_>, xhat: &Matrix) -> Result<f64> {
        let Some(h) = ctx.h else { return Ok(0.0) };
        let xd = crate::decrease::extract(xhat, ctx.per)?;
        Ok(self.weight * h.matmul(&xd)?.frobenius_norm_sq())
    }

    fn assemble_column(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
        _rhs: &mut [f64],
    ) -> Result<()> {
        let Some(h) = ctx.h else { return Ok(()) };
        let ii = j / ctx.per;
        // Column ii of H is the coefficient of X_D(ii, jj) in H X_D
        // (the dimension-correct reading of Algorithm 1 line 19, whose
        // printed index is a typo).
        let norm_sq: f64 = column(h, ii).map(|&x| x * x).sum();
        a.add_outer(self.weight * norm_sq, l.row(ii));
        Ok(())
    }

    fn has_column_cross(&self) -> bool {
        self.coupling == CouplingMode::Exact
    }

    fn column_cross(
        &self,
        ctx: &TermContext<'_>,
        j: usize,
        l: &Matrix,
        rm: &Matrix,
        rhs: &mut [f64],
    ) {
        let Some(h) = ctx.h else { return };
        let per = ctx.per;
        let (ii, jj) = (j / per, j % per);
        let cross = similarity_cross(h, l, rm, per, ii, jj);
        axpy_slice(-self.weight * cross, l.row(ii), rhs);
    }

    fn assemble_row(
        &self,
        ctx: &TermContext<'_>,
        i: usize,
        rm: &Matrix,
        _sweep: &SweepCache,
        a: &mut Matrix,
        _rhs: &mut [f64],
    ) -> Result<()> {
        let Some(h) = ctx.h else { return Ok(()) };
        let norm_sq: f64 = column(h, i).map(|&x| x * x).sum();
        for tu in link_block(rm, i, ctx.per) {
            a.add_outer(self.weight * norm_sq, tu);
        }
        Ok(())
    }

    fn has_row_cross(&self) -> bool {
        self.coupling == CouplingMode::Exact
    }

    fn row_cross(&self, ctx: &TermContext<'_>, i: usize, l: &Matrix, rm: &Matrix, rhs: &mut [f64]) {
        let Some(h) = ctx.h else { return };
        let per = ctx.per;
        for (u, tu) in link_block(rm, i, per).enumerate() {
            let cross = similarity_cross(h, l, rm, per, i, u);
            axpy_slice(-self.weight * cross, tu, rhs);
        }
    }
}

/// Rank of the normal-equation system being assembled.
fn rhs_len(a: &Matrix) -> usize {
    a.rows()
}

/// The rows of `a`, top to bottom, as slices (every matrix walked
/// this way — a factor, `H` — has at least one column: rank and link
/// count are ≥ 1).
fn rows(a: &Matrix) -> std::slice::ChunksExact<'_, f64> {
    a.as_slice().chunks_exact(a.cols())
}

/// Column `j` of `a`, top to bottom, as a strided walk over the
/// row-major storage (no per-element index arithmetic or bounds check).
fn column(a: &Matrix, j: usize) -> impl Iterator<Item = &f64> {
    a.as_slice()[j..].iter().step_by(a.cols())
}

/// The `per` rows `link * per .. (link + 1) * per` of the factor `R`:
/// the cells of one link.
fn link_block(rm: &Matrix, link: usize, per: usize) -> impl Iterator<Item = &[f64]> {
    rows(rm).skip(link * per).take(per)
}

/// `Σ_p H(p, i) e_p` with `e_p = Σ_{k≠i} H(p, k) X_D(k, cell)`: the
/// similarity cross sum of the column and row sweeps. The current
/// `X_D(k, cell) = ℓ_k · θ_{k*per+cell}` is evaluated only where
/// `H(p, k) ≠ 0` (`H` is bidiagonal: adjacent links only).
fn similarity_cross(h: &Matrix, l: &Matrix, rm: &Matrix, per: usize, i: usize, cell: usize) -> f64 {
    let mut cross = 0.0;
    for hrow in rows(h) {
        let hpi = hrow[i];
        if hpi == 0.0 {
            continue;
        }
        let mut e_p = 0.0;
        for (k, (&hpk, lk)) in hrow.iter().zip(rows(l)).enumerate() {
            if k == i || hpk == 0.0 {
                continue;
            }
            e_p += Matrix::dot(lk, rm.row(k * per + cell)) * hpk;
        }
        cross += e_p * hpi;
    }
    cross
}
