//! LU factorisation with partial pivoting, linear solves, and inversion.
//!
//! The self-augmented reconstruction algorithm (Algorithm 1 in the paper)
//! inverts a small `r x r` system per column update (Eq. 24); these
//! routines provide that.

use crate::{LinalgError, Matrix, Result};

/// LU factorisation with partial pivoting: `P * A = L * U`.
///
/// Produced by [`Matrix::lu`].
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors: the strict lower triangle holds `L` (unit
    /// diagonal implied), the upper triangle holds `U`.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row index now at row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (`+1.0` or `-1.0`), used by `det`.
    perm_sign: f64,
}

impl Matrix {
    /// Computes the LU factorisation of a square matrix with partial
    /// pivoting.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if the matrix is not square.
    /// - [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn lu(&self) -> Result<Lu> {
        let mut lu = Lu::default();
        lu.refactor(self)?;
        Ok(lu)
    }

    /// Solves `self * x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::lu`] errors, and returns
    /// [`LinalgError::ShapeMismatch`] if `b.len() != self.rows()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve",
                lhs: self.shape(),
                rhs: (b.len(), 1),
            });
        }
        Ok(self.lu()?.solve(b))
    }

    /// Solves `self * X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::lu`] errors, and returns
    /// [`LinalgError::ShapeMismatch`] if `B.rows() != self.rows()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_matrix",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let lu = self.lu()?;
        let mut x = Matrix::zeros(self.rows(), b.cols());
        for j in 0..b.cols() {
            let col = lu.solve(&b.col(j));
            x.set_col(j, &col);
        }
        Ok(x)
    }

    /// Matrix inverse.
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::lu`] errors ([`LinalgError::NotSquare`],
    /// [`LinalgError::Singular`]).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.rows()))
    }

    /// Determinant via LU.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input. A singular
    /// matrix returns `Ok(0.0)`.
    pub fn det(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        match self.lu() {
            Ok(lu) => {
                let mut d = lu.perm_sign;
                for i in 0..self.rows() {
                    d *= lu.lu[(i, i)];
                }
                Ok(d)
            }
            Err(LinalgError::Singular) => Ok(0.0),
            Err(e) => Err(e),
        }
    }
}

impl Default for Lu {
    /// The (empty) factorisation of a `0 x 0` matrix: a workspace for
    /// [`Lu::refactor`].
    fn default() -> Self {
        Lu {
            lu: Matrix::zeros(0, 0),
            perm: Vec::new(),
            perm_sign: 1.0,
        }
    }
}

impl Lu {
    /// Factors `a` into this value, reusing its buffers: the
    /// allocation-free form of [`Matrix::lu`] for callers that factor
    /// many same-sized systems in a row. Produces the same factors,
    /// bit for bit. On error the contents are unspecified until the
    /// next successful call.
    ///
    /// # Errors
    ///
    /// As [`Matrix::lu`].
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if self.lu.shape() == a.shape() {
            self.lu.as_mut_slice().copy_from_slice(a.as_slice());
        } else {
            self.lu = a.clone();
        }
        self.perm.clear();
        self.perm.extend(0..n);
        self.perm_sign = 1.0;

        // Scale-relative singularity floor: relative to the largest
        // input entry, so a uniformly tiny-scaled but well-conditioned
        // system still solves (an absolute `max(1.0)` floor rejected
        // e.g. 1e-10-scaled Gram systems as singular). `<=` keeps the
        // all-zero matrix singular (both sides zero). The input does
        // not change during elimination, so the floor is computed once.
        let floor = f64::EPSILON * (n as f64) * a.max_abs();
        // The solver factors r x r systems by the thousand, with r the
        // link count (6 or 8 at the paper's sites): give those sizes a
        // constant trip count so the loops unroll. Same code, same
        // operations, same order — only the loop bounds are known.
        let (perm, sign) = (&mut self.perm, &mut self.perm_sign);
        let data = self.lu.as_mut_slice();
        match n {
            6 => eliminate(data, 6, perm, sign, floor),
            8 => eliminate(data, 8, perm, sign, floor),
            _ => eliminate(data, n, perm, sign, floor),
        }
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x);
        x
    }

    /// [`Lu::solve`] into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differs from the factored
    /// dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.perm.len();
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x.len(), n, "solution length mismatch");
        let lu = self.lu.as_slice();
        match n {
            6 => substitute(lu, 6, &self.perm, b, x),
            8 => substitute(lu, 8, &self.perm, b, x),
            _ => substitute(lu, n, &self.perm, b, x),
        }
    }
}

/// In-place LU elimination with partial pivoting of the row-major
/// `n x n` matrix in `data` (see [`Lu::refactor`]). Walks row slices,
/// so it pays no per-element index arithmetic or bounds checks.
#[inline(always)]
fn eliminate(
    data: &mut [f64],
    n: usize,
    perm: &mut [usize],
    perm_sign: &mut f64,
    floor: f64,
) -> Result<()> {
    for k in 0..n {
        // Partial pivot: largest |value| in column k at/below row k
        // (the first one on ties).
        let mut pivot_row = k;
        let mut pivot_val = data[k * n + k].abs();
        for (i, v) in data[k * n + k..].iter().step_by(n).enumerate().skip(1) {
            let v = v.abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = k + i;
            }
        }
        if pivot_val <= floor {
            return Err(LinalgError::Singular);
        }
        let (head, tail) = data.split_at_mut((k + 1) * n);
        let row_k = &mut head[k * n..];
        if pivot_row != k {
            let off = (pivot_row - k - 1) * n;
            row_k.swap_with_slice(&mut tail[off..off + n]);
            perm.swap(k, pivot_row);
            *perm_sign = -*perm_sign;
        }
        let (pivot, rest_k) = (row_k[k], &row_k[k + 1..]);
        for row_i in tail.chunks_exact_mut(n) {
            // Contiguous row elimination: row_i[k+1..] -= f * row_k[k+1..].
            let factor = row_i[k] / pivot;
            row_i[k] = factor;
            crate::view::axpy_slice(-factor, rest_k, &mut row_i[k + 1..]);
        }
    }
    Ok(())
}

/// Forward then back substitution with the packed factors `lu`
/// (`n x n`, row-major) and row permutation `perm` (see
/// [`Lu::solve_into`]).
#[inline(always)]
fn substitute(lu: &[f64], n: usize, perm: &[usize], b: &[f64], x: &mut [f64]) {
    // Apply permutation, then forward-substitute L y = P b.
    for (xi, &p) in x.iter_mut().zip(perm) {
        *xi = b[p];
    }
    let rows = || lu.chunks_exact(n.max(1));
    for (i, row) in rows().enumerate().skip(1) {
        let (head, tail) = x.split_at_mut(i);
        tail[0] -= Matrix::dot(&row[..i], head);
    }
    // Back-substitute U x = y.
    for (i, row) in rows().enumerate().rev() {
        let (head, tail) = x.split_at_mut(i + 1);
        let s = head[i] - Matrix::dot(&row[i + 1..], tail);
        head[i] = s / row[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.inverse(), Err(LinalgError::Singular)));
        assert_eq!(a.det().unwrap(), 0.0);
        assert!(matches!(
            Matrix::zeros(3, 3).solve(&[1.0, 1.0, 1.0]),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn tiny_scaled_system_still_solves() {
        // Regression: the singularity floor had an absolute
        // `.max(1.0)` component, so this well-conditioned system
        // scaled by 1e-10 was rejected as singular. The floor is
        // relative to the largest entry now.
        let s = 1e-10;
        let a = Matrix::from_rows(&[&[2.0 * s, 1.0 * s], &[1.0 * s, 3.0 * s]]);
        let x = a.solve(&[5.0 * s, 10.0 * s]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn refactor_reuses_a_workspace_bit_identically() {
        // One workspace across systems of changing size (including
        // the unrolled 6 x 6 and 8 x 8 sizes, with row swaps), a
        // singular system in between: every successful refactor must
        // give the factors and solutions a fresh `lu()` gives, bit for
        // bit.
        let pivoting = |n: usize| {
            Matrix::from_fn(n, n, |i, j| {
                ((i * i * 5 + j * 3 + i * j) as f64 * 0.37).sin()
            })
        };
        let systems = [
            pivoting(8),
            pivoting(6),
            pivoting(8),
            Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[3.0, 1.0, -1.0], &[1.0, 1.0, 4.0]]),
            Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]),
            Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]),
            Matrix::from_rows(&[
                &[1e-10, 3e-10, 0.0],
                &[2e-10, 1e-10, 5e-10],
                &[0.0, 4e-10, 1e-10],
            ]),
        ];
        let mut ws = Lu::default();
        for a in &systems {
            let fresh = a.lu();
            let reused = ws.refactor(a);
            let Ok(fresh) = fresh else {
                assert!(matches!(reused, Err(LinalgError::Singular)));
                continue;
            };
            reused.unwrap();
            assert_eq!(ws.lu, fresh.lu);
            assert_eq!(ws.perm, fresh.perm);
            assert_eq!(ws.perm_sign, fresh.perm_sign);
            let b: Vec<f64> = (0..a.rows()).map(|i| i as f64 - 0.5).collect();
            let mut x = vec![f64::NAN; a.rows()];
            ws.solve_into(&b, &mut x);
            let want = fresh.solve(&b);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&want));
        }
        assert!(matches!(
            ws.refactor(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn det_with_permutation_sign() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((a.det().unwrap() + 1.0).abs() < 1e-12);
        let b = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0]]);
        assert!((b.det().unwrap() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
        assert!(matches!(a.det(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[8.0, 12.0]]);
        let x = a.solve_matrix(&b).unwrap();
        let expected = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]);
        assert!(x.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn solve_shape_mismatch() {
        let a = Matrix::identity(2);
        assert!(a.solve(&[1.0, 2.0, 3.0]).is_err());
        assert!(a.solve_matrix(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn solve_larger_random_system_residual_small() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20;
        let a = Matrix::from_fn(n, n, |i, j| {
            // Diagonally dominant => well conditioned.
            if i == j {
                10.0 + rng.gen::<f64>()
            } else {
                rng.gen::<f64>() - 0.5
            }
        });
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = a.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }
}
