//! The Krylov-subspace iterative solver for complex linear systems.
//!
//! The paper notes that eq. (9) "can be efficiently solved in O(N log N)
//! complexity ... with numerical solvers such as the FFT-based iterative
//! method". Restarted GMRES is the iterative half of that statement: it only
//! requires a matrix–vector product, so it works both with an explicitly
//! assembled [`crate::linalg::CMatrix`] and with a matrix-free operator (e.g.
//! an FFT-accelerated convolution on the canonical grid).

use crate::complex::c64;
use crate::linalg::{vec_axpy, vec_dot, vec_norm, CMatrix};
use std::fmt;

/// A linear operator `y = A·x` on complex vectors.
///
/// Implemented by [`CMatrix`] (dense product) and by any closure-like custom
/// operator used for matrix-free solves.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Applies the operator to `x`.
    fn apply(&self, x: &[c64]) -> Vec<c64>;
}

impl LinearOperator for CMatrix {
    fn dim(&self) -> usize {
        self.rows()
    }
    fn apply(&self, x: &[c64]) -> Vec<c64> {
        self.matvec(x)
    }
}

/// A matrix-free operator defined by a closure.
pub struct FnOperator<F: Fn(&[c64]) -> Vec<c64>> {
    dim: usize,
    f: F,
}

impl<F: Fn(&[c64]) -> Vec<c64>> FnOperator<F> {
    /// Wraps a closure as a [`LinearOperator`] of the given dimension.
    pub fn new(dim: usize, f: F) -> Self {
        Self { dim, f }
    }
}

impl<F: Fn(&[c64]) -> Vec<c64>> LinearOperator for FnOperator<F> {
    fn dim(&self) -> usize {
        self.dim
    }
    fn apply(&self, x: &[c64]) -> Vec<c64> {
        (self.f)(x)
    }
}

/// Convergence / iteration controls of the GMRES solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeConfig {
    /// Relative residual tolerance `‖b − A·x‖ / ‖b‖`.
    pub tolerance: f64,
    /// Maximum number of Arnoldi iterations (one matrix–vector product
    /// each, on top of one residual product per restart cycle).
    pub max_iterations: usize,
    /// GMRES restart length.
    pub restart: usize,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 2000,
            restart: 50,
        }
    }
}

impl IterativeConfig {
    /// A tightened variant for escalation after a failed solve: doubled
    /// restart length (a longer Krylov recurrence before the information
    /// loss of a restart) and doubled iteration budget, same tolerance.
    /// Used by the graceful-degradation ladder before it gives up on the
    /// iterative path entirely.
    pub fn tightened(&self) -> Self {
        Self {
            tolerance: self.tolerance,
            max_iterations: self.max_iterations.saturating_mul(2),
            restart: self.restart.saturating_mul(2),
        }
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeSolution {
    /// Final iterate.
    pub x: Vec<c64>,
    /// Relative residual at termination.
    pub residual: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the requested tolerance was met.
    pub converged: bool,
}

/// Error returned when an iterative solver breaks down or fails to converge.
#[derive(Debug, Clone, PartialEq)]
pub enum IterativeError {
    /// The method broke down (a division by a vanishing inner product).
    Breakdown {
        /// Iteration index at which the breakdown occurred.
        iteration: usize,
    },
    /// The iteration limit was reached before the tolerance.
    NotConverged {
        /// Best solution found so far.
        best: IterativeSolution,
    },
    /// The right-hand side dimension does not match the operator.
    DimensionMismatch,
}

impl fmt::Display for IterativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IterativeError::Breakdown { iteration } => {
                write!(f, "krylov solver breakdown at iteration {iteration}")
            }
            IterativeError::NotConverged { best } => write!(
                f,
                "iterative solver did not converge (residual {:.3e} after {} iterations)",
                best.residual, best.iterations
            ),
            IterativeError::DimensionMismatch => write!(f, "operator/rhs dimension mismatch"),
        }
    }
}

impl std::error::Error for IterativeError {}

/// Solves `A·x = b` with restarted GMRES(m).
///
/// # Errors
///
/// Returns [`IterativeError::NotConverged`] (carrying the best iterate) when
/// the iteration limit is hit, [`IterativeError::Breakdown`] on a numerical
/// breakdown, and [`IterativeError::DimensionMismatch`] for inconsistent sizes.
pub fn gmres(
    op: &dyn LinearOperator,
    b: &[c64],
    config: &IterativeConfig,
) -> Result<IterativeSolution, IterativeError> {
    let n = op.dim();
    if b.len() != n {
        return Err(IterativeError::DimensionMismatch);
    }
    let bnorm = vec_norm(b);
    if bnorm == 0.0 {
        return Ok(IterativeSolution {
            x: vec![c64::zero(); n],
            residual: 0.0,
            iterations: 0,
            converged: true,
        });
    }
    let m = config.restart.max(1).min(n);
    let mut x = vec![c64::zero(); n];
    let mut total_iters = 0usize;

    while total_iters < config.max_iterations {
        // r = b - A x
        let ax = op.apply(&x);
        let mut r = b.to_vec();
        for i in 0..n {
            r[i] -= ax[i];
        }
        let beta = vec_norm(&r);
        if beta / bnorm < config.tolerance {
            return Ok(IterativeSolution {
                x,
                residual: beta / bnorm,
                iterations: total_iters,
                converged: true,
            });
        }

        // Arnoldi with modified Gram-Schmidt.
        let mut basis: Vec<Vec<c64>> = Vec::with_capacity(m + 1);
        basis.push(r.iter().map(|z| *z / beta).collect());
        let mut h = vec![vec![c64::zero(); m]; m + 1];
        // Givens rotations applied to H, and the rotated rhs g.
        let mut cs = vec![c64::zero(); m];
        let mut sn = vec![c64::zero(); m];
        let mut g = vec![c64::zero(); m + 1];
        g[0] = c64::from_real(beta);
        let mut k_used = 0usize;
        let mut rel = beta / bnorm;

        for k in 0..m {
            total_iters += 1;
            let mut w = op.apply(&basis[k]);
            for (j, vj) in basis.iter().enumerate().take(k + 1) {
                let hjk = vec_dot(vj, &w);
                h[j][k] = hjk;
                vec_axpy(-hjk, vj, &mut w);
            }
            let wnorm = vec_norm(&w);
            h[k + 1][k] = c64::from_real(wnorm);
            if wnorm > 1e-300 {
                basis.push(w.iter().map(|z| *z / wnorm).collect());
            } else {
                // happy breakdown: exact solution in the Krylov space
                basis.push(vec![c64::zero(); n]);
            }
            // Apply previous rotations to the new column.
            for j in 0..k {
                let temp = cs[j].conj() * h[j][k] + sn[j].conj() * h[j + 1][k];
                h[j + 1][k] = -sn[j] * h[j][k] + cs[j] * h[j + 1][k];
                h[j][k] = temp;
            }
            // New rotation to annihilate h[k+1][k].
            let denom = (h[k][k].norm_sqr() + h[k + 1][k].norm_sqr()).sqrt();
            if denom > 1e-300 {
                cs[k] = h[k][k] / denom;
                sn[k] = h[k + 1][k] / denom;
            } else {
                cs[k] = c64::one();
                sn[k] = c64::zero();
            }
            h[k][k] = cs[k].conj() * h[k][k] + sn[k].conj() * h[k + 1][k];
            h[k + 1][k] = c64::zero();
            let g_k = g[k];
            g[k] = cs[k].conj() * g_k;
            g[k + 1] = -sn[k] * g_k;
            k_used = k + 1;
            rel = g[k + 1].abs() / bnorm;
            if rel < config.tolerance || total_iters >= config.max_iterations {
                break;
            }
        }

        // Solve the small triangular system and update x.
        let mut y = vec![c64::zero(); k_used];
        for i in (0..k_used).rev() {
            let mut acc = g[i];
            for j in (i + 1)..k_used {
                acc -= h[i][j] * y[j];
            }
            if h[i][i].abs() < 1e-300 {
                return Err(IterativeError::Breakdown {
                    iteration: total_iters,
                });
            }
            y[i] = acc / h[i][i];
        }
        for (j, yj) in y.iter().enumerate() {
            vec_axpy(*yj, &basis[j], &mut x);
        }

        if rel < config.tolerance {
            // Recompute the true residual for an honest report.
            let ax = op.apply(&x);
            let mut r = b.to_vec();
            for i in 0..n {
                r[i] -= ax[i];
            }
            let true_rel = vec_norm(&r) / bnorm;
            return Ok(IterativeSolution {
                x,
                residual: true_rel,
                iterations: total_iters,
                converged: true,
            });
        }
    }

    let ax = op.apply(&x);
    let mut r = b.to_vec();
    for i in 0..n {
        r[i] -= ax[i];
    }
    let rel = vec_norm(&r) / bnorm;
    Err(IterativeError::NotConverged {
        best: IterativeSolution {
            x,
            residual: rel,
            iterations: config.max_iterations,
            converged: false,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::CMatrix;

    fn test_matrix(n: usize) -> CMatrix {
        // Diagonally dominant complex matrix: well-conditioned, converges fast.
        CMatrix::from_fn(n, n, |i, j| {
            if i == j {
                c64::new(4.0 + i as f64 * 0.1, 1.0)
            } else {
                let d = (i as f64 - j as f64).abs();
                c64::new(0.3 / (1.0 + d), -0.1 / (1.0 + d * d))
            }
        })
    }

    fn rhs(n: usize) -> Vec<c64> {
        (0..n)
            .map(|i| c64::new((i % 4) as f64 - 1.5, (i % 3) as f64))
            .collect()
    }

    #[test]
    fn gmres_matches_direct_solve() {
        let n = 40;
        let a = test_matrix(n);
        let b = rhs(n);
        let x_direct = a.solve(&b).unwrap();
        let sol = gmres(&a, &b, &IterativeConfig::default()).unwrap();
        assert!(sol.converged, "residual {}", sol.residual);
        let err: f64 = sol
            .x
            .iter()
            .zip(&x_direct)
            .map(|(u, v)| (*u - *v).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "err = {err}");
    }

    #[test]
    fn gmres_with_small_restart_still_converges() {
        let n = 30;
        let a = test_matrix(n);
        let b = rhs(n);
        let cfg = IterativeConfig {
            restart: 5,
            ..Default::default()
        };
        let sol = gmres(&a, &b, &cfg).unwrap();
        assert!(sol.converged);
        let r = a.matvec(&sol.x);
        let resid: f64 = r
            .iter()
            .zip(&b)
            .map(|(u, v)| (*u - *v).abs())
            .fold(0.0, f64::max);
        assert!(resid < 1e-8);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = test_matrix(10);
        let b = vec![c64::zero(); 10];
        let sol = gmres(&a, &b, &IterativeConfig::default()).unwrap();
        assert!(sol.converged);
        assert!(sol.x.iter().all(|z| z.abs() == 0.0));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = test_matrix(5);
        let b = rhs(4);
        assert!(matches!(
            gmres(&a, &b, &IterativeConfig::default()),
            Err(IterativeError::DimensionMismatch)
        ));
    }

    #[test]
    fn iteration_limit_reports_not_converged() {
        let n = 40;
        let a = test_matrix(n);
        let b = rhs(n);
        let cfg = IterativeConfig {
            tolerance: 1e-14,
            max_iterations: 2,
            restart: 2,
        };
        match gmres(&a, &b, &cfg) {
            Err(IterativeError::NotConverged { best }) => {
                assert!(!best.converged);
                assert!(best.residual > 0.0);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn matrix_free_operator_works() {
        // Operator: diagonal scaling by (2 + j) implemented as a closure.
        let n = 16;
        let op = FnOperator::new(n, move |x: &[c64]| {
            x.iter().map(|&v| v * c64::new(2.0, 1.0)).collect()
        });
        let b = rhs(n);
        let sol = gmres(&op, &b, &IterativeConfig::default()).unwrap();
        for (xi, bi) in sol.x.iter().zip(&b) {
            assert!((*xi * c64::new(2.0, 1.0) - *bi).abs() < 1e-9);
        }
    }
}
