//! Stable evaluation of the Lagrange basis in barycentric form (Eq. 4),
//! with explicit handling of the removable singularities (Eq. 5, §2.3).
//!
//! The basis value is the quotient `L_k(x) = (w_k / (x - s_k)) / Σ_k' w_k'
//! / (x - s_k')`. When `x` coincides with a node `s_k'` both numerator and
//! denominator blow up; the limit is `δ_{kk'}`. Following the paper we
//! detect coincidence to within the smallest positive normal double
//! (`f64::MIN_POSITIVE`) and enforce `L_k = δ_{kk'}` exactly. Because
//! clusters use *minimal* bounding boxes, source particles on box faces
//! always hit the endpoint nodes, so this path is exercised on every
//! cluster, not just in pathological inputs.

use super::chebyshev::ChebyshevGrid1D;

/// Coincidence tolerance from §2.3: the smallest positive normal `f64`.
pub const SINGULARITY_TOL: f64 = f64::MIN_POSITIVE;

/// One dimension of the per-particle term pass — the single building
/// block under both halves of the modified-charge computation
/// (Eq. 14–15) and under [`lagrange_values`].
///
/// Fills `terms[k] = w_k / (x - s_k)` and returns the phase-1 factor
/// `1 / Σ_k terms[k]` (ascending-`k` sum), so that `terms[k] · factor`
/// is the basis value `L_k(x)`. If `x` coincides with a node — the
/// first such node in `k` order wins — `terms` becomes that node's
/// Kronecker row and the factor is `1`: the basis is already
/// normalized by the delta.
///
/// `terms.len()` must equal `grid.len()`.
#[inline(always)]
pub fn dim_terms(grid: &ChebyshevGrid1D, x: f64, terms: &mut [f64]) -> f64 {
    let m = terms.len();
    assert_eq!(m, grid.len(), "term row length mismatch");
    let (nodes, weights) = (&grid.nodes()[..m], &grid.weights()[..m]);
    let mut denom = 0.0;
    for k in 0..m {
        let diff = x - nodes[k];
        if diff.abs() < SINGULARITY_TOL {
            terms.fill(0.0);
            terms[k] = 1.0;
            return 1.0;
        }
        let t = weights[k] / diff;
        terms[k] = t;
        denom += t;
    }
    1.0 / denom
}

/// Evaluate all `n + 1` Lagrange basis values `L_k(x)` into `out`.
///
/// `out.len()` must equal `grid.len()`. Values sum to 1 (the basis is a
/// partition of unity) up to rounding.
pub fn lagrange_values(grid: &ChebyshevGrid1D, x: f64, out: &mut [f64]) {
    let factor = dim_terms(grid, x, out);
    for v in out.iter_mut() {
        *v *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interpolate a function given by its node values `f_at_nodes` at `x`,
    /// i.e. evaluate `p_n(x) = Σ_k f(s_k) L_k(x)` (Eq. 3); at a node this
    /// is the node value itself.
    fn interpolate(grid: &ChebyshevGrid1D, f_at_nodes: &[f64], x: f64) -> f64 {
        assert_eq!(f_at_nodes.len(), grid.len(), "node value length mismatch");
        let mut terms = vec![0.0; grid.len()];
        let factor = dim_terms(grid, x, &mut terms);
        let mut num = 0.0;
        for (&t, &f) in terms.iter().zip(f_at_nodes) {
            // Skipping the zeros of a Kronecker row keeps a non-finite
            // value at another node out of the result.
            if t != 0.0 {
                num += t * f;
            }
        }
        num * factor
    }

    fn grid(n: usize) -> ChebyshevGrid1D {
        ChebyshevGrid1D::canonical(n)
    }

    #[test]
    fn basis_is_kronecker_at_nodes() {
        let g = grid(6);
        let mut vals = vec![0.0; g.len()];
        for j in 0..g.len() {
            lagrange_values(&g, g.node(j), &mut vals);
            for (k, &v) in vals.iter().enumerate() {
                let expect = if k == j { 1.0 } else { 0.0 };
                assert_eq!(v, expect, "L_{k}(s_{j})");
            }
        }
    }

    #[test]
    fn basis_partition_of_unity() {
        let g = grid(9);
        let mut vals = vec![0.0; g.len()];
        for &x in &[-0.95, -0.5, 0.0, 0.123456789, 0.77, 0.999] {
            lagrange_values(&g, x, &mut vals);
            let sum: f64 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "sum of basis at {x} = {sum}");
        }
    }

    #[test]
    fn interpolates_polynomials_exactly() {
        // Degree-n interpolation reproduces degree-<=n polynomials.
        let g = grid(5);
        let poly = |x: f64| 3.0 - 2.0 * x + 0.5 * x.powi(3) - 1.25 * x.powi(5);
        let node_vals: Vec<f64> = g.nodes().iter().map(|&s| poly(s)).collect();
        for &x in &[-1.0, -0.83, -0.2, 0.0, 0.41, 0.9, 1.0] {
            let p = interpolate(&g, &node_vals, x);
            assert!(
                (p - poly(x)).abs() < 1e-12,
                "poly reproduction failed at {x}: {p} vs {}",
                poly(x)
            );
        }
    }

    #[test]
    fn interpolation_converges_for_smooth_function() {
        // Error should decrease (fast) with degree for e^x.
        let f = |x: f64| x.exp();
        let sample: Vec<f64> = (0..101).map(|i| -1.0 + 0.02 * i as f64).collect();
        let mut prev_err = f64::INFINITY;
        for n in [2, 4, 8, 16] {
            let g = grid(n);
            let node_vals: Vec<f64> = g.nodes().iter().map(|&s| f(s)).collect();
            let err: f64 = sample
                .iter()
                .map(|&x| (interpolate(&g, &node_vals, x) - f(x)).abs())
                .fold(0.0, f64::max);
            assert!(err < prev_err, "degree {n} err {err} !< {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 1e-12, "degree-16 error too large: {prev_err}");
    }

    #[test]
    fn dim_terms_detects_exact_hits() {
        let g = grid(4);
        let mut t = vec![f64::NAN; g.len()];
        for j in 0..g.len() {
            assert_eq!(dim_terms(&g, g.node(j), &mut t), 1.0);
            for (k, &v) in t.iter().enumerate() {
                assert_eq!(v, if k == j { 1.0 } else { 0.0 }, "row {j}, term {k}");
            }
        }
        let x = 0.3333;
        let factor = dim_terms(&g, x, &mut t);
        assert!(factor.is_finite());
        let mut denom = 0.0;
        for (k, &v) in t.iter().enumerate() {
            assert_eq!(v, g.weight(k) / (x - g.node(k)));
            denom += v;
        }
        assert_eq!(factor, 1.0 / denom, "ascending-k sum");
    }

    #[test]
    fn degenerate_grid_exact_hit_takes_first_node() {
        // All nodes coincide; the scan must return the first index rather
        // than dividing by zero.
        let g = ChebyshevGrid1D::new(3, 1.0, 1.0);
        let mut t = vec![f64::NAN; g.len()];
        assert_eq!(dim_terms(&g, 1.0, &mut t), 1.0);
        assert_eq!(t, [1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "term row length mismatch")]
    fn dim_terms_rejects_a_short_row() {
        dim_terms(&grid(4), 0.1, &mut [0.0; 3]);
    }

    #[test]
    fn interpolate_at_node_returns_node_value() {
        let g = grid(3);
        let vals = [10.0, 20.0, 30.0, 40.0];
        for j in 0..g.len() {
            assert_eq!(interpolate(&g, &vals, g.node(j)), vals[j]);
        }
    }

    #[test]
    fn basis_values_near_node_are_stable() {
        // A point one ulp away from a node must not produce NaN/inf and
        // must stay close to the Kronecker limit.
        let g = grid(8);
        let s = g.node(3);
        let x = f64::from_bits(s.to_bits() + 1);
        let mut vals = vec![0.0; g.len()];
        lagrange_values(&g, x, &mut vals);
        for &v in &vals {
            assert!(v.is_finite());
        }
        assert!((vals[3] - 1.0).abs() < 1e-8, "L_3 = {}", vals[3]);
    }
}
