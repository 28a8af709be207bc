//! Treecode parameters (the paper's `θ, n, N_L, N_B`).

/// User-facing treecode parameters.
///
/// - `theta` — the MAC opening parameter `θ ∈ (0, 1)`: smaller is more
///   accurate and more expensive (the paper sweeps 0.5 / 0.7 / 0.9 and
///   uses 0.8 for the scaling studies).
/// - `degree` — interpolation degree `n ≥ 1`; a cluster is represented by
///   `(n+1)³` Chebyshev proxy points (paper sweeps 1..13, uses 8).
/// - `leaf_cap` — `N_L`, maximum source particles per leaf cluster.
/// - `batch_cap` — `N_B`, maximum target particles per batch. The paper
///   sets `N_B = N_L` (2000 on the Titan V runs, 4000 on Comet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BltcParams {
    /// MAC opening parameter θ.
    pub theta: f64,
    /// Interpolation degree n.
    pub degree: usize,
    /// Leaf cluster capacity N_L.
    pub leaf_cap: usize,
    /// Target batch capacity N_B.
    pub batch_cap: usize,
    /// Safety limit on tree depth (guards degenerate inputs such as all
    /// particles coincident; a node at this depth becomes a leaf even if
    /// over capacity).
    pub max_depth: usize,
}

impl BltcParams {
    /// Construct and validate parameters.
    ///
    /// # Panics
    ///
    /// With the message of [`BltcParams::validate`] on out-of-range
    /// parameters.
    pub fn new(theta: f64, degree: usize, leaf_cap: usize, batch_cap: usize) -> Self {
        let p = Self {
            theta,
            degree,
            leaf_cap,
            batch_cap,
            max_depth: 64,
        };
        p.validate().unwrap_or_else(|e| panic!("{e}"));
        p
    }

    /// The configuration of the paper's scaling studies (Figs. 5–6):
    /// `θ = 0.8, n = 8, N_B = N_L = 4000`, yielding 5–6 digit accuracy.
    pub fn scaling() -> Self {
        Self::new(0.8, 8, 4000, 4000)
    }

    /// Number of proxy points per cluster, `(n+1)³` — the quantity the
    /// second MAC condition compares against the cluster population.
    #[inline]
    pub fn proxy_count(&self) -> usize {
        let m = self.degree + 1;
        m * m * m
    }

    /// The treecode's five rules, the only statement of them: `θ` in
    /// `(0, 1)`, and `degree`, `leaf_cap`, `batch_cap` and `max_depth`
    /// each at least 1. The error names the first field that breaks
    /// one. The treecode doors run this once per rank per epoch, so the
    /// message is built only on failure.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.theta > 0.0 && self.theta < 1.0 && self.theta.is_finite()) {
            return Err(format!("theta must lie in (0, 1), got {}", self.theta));
        }
        for (field, v) in [
            ("degree", self.degree),
            ("leaf_cap", self.leaf_cap),
            ("batch_cap", self.batch_cap),
            ("max_depth", self.max_depth),
        ] {
            if v < 1 {
                return Err(format!("{field} must be >= 1"));
            }
        }
        Ok(())
    }
}

impl Default for BltcParams {
    /// A sensible default for laptop-scale problems: `θ=0.7, n=6`,
    /// `N_L = N_B = 200`.
    fn default() -> Self {
        Self::new(0.7, 6, 200, 200)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let sc = BltcParams::scaling();
        assert_eq!(
            (sc.theta, sc.degree, sc.leaf_cap, sc.batch_cap),
            (0.8, 8, 4000, 4000)
        );
        assert_eq!(sc.proxy_count(), 729);
    }

    #[test]
    fn proxy_count_is_cubed() {
        assert_eq!(BltcParams::new(0.5, 1, 10, 10).proxy_count(), 8);
        assert_eq!(BltcParams::new(0.5, 3, 10, 10).proxy_count(), 64);
    }

    #[test]
    #[should_panic(expected = "theta must lie in (0, 1)")]
    fn theta_one_rejected() {
        let _ = BltcParams::new(1.0, 4, 100, 100);
    }

    #[test]
    #[should_panic(expected = "theta must lie in (0, 1)")]
    fn theta_zero_rejected() {
        let _ = BltcParams::new(0.0, 4, 100, 100);
    }

    #[test]
    #[should_panic(expected = "degree must be >= 1")]
    fn degree_zero_rejected() {
        let _ = BltcParams::new(0.5, 0, 100, 100);
    }
}
