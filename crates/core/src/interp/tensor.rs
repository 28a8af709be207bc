//! The `(n+1)^3` tensor-product Chebyshev grid over a cluster bounding box
//! (Eq. 8). Proxy points are indexed by `(k1, k2, k3)` with `k3` fastest,
//! i.e. linear index `(k1·(n+1) + k2)·(n+1) + k3`; the same layout is used
//! for the modified charge array so GPU kernels can address both with one
//! index.

use crate::geometry::{BoundingBox, Point3};

use super::chebyshev::ChebyshevGrid1D;

/// Tensor product of three 1D Chebyshev grids spanning a box.
///
/// Besides the three 1D grids it stores the `(n+1)³` proxy coordinates
/// themselves, flat and in linear order, because every evaluation tile
/// reads them as the source slices of
/// [`TileOp::tile`](crate::kernel::TileOp::tile):
/// `+3·(n+1)³` `f64` per tree node (343 points at `n = 6` is 8 KiB),
/// paid once at construction instead of two divisions and a modulo per
/// target–proxy pair.
#[derive(Debug, Clone)]
pub struct TensorGrid {
    degree: usize,
    dims: [ChebyshevGrid1D; 3],
    px: Vec<f64>,
    py: Vec<f64>,
    pz: Vec<f64>,
}

impl TensorGrid {
    /// Build the degree-`n` tensor grid over `bbox` (one 1D grid per axis,
    /// each spanning that axis' interval of the box).
    pub fn new(degree: usize, bbox: &BoundingBox) -> Self {
        let dims = [
            ChebyshevGrid1D::new(degree, bbox.min.x, bbox.max.x),
            ChebyshevGrid1D::new(degree, bbox.min.y, bbox.max.y),
            ChebyshevGrid1D::new(degree, bbox.min.z, bbox.max.z),
        ];
        let m = degree + 1;
        let mut px = Vec::with_capacity(m * m * m);
        let mut py = Vec::with_capacity(m * m * m);
        let mut pz = Vec::with_capacity(m * m * m);
        for k1 in 0..m {
            for k2 in 0..m {
                for k3 in 0..m {
                    px.push(dims[0].node(k1));
                    py.push(dims[1].node(k2));
                    pz.push(dims[2].node(k3));
                }
            }
        }
        Self {
            degree,
            dims,
            px,
            py,
            pz,
        }
    }

    /// Interpolation degree `n`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Nodes per dimension, `n + 1`.
    #[inline]
    pub fn nodes_per_dim(&self) -> usize {
        self.degree + 1
    }

    /// Total number of proxy points, `(n+1)^3`.
    #[inline]
    pub fn len(&self) -> usize {
        let m = self.nodes_per_dim();
        m * m * m
    }

    /// Always false.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The 1D grid along dimension `dim` (0 → x, 1 → y, 2 → z).
    #[inline]
    pub fn dim(&self, dim: usize) -> &ChebyshevGrid1D {
        &self.dims[dim]
    }

    /// Proxy point for multi-index `(k1, k2, k3)`.
    #[inline]
    pub fn point(&self, k1: usize, k2: usize, k3: usize) -> Point3 {
        Point3::new(
            self.dims[0].node(k1),
            self.dims[1].node(k2),
            self.dims[2].node(k3),
        )
    }

    /// Proxy point for a linear index (`k3` fastest).
    #[inline]
    pub fn point_linear(&self, idx: usize) -> Point3 {
        let (k1, k2, k3) = self.unflatten(idx);
        self.point(k1, k2, k3)
    }

    /// All proxy coordinates as flat `(x, y, z)` slices in linear order
    /// (`k3` fastest) — the layout of the modified charges and of the
    /// distributed `q̂` window; `proxies().0[k] == point_linear(k).x` bit
    /// for bit.
    #[inline]
    pub fn proxies(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.px, &self.py, &self.pz)
    }

    /// Linear index of a multi-index.
    #[inline]
    pub fn flatten(&self, k1: usize, k2: usize, k3: usize) -> usize {
        let m = self.nodes_per_dim();
        debug_assert!(k1 < m && k2 < m && k3 < m);
        (k1 * m + k2) * m + k3
    }

    /// Multi-index of a linear index.
    #[inline]
    pub fn unflatten(&self, idx: usize) -> (usize, usize, usize) {
        let m = self.nodes_per_dim();
        debug_assert!(idx < self.len());
        (idx / (m * m), (idx / m) % m, idx % m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TensorGrid {
        /// Materialize all proxy points in linear order (for tests and
        /// diagnostics; evaluation reads [`TensorGrid::proxies`]).
        fn points_flat(&self) -> Vec<Point3> {
            (0..self.len())
                .map(|k| Point3::new(self.px[k], self.py[k], self.pz[k]))
                .collect()
        }
    }

    fn unit_box() -> BoundingBox {
        BoundingBox::new(Point3::new(-1.0, -1.0, -1.0), Point3::new(1.0, 1.0, 1.0))
    }

    #[test]
    fn sizes() {
        let g = TensorGrid::new(4, &unit_box());
        assert_eq!(g.nodes_per_dim(), 5);
        assert_eq!(g.len(), 125);
        assert_eq!(g.points_flat().len(), 125);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let g = TensorGrid::new(3, &unit_box());
        for idx in 0..g.len() {
            let (k1, k2, k3) = g.unflatten(idx);
            assert_eq!(g.flatten(k1, k2, k3), idx);
        }
    }

    #[test]
    fn points_lie_in_box_and_hit_corners() {
        let bbox = BoundingBox::new(Point3::new(0.0, -2.0, 1.0), Point3::new(1.0, 3.0, 4.0));
        let g = TensorGrid::new(6, &bbox);
        for p in g.points_flat() {
            assert!(bbox.contains(&p), "{p:?} outside {bbox:?}");
        }
        // (k=0,0,0) is the (max,max,max) corner; (n,n,n) the min corner —
        // pinned exactly by the 1D grids.
        assert_eq!(g.point(0, 0, 0), bbox.max);
        assert_eq!(g.point(6, 6, 6), bbox.min);
    }

    #[test]
    fn anisotropic_box_respects_per_axis_intervals() {
        let bbox = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(4.0, 1.0, 0.25));
        let g = TensorGrid::new(2, &bbox);
        assert_eq!(g.dim(0).node(0), 4.0);
        assert_eq!(g.dim(1).node(0), 1.0);
        assert_eq!(g.dim(2).node(0), 0.25);
        assert_eq!(g.dim(0).node(2), 0.0);
    }

    #[test]
    fn degenerate_axis_collapses() {
        let bbox = BoundingBox::new(Point3::new(0.0, 0.0, 5.0), Point3::new(1.0, 1.0, 5.0));
        let g = TensorGrid::new(3, &bbox);
        for p in g.points_flat() {
            assert_eq!(p.z, 5.0);
        }
    }

    #[test]
    fn flat_proxies_equal_point_linear_bitwise() {
        let boxes = [
            unit_box(),
            BoundingBox::new(Point3::new(0.1, -2.0, 1.0), Point3::new(0.7, 3.5, 4.25)),
            // Zero-width axis: every proxy of that axis is the same value.
            BoundingBox::new(Point3::new(0.0, 0.3, 5.0), Point3::new(1.0, 0.3, 6.0)),
        ];
        for bbox in &boxes {
            for degree in 1..=8 {
                let g = TensorGrid::new(degree, bbox);
                let (px, py, pz) = g.proxies();
                assert_eq!((px.len(), py.len(), pz.len()), (g.len(), g.len(), g.len()));
                for k in 0..g.len() {
                    let p = g.point_linear(k);
                    assert_eq!(px[k].to_bits(), p.x.to_bits(), "x, degree {degree}, k {k}");
                    assert_eq!(py[k].to_bits(), p.y.to_bits(), "y, degree {degree}, k {k}");
                    assert_eq!(pz[k].to_bits(), p.z.to_bits(), "z, degree {degree}, k {k}");
                }
            }
        }
    }

    #[test]
    fn linear_order_matches_nested_loops() {
        let g = TensorGrid::new(2, &unit_box());
        let pts = g.points_flat();
        let mut idx = 0;
        for k1 in 0..3 {
            for k2 in 0..3 {
                for k3 in 0..3 {
                    assert_eq!(pts[idx], g.point(k1, k2, k3));
                    assert_eq!(pts[idx], g.point_linear(idx));
                    idx += 1;
                }
            }
        }
    }
}
