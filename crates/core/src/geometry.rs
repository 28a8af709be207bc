//! Points and axis-aligned bounding boxes.
//!
//! The treecode works with *minimal* bounding boxes (shrunk to the
//! particles they contain, §2.3 of the paper), so box construction from a
//! coordinate set is the central operation here. A box knows its midpoint
//! and its radius (half-diagonal), which feed the MAC of Eq. 13.

/// A point (or displacement) in three-dimensional space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Point3 {
    /// Construct a point from its three coordinates.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Coordinate access by dimension index (0 → x, 1 → y, 2 → z).
    #[inline]
    pub fn coord(&self, dim: usize) -> f64 {
        match dim {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("dimension index out of range: {dim}"),
        }
    }

    /// Mutable coordinate access by dimension index.
    #[inline]
    pub fn coord_mut(&mut self, dim: usize) -> &mut f64 {
        match dim {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("dimension index out of range: {dim}"),
        }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Euclidean norm of this point interpreted as a vector.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }
}

/// An axis-aligned bounding box `[min, max]` in 3D.
///
/// Degenerate boxes (zero extent in one or more dimensions, e.g. all
/// particles coincident or coplanar) are legal: their radius shrinks
/// accordingly and splitting rules guard against infinite recursion at the
/// tree level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    pub min: Point3,
    pub max: Point3,
}

impl BoundingBox {
    /// Build a box from explicit corners. Panics if `min > max` in any
    /// dimension or if any coordinate is non-finite.
    pub fn new(min: Point3, max: Point3) -> Self {
        for d in 0..3 {
            let (a, b) = (min.coord(d), max.coord(d));
            assert!(a.is_finite() && b.is_finite(), "non-finite box corner");
            assert!(a <= b, "inverted bounding box in dimension {d}: {a} > {b}");
        }
        Self { min, max }
    }

    /// The *minimal* bounding box of a coordinate triple-slice set.
    ///
    /// Returns `None` for an empty set. The treecode uses minimal boxes for
    /// clusters, which guarantees that some particle coordinates coincide
    /// with Chebyshev endpoint coordinates (handled by the removable-
    /// singularity logic in [`crate::interp::barycentric`]).
    pub fn from_points(xs: &[f64], ys: &[f64], zs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        debug_assert!(xs.len() == ys.len() && ys.len() == zs.len());
        let mut min = Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut max = Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for i in 0..xs.len() {
            min.x = min.x.min(xs[i]);
            min.y = min.y.min(ys[i]);
            min.z = min.z.min(zs[i]);
            max.x = max.x.max(xs[i]);
            max.y = max.y.max(ys[i]);
            max.z = max.z.max(zs[i]);
        }
        Some(Self { min, max })
    }

    /// Geometric center of the box.
    #[inline]
    pub fn midpoint(&self) -> Point3 {
        Point3::new(
            0.5 * (self.min.x + self.max.x),
            0.5 * (self.min.y + self.max.y),
            0.5 * (self.min.z + self.max.z),
        )
    }

    /// Half-diagonal length; the cluster/batch radius used in the MAC.
    #[inline]
    pub fn radius(&self) -> f64 {
        0.5 * self.min.dist(&self.max)
    }

    /// Edge length along one dimension.
    #[inline]
    pub fn extent(&self, dim: usize) -> f64 {
        self.max.coord(dim) - self.min.coord(dim)
    }

    /// The three edge lengths.
    #[inline]
    pub fn extents(&self) -> [f64; 3] {
        [self.extent(0), self.extent(1), self.extent(2)]
    }

    /// Ratio of longest to shortest edge. Degenerate boxes (a zero edge)
    /// yield `f64::INFINITY`; a point box (all edges zero) yields `1.0`.
    pub fn aspect_ratio(&self) -> f64 {
        let e = self.extents();
        let max = e[0].max(e[1]).max(e[2]);
        let min = e[0].min(e[1]).min(e[2]);
        if max == 0.0 {
            1.0
        } else if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// Whether the point lies inside the closed box.
    pub fn contains(&self, p: &Point3) -> bool {
        (0..3).all(|d| p.coord(d) >= self.min.coord(d) && p.coord(d) <= self.max.coord(d))
    }

    /// Interval `[a, b]` of the box along one dimension.
    #[inline]
    pub fn interval(&self, dim: usize) -> (f64, f64) {
        (self.min.coord(dim), self.max.coord(dim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_coord_roundtrip() {
        let mut p = Point3::new(1.0, 2.0, 3.0);
        assert_eq!(p.coord(0), 1.0);
        assert_eq!(p.coord(1), 2.0);
        assert_eq!(p.coord(2), 3.0);
        *p.coord_mut(1) = 5.0;
        assert_eq!(p.y, 5.0);
    }

    #[test]
    #[should_panic(expected = "dimension index out of range")]
    fn point_coord_out_of_range_panics() {
        let p = Point3::new(0.0, 0.0, 0.0);
        let _ = p.coord(3);
    }

    #[test]
    fn distances() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(3.0, 4.0, 0.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(b.norm(), 5.0);
    }

    #[test]
    fn from_points_minimal_box() {
        let xs = [0.0, 1.0, -2.0];
        let ys = [5.0, -1.0, 0.0];
        let zs = [2.0, 2.0, 2.0];
        let bb = BoundingBox::from_points(&xs, &ys, &zs).unwrap();
        assert_eq!(bb.min, Point3::new(-2.0, -1.0, 2.0));
        assert_eq!(bb.max, Point3::new(1.0, 5.0, 2.0));
        // z is degenerate.
        assert_eq!(bb.extent(2), 0.0);
        assert_eq!(bb.aspect_ratio(), f64::INFINITY);
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(BoundingBox::from_points(&[], &[], &[]).is_none());
    }

    #[test]
    fn midpoint_and_radius() {
        let bb = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(2.0, 2.0, 1.0));
        assert_eq!(bb.midpoint(), Point3::new(1.0, 1.0, 0.5));
        assert!((bb.radius() - 0.5 * 3.0).abs() < 1e-15);
    }

    #[test]
    fn point_box_properties() {
        let p = Point3::new(1.0, 1.0, 1.0);
        let bb = BoundingBox::new(p, p);
        assert_eq!(bb.radius(), 0.0);
        assert_eq!(bb.aspect_ratio(), 1.0);
        assert!(bb.contains(&p));
    }

    #[test]
    #[should_panic(expected = "inverted bounding box")]
    fn inverted_box_panics() {
        let _ = BoundingBox::new(Point3::new(1.0, 0.0, 0.0), Point3::new(0.0, 1.0, 1.0));
    }

    #[test]
    fn contains_boundary() {
        let bb = BoundingBox::new(Point3::new(-1.0, -1.0, -1.0), Point3::new(1.0, 1.0, 1.0));
        assert!(bb.contains(&Point3::new(1.0, -1.0, 0.0)));
        assert!(!bb.contains(&Point3::new(1.0 + 1e-12, 0.0, 0.0)));
    }
}
