//! The hierarchical tree of source clusters and the set of target batches
//! (§2.4).
//!
//! Clusters use **minimal bounding boxes** (shrunk to their particles) and
//! are split at the **midpoint** of the box. A cluster normally splits
//! into eight children, but only the dimensions whose extent exceeds
//! `max_extent / √2` participate in the split — the paper's aspect-ratio
//! rule — so flat or elongated clusters split 2- or 4-ways instead.
//! Recursion stops at `N_L` particles per leaf.
//!
//! The tree is stored as a flat array (no pointer chasing — the layout
//! GPU-era treecodes such as Burtscher–Pingali advocate), and tree
//! construction reorders the particles so that every cluster owns a
//! contiguous index range. Node ids are pre-order — every node before
//! its descendants, siblings in ascending particle ranges — which is the
//! order the traversal meets clusters in, so an interaction list is
//! ascending, a subtree is a run of consecutive ids, and the leaves are
//! in target order.

pub mod batch;
mod build;

use crate::config::BltcParams;
use crate::geometry::{BoundingBox, Point3};
use crate::particles::ParticleSet;

pub(crate) use build::{build_nodes, RawNode};

/// One cluster in the source tree.
#[derive(Debug, Clone)]
pub struct ClusterNode {
    /// Minimal bounding box of the cluster's particles.
    pub bbox: BoundingBox,
    /// Box midpoint (the cluster center used by the MAC).
    pub center: Point3,
    /// Box half-diagonal (the cluster radius `r_C`).
    pub radius: f64,
    /// First particle index (into the tree's reordered particle set).
    pub start: usize,
    /// One-past-last particle index.
    pub end: usize,
    /// Indices of child nodes (up to 8).
    pub children: [u32; 8],
    /// Number of valid entries in `children`.
    pub num_children: u8,
    /// Depth in the tree (root = 0).
    pub level: u16,
}

impl ClusterNode {
    /// Number of particles in the cluster (`N_C` in the MAC).
    #[inline]
    pub fn num_particles(&self) -> usize {
        self.end - self.start
    }

    /// Whether the node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.num_children == 0
    }

    /// Iterator over the child node indices.
    #[inline]
    pub fn child_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.children[..self.num_children as usize]
            .iter()
            .map(|&c| c as usize)
    }
}

/// Summary statistics of a built tree (reported by the harnesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Total number of nodes.
    pub nodes: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Maximum depth.
    pub max_level: usize,
    /// Smallest leaf population.
    pub min_leaf: usize,
    /// Largest leaf population.
    pub max_leaf: usize,
}

/// The hierarchical tree of source clusters.
///
/// Owns a *reordered* copy of the source particles (each node's particles
/// are contiguous) plus the permutation mapping reordered index → original
/// index.
#[derive(Debug, Clone)]
pub struct SourceTree {
    nodes: Vec<ClusterNode>,
    particles: ParticleSet,
    perm: Vec<usize>,
}

impl SourceTree {
    /// Build the tree for `sources` with leaf capacity `params.leaf_cap`.
    ///
    /// # Panics
    /// On an empty set, or on a source with a NaN or infinite coordinate
    /// or charge: one such source would make every potential non-finite
    /// without a word. The message names the source's index.
    pub fn build(sources: &ParticleSet, params: &BltcParams) -> Self {
        assert!(!sources.is_empty(), "cannot build a tree over no sources");
        if let Some(j) = sources.q.iter().position(|q| !q.is_finite()) {
            panic!("source {j} has a non-finite charge {}", sources.q[j]);
        }
        let (nodes, particles, perm) = build_nodes(sources, params.leaf_cap, params.max_depth);
        let nodes = nodes
            .into_iter()
            .map(|r: RawNode| ClusterNode {
                bbox: r.bbox,
                center: r.bbox.midpoint(),
                radius: r.bbox.radius(),
                start: r.start,
                end: r.end,
                children: r.children,
                num_children: r.num_children,
                level: r.level,
            })
            .collect();
        Self {
            nodes,
            particles,
            perm,
        }
    }

    /// The tree of `sources` and the batches of `targets`. When the
    /// targets *are* the sources (the same coordinates and charges, bit
    /// for bit) and `N_B = N_L` — the paper's configuration (§2.4) — the
    /// batches are the tree's leaves, which
    /// [`TargetBatches::build`](batch::TargetBatches::build) would find by
    /// running the same split on the same input again; otherwise the
    /// targets are split on their own.
    pub fn build_with_batches(
        sources: &ParticleSet,
        targets: &ParticleSet,
        params: &BltcParams,
    ) -> (Self, batch::TargetBatches) {
        let tree = Self::build(sources, params);
        let batches = if params.batch_cap == params.leaf_cap && same_bits(targets, sources) {
            batch::TargetBatches::from_leaves(&tree)
        } else {
            batch::TargetBatches::build(targets, params)
        };
        (tree, batches)
    }

    /// The root node index (always 0).
    #[inline]
    pub fn root(&self) -> usize {
        0
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, idx: usize) -> &ClusterNode {
        &self.nodes[idx]
    }

    /// All nodes, in id order (pre-order).
    #[inline]
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The reordered particle set the node ranges refer to.
    #[inline]
    pub fn particles(&self) -> &ParticleSet {
        &self.particles
    }

    /// Permutation: `perm()[i]` is the original index of reordered
    /// particle `i`.
    #[inline]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Coordinate/charge slices of one node's particles.
    pub fn node_particles(&self, idx: usize) -> (&[f64], &[f64], &[f64], &[f64]) {
        let n = &self.nodes[idx];
        (
            &self.particles.x[n.start..n.end],
            &self.particles.y[n.start..n.end],
            &self.particles.z[n.start..n.end],
            &self.particles.q[n.start..n.end],
        )
    }

    /// Compute summary statistics.
    pub fn stats(&self) -> TreeStats {
        let mut s = TreeStats {
            nodes: self.nodes.len(),
            leaves: 0,
            max_level: 0,
            min_leaf: usize::MAX,
            max_leaf: 0,
        };
        for n in &self.nodes {
            s.max_level = s.max_level.max(n.level as usize);
            if n.is_leaf() {
                s.leaves += 1;
                s.min_leaf = s.min_leaf.min(n.num_particles());
                s.max_leaf = s.max_leaf.max(n.num_particles());
            }
        }
        if s.leaves == 0 {
            s.min_leaf = 0;
        }
        s
    }
}

/// Whether two sets hold the same particles in the same order, bit for
/// bit (`-0.0` and `+0.0` differ: they can bound a box differently).
fn same_bits(a: &ParticleSet, b: &ParticleSet) -> bool {
    let column = |u: &[f64], v: &[f64]| {
        u.len() == v.len() && u.iter().zip(v).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    std::ptr::eq(a, b)
        || (column(&a.x, &b.x) && column(&a.y, &b.y) && column(&a.z, &b.z) && column(&a.q, &b.q))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SourceTree {
        /// Indices of all leaf nodes.
        pub(crate) fn leaf_indices(&self) -> Vec<usize> {
            (0..self.nodes.len())
                .filter(|&i| self.nodes[i].is_leaf())
                .collect()
        }
    }

    fn params(leaf_cap: usize) -> BltcParams {
        BltcParams::new(0.7, 4, leaf_cap, leaf_cap)
    }

    #[test]
    fn root_covers_everything() {
        let ps = ParticleSet::random_cube(1000, 1);
        let tree = SourceTree::build(&ps, &params(50));
        let root = tree.node(tree.root());
        assert_eq!(root.start, 0);
        assert_eq!(root.end, 1000);
        assert_eq!(root.level, 0);
        let bb = ps.bounding_box().unwrap();
        assert_eq!(root.bbox, bb, "root box is the minimal bbox of all");
    }

    /// A NaN escapes every box comparison; before the door refused it,
    /// one NaN `x` made every potential of the cube NaN.
    #[test]
    #[should_panic(expected = "particle 17 has a non-finite coordinate (NaN, ")]
    fn a_nan_coordinate_is_refused_at_the_tree_door() {
        let mut ps = ParticleSet::random_cube(300, 2);
        ps.x[17] = f64::NAN;
        SourceTree::build(&ps, &params(50));
    }

    #[test]
    #[should_panic(expected = "source 42 has a non-finite charge inf")]
    fn an_infinite_charge_is_refused_at_the_tree_door() {
        let mut ps = ParticleSet::random_cube(300, 3);
        ps.q[42] = f64::INFINITY;
        SourceTree::build(&ps, &params(50));
    }

    #[test]
    fn leaves_partition_particles_exactly() {
        let ps = ParticleSet::random_cube(2311, 9);
        let tree = SourceTree::build(&ps, &params(64));
        let mut covered = vec![false; ps.len()];
        for &li in &tree.leaf_indices() {
            let n = tree.node(li);
            assert!(n.num_particles() > 0, "no empty leaves");
            for (i, slot) in (n.start..).zip(&mut covered[n.start..n.end]) {
                assert!(!*slot, "particle {i} in two leaves");
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "every particle in some leaf");
    }

    /// Node ids *are* a recursive walk's order — each node, then each
    /// child's subtree in `children` order — and so the batches, the
    /// leaves in id order, start in ascending order, on uniform, Plummer,
    /// coincident and flat clouds, whether the batches are split on their
    /// own or taken from the tree.
    #[test]
    fn node_ids_are_a_recursive_walks_order() {
        fn walk(tree: &SourceTree, i: usize, out: &mut Vec<usize>) {
            out.push(i);
            for c in tree.node(i).child_indices() {
                walk(tree, c, out);
            }
        }
        let n = 3000;
        let coincident = ParticleSet::new(vec![0.5; n], vec![0.5; n], vec![0.5; n], vec![1.0; n]);
        let mut flat = ParticleSet::random_cube(n, 11);
        flat.z.fill(0.25);
        let clouds = [
            ParticleSet::random_cube(n, 10),
            ParticleSet::plummer(n, 1.0, 8),
            coincident,
            flat,
        ];
        for (c, ps) in clouds.iter().enumerate() {
            let tree = SourceTree::build(ps, &params(40));
            let mut order = Vec::new();
            walk(&tree, tree.root(), &mut order);
            assert_eq!(
                order,
                (0..tree.num_nodes()).collect::<Vec<_>>(),
                "cloud {c}"
            );
            for batches in [
                batch::TargetBatches::build(ps, &params(40)),
                batch::TargetBatches::from_leaves(&tree),
            ] {
                let starts: Vec<usize> = batches.batches().iter().map(|b| b.start).collect();
                assert!(starts.is_sorted(), "cloud {c}: {starts:?}");
                assert_eq!(starts[0], 0, "cloud {c}");
            }
        }
    }

    #[test]
    fn leaf_capacity_respected() {
        let ps = ParticleSet::random_cube(5000, 2);
        let cap = 100;
        let tree = SourceTree::build(&ps, &params(cap));
        for &li in &tree.leaf_indices() {
            assert!(tree.node(li).num_particles() <= cap);
        }
    }

    #[test]
    fn children_cover_parent_contiguously() {
        let ps = ParticleSet::random_cube(3000, 3);
        let tree = SourceTree::build(&ps, &params(80));
        for (i, n) in tree.nodes().iter().enumerate() {
            if n.is_leaf() {
                continue;
            }
            let kids: Vec<usize> = n.child_indices().collect();
            assert!(
                kids.len() >= 2,
                "internal node {i} has {} child",
                kids.len()
            );
            // Children ranges tile the parent range in order.
            let mut cursor = n.start;
            for &k in &kids {
                let c = tree.node(k);
                assert_eq!(c.start, cursor, "gap before child {k} of node {i}");
                assert!(c.end > c.start, "empty child {k}");
                assert_eq!(c.level, n.level + 1);
                cursor = c.end;
            }
            assert_eq!(cursor, n.end, "children do not tile node {i}");
        }
    }

    #[test]
    fn node_boxes_are_minimal() {
        let ps = ParticleSet::random_cube(1500, 4);
        let tree = SourceTree::build(&ps, &params(60));
        for idx in 0..tree.num_nodes() {
            let n = tree.node(idx);
            let (xs, ys, zs, _) = tree.node_particles(idx);
            let bb = BoundingBox::from_points(xs, ys, zs).unwrap();
            assert_eq!(n.bbox, bb, "node {idx} box not minimal");
        }
    }

    #[test]
    fn permutation_is_bijective_and_consistent() {
        let ps = ParticleSet::random_cube(777, 5);
        let tree = SourceTree::build(&ps, &params(32));
        let mut seen = vec![false; ps.len()];
        for (i, &orig) in tree.perm().iter().enumerate() {
            assert!(!seen[orig]);
            seen[orig] = true;
            assert_eq!(tree.particles().position(i), ps.position(orig));
            assert_eq!(tree.particles().q[i], ps.q[orig]);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn coincident_particles_terminate() {
        // 100 copies of the same point: un-splittable, must become a
        // single (over-capacity) leaf rather than recursing forever.
        let n = 100;
        let ps = ParticleSet::new(vec![0.5; n], vec![0.5; n], vec![0.5; n], vec![1.0; n]);
        let tree = SourceTree::build(&ps, &params(10));
        assert_eq!(tree.num_nodes(), 1);
        let root = tree.node(0);
        assert!(root.is_leaf());
        assert_eq!(root.num_particles(), n);
        assert_eq!(root.radius, 0.0);
    }

    #[test]
    fn collinear_particles_split_two_ways() {
        // Particles on the x-axis: only x is splittable, every internal
        // node must have exactly 2 children.
        let n = 512;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
        let ps = ParticleSet::new(xs, vec![0.0; n], vec![0.0; n], vec![1.0; n]);
        let tree = SourceTree::build(&ps, &params(16));
        assert!(tree.num_nodes() > 1);
        for node in tree.nodes() {
            if !node.is_leaf() {
                assert_eq!(node.num_children, 2, "collinear split must be binary");
            }
        }
    }

    #[test]
    fn planar_particles_split_at_most_four_ways() {
        let n = 900;
        let mut ps = ParticleSet::with_capacity(n);
        for i in 0..30 {
            for j in 0..30 {
                ps.push(Point3::new(i as f64 / 29.0, j as f64 / 29.0, 0.25), 1.0);
            }
        }
        let tree = SourceTree::build(&ps, &params(16));
        for node in tree.nodes() {
            if !node.is_leaf() {
                assert!(node.num_children <= 4, "planar split must be <= 4-way");
            }
        }
    }

    #[test]
    fn cube_interior_nodes_split_eight_ways_near_root() {
        let ps = ParticleSet::random_cube(8000, 6);
        let tree = SourceTree::build(&ps, &params(100));
        // The root of a dense uniform cube is near-isotropic: 8 children.
        assert_eq!(tree.node(0).num_children, 8);
    }

    #[test]
    fn stats_are_consistent() {
        let ps = ParticleSet::random_cube(4000, 7);
        let tree = SourceTree::build(&ps, &params(128));
        let st = tree.stats();
        assert_eq!(st.nodes, tree.num_nodes());
        assert_eq!(st.leaves, tree.leaf_indices().len());
        assert!(st.max_leaf <= 128);
        assert!(st.min_leaf >= 1);
        let leaf_total: usize = tree
            .leaf_indices()
            .iter()
            .map(|&i| tree.node(i).num_particles())
            .sum();
        assert_eq!(leaf_total, 4000);
    }

    #[test]
    #[should_panic(expected = "no sources")]
    fn empty_input_panics() {
        let _ = SourceTree::build(&ParticleSet::default(), &params(10));
    }

    #[test]
    fn single_particle_tree() {
        let mut ps = ParticleSet::default();
        ps.push(Point3::new(1.0, 2.0, 3.0), -1.0);
        let tree = SourceTree::build(&ps, &params(10));
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.node(0).radius, 0.0);
        assert_eq!(tree.node(0).center, Point3::new(1.0, 2.0, 3.0));
    }
}
