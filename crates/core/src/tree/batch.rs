//! Target batches (§2.4, §3.2).
//!
//! Targets are partitioned by the same midpoint routine as the sources;
//! the *leaves* of that partition are the batches. Batching is what gives
//! the GPU its outer level of parallelism, and applying the MAC to a
//! whole batch (instead of per-target) is what avoids thread divergence.
//! When targets and sources are the same set and `N_B = N_L`, the batches
//! coincide with the source-tree leaves — the configuration used in all
//! of the paper's experiments — and
//! [`SourceTree::build_with_batches`] takes them from the tree instead of
//! splitting the same particles twice.

use crate::config::BltcParams;
use crate::geometry::{BoundingBox, Point3};
use crate::particles::ParticleSet;

use super::build::build_nodes;
use super::SourceTree;

/// One batch of geometrically localized target particles.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Minimal bounding box of the batch's targets.
    pub bbox: BoundingBox,
    /// Box midpoint (batch center).
    pub center: Point3,
    /// Box half-diagonal (batch radius `r_B`).
    pub radius: f64,
    /// First target index (into the reordered target set).
    pub start: usize,
    /// One-past-last target index.
    pub end: usize,
}

impl Batch {
    /// Number of targets in the batch (`N_B` bound).
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.end - self.start
    }
}

/// The full set of target batches plus the reordered targets they index.
#[derive(Debug, Clone)]
pub struct TargetBatches {
    batches: Vec<Batch>,
    particles: ParticleSet,
    perm: Vec<usize>,
}

impl TargetBatches {
    /// Partition `targets` into batches of at most `params.batch_cap`.
    pub fn build(targets: &ParticleSet, params: &BltcParams) -> Self {
        assert!(!targets.is_empty(), "cannot batch an empty target set");
        let (nodes, particles, perm) = build_nodes(targets, params.batch_cap, params.max_depth);
        let batches = nodes
            .iter()
            .filter(|n| n.num_children == 0)
            .map(|n| Batch {
                bbox: n.bbox,
                center: n.bbox.midpoint(),
                radius: n.bbox.radius(),
                start: n.start,
                end: n.end,
            })
            .collect();
        Self {
            batches,
            particles,
            perm,
        }
    }

    /// The leaves of `tree` as batches, in id order — pre-order, so
    /// target order — over the tree's reordered particles and
    /// permutation: field for field what [`TargetBatches::build`] returns
    /// for the tree's own sources at `N_B = N_L`, without the second
    /// split.
    pub(crate) fn from_leaves(tree: &SourceTree) -> Self {
        let batches = tree
            .nodes()
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| Batch {
                bbox: n.bbox,
                center: n.center,
                radius: n.radius,
                start: n.start,
                end: n.end,
            })
            .collect();
        Self {
            batches,
            particles: tree.particles().clone(),
            perm: tree.perm().to_vec(),
        }
    }

    /// The batches (leaves of the target partition), in index order,
    /// which is target order: their ranges ascend and tile the targets.
    #[inline]
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// Number of batches.
    #[inline]
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether there are no batches (never true after `build`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The reordered target set that batch ranges index into.
    #[inline]
    pub fn particles(&self) -> &ParticleSet {
        &self.particles
    }

    /// Permutation: `perm()[i]` is the original index of reordered target `i`.
    #[inline]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Scatter a potential vector computed in reordered-target order back
    /// to the original target order.
    pub fn scatter_to_original(&self, reordered: &[f64]) -> Vec<f64> {
        assert_eq!(reordered.len(), self.perm.len());
        let mut out = vec![0.0; reordered.len()];
        for (i, &orig) in self.perm.iter().enumerate() {
            out[orig] = reordered[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(cap: usize) -> BltcParams {
        BltcParams::new(0.7, 4, cap, cap)
    }

    #[test]
    fn batches_tile_targets() {
        let ps = ParticleSet::random_cube(3000, 20);
        let tb = TargetBatches::build(&ps, &params(100));
        let mut covered = vec![false; ps.len()];
        let mut cursor_ok = true;
        for b in tb.batches() {
            assert!(b.num_targets() >= 1 && b.num_targets() <= 100);
            for slot in &mut covered[b.start..b.end] {
                if *slot {
                    cursor_ok = false;
                }
                *slot = true;
            }
        }
        assert!(cursor_ok, "batches overlap");
        assert!(covered.iter().all(|&c| c), "batches do not cover");
    }

    #[test]
    fn batch_boxes_contain_their_targets() {
        let ps = ParticleSet::random_cube(1000, 21);
        let tb = TargetBatches::build(&ps, &params(64));
        for b in tb.batches() {
            for i in b.start..b.end {
                assert!(b.bbox.contains(&tb.particles().position(i)));
            }
        }
    }

    #[test]
    fn scatter_roundtrip() {
        let ps = ParticleSet::random_cube(500, 22);
        let tb = TargetBatches::build(&ps, &params(50));
        // Potential = original index, written in reordered order.
        let reordered: Vec<f64> = tb.perm().iter().map(|&o| o as f64).collect();
        let original = tb.scatter_to_original(&reordered);
        for (i, &v) in original.iter().enumerate() {
            assert_eq!(v, i as f64);
        }
    }

    #[test]
    fn single_batch_when_under_cap() {
        let ps = ParticleSet::random_cube(50, 23);
        let tb = TargetBatches::build(&ps, &params(100));
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.batches()[0].num_targets(), 50);
    }

    /// Every field of two batch sets, floats bit for bit.
    fn assert_same_batches(a: &TargetBatches, b: &TargetBatches, what: &str) {
        let f = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let corners = |b: &Batch| [b.bbox.min, b.bbox.max, b.center].map(|p| [p.x, p.y, p.z]);
        assert_eq!(a.len(), b.len(), "{what}: batch count");
        for (i, (x, y)) in a.batches().iter().zip(b.batches()).enumerate() {
            assert_eq!(
                (x.start, x.end),
                (y.start, y.end),
                "{what}: batch {i} range"
            );
            assert_eq!(
                f(corners(x).as_flattened()),
                f(corners(y).as_flattened()),
                "{what}: batch {i} box"
            );
            assert_eq!(
                x.radius.to_bits(),
                y.radius.to_bits(),
                "{what}: batch {i} radius"
            );
        }
        let (p, q) = (a.particles(), b.particles());
        for (u, v) in [(&p.x, &q.x), (&p.y, &q.y), (&p.z, &q.z), (&p.q, &q.q)] {
            assert_eq!(f(u), f(v), "{what}: reordered particles");
        }
        assert_eq!(a.perm(), b.perm(), "{what}: permutation");
    }

    /// The leaf-built batches of `build_with_batches` equal a second
    /// split field for field — on uniform, clustered and degenerate
    /// inputs, and at a depth cap that leaves over-full leaves — and a
    /// target set that differs from the sources, if only by the sign of
    /// one zero, or a batch cap other than the leaf cap, is split on its
    /// own.
    #[test]
    fn leaf_built_batches_equal_a_second_split() {
        let coincident =
            ParticleSet::new(vec![0.5; 90], vec![0.5; 90], vec![0.5; 90], vec![1.0; 90]);
        let sets = [
            ParticleSet::random_cube(3000, 25),
            ParticleSet::plummer(2500, 1.0, 26),
            ParticleSet::random_cube(1, 27),
            coincident,
        ];
        for (s, ps) in sets.iter().enumerate() {
            for (cap, depth) in [(50, 64), (128, 64), (20, 3)] {
                let p = BltcParams {
                    max_depth: depth,
                    ..params(cap)
                };
                let copy = ps.clone();
                for targets in [ps, &copy] {
                    let (tree, leaves) = SourceTree::build_with_batches(ps, targets, &p);
                    let split = TargetBatches::build(targets, &p);
                    assert_same_batches(
                        &leaves,
                        &split,
                        &format!("set {s}, cap {cap}, depth {depth}"),
                    );
                    assert_eq!(leaves.len(), tree.leaf_indices().len());
                }
            }
        }
        // Not the paper's configuration: each set is split on its own.
        let ps = ParticleSet::random_cube(2000, 28);
        let p = BltcParams::new(0.7, 4, 64, 32);
        let (_, batches) = SourceTree::build_with_batches(&ps, &ps, &p);
        assert_same_batches(&batches, &TargetBatches::build(&ps, &p), "N_B != N_L");
        assert!(batches.len() > SourceTree::build(&ps, &p).leaf_indices().len());
        let mut signed = ps.clone();
        signed.x[7] = -0.0;
        let mut unsigned = signed.clone();
        unsigned.x[7] = 0.0;
        let p = params(64);
        let (_, batches) = SourceTree::build_with_batches(&unsigned, &signed, &p);
        assert_same_batches(
            &batches,
            &TargetBatches::build(&signed, &p),
            "-0.0 against +0.0",
        );
    }

    #[test]
    fn batches_match_source_leaves_when_same_set_and_caps() {
        // §2.4: with targets == sources and N_B == N_L, batches are the
        // leaves of the source tree.
        use crate::tree::SourceTree;
        let ps = ParticleSet::random_cube(2000, 24);
        let p = params(128);
        let tree = SourceTree::build(&ps, &p);
        let tb = TargetBatches::build(&ps, &p);
        let leaves = tree.leaf_indices();
        assert_eq!(tb.len(), leaves.len());
        for (b, &li) in tb.batches().iter().zip(&leaves) {
            let leaf = tree.node(li);
            assert_eq!((b.start, b.end), (leaf.start, leaf.end));
            assert_eq!(b.bbox, leaf.bbox);
        }
    }
}
