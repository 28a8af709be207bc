//! Target batches (§2.4, §3.2).
//!
//! Targets are partitioned by the same midpoint routine as the sources;
//! the *leaves* of that partition are the batches. Batching is what gives
//! the GPU its outer level of parallelism, and applying the MAC to a
//! whole batch (instead of per-target) is what avoids thread divergence.
//! When targets and sources are the same set and `N_B = N_L`, the batches
//! coincide with the source-tree leaves — the configuration used in all
//! of the paper's experiments.

use crate::config::BltcParams;
use crate::geometry::{BoundingBox, Point3};
use crate::particles::ParticleSet;

use super::build::build_nodes;

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

    /// The batches (leaves of the target partition), in index order.
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
