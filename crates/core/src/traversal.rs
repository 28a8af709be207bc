//! Dual traversal: every target batch walks the source tree once,
//! producing its **interaction lists** — the set of clusters it
//! approximates and the set of clusters it interacts with directly.
//!
//! Materializing the lists (instead of fusing traversal with evaluation)
//! is what lets the CPU queue GPU kernel launches asynchronously (§3.2)
//! and lets the distributed code run the same traversal against *remote*
//! tree skeletons during LET construction (§3.1): the traversal walks a
//! node array ([`InteractionLists::build_on`]), a tree's own or one
//! rebuilt from the wire.

use rayon::prelude::*;

use crate::config::BltcParams;
use crate::mac::{Mac, MacDecision};
use crate::tree::{batch::TargetBatches, ClusterNode, SourceTree};

/// How a batch interacts with one cluster on its list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionKind {
    /// Barycentric approximation against the cluster's proxy points.
    Approx,
    /// Direct summation against the cluster's source particles.
    Direct,
}

/// Per-batch interaction lists.
#[derive(Debug, Clone, Default)]
pub struct BatchLists {
    /// Clusters approximated via Eq. 11 (tree node indices).
    pub approx: Vec<u32>,
    /// Clusters computed exactly via Eq. 9 (tree node indices).
    pub direct: Vec<u32>,
}

/// Interaction lists for every batch, plus aggregate statistics.
#[derive(Debug, Clone)]
pub struct InteractionLists {
    /// One entry per batch, in batch order.
    pub per_batch: Vec<BatchLists>,
}

impl InteractionLists {
    /// Run the traversal for every batch, in parallel over batches (the
    /// paper's OpenMP-parallel list construction; the pool's workers
    /// claim chunks of `max(len / (4·workers), 1)` batches). Each batch's
    /// lists depend only on that batch's geometry and are collected
    /// into that batch's slot, so the result is bitwise identical at
    /// any pool size.
    pub fn build(batches: &TargetBatches, tree: &SourceTree, params: &BltcParams) -> Self {
        Self::build_on(batches, tree.nodes(), params)
    }

    /// [`InteractionLists::build`] over a node array whose root is node
    /// `0`: a tree's own, or a remote skeleton rebuilt from the wire.
    /// Each list names its clusters in the order the descent meets them,
    /// the nodes' pre-order: ascending id, since the splitter numbers
    /// nodes in pre-order.
    pub fn build_on(batches: &TargetBatches, nodes: &[ClusterNode], params: &BltcParams) -> Self {
        let mac = Mac::new(params);
        let per_batch = batches
            .batches()
            .par_iter()
            .map(|b| {
                let mut lists = BatchLists::default();
                traverse(&mac, b.center, b.radius, nodes, 0, &mut lists);
                lists
            })
            .collect();
        Self { per_batch }
    }

    /// Total number of approximated batch–cluster pairs.
    pub fn num_approx(&self) -> usize {
        self.per_batch.iter().map(|b| b.approx.len()).sum()
    }

    /// Total number of direct batch–cluster pairs.
    pub fn num_direct(&self) -> usize {
        self.per_batch.iter().map(|b| b.direct.len()).sum()
    }

    /// The set of distinct cluster indices appearing on any approx list —
    /// exactly the clusters whose modified charges a rank must obtain
    /// (locally or via RMA) before evaluation.
    pub fn used_approx_nodes(&self, num_nodes: usize) -> Vec<bool> {
        let mut used = vec![false; num_nodes];
        for b in &self.per_batch {
            for &n in &b.approx {
                used[n as usize] = true;
            }
        }
        used
    }

    /// The set of distinct cluster indices appearing on any direct list.
    pub fn used_direct_nodes(&self, num_nodes: usize) -> Vec<bool> {
        let mut used = vec![false; num_nodes];
        for b in &self.per_batch {
            for &n in &b.direct {
                used[n as usize] = true;
            }
        }
        used
    }
}

/// Recursive descent implementing COMPUTEPOTENTIAL's list-building phase.
fn traverse(
    mac: &Mac,
    center: crate::geometry::Point3,
    radius: f64,
    nodes: &[ClusterNode],
    node_idx: usize,
    lists: &mut BatchLists,
) {
    let node = &nodes[node_idx];
    match mac.assess(&center, radius, node) {
        MacDecision::Approximate => lists.approx.push(node_idx as u32),
        MacDecision::Direct => lists.direct.push(node_idx as u32),
        MacDecision::Subdivide => {
            for child in node.child_indices() {
                traverse(mac, center, radius, nodes, child, lists);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::ParticleSet;

    fn setup(n: usize, params: &BltcParams) -> (SourceTree, TargetBatches, InteractionLists) {
        let ps = ParticleSet::random_cube(n, 40);
        let tree = SourceTree::build(&ps, params);
        let batches = TargetBatches::build(&ps, params);
        let lists = InteractionLists::build(&batches, &tree, params);
        (tree, batches, lists)
    }

    /// Every batch's lists must cover every source exactly once: the union
    /// of particle ranges of (approx ∪ direct) clusters partitions [0, N).
    #[test]
    fn lists_cover_all_sources_exactly_once() {
        let params = BltcParams::new(0.7, 2, 50, 50);
        let (tree, batches, lists) = setup(3000, &params);
        let n = tree.particles().len();
        for (bi, bl) in lists.per_batch.iter().enumerate() {
            let mut covered = vec![0u8; n];
            for &ci in bl.approx.iter().chain(&bl.direct) {
                let c = tree.node(ci as usize);
                for slot in &mut covered[c.start..c.end] {
                    *slot += 1;
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "batch {bi}: some source covered != 1 times \
                 (min {:?}, max {:?})",
                covered.iter().min(),
                covered.iter().max()
            );
            let _ = &batches; // keep alive for clarity
        }
    }

    #[test]
    fn approx_clusters_satisfy_both_mac_conditions() {
        let params = BltcParams::new(0.6, 2, 40, 40);
        let (tree, batches, lists) = setup(4000, &params);
        let proxy = params.proxy_count();
        for (bl, b) in lists.per_batch.iter().zip(batches.batches()) {
            for &ci in &bl.approx {
                let c = tree.node(ci as usize);
                let r = b.center.dist(&c.center);
                assert!(
                    b.radius + c.radius < params.theta * r,
                    "approx cluster not separated"
                );
                assert!(c.num_particles() > proxy, "approx cluster too small");
            }
        }
    }

    #[test]
    fn direct_clusters_are_leaves_or_small() {
        let params = BltcParams::new(0.6, 2, 40, 40);
        let (tree, batches, lists) = setup(4000, &params);
        let proxy = params.proxy_count();
        for (bl, b) in lists.per_batch.iter().zip(batches.batches()) {
            for &ci in &bl.direct {
                let c = tree.node(ci as usize);
                let separated = b.radius + c.radius < params.theta * b.center.dist(&c.center);
                assert!(
                    c.is_leaf() || (separated && c.num_particles() <= proxy),
                    "direct cluster is internal, separated={separated}, nc={}",
                    c.num_particles()
                );
            }
        }
    }

    #[test]
    fn tighter_theta_means_fewer_approximations() {
        let loose = BltcParams::new(0.9, 2, 50, 50);
        let tight = BltcParams::new(0.4, 2, 50, 50);
        let (_, _, ll) = setup(3000, &loose);
        let (_, _, lt) = setup(3000, &tight);
        assert!(
            lt.num_approx() < ll.num_approx(),
            "tight {} !< loose {}",
            lt.num_approx(),
            ll.num_approx()
        );
    }

    #[test]
    fn single_batch_single_leaf_goes_direct() {
        // Everything under the caps: one batch, one leaf, zero separation.
        let params = BltcParams::new(0.7, 2, 1000, 1000);
        let (_, _, lists) = setup(500, &params);
        assert_eq!(lists.per_batch.len(), 1);
        assert_eq!(lists.num_approx(), 0);
        assert_eq!(lists.num_direct(), 1);
    }

    #[test]
    fn used_node_maps_are_consistent() {
        let params = BltcParams::new(0.7, 2, 50, 50);
        let (tree, _, lists) = setup(2000, &params);
        let ua = lists.used_approx_nodes(tree.num_nodes());
        let ud = lists.used_direct_nodes(tree.num_nodes());
        let na: usize = ua.iter().filter(|&&u| u).count();
        let nd: usize = ud.iter().filter(|&&u| u).count();
        assert!(na > 0 && nd > 0);
        assert!(na <= tree.num_nodes() && nd <= tree.num_nodes());
    }

    #[test]
    fn high_degree_forces_more_direct_interactions() {
        // MAC condition 2: (n+1)^3 >= N_C pushes work to the direct path.
        let lo = BltcParams::new(0.7, 1, 50, 50); // proxy 8
        let hi = BltcParams::new(0.7, 8, 50, 50); // proxy 729 > leaf cap
        let (_, _, llo) = setup(3000, &lo);
        let (_, _, lhi) = setup(3000, &hi);
        assert!(lhi.num_approx() < llo.num_approx());
    }
}
