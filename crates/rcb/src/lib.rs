//! # rcb — recursive coordinate bisection (Zoltan substitute)
//!
//! Domain decomposition for the distributed BLTC (§3.1, Fig. 2). RCB
//! recursively cuts the particle set with axis-perpendicular hyperplanes;
//! each cut balances the particle count against the number of ranks
//! assigned to each side, so non-power-of-two part counts work naturally
//! (Fig. 2b's six partitions). The cut axis is the longest extent of the
//! current region, with ties broken toward higher axis index — which
//! reproduces the paper's "first y, then x" cuts on the unit square.
//!
//! The partitioner returns, per part: the particle indices, the particle
//! count, and the *region* box (the recursive sub-rectangle of the
//! domain, whose areas Fig. 2 reports as exactly 1/4 and 1/6).
//!
//! ## Example
//!
//! Fig. 2b's six-way decomposition of a unit-square cloud — part sizes
//! balanced to within one particle:
//!
//! ```
//! use rcb::{rcb_partition, unit_square_cloud};
//!
//! let ps = unit_square_cloud(200, 1);
//! let part = rcb_partition(&ps, 6, None);
//! assert_eq!(part.num_parts(), 6);
//! let (max, min) = part.balance();
//! assert!(max - min <= 1, "RCB balances counts: {max} vs {min}");
//! ```

use bltc_core::geometry::{BoundingBox, Point3};
use bltc_core::particles::ParticleSet;

/// Result of an RCB decomposition into `k` parts.
#[derive(Debug, Clone)]
pub struct RcbPartition {
    /// Part id of each particle (indexed by original particle index).
    pub assignment: Vec<usize>,
    /// Particle indices of each part (ascending within a part).
    pub part_indices: Vec<Vec<usize>>,
    /// The recursive domain region of each part.
    pub regions: Vec<BoundingBox>,
}

impl RcbPartition {
    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.part_indices.len()
    }

    /// Particle count of a part.
    pub fn part_size(&self, p: usize) -> usize {
        self.part_indices[p].len()
    }

    /// Largest/smallest part populations (load-balance check).
    pub fn balance(&self) -> (usize, usize) {
        let sizes: Vec<usize> = self.part_indices.iter().map(|v| v.len()).collect();
        (
            *sizes.iter().max().expect("at least one part"),
            *sizes.iter().min().expect("at least one part"),
        )
    }
}

/// Decompose `ps` into `num_parts` parts over `domain` (defaults to the
/// particles' minimal bounding box).
///
/// Each bisection assigns `⌊r/2⌋` ranks to the low side and the rest to
/// the high side, and splits the particle count proportionally; the cut
/// coordinate is the midpoint between the two straddling particles.
pub fn rcb_partition(
    ps: &ParticleSet,
    num_parts: usize,
    domain: Option<BoundingBox>,
) -> RcbPartition {
    assert!(num_parts >= 1, "need at least one part");
    assert!(!ps.is_empty(), "cannot partition an empty particle set");
    let domain = domain
        .or_else(|| ps.bounding_box())
        .expect("non-empty set has a bounding box");

    let mut assignment = vec![usize::MAX; ps.len()];
    let mut regions = vec![domain; num_parts];
    let mut indices: Vec<usize> = (0..ps.len()).collect();
    recurse(
        ps,
        &mut indices,
        domain,
        0,
        num_parts,
        &mut assignment,
        &mut regions,
    );

    let mut part_indices = vec![Vec::new(); num_parts];
    for (i, &p) in assignment.iter().enumerate() {
        debug_assert!(p < num_parts, "particle {i} unassigned");
        part_indices[p].push(i);
    }
    RcbPartition {
        assignment,
        part_indices,
        regions,
    }
}

/// Two-level node×GPU decomposition — the hierarchy the paper's
/// billion-particle runs imply (multiple GPUs per Comet node): RCB
/// across `nodes` compute nodes first, then an independent RCB across
/// `gpus_per_node` GPUs *within* each node's region. Leaf rank ids are
/// laid out `node * gpus_per_node + gpu`, so `rank / gpus_per_node`
/// recovers the node — the convention `bltc_dist::DistConfig::link`
/// uses when it prices inter- vs intra-node traffic.
///
/// The result is a flat [`RcbPartition`] over `nodes × gpus_per_node`
/// leaf parts, so every downstream consumer (window setup, LET
/// construction, migration) is oblivious to the hierarchy. With
/// `gpus_per_node == 1` this is exactly [`rcb_partition`] — same cuts,
/// bitwise the same assignment — so flat configurations pay nothing.
pub fn rcb_partition_two_level(
    ps: &ParticleSet,
    nodes: usize,
    gpus_per_node: usize,
    domain: Option<BoundingBox>,
) -> RcbPartition {
    assert!(nodes >= 1, "need at least one node");
    assert!(gpus_per_node >= 1, "need at least one GPU per node");
    if gpus_per_node == 1 {
        return rcb_partition(ps, nodes, domain);
    }
    let top = rcb_partition(ps, nodes, domain);
    let num_parts = nodes * gpus_per_node;
    let mut assignment = vec![usize::MAX; ps.len()];
    let mut regions = Vec::with_capacity(num_parts);
    for (node, idx) in top.part_indices.iter().enumerate() {
        if idx.is_empty() {
            // Degenerate (fewer particles than nodes): the node's GPUs
            // inherit the empty node region.
            regions.extend((0..gpus_per_node).map(|_| top.regions[node]));
            continue;
        }
        // The node's region — not the subset's tighter bounding box —
        // is the inner domain, so the GPU regions tile the node region
        // exactly as the node regions tile the global domain.
        let sub = ps.subset(idx);
        let subpart = rcb_partition(&sub, gpus_per_node, Some(top.regions[node]));
        for (j, &orig) in idx.iter().enumerate() {
            assignment[orig] = node * gpus_per_node + subpart.assignment[j];
        }
        regions.extend(subpart.regions);
    }
    let mut part_indices = vec![Vec::new(); num_parts];
    for (i, &p) in assignment.iter().enumerate() {
        debug_assert!(p < num_parts, "particle {i} unassigned");
        part_indices[p].push(i);
    }
    RcbPartition {
        assignment,
        part_indices,
        regions,
    }
}

fn recurse(
    ps: &ParticleSet,
    indices: &mut [usize],
    region: BoundingBox,
    part_lo: usize,
    part_hi: usize,
    assignment: &mut [usize],
    regions: &mut [BoundingBox],
) {
    let nparts = part_hi - part_lo;
    if nparts == 1 {
        for &i in indices.iter() {
            assignment[i] = part_lo;
        }
        regions[part_lo] = region;
        return;
    }

    // Rank split: low side gets ⌊nparts/2⌋ (Fig. 2: "assigning half the
    // ranks to the top region and half to the bottom").
    let parts_lo = nparts / 2;

    // Cut axis: longest region extent, ties toward higher index (y over x).
    let extents = region.extents();
    let mut axis = 0;
    for d in 1..3 {
        if extents[d] >= extents[axis] {
            axis = d;
        }
    }

    // Proportional particle split.
    let n = indices.len();
    let n_lo = ((n as u128 * parts_lo as u128 + (nparts as u128) / 2) / nparts as u128) as usize;
    let n_lo = if n >= 2 {
        n_lo.clamp(1, n - 1)
    } else {
        n_lo.min(n)
    };

    // Order by the cut coordinate (total order; ties by index for
    // determinism).
    let coord = |i: usize| -> f64 {
        match axis {
            0 => ps.x[i],
            1 => ps.y[i],
            _ => ps.z[i],
        }
    };
    indices.sort_unstable_by(|&a, &b| coord(a).total_cmp(&coord(b)).then(a.cmp(&b)));

    // Cut plane between the straddling particles (degenerates gracefully
    // when coordinates tie).
    let cut = if n_lo == 0 {
        region.min.coord(axis)
    } else if n_lo == n {
        region.max.coord(axis)
    } else {
        0.5 * (coord(indices[n_lo - 1]) + coord(indices[n_lo]))
    };
    let cut = cut.clamp(region.min.coord(axis), region.max.coord(axis));

    let (lo_region, hi_region) = split_region(&region, axis, cut);
    let (lo_idx, hi_idx) = indices.split_at_mut(n_lo);
    recurse(
        ps,
        lo_idx,
        lo_region,
        part_lo,
        part_lo + parts_lo,
        assignment,
        regions,
    );
    recurse(
        ps,
        hi_idx,
        hi_region,
        part_lo + parts_lo,
        part_hi,
        assignment,
        regions,
    );
}

fn split_region(region: &BoundingBox, axis: usize, cut: f64) -> (BoundingBox, BoundingBox) {
    let mut lo_max = region.max;
    *lo_max.coord_mut(axis) = cut;
    let mut hi_min = region.min;
    *hi_min.coord_mut(axis) = cut;
    (
        BoundingBox::new(region.min, lo_max),
        BoundingBox::new(hi_min, region.max),
    )
}

/// Convenience: slice a particle set into per-part sub-sets (original
/// relative order preserved).
pub fn partition_particles(ps: &ParticleSet, partition: &RcbPartition) -> Vec<ParticleSet> {
    partition
        .part_indices
        .iter()
        .map(|idx| ps.subset(idx))
        .collect()
}

/// A unit-square particle cloud in the z=0 plane (the Fig. 2 setting).
pub fn unit_square_cloud(n: usize, seed: u64) -> ParticleSet {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParticleSet::with_capacity(n);
    for _ in 0..n {
        ps.push(
            Point3::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), 0.0),
            1.0,
        );
    }
    ps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(b: &BoundingBox) -> f64 {
        b.extent(0) * b.extent(1)
    }

    #[test]
    fn parts_are_disjoint_and_cover() {
        let ps = ParticleSet::random_cube(5000, 1);
        let part = rcb_partition(&ps, 7, None);
        let mut seen = vec![false; ps.len()];
        for p in 0..part.num_parts() {
            for &i in &part.part_indices[p] {
                assert!(!seen[i], "particle {i} in two parts");
                seen[i] = true;
                assert_eq!(part.assignment[i], p);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn counts_are_balanced() {
        for k in [2, 3, 4, 5, 6, 8, 13, 32] {
            let ps = ParticleSet::random_cube(9600, 2);
            let part = rcb_partition(&ps, k, None);
            let (max, min) = part.balance();
            assert!(
                max - min <= k,
                "k={k}: imbalance {max}-{min} exceeds tolerance"
            );
            let ideal = 9600 / k;
            assert!(max <= ideal + k && min + k >= ideal, "k={k}: {min}..{max}");
        }
    }

    #[test]
    fn fig2a_four_partitions_of_unit_square() {
        // Fig. 2a: 4 partitions, each of area 1/4; first cut in y at 0.5.
        let ps = unit_square_cloud(40_000, 3);
        let domain = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 0.0));
        let part = rcb_partition(&ps, 4, Some(domain));
        for p in 0..4 {
            let a = area(&part.regions[p]);
            assert!((a - 0.25).abs() < 0.02, "part {p} area {a} should be ~1/4");
        }
        // First bisection was in y: two regions touch y=0, two touch y=1,
        // and the cut sits near 0.5.
        let lows = (0..4).filter(|&p| part.regions[p].min.y < 1e-9).count();
        assert_eq!(lows, 2);
        for p in 0..4 {
            let r = &part.regions[p];
            assert!(
                (r.min.y - 0.5).abs() < 0.02 || (r.max.y - 0.5).abs() < 0.02,
                "part {p} does not border the y=0.5 cut: {r:?}"
            );
        }
    }

    #[test]
    fn fig2b_six_partitions_of_unit_square() {
        // Fig. 2b: 6 partitions, each of area 1/6; 3 ranks above and 3
        // below the first y-cut.
        let ps = unit_square_cloud(60_000, 4);
        let domain = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 0.0));
        let part = rcb_partition(&ps, 6, Some(domain));
        for p in 0..6 {
            let a = area(&part.regions[p]);
            assert!(
                (a - 1.0 / 6.0).abs() < 0.02,
                "part {p} area {a} should be ~1/6"
            );
        }
        let below = (0..6).filter(|&p| part.regions[p].max.y <= 0.52).count();
        let above = (0..6).filter(|&p| part.regions[p].min.y >= 0.48).count();
        assert_eq!(below, 3, "3 ranks below the first y-cut");
        assert_eq!(above, 3, "3 ranks above the first y-cut");
    }

    #[test]
    fn regions_tile_the_domain() {
        let ps = unit_square_cloud(10_000, 5);
        let domain = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 0.0));
        let part = rcb_partition(&ps, 6, Some(domain));
        let total: f64 = (0..6).map(|p| area(&part.regions[p])).sum();
        assert!((total - 1.0).abs() < 1e-9, "regions must tile: {total}");
    }

    #[test]
    fn particles_lie_in_their_regions() {
        let ps = ParticleSet::random_cube(3000, 6);
        let part = rcb_partition(&ps, 5, None);
        for p in 0..part.num_parts() {
            for &i in &part.part_indices[p] {
                // Region boundaries are cut midpoints, so allow boundary
                // coincidence but nothing more.
                let pos = ps.position(i);
                let r = &part.regions[p];
                for d in 0..3 {
                    assert!(
                        pos.coord(d) >= r.min.coord(d) - 1e-12
                            && pos.coord(d) <= r.max.coord(d) + 1e-12,
                        "particle {i} outside its region in dim {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_part_is_identity() {
        let ps = ParticleSet::random_cube(100, 7);
        let part = rcb_partition(&ps, 1, None);
        assert_eq!(part.part_size(0), 100);
        assert!(part.assignment.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic() {
        let ps = ParticleSet::random_cube(2000, 8);
        let a = rcb_partition(&ps, 6, None);
        let b = rcb_partition(&ps, 6, None);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn more_parts_than_particles() {
        let ps = ParticleSet::random_cube(3, 9);
        let part = rcb_partition(&ps, 8, None);
        let total: usize = (0..8).map(|p| part.part_size(p)).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn coincident_particles_still_partition() {
        let n = 100;
        let ps = ParticleSet::new(vec![0.5; n], vec![0.5; n], vec![0.5; n], vec![1.0; n]);
        let part = rcb_partition(&ps, 4, None);
        let (max, min) = part.balance();
        assert!(max - min <= 4, "coincident points: {min}..{max}");
    }

    #[test]
    fn partition_particles_slices() {
        let ps = ParticleSet::random_cube(1000, 10);
        let part = rcb_partition(&ps, 3, None);
        let subs = partition_particles(&ps, &part);
        assert_eq!(subs.len(), 3);
        let total: usize = subs.iter().map(|s| s.len()).sum();
        assert_eq!(total, 1000);
        // Charges preserved.
        let q_total: f64 = subs.iter().map(|s| s.total_charge()).sum();
        assert!((q_total - ps.total_charge()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty particle set")]
    fn empty_set_rejected() {
        let _ = rcb_partition(&ParticleSet::default(), 2, None);
    }

    #[test]
    fn two_level_with_one_gpu_is_flat_rcb_bitwise() {
        let ps = ParticleSet::random_cube(3000, 11);
        let flat = rcb_partition(&ps, 6, None);
        let hier = rcb_partition_two_level(&ps, 6, 1, None);
        assert_eq!(flat.assignment, hier.assignment);
        for (a, b) in flat.regions.iter().zip(&hier.regions) {
            assert_eq!(a.min.x.to_bits(), b.min.x.to_bits());
            assert_eq!(a.max.z.to_bits(), b.max.z.to_bits());
        }
    }

    #[test]
    fn two_level_parts_are_disjoint_and_cover() {
        let ps = ParticleSet::random_cube(4000, 12);
        let part = rcb_partition_two_level(&ps, 3, 4, None);
        assert_eq!(part.num_parts(), 12);
        let mut seen = vec![false; ps.len()];
        for p in 0..part.num_parts() {
            for &i in &part.part_indices[p] {
                assert!(!seen[i], "particle {i} in two parts");
                seen[i] = true;
                assert_eq!(part.assignment[i], p);
            }
        }
        assert!(seen.iter().all(|&s| s));
        let (max, min) = part.balance();
        assert!(max - min <= 12, "two-level imbalance {min}..{max}");
    }

    #[test]
    fn two_level_gpu_regions_tile_their_node_region() {
        // The GPUs of one node subdivide exactly the node's recursive
        // region: areas sum and boxes nest.
        let ps = unit_square_cloud(20_000, 13);
        let domain = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 0.0));
        let g = 3;
        let top = rcb_partition(&ps, 2, Some(domain));
        let part = rcb_partition_two_level(&ps, 2, g, Some(domain));
        for node in 0..2 {
            let node_area = area(&top.regions[node]);
            let gpu_area: f64 = (0..g).map(|i| area(&part.regions[node * g + i])).sum();
            assert!(
                (gpu_area - node_area).abs() < 1e-9,
                "node {node}: GPU regions must tile the node region"
            );
            for i in 0..g {
                let r = &part.regions[node * g + i];
                let n = &top.regions[node];
                for d in 0..2 {
                    assert!(r.min.coord(d) >= n.min.coord(d) - 1e-12);
                    assert!(r.max.coord(d) <= n.max.coord(d) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn two_level_leaf_layout_is_node_major() {
        // Leaf p lives on node p / gpus_per_node: all particles of leaf
        // p lie inside node p/g's top-level region.
        let ps = ParticleSet::random_cube(2000, 14);
        let top = rcb_partition(&ps, 2, None);
        let part = rcb_partition_two_level(&ps, 2, 2, None);
        for (i, &leaf) in part.assignment.iter().enumerate() {
            assert_eq!(
                top.assignment[i],
                leaf / 2,
                "particle {i}: leaf {leaf} must refine its node part"
            );
        }
    }

    #[test]
    fn two_level_deterministic() {
        let ps = ParticleSet::random_cube(1500, 15);
        let a = rcb_partition_two_level(&ps, 4, 2, None);
        let b = rcb_partition_two_level(&ps, 4, 2, None);
        assert_eq!(a.assignment, b.assignment);
    }
}
