//! Recursive midpoint partitioning shared by the source tree and the
//! target batches.
//!
//! The splitter moves the particles: every column (x, y, z, q and the
//! original index) is kept in node order, each split partitions its
//! range by a stable counting sort on branch-free octant codes, and each
//! child's box is one scan over its contiguous slice. The reordered set
//! and the permutation come out together. Each node's box is the
//! *minimal* bounding box of its particles; the split plane is the
//! midpoint of that box, and only dimensions with extent `> max_extent /
//! √2` are split (the paper's aspect-ratio rule, which yields 2-, 4- or
//! 8-way splits).

use crate::geometry::{BoundingBox, Point3};
use crate::particles::ParticleSet;

/// Intermediate node produced by the splitter.
#[derive(Debug, Clone)]
pub(crate) struct RawNode {
    pub bbox: BoundingBox,
    pub start: usize,
    pub end: usize,
    pub children: [u32; 8],
    pub num_children: u8,
    pub level: u16,
}

/// Split dimension selection: dimension `d` participates iff
/// `extent_d · √2 > max_extent` and the extent is positive.
pub(crate) fn split_dims(bbox: &BoundingBox) -> [bool; 3] {
    let e = bbox.extents();
    let max = e[0].max(e[1]).max(e[2]);
    let mut out = [false; 3];
    if max == 0.0 {
        return out;
    }
    for d in 0..3 {
        out[d] = e[d] * std::f64::consts::SQRT_2 > max && e[d] > 0.0;
    }
    out
}

/// Build the node array, the reordered particle set whose contiguous
/// ranges the nodes own, and the permutation: `perm[i]` is the original
/// index of reordered particle `i`. Node ids are pre-order: every node
/// comes before its descendants, and siblings follow the order of
/// `children`, which is ascending particle ranges. So the leaves come
/// out in target order and every subtree is a run of consecutive ids.
///
/// # Panics
/// On an empty set, or on a particle with a NaN or infinite coordinate
/// (the message names its index): a NaN would drop out of every box
/// comparison and poison every potential silently.
pub(crate) fn build_nodes(
    ps: &ParticleSet,
    leaf_cap: usize,
    max_depth: usize,
) -> (Vec<RawNode>, ParticleSet, Vec<usize>) {
    let n = ps.len();
    assert!(n > 0);
    let mut sorted = ps.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    // One split's scratch: octant codes, destinations, one column.
    let mut codes = vec![0u8; n];
    let mut dest = vec![0usize; n];
    let (mut spill, mut spill_perm) = (vec![0.0; n], vec![0usize; n]);

    // Depth-first over pending nodes, each with its parent's id and its
    // slot in the parent's `children`. A node gets its id when popped and
    // patches that slot; its children are pushed last first, so they pop
    // in `children` order and the ids come out in pre-order.
    let mut nodes: Vec<RawNode> = Vec::new();
    let root = RawNode {
        bbox: bbox_of(&sorted, 0..n, true),
        start: 0,
        end: n,
        children: [0; 8],
        num_children: 0,
        level: 0,
    };
    let mut stack: Vec<(RawNode, Option<(usize, usize)>)> = vec![(root, None)];

    while let Some((node, parent)) = stack.pop() {
        let id = nodes.len();
        if let Some((p, slot)) = parent {
            nodes[p].children[slot] = id as u32;
        }
        let RawNode {
            bbox,
            start,
            end,
            level,
            ..
        } = node;
        nodes.push(node);
        if end - start <= leaf_cap || level as usize >= max_depth {
            continue; // leaf
        }
        let dims = split_dims(&bbox);
        if !dims.iter().any(|&d| d) {
            continue; // degenerate (all particles coincident): stay a leaf
        }

        // Octant code of each particle: bit d set iff the coordinate in a
        // split dimension is above the midpoint.
        let mid = bbox.midpoint();
        let (xs, ys, zs) = sorted.xyz(start..end);
        let codes = &mut codes[start..end];
        for (((c, &x), &y), &z) in codes.iter_mut().zip(xs).zip(ys).zip(zs) {
            *c = (dims[0] & (x > mid.x)) as u8
                | ((dims[1] & (y > mid.y)) as u8) << 1
                | ((dims[2] & (z > mid.z)) as u8) << 2;
        }
        let mut counts = [0usize; 8];
        for &c in &*codes {
            counts[c as usize] += 1;
        }

        // Stable counting sort: each particle's slot in the range, then
        // every column scattered through it.
        let mut offsets = [0usize; 8];
        let mut acc = 0;
        for b in 0..8 {
            offsets[b] = acc;
            acc += counts[b];
        }
        let mut cursor = offsets;
        for (d, &c) in dest[start..end].iter_mut().zip(&*codes) {
            *d = cursor[c as usize];
            cursor[c as usize] += 1;
        }
        let dest = &dest[start..end];
        for column in [&mut sorted.x, &mut sorted.y, &mut sorted.z, &mut sorted.q] {
            scatter(&mut column[start..end], dest, &mut spill);
        }
        scatter(&mut perm[start..end], dest, &mut spill_perm);

        // The non-empty children, pending: ranges and boxes are fixed
        // here, ids when each is popped.
        let first = stack.len();
        for b in 0..8 {
            if counts[b] == 0 {
                continue;
            }
            let (cs, ce) = (start + offsets[b], start + offsets[b] + counts[b]);
            let child = RawNode {
                bbox: bbox_of(&sorted, cs..ce, false),
                start: cs,
                end: ce,
                children: [0; 8],
                num_children: 0,
                level: level + 1,
            };
            stack.push((child, Some((id, stack.len() - first))));
        }
        let num_children = (stack.len() - first) as u8;
        debug_assert!(
            num_children >= 2,
            "midpoint split of a non-degenerate box must separate extremes"
        );
        nodes[id].num_children = num_children;
        stack[first..].reverse();
    }

    (nodes, sorted, perm)
}

/// Move `column[i]` to `column[dest[i]]`, through `spill`.
fn scatter<T: Copy>(column: &mut [T], dest: &[usize], spill: &mut [T]) {
    let spill = &mut spill[..column.len()];
    for (&v, &d) in column.iter().zip(dest) {
        spill[d] = v;
    }
    column.copy_from_slice(spill);
}

/// The minimal box of one contiguous range, in one ordered scan. Of two
/// equal coordinates the first stays, so which of `−0.0` and `+0.0`
/// bounds a box does not depend on the instructions the compiler picks
/// (`f64::min` leaves that open, and a vectorised reduction of it
/// differs). With `refuse_non_finite` (the root's scan, which sees every
/// particle once) a NaN or infinite coordinate panics, naming the
/// particle; the children's scans need not look again.
fn bbox_of(
    ps: &ParticleSet,
    range: std::ops::Range<usize>,
    refuse_non_finite: bool,
) -> BoundingBox {
    let start = range.start;
    let (xs, ys, zs) = ps.xyz(range);
    let (mut min, mut max) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
    for (i, ((&x, &y), &z)) in xs.iter().zip(ys).zip(zs).enumerate() {
        if refuse_non_finite {
            assert!(
                x.is_finite() && y.is_finite() && z.is_finite(),
                "particle {} has a non-finite coordinate ({x}, {y}, {z})",
                start + i
            );
        }
        for (d, v) in [x, y, z].into_iter().enumerate() {
            if v < min[d] {
                min[d] = v;
            }
            if v > max[d] {
                max[d] = v;
            }
        }
    }
    BoundingBox::new(
        Point3::new(min[0], min[1], min[2]),
        Point3::new(max[0], max[1], max[2]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BltcParams;
    use crate::tree::batch::TargetBatches;
    use crate::tree::SourceTree;

    #[test]
    fn split_dims_isotropic_box() {
        let bb = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0));
        assert_eq!(split_dims(&bb), [true, true, true]);
    }

    #[test]
    fn split_dims_skips_short_axes() {
        // y extent 0.5 <= 1/√2 ≈ 0.707 of max ⇒ y not split;
        // z extent 0.8 > 0.707 ⇒ split.
        let bb = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 0.5, 0.8));
        assert_eq!(split_dims(&bb), [true, false, true]);
    }

    #[test]
    fn split_dims_degenerate() {
        let p = Point3::new(1.0, 1.0, 1.0);
        let bb = BoundingBox::new(p, p);
        assert_eq!(split_dims(&bb), [false, false, false]);
        // A line box splits only along its axis.
        let bb = BoundingBox::new(Point3::new(0.0, 1.0, 1.0), Point3::new(2.0, 1.0, 1.0));
        assert_eq!(split_dims(&bb), [true, false, false]);
    }

    #[test]
    fn split_dims_boundary_ratio() {
        // extent exactly max/√2: the strict inequality excludes it.
        let max = 1.0;
        let short = max / std::f64::consts::SQRT_2;
        let bb = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(max, short, max));
        let dims = split_dims(&bb);
        assert!(dims[0] && dims[2]);
        assert!(!dims[1], "extent == max/√2 must not split");
    }

    #[test]
    fn aspect_rule_keeps_children_wellshaped_for_uniform_cubes() {
        // For a uniform cube the rule reproduces plain octree behaviour and
        // children stay within √2 aspect ratio up to sampling noise.
        let ps = ParticleSet::random_cube(20_000, 42);
        let (nodes, ..) = build_nodes(&ps, 250, 64);
        let mut internal_with_bad_children = 0;
        for nd in &nodes {
            if nd.num_children > 0 {
                continue;
            }
            // Minimal boxes wobble, so allow slack; the point is that no
            // pathological pancakes appear in a uniform cloud.
            if nd.bbox.aspect_ratio() > 3.0 {
                internal_with_bad_children += 1;
            }
        }
        assert!(
            internal_with_bad_children < nodes.len() / 10,
            "too many badly-shaped leaves: {internal_with_bad_children}/{}",
            nodes.len()
        );
    }

    /// The index-chasing splitter this module replaced, kept verbatim as
    /// the reference the data-moving one is compared against bit for
    /// bit: it partitions a permutation, re-reads every coordinate
    /// through it on each pass (two branches per split dimension and
    /// particle), and the reordered set is gathered once at the end.
    mod oracle {
        use rayon::prelude::*;

        use super::super::{split_dims, RawNode};
        use crate::geometry::BoundingBox;
        use crate::particles::ParticleSet;

        /// Build the node array (pre-order) and the particle permutation for a
        /// midpoint tree with the given leaf capacity.
        pub fn build_nodes(
            ps: &ParticleSet,
            leaf_cap: usize,
            max_depth: usize,
        ) -> (Vec<RawNode>, Vec<usize>) {
            let n = ps.len();
            assert!(n > 0);
            let mut perm: Vec<usize> = (0..n).collect();
            let mut nodes: Vec<RawNode> = Vec::new();
            let mut scratch: Vec<usize> = vec![0; n];

            // Explicit stack of (node_index, depth) over ranges already assigned to
            // nodes; children are materialized when their parent is processed, so
            // the node array comes out in pre-order with contiguous sibling ranges.
            let root_bbox = bbox_of(ps, &perm);
            nodes.push(RawNode {
                bbox: root_bbox,
                start: 0,
                end: n,
                children: [0; 8],
                num_children: 0,
                level: 0,
            });
            let mut stack: Vec<usize> = vec![0];

            while let Some(node_idx) = stack.pop() {
                let (start, end, level, bbox) = {
                    let nd = &nodes[node_idx];
                    (nd.start, nd.end, nd.level, nd.bbox)
                };
                let count = end - start;
                if count <= leaf_cap || level as usize >= max_depth {
                    continue; // leaf
                }
                let dims = split_dims(&bbox);
                if !dims.iter().any(|&d| d) {
                    continue; // degenerate (all particles coincident): stay a leaf
                }

                // Bucket each particle by its octant code: bit d set iff the
                // coordinate in a split dimension is above the midpoint.
                let mid = bbox.midpoint();
                let bucket_of = |j: usize| -> usize {
                    let mut code = 0usize;
                    if dims[0] && ps.x[j] > mid.x {
                        code |= 1;
                    }
                    if dims[1] && ps.y[j] > mid.y {
                        code |= 2;
                    }
                    if dims[2] && ps.z[j] > mid.z {
                        code |= 4;
                    }
                    code
                };

                let mut counts = [0usize; 8];
                for &j in &perm[start..end] {
                    counts[bucket_of(j)] += 1;
                }
                let mut offsets = [0usize; 8];
                let mut acc = start;
                for b in 0..8 {
                    offsets[b] = acc;
                    acc += counts[b];
                }
                debug_assert_eq!(acc, end);

                // Stable scatter into scratch, then copy back.
                {
                    let mut cursor = offsets;
                    for &j in &perm[start..end] {
                        let b = bucket_of(j);
                        scratch[cursor[b]] = j;
                        cursor[b] += 1;
                    }
                    perm[start..end].copy_from_slice(&scratch[start..end]);
                }

                // Materialize non-empty children.
                let mut num_children = 0u8;
                let mut children = [0u32; 8];
                for b in 0..8 {
                    if counts[b] == 0 {
                        continue;
                    }
                    let (cs, ce) = (offsets[b], offsets[b] + counts[b]);
                    let child_bbox = bbox_of_range(ps, &perm[cs..ce]);
                    let child_idx = nodes.len();
                    nodes.push(RawNode {
                        bbox: child_bbox,
                        start: cs,
                        end: ce,
                        children: [0; 8],
                        num_children: 0,
                        level: level + 1,
                    });
                    children[num_children as usize] = child_idx as u32;
                    num_children += 1;
                }
                debug_assert!(
                    num_children >= 2,
                    "midpoint split of a non-degenerate box must separate extremes"
                );
                nodes[node_idx].children = children;
                nodes[node_idx].num_children = num_children;

                // Process children (order on the stack does not matter; indices
                // and ranges are already fixed).
                for &c in &children[..num_children as usize] {
                    stack.push(c as usize);
                }
            }

            (nodes, perm)
        }

        fn bbox_of(ps: &ParticleSet, idx: &[usize]) -> BoundingBox {
            bbox_of_range(ps, idx)
        }

        /// Ranges at least this large compute their bounding box as a chunked
        /// parallel reduction. `min`/`max` are exact and order-insensitive, so
        /// the parallel box is bitwise identical to the serial scan; the chunk
        /// size is fixed (independent of the pool), keeping even the work
        /// split deterministic.
        const PAR_BBOX_THRESHOLD: usize = 16_384;
        const PAR_BBOX_CHUNK: usize = 4_096;

        fn bbox_of_range(ps: &ParticleSet, idx: &[usize]) -> BoundingBox {
            if idx.len() >= PAR_BBOX_THRESHOLD {
                let partials: Vec<([f64; 3], [f64; 3])> = idx
                    .par_chunks(PAR_BBOX_CHUNK)
                    .map(|chunk| scan_min_max(ps, chunk))
                    .collect();
                let mut min = [f64::INFINITY; 3];
                let mut max = [f64::NEG_INFINITY; 3];
                for (pmin, pmax) in partials {
                    for d in 0..3 {
                        min[d] = min[d].min(pmin[d]);
                        max[d] = max[d].max(pmax[d]);
                    }
                }
                return bbox_from(min, max);
            }
            let (min, max) = scan_min_max(ps, idx);
            bbox_from(min, max)
        }

        fn scan_min_max(ps: &ParticleSet, idx: &[usize]) -> ([f64; 3], [f64; 3]) {
            let mut min = [f64::INFINITY; 3];
            let mut max = [f64::NEG_INFINITY; 3];
            for &j in idx {
                let p = [ps.x[j], ps.y[j], ps.z[j]];
                for d in 0..3 {
                    min[d] = min[d].min(p[d]);
                    max[d] = max[d].max(p[d]);
                }
            }
            (min, max)
        }

        fn bbox_from(min: [f64; 3], max: [f64; 3]) -> BoundingBox {
            BoundingBox::new(
                crate::geometry::Point3::new(min[0], min[1], min[2]),
                crate::geometry::Point3::new(max[0], max[1], max[2]),
            )
        }
    }

    fn box_bits(b: &BoundingBox) -> [u64; 6] {
        [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f64::to_bits)
    }

    fn set_bits(ps: &ParticleSet) -> [Vec<u64>; 4] {
        [&ps.x, &ps.y, &ps.z, &ps.q].map(|c| c.iter().map(|v| v.to_bits()).collect())
    }

    type NodeKey = ([u64; 6], usize, usize, [u32; 8], u8, u16);

    fn raw_key(r: &RawNode) -> NodeKey {
        let b = box_bits(&r.bbox);
        (b, r.start, r.end, r.children, r.num_children, r.level)
    }

    /// The oracle's nodes renumbered by a recursive walk — each node,
    /// then each child's subtree in `children` order — with every child
    /// id rewritten: the oracle numbers nodes in the order its stack
    /// materialises them, the splitter in pre-order.
    fn preorder_relabelled(nodes: &[RawNode]) -> Vec<RawNode> {
        fn walk(nodes: &[RawNode], i: usize, order: &mut Vec<usize>) {
            order.push(i);
            let node = &nodes[i];
            for &c in &node.children[..node.num_children as usize] {
                walk(nodes, c as usize, order);
            }
        }
        let mut order = Vec::with_capacity(nodes.len());
        walk(nodes, 0, &mut order);
        let mut id = vec![0u32; nodes.len()];
        for (k, &i) in order.iter().enumerate() {
            id[i] = k as u32;
        }
        (order.iter())
            .map(|&i| {
                let mut node = nodes[i].clone();
                for c in &mut node.children[..node.num_children as usize] {
                    *c = id[*c as usize];
                }
                node
            })
            .collect()
    }

    /// The splitter, `SourceTree::build` and `TargetBatches::build`
    /// against the oracle relabelled in pre-order, bit for bit: every
    /// node (box, range, children, level), every batch, the permutation
    /// and the reordered set.
    fn assert_matches_oracle(ps: &ParticleSet, cap: usize, max_depth: usize) {
        let what = (ps.len(), cap, max_depth);
        let (want, want_perm) = oracle::build_nodes(ps, cap, max_depth);
        let want = preorder_relabelled(&want);
        let want_keys: Vec<NodeKey> = want.iter().map(raw_key).collect();
        let want_set = set_bits(&ps.subset(&want_perm));

        let (nodes, sorted, perm) = build_nodes(ps, cap, max_depth);
        assert_eq!(
            nodes.iter().map(raw_key).collect::<Vec<_>>(),
            want_keys,
            "{what:?}"
        );
        assert_eq!(perm, want_perm, "{what:?}");
        assert_eq!(set_bits(&sorted), want_set, "{what:?}");

        let params = BltcParams {
            max_depth,
            ..BltcParams::new(0.7, 4, cap, cap)
        };
        let tree = SourceTree::build(ps, &params);
        let tree_keys: Vec<NodeKey> = tree
            .nodes()
            .iter()
            .map(|c| {
                let b = box_bits(&c.bbox);
                (b, c.start, c.end, c.children, c.num_children, c.level)
            })
            .collect();
        assert_eq!(tree_keys, want_keys, "tree {what:?}");
        assert_eq!(tree.perm(), want_perm, "tree {what:?}");
        assert_eq!(set_bits(tree.particles()), want_set, "tree {what:?}");

        let batches = TargetBatches::build(ps, &params);
        let leaves: Vec<_> = want
            .iter()
            .filter(|r| r.num_children == 0)
            .map(|r| (box_bits(&r.bbox), r.start, r.end))
            .collect();
        let got: Vec<_> = batches
            .batches()
            .iter()
            .map(|b| (box_bits(&b.bbox), b.start, b.end))
            .collect();
        assert_eq!(got, leaves, "batches {what:?}");
        assert_eq!(batches.perm(), want_perm, "batches {what:?}");
        assert_eq!(set_bits(batches.particles()), want_set, "batches {what:?}");
    }

    /// One of the six clouds the oracle tests cover, `kind` in `0..6`:
    /// uniform, Plummer, planar, collinear, coincident, and duplicated
    /// points. The planar, collinear and duplicated clouds sit on a
    /// lattice of spacing 1/8, so particles lie exactly on split planes.
    fn cloud(kind: usize, n: usize, seed: u64) -> ParticleSet {
        let cube = ParticleSet::random_cube(n, seed);
        let snap = |v: f64| (v * 8.0).round() / 8.0;
        let mut ps = cube.clone();
        match kind {
            0 => {}
            1 => ps = ParticleSet::plummer(n, 1.0, seed),
            2 => {
                ps.x.iter_mut().for_each(|v| *v = snap(*v));
                ps.y.iter_mut().for_each(|v| *v = snap(*v));
                ps.z.fill(0.25);
            }
            3 => {
                ps.x.iter_mut().for_each(|v| *v = snap(*v));
                ps.y.fill(-0.5);
                ps.z.fill(0.75);
            }
            4 => {
                ps.x.fill(0.5);
                ps.y.fill(-0.25);
                ps.z.fill(0.125);
            }
            _ => {
                // Every particle a copy of one of n/4 + 1 lattice points.
                let m = n / 4 + 1;
                for i in 0..n {
                    let j = (7 * i) % m;
                    ps.x[i] = snap(cube.x[j]);
                    ps.y[i] = snap(cube.y[j]);
                    ps.z[i] = snap(cube.z[j]);
                }
            }
        }
        ps
    }

    #[test]
    fn splitter_equals_index_chasing_oracle_on_every_cloud_cap_and_size() {
        for kind in 0..6 {
            for n in [1, 2, 100, 20_000] {
                for cap in [1, 2, 16, 300] {
                    assert_matches_oracle(&cloud(kind, n, (10 * kind + n) as u64), cap, 64);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random clouds, sizes, caps and depth limits (a node at the
        /// limit stays a leaf over capacity).
        #[test]
        fn splitter_equals_index_chasing_oracle_bitwise(
            kind in 0usize..6,
            n in 1usize..3000,
            cap in 1usize..400,
            depth in 1usize..12,
            seed in 0u64..1_000_000,
        ) {
            let max_depth = if depth == 11 { 64 } else { depth };
            assert_matches_oracle(&cloud(kind, n, seed), cap, max_depth);
        }
    }
}
