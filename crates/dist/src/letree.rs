//! Locally essential tree (LET) construction over passive-target RMA
//! (§3.1), and its evaluation through core's run-wise pass.
//!
//! Each rank exposes three windows ([`LetWindows`]): its source-tree
//! **skeleton** (node metadata), its tree-ordered **particles**, and its
//! per-cluster **modified charges**, laid out here from the staged GPU
//! run's charges. A rank then builds the LET for every remote rank
//! completely asynchronously: it fetches the skeleton with one one-sided
//! get, runs core's batch-MAC traversal against the remote node geometry
//! ([`InteractionLists::build_on`]), and fetches exactly the data the
//! traversal demands — modified charges for MAC-accepted clusters, raw
//! particles for near/undersized clusters. No remote rank takes any
//! action.
//!
//! ## Wire format
//!
//! This module is the only place that knows it. The windows hold, per
//! owner rank:
//! - **skeleton**: one [`NodeMeta`] per node, in id order, fetched whole
//!   (`0..num_nodes`) by one get;
//! - **particles**: `[x, y, z, q]` per particle, in tree order, so direct
//!   cluster `ci` is `4·start..4·end` of its node;
//! - **modified charges**: node-major, `(n+1)³` per node, so approximated
//!   cluster `ci` is `ci·(n+1)³..(ci+1)·(n+1)³`.
//!
//! Every window holds `f64`s but the skeleton's. A cluster's payload is
//! one get of exactly its range ([`LetIssue::payload_range`]), and the
//! bytes of every get, the skeleton's too, are its length times the size
//! of its element ([`get_bytes`]). The land stage gets those ranges and
//! the plan counts those bytes, so neither states the layout again. A
//! landed window holds one block per kind ([`LetPayload`]): the
//! approximated clusters' charges one after another, and the direct
//! clusters' particles, in SoA, one after another, each block with a
//! table of where each cluster starts.
//!
//! Assembly is staged so a pipelined epoch can overlap the fill with
//! local work: **issue** ([`issue_remote_let`]) fetches the skeleton and
//! runs the traversal, **plan** ([`plan_chunks`]) groups the demanded
//! clusters into fetch chunks with exact per-chunk cost metadata, and
//! **land** ([`LetPayload::land`]) executes a window of chunks' gets —
//! per chunk, one shared-lock epoch; in it, per cluster, in ascending id.
//!
//! The plan ([`LetPlan`]) is the one record of what a LET fetched and
//! launched: the rank's messages and bytes, its staged payload, its
//! remote op counts and device bytes, its residency and both clocks are
//! summed from it, and nothing counts them a second time. The runtime's
//! traffic matrix, which records every get as it happens, is the
//! independent check the test suites reconcile the plans against.
//!
//! One order runs through all of it. The owner's node ids are pre-order,
//! the order the traversal meets clusters in, so the traversal's lists
//! come out in ascending id, and the plan and the gets take clusters in
//! ascending id too: a direct cluster and its direct descendants are a
//! run of consecutive ids, fetched and evaluated together.
//!
//! **Consume** is core's run-wise pass ([`RunColumns`]), the one the
//! local lists go through, with the LET's clusters looked up in the
//! landed payload. One driver, [`eval_remote_let`], runs it for each
//! remote rank: it lands a **window** of planned chunks, walks the
//! window's clusters — over all batches as one chunk, approximated ones
//! first, each kind in ascending id, one tile per cluster and maximal
//! run of consecutive batches that list it — into that LET's columns,
//! drops the payload, and after the last window adds the columns into
//! the rank's remote columns. The window is the whole LET without a
//! memory budget and one chunk under one — the memory-bounded mode that
//! lets a rank's LET far exceed its staging memory, since
//! [`plan_chunks`] caps each chunk at the budget. [`resident_bytes`] is
//! the one statement of what each choice keeps resident, read by the
//! rank's peak and by the pipelined clock's spans.
//!
//! Every window size executes identical gets in identical order, starts
//! each LET's columns at zero once and feeds every target the same
//! clusters in the same ascending order, so potentials, forces, op
//! counts and recorded traffic are bitwise independent of the budget.
//! The plan counts one launch per batch–cluster pair, the launches the
//! modeled device prices, whatever the runs.

use std::ops::Range;

use bltc_core::charges::ClusterCharges;
use bltc_core::config::BltcParams;
use bltc_core::cost::OpCounts;
use bltc_core::engine::{ClusterSources, RunColumns};
use bltc_core::geometry::{BoundingBox, Point3};
use bltc_core::interp::tensor::TensorGrid;
use bltc_core::kernel::TileOp;
use bltc_core::particles::ParticleSet;
use bltc_core::traversal::InteractionLists;
use bltc_core::tree::{batch::TargetBatches, ClusterNode, SourceTree};
use bltc_gpu::kernels::tile_bytes;
use mpi_sim::{Comm, Window};

/// Wire format of one source-tree node — the skeleton entry exchanged
/// during LET construction. Geometry is reduced to the bounding box;
/// center and radius are rederived exactly as `SourceTree` derives them,
/// so the remote MAC sees bit-identical geometry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeMeta {
    min: [f64; 3],
    max: [f64; 3],
    start: u32,
    end: u32,
    children: [u32; 8],
    num_children: u8,
    level: u16,
}

impl NodeMeta {
    pub(crate) fn from_node(n: &ClusterNode) -> Self {
        Self {
            min: [n.bbox.min.x, n.bbox.min.y, n.bbox.min.z],
            max: [n.bbox.max.x, n.bbox.max.y, n.bbox.max.z],
            start: n.start as u32,
            end: n.end as u32,
            children: n.children,
            num_children: n.num_children,
            level: n.level,
        }
    }

    fn to_cluster(self) -> ClusterNode {
        let bbox = BoundingBox::new(
            Point3::new(self.min[0], self.min[1], self.min[2]),
            Point3::new(self.max[0], self.max[1], self.max[2]),
        );
        ClusterNode {
            center: bbox.midpoint(),
            radius: bbox.radius(),
            bbox,
            start: self.start as usize,
            end: self.end as usize,
            children: self.children,
            num_children: self.num_children,
            level: self.level,
        }
    }
}

/// The three RMA windows a rank exposes for the epoch. Held until the
/// closing barrier: dropping a window earlier would tear down regions
/// remote ranks may still be fetching from.
pub(crate) struct LetWindows {
    /// Tree skeleton, one [`NodeMeta`] per node.
    meta: Window<NodeMeta>,
    /// Tree-ordered particles, `[x, y, z, q]` per particle.
    parts: Window<f64>,
    /// Modified charges, node-major, `(n+1)³` per node.
    qhat: Window<f64>,
}

impl LetWindows {
    /// Expose the local tree and the modified charges of every one of its
    /// clusters (`charges`, the staged run's) in the wire format
    /// (collective, like `MPI_Win_create`), and wait until every rank has:
    /// afterwards passive epochs may begin.
    pub(crate) fn expose(comm: &Comm, tree: &SourceTree, charges: &ClusterCharges) -> Self {
        let meta = tree.nodes().iter().map(NodeMeta::from_node).collect();
        let tp = tree.particles();
        let mut pdata = Vec::with_capacity(tp.len() * 4);
        for j in 0..tp.len() {
            pdata.extend_from_slice(&[tp.x[j], tp.y[j], tp.z[j], tp.q[j]]);
        }
        let qhat = (0..tree.num_nodes())
            .flat_map(|ci| charges.charges(ci))
            .copied()
            .collect();
        let wins = Self {
            meta: comm.create_window(meta),
            parts: comm.create_window(pdata),
            qhat: comm.create_window(qhat),
        };
        comm.barrier();
        wins
    }
}

/// Landed payload of one window of a LET, one block per kind, indexed
/// by [`ChunkKind`]: the window's clusters of that kind in ascending id
/// ([`window_ids`]), their payloads one after another at the same
/// positions, in land order, and where each one starts.
struct LetPayload<'a> {
    /// The window's approximated and direct cluster ids, ascending.
    ids: [&'a [u32]; 2],
    /// Per kind, where the cluster at each position starts in its block
    /// (in charges of `qhat`, in particles of `particles`), then the end.
    starts: [Vec<usize>; 2],
    /// Proxy grids of the approximated clusters, derived locally from the
    /// skeleton geometry (grids travel for free).
    grids: Vec<TensorGrid>,
    /// Fetched modified charges of the approximated clusters.
    qhat: Vec<f64>,
    /// Fetched particles of the direct clusters.
    particles: ParticleSet,
}

impl<'a> LetPayload<'a> {
    /// The **land** stage: execute the gets of `window`, consecutive
    /// planned chunks of `issue` — per chunk, its clusters' gets in
    /// ascending id under one shared-lock epoch — appending each payload
    /// to its kind's block straight from the locked window, one copy per
    /// fetched value. Every window size goes through this one
    /// implementation, so the recorded traffic and fetched bytes are
    /// identical by construction.
    fn land(
        issue: &'a LetIssue,
        window: &[ChunkPlan],
        wins: &LetWindows,
        params: &BltcParams,
    ) -> Self {
        let ids = ChunkKind::BOTH.map(|kind| window_ids(issue, window, kind));
        let particles = window.iter().map(|c| c.fetched_particles).sum::<u64>();
        let mut payload = Self {
            ids,
            starts: [vec![0], vec![0]],
            grids: Vec::with_capacity(ids[0].len()),
            qhat: Vec::new(),
            particles: ParticleSet::with_capacity(particles as usize),
        };
        for plan in window {
            let guard = [&wins.qhat, &wins.parts][plan.kind as usize].lock_shared(issue.target);
            for &ci in &issue.ids(plan.kind)[plan.first..plan.first + plan.len] {
                let range = issue.payload_range(plan.kind, ci, params.proxy_count());
                let end = guard.get_with(range, |got| match plan.kind {
                    ChunkKind::Approx => {
                        let bbox = &issue.nodes[ci as usize].bbox;
                        payload.grids.push(TensorGrid::new(params.degree, bbox));
                        payload.qhat.extend_from_slice(got);
                        payload.qhat.len()
                    }
                    ChunkKind::Direct => {
                        let p = &mut payload.particles;
                        let cols = [&mut p.x, &mut p.y, &mut p.z, &mut p.q];
                        for (k, col) in cols.into_iter().enumerate() {
                            col.extend(got.iter().skip(k).step_by(4));
                        }
                        p.len()
                    }
                });
                payload.starts[plan.kind as usize].push(end);
            }
        }
        payload
    }

    /// Position of cluster `ci` among the window's clusters of `kind`, and
    /// its range in that kind's block.
    fn block(&self, kind: ChunkKind, ci: usize) -> (usize, Range<usize>) {
        let (ids, starts) = (self.ids[kind as usize], &self.starts[kind as usize]);
        let at =
            (ids.binary_search(&(ci as u32))).expect("a listed cluster outside the landed window");
        (at, starts[at]..starts[at + 1])
    }
}

impl ClusterSources for LetPayload<'_> {
    fn approx(&self, ci: usize) -> (&TensorGrid, &[f64]) {
        let (at, r) = self.block(ChunkKind::Approx, ci);
        (&self.grids[at], &self.qhat[r])
    }

    fn direct(&self, ci: usize) -> (&[f64], &[f64], &[f64], &[f64]) {
        let (_, r) = self.block(ChunkKind::Direct, ci);
        let p = &self.particles;
        (&p.x[r.clone()], &p.y[r.clone()], &p.z[r.clone()], &p.q[r])
    }
}

/// The **issue** stage of LET assembly against one remote rank: fetch
/// the skeleton (one bulk one-sided get), run core's traversal against
/// it, and derive the distinct cluster sets the consume stage will need
/// — but fetch no payload data yet, so the payload gets can be issued in
/// chunks and overlapped with local work.
pub(crate) struct LetIssue {
    /// Remote rank whose tree this LET views.
    pub target: usize,
    /// Reconstructed remote skeleton.
    pub nodes: Vec<ClusterNode>,
    /// Per-local-batch interaction lists, each in ascending id.
    pub lists: InteractionLists,
    /// Distinct MAC-accepted clusters, ascending.
    pub approx: Vec<u32>,
    /// Distinct direct clusters, ascending.
    pub direct: Vec<u32>,
    /// Payload bytes of the skeleton get (host-side metadata; never
    /// staged to the device).
    pub skeleton_bytes: u64,
}

impl LetIssue {
    /// The distinct clusters of `kind`, ascending.
    fn ids(&self, kind: ChunkKind) -> &[u32] {
        [&self.approx, &self.direct][kind as usize]
    }

    /// Where the payload of cluster `ci` of `kind` lives in its owner's
    /// window, in `f64`s, at `m3 = (n+1)³` proxies a cluster: the one
    /// statement of the payload layout. The land stage gets exactly this
    /// range, and the plan counts its bytes.
    fn payload_range(&self, kind: ChunkKind, ci: u32, m3: usize) -> Range<usize> {
        let ci = ci as usize;
        match kind {
            ChunkKind::Approx => ci * m3..(ci + 1) * m3,
            ChunkKind::Direct => 4 * self.nodes[ci].start..4 * self.nodes[ci].end,
        }
    }
}

/// Bytes of a get of `range` from a window of `T`s.
fn get_bytes<T>(range: &Range<usize>) -> u64 {
    (range.len() * std::mem::size_of::<T>()) as u64
}

pub(crate) fn issue_remote_let(
    target: usize,
    batches: &TargetBatches,
    params: &BltcParams,
    wins: &LetWindows,
) -> LetIssue {
    // Skeleton exchange: one bulk one-sided get of the node array.
    let skeleton = 0..wins.meta.region_len(target);
    let skeleton_bytes = get_bytes::<NodeMeta>(&skeleton);
    let nodes: Vec<ClusterNode> = wins.meta.lock_shared(target).get_with(skeleton, |metas| {
        metas.iter().copied().map(NodeMeta::to_cluster).collect()
    });

    // Core's traversal against the remote skeleton: no communication,
    // parallel over batches (the paper's OpenMP-parallel LET traversal),
    // each batch's lists in that batch's slot. The skeleton rebuilds the
    // owner's geometry bit for bit, so the lists are the ones the owner's
    // own tree gives, in its pre-order ids: ascending.
    let lists = InteractionLists::build_on(batches, &nodes, params);
    let ids = |used: Vec<bool>| {
        (0..)
            .zip(used)
            .filter_map(|(i, u)| u.then_some(i))
            .collect()
    };
    LetIssue {
        target,
        approx: ids(lists.used_approx_nodes(nodes.len())),
        direct: ids(lists.used_direct_nodes(nodes.len())),
        nodes,
        lists,
        skeleton_bytes,
    }
}

/// The fetch schedule of one LET, kept after evaluation: the one record
/// of what that LET fetched and launched. The land stage executes it get
/// for get, and the rank's traffic, remote op counts, residency and both
/// clocks read it.
pub(crate) struct LetPlan {
    /// Remote rank this LET views.
    pub target: usize,
    /// Skeleton payload bytes (one host-side get).
    pub skeleton_bytes: u64,
    /// Payload chunks in land order.
    pub chunks: Vec<ChunkPlan>,
}

impl LetPlan {
    /// One-sided gets: the skeleton's, then one per cluster.
    pub(crate) fn messages(&self) -> u64 {
        1 + self.chunks.iter().map(|c| c.messages).sum::<u64>()
    }

    /// Bytes of those gets.
    pub(crate) fn bytes(&self) -> u64 {
        self.skeleton_bytes + self.payload_bytes()
    }

    /// Payload bytes, all staged onto the device (the skeleton stays on
    /// the host).
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.bytes).sum()
    }
}

/// The remote op counts of `plans`: target–source pairs per path and
/// batch–cluster launches, summed as integers.
pub(crate) fn remote_ops(plans: &[LetPlan]) -> OpCounts {
    let mut ops = OpCounts::default();
    for c in plans.iter().flat_map(|p| &p.chunks) {
        match c.kind {
            ChunkKind::Approx => ops.approx_interactions += c.interactions,
            ChunkKind::Direct => ops.direct_interactions += c.interactions,
        }
        ops.kernel_launches += c.launches;
    }
    ops
}

/// The modeled device bytes of the launches of `plans`, for a pass of
/// `target_cols` columns ([`tile_bytes`] of the summed targets and
/// sources: it is linear).
pub(crate) fn remote_device_bytes(plans: &[LetPlan], target_cols: usize) -> f64 {
    let chunks = || plans.iter().flat_map(|p| &p.chunks);
    let targets = chunks().map(|c| c.eval_targets).sum();
    tile_bytes(targets, chunks().map(|c| c.eval_sources).sum(), target_cols)
}

/// Which payload window a chunk's gets hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum ChunkKind {
    /// Modified charges of MAC-accepted clusters.
    #[default]
    Approx,
    /// Raw particles of direct clusters.
    Direct,
}

impl ChunkKind {
    /// Both kinds, in land order.
    const BOTH: [Self; 2] = [Self::Approx, Self::Direct];
}

/// One chunk of the LET fill: a contiguous group of distinct clusters
/// whose payloads are fetched in one passive-target epoch, plus the
/// exact communication and evaluation work the chunk carries. Every
/// count is derived analytically from the interaction lists; the land
/// stage issues exactly these gets, and the runtime's traffic matrix,
/// which records every get as it happens, is reconciled against their
/// sums in the test suites and on every epoch of the persistent
/// integrator.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChunkPlan {
    pub kind: ChunkKind,
    /// Start index into [`LetIssue::approx`] / [`LetIssue::direct`].
    pub first: usize,
    /// Clusters in the chunk.
    pub len: usize,
    /// One-sided gets the chunk issues (one per cluster).
    pub messages: u64,
    /// Payload bytes fetched (all staged onto the device).
    pub bytes: u64,
    /// Remote particles fetched (direct chunks; 0 for approx chunks).
    pub fetched_particles: u64,
    /// Batch–cluster kernel launches evaluating against the chunk.
    pub launches: u64,
    /// Σ batch targets over those launches.
    pub eval_targets: u64,
    /// Σ source count (proxies or particles) over those launches.
    pub eval_sources: u64,
    /// Σ targets × sources — approx or direct interactions per
    /// [`ChunkPlan::kind`].
    pub interactions: u64,
}

/// The **plan** stage: group the distinct clusters of one LET into fetch
/// chunks (approx chunks first, then direct, both ascending — the same
/// order the monolithic fill used) and precompute each chunk's
/// communication payload and evaluation work from the per-batch
/// interaction lists.
///
/// Chunk granularity obeys two caps: at most `chunk_clusters` clusters
/// per chunk, and — when `budget` is set — at most `budget` payload
/// bytes per chunk, so the consumer's one-chunk window never holds more
/// than `budget` resident remote bytes. The minimum resident unit is one
/// cluster: a cluster whose payload alone exceeds the budget still gets
/// its own (over-budget) chunk, which the caller can detect by comparing
/// the reported peak against the budget. Every emitted chunk carries at
/// least one cluster — an empty chunk would charge a shared-lock epoch
/// that fetches nothing.
pub(crate) fn plan_chunks(
    issue: &LetIssue,
    batches: &TargetBatches,
    m3: usize,
    chunk_clusters: usize,
    budget: Option<u64>,
) -> Vec<ChunkPlan> {
    let chunk_clusters = chunk_clusters.max(1);
    let mut plans = Vec::new();
    for kind in ChunkKind::BOTH {
        let ids = issue.ids(kind);
        // Per cluster, at its position in `ids`: (launches, Σ batch
        // targets) over the interaction lists.
        let mut uses = vec![(0u64, 0u64); ids.len()];
        for (b, bl) in batches.batches().iter().zip(&issue.lists.per_batch) {
            let list = [&bl.approx, &bl.direct][kind as usize];
            for ci in list {
                let u = &mut uses[ids.binary_search(ci).expect("a listed cluster is distinct")];
                u.0 += 1;
                u.1 += b.num_targets() as u64;
            }
        }
        let mut start = 0;
        while start < ids.len() {
            let mut plan = ChunkPlan {
                kind,
                first: start,
                ..ChunkPlan::default()
            };
            while plan.len < chunk_clusters && start + plan.len < ids.len() {
                let ci = ids[start + plan.len];
                let payload = get_bytes::<f64>(&issue.payload_range(kind, ci, m3));
                let src = match kind {
                    ChunkKind::Approx => m3,
                    ChunkKind::Direct => issue.nodes[ci as usize].num_particles(),
                } as u64;
                // The first cluster is always admitted (one cluster is
                // the minimum resident unit); after that the byte budget
                // closes the chunk.
                if plan.len > 0 && budget.is_some_and(|b| plan.bytes + payload > b) {
                    break;
                }
                let (cnt, sum_nb) = uses[start + plan.len];
                plan.len += 1;
                plan.messages += 1;
                plan.bytes += payload;
                plan.fetched_particles += if kind == ChunkKind::Direct { src } else { 0 };
                plan.launches += cnt;
                plan.eval_targets += sum_nb;
                plan.eval_sources += cnt * src;
                plan.interactions += sum_nb * src;
            }
            if plan.len == 0 {
                // Defensive: never emit a zero-cluster chunk — the
                // packing loop always admits at least one cluster, but a
                // regression here must not charge empty lock epochs.
                break;
            }
            start += plan.len;
            plans.push(plan);
        }
    }
    plans
}

/// The one LET consumer: land the planned chunks of one LET a *window*
/// at a time, add each window's clusters into that LET's columns through
/// core's run-wise pass ([`RunColumns::eval`], over all batches as one
/// chunk: the rank's thread runs it, as it runs the local pass), drop
/// the window's payload, and add the columns into `acc`, the rank's
/// remote columns over its batch-order targets, once. The window is the
/// whole LET without a memory budget and one chunk under one
/// ([`resident_bytes`] prices what each choice keeps resident).
///
/// Windows hold consecutive chunks, approx chunks before direct ones,
/// each an ascending run of cluster ids, and a batch's lists ascend —
/// so every target receives exactly its lists, approximated clusters
/// first, each in ascending id, into columns that start at `0.0` once
/// per LET, whatever the window: the columns are bitwise independent of
/// the window and of the pool size. What the LET fetched and launched is
/// its plan's to say ([`LetPlan`]); no RMA happens in the pass either:
/// the land stage fetched the data.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_remote_let<const C: usize, O: TileOp<C> + ?Sized>(
    issue: &LetIssue,
    chunks: &[ChunkPlan],
    budget: Option<u64>,
    batches: &TargetBatches,
    wins: &LetWindows,
    params: &BltcParams,
    op: &O,
    acc: &mut [Vec<f64>; C],
) {
    let cols = RunColumns::new(batches, false);
    let window = if budget.is_some() { 1 } else { chunks.len() };
    for window in chunks.chunks(window.max(1)) {
        let payload = LetPayload::land(issue, window, wins, params);
        let [approx, direct] = payload.ids;
        let lists = |b: usize| {
            let bl = &issue.lists.per_batch[b];
            [held(&bl.approx, approx), held(&bl.direct, direct)]
        };
        cols.eval(op, lists, &payload);
        // Evaluate-and-discard: the window's payload dies here, before
        // the next window lands.
    }
    for (col, part) in acc.iter_mut().zip(cols.into_columns()) {
        for (slot, v) in col.iter_mut().zip(part) {
            *slot += v;
        }
    }
}

/// The clusters of `kind` a window's chunks hold: one ascending run of
/// the LET's distinct ids of that kind.
fn window_ids<'a>(issue: &'a LetIssue, window: &[ChunkPlan], kind: ChunkKind) -> &'a [u32] {
    let ids = issue.ids(kind);
    let (lo, hi) = (window.iter().filter(|c| c.kind == kind))
        .fold((usize::MAX, 0), |(lo, hi), c| {
            (lo.min(c.first), hi.max(c.first + c.len))
        });
    &ids[lo.min(hi)..hi]
}

/// The part of an ascending batch list that a window's ascending `ids`
/// hold: the entries between its first and last.
fn held<'a>(list: &'a [u32], ids: &[u32]) -> &'a [u32] {
    match (ids.first(), ids.last()) {
        (Some(&lo), Some(&hi)) => {
            &list[list.partition_point(|&c| c < lo)..list.partition_point(|&c| c <= hi)]
        }
        _ => &[],
    }
}

/// The LET's residency, decided here alone: the remote payload bytes
/// resident while each chunk of a rank's `plans` is evaluated, in land
/// order. Under a memory budget a chunk is dropped before the next lands,
/// so only its own payload is resident. Without one every LET lands whole
/// and its payload stays staged on the device until the epoch's compute
/// phase is over (the serial clock stages all of it before computing), so
/// the resident payload is everything landed so far.
/// [`RankReport::peak_let_bytes`](crate::RankReport::peak_let_bytes) is
/// the maximum, and the pipelined clock stamps each chunk-get span with
/// its value.
pub(crate) fn resident_bytes(
    plans: &[LetPlan],
    budget: Option<u64>,
) -> impl Iterator<Item = u64> + '_ {
    let mut resident = 0;
    plans.iter().flat_map(|p| &p.chunks).map(move |c| {
        resident = c.bytes + if budget.is_some() { 0 } else { resident };
        resident
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::kernel::{Coulomb, GradientKernel, Kernel, RegularizedCoulomb, Yukawa};
    use bltc_core::traversal::BatchLists;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_batches() -> TargetBatches {
        let ps = ParticleSet::random_cube(64, 7);
        let params = BltcParams::new(0.7, 2, 8, 16);
        TargetBatches::build(&ps, &params)
    }

    /// Lists naming the same clusters for every batch.
    fn every_batch(batches: &TargetBatches, approx: &[u32], direct: &[u32]) -> InteractionLists {
        let (approx, direct) = (approx.to_vec(), direct.to_vec());
        let per_batch = vec![BatchLists { approx, direct }; batches.len()];
        InteractionLists { per_batch }
    }

    /// A hand-built issue whose every batch demands every one of
    /// `n_approx` MAC-accepted clusters (payload `m3 * 8` bytes each).
    fn approx_issue(n_approx: usize, batches: &TargetBatches) -> LetIssue {
        let ids: Vec<u32> = (0..n_approx as u32).collect();
        LetIssue {
            target: 1,
            nodes: Vec::new(),
            lists: every_batch(batches, &ids, &[]),
            approx: ids,
            direct: Vec::new(),
            skeleton_bytes: 0,
        }
    }

    /// A direct-only issue with one node per cluster, `nc` particles
    /// each (payload `nc * 32` bytes per cluster).
    fn direct_issue(n_direct: usize, nc: usize, batches: &TargetBatches) -> LetIssue {
        let bbox = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0));
        let nodes: Vec<ClusterNode> = (0..n_direct)
            .map(|i| ClusterNode {
                center: bbox.midpoint(),
                radius: bbox.radius(),
                bbox,
                start: i * nc,
                end: (i + 1) * nc,
                children: [0; 8],
                num_children: 0,
                level: 0,
            })
            .collect();
        let ids: Vec<u32> = (0..n_direct as u32).collect();
        LetIssue {
            target: 1,
            nodes,
            lists: every_batch(batches, &[], &ids),
            approx: Vec::new(),
            direct: ids,
            skeleton_bytes: 0,
        }
    }

    #[test]
    fn exact_multiple_cluster_counts_emit_no_empty_trailing_chunk() {
        let b = tiny_batches();
        // 6 clusters at chunk size 3: exactly 2 chunks of 3 — a naive
        // split must not append a zero-cluster trailing plan that would
        // charge an empty shared-lock epoch.
        let plans = plan_chunks(&approx_issue(6, &b), &b, 27, 3, None);
        assert_eq!(plans.len(), 2);
        assert_eq!(
            plans.iter().map(|p| (p.first, p.len)).collect::<Vec<_>>(),
            vec![(0, 3), (3, 3)]
        );
        assert!(plans.iter().all(|p| p.len > 0), "no empty chunk plans");
        assert_eq!(plans.iter().map(|p| p.messages).sum::<u64>(), 6);

        // Chunk size exactly the cluster count: one full chunk.
        let plans = plan_chunks(&approx_issue(4, &b), &b, 27, 4, None);
        assert_eq!(plans.len(), 1);
        assert_eq!((plans[0].first, plans[0].len), (0, 4));
    }

    #[test]
    fn byte_budget_closes_chunks_below_the_cluster_cap() {
        let b = tiny_batches();
        // 27 * 8 = 216 bytes per approx cluster; a 500-byte budget
        // admits two per chunk even though the cluster cap allows 100.
        let plans = plan_chunks(&approx_issue(5, &b), &b, 27, 100, Some(500));
        assert_eq!(
            plans.iter().map(|p| p.len).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert!(plans.iter().all(|p| p.bytes <= 500));
        assert_eq!(plans.iter().map(|p| p.messages).sum::<u64>(), 5);

        // Direct clusters: 4 particles × 32 bytes = 128 bytes each.
        let plans = plan_chunks(&direct_issue(5, 4, &b), &b, 27, 100, Some(300));
        assert_eq!(
            plans.iter().map(|p| p.len).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert!(plans.iter().all(|p| p.bytes <= 300));
        assert_eq!(plans.iter().map(|p| p.fetched_particles).sum::<u64>(), 20);
    }

    #[test]
    fn oversized_single_cluster_still_gets_its_own_chunk() {
        let b = tiny_batches();
        // A 1-byte budget is below any single payload: the planner must
        // degrade to one cluster per chunk (the minimum resident unit),
        // never stall or emit empty plans.
        let plans = plan_chunks(&approx_issue(3, &b), &b, 27, 100, Some(1));
        assert_eq!(plans.len(), 3);
        assert!(plans.iter().all(|p| p.len == 1));
        assert!(plans.iter().all(|p| p.bytes == 216));
    }

    #[test]
    fn budget_never_changes_chunk_totals() {
        let b = tiny_batches();
        let issue = direct_issue(7, 3, &b);
        let base = plan_chunks(&issue, &b, 27, 4, None);
        for budget in [None, Some(u64::MAX), Some(200), Some(96), Some(1)] {
            let plans = plan_chunks(&issue, &b, 27, 4, budget);
            assert!(plans.iter().all(|p| p.len > 0));
            for field in [
                |p: &ChunkPlan| p.messages,
                |p: &ChunkPlan| p.bytes,
                |p: &ChunkPlan| p.fetched_particles,
                |p: &ChunkPlan| p.launches,
                |p: &ChunkPlan| p.eval_targets,
                |p: &ChunkPlan| p.eval_sources,
                |p: &ChunkPlan| p.interactions,
            ] {
                assert_eq!(
                    plans.iter().map(field).sum::<u64>(),
                    base.iter().map(field).sum::<u64>(),
                    "per-chunk cost totals must be budget-invariant"
                );
            }
        }
    }

    /// `ps` cut into `ranks` slabs along x, one per rank.
    fn slabs(ps: &ParticleSet, ranks: usize) -> Vec<ParticleSet> {
        let mut idx: Vec<usize> = (0..ps.len()).collect();
        idx.sort_by(|&a, &b| ps.x[a].total_cmp(&ps.x[b]));
        (idx.chunks(ps.len().div_ceil(ranks)))
            .map(|c| ps.subset(c))
            .collect()
    }

    /// Runs `body(comm, local tree, local batches, windows, locals)` on
    /// every rank of a world over `slabs(ps, ranks)`, with the windows
    /// exposed as a rank's staged run exposes them.
    fn on_let_world<R: Send + 'static>(
        ps: &ParticleSet,
        ranks: usize,
        params: &BltcParams,
        body: impl Fn(&Comm, &SourceTree, &TargetBatches, &LetWindows, &[ParticleSet]) -> R + Sync,
    ) -> Vec<R> {
        let locals = slabs(ps, ranks);
        mpi_sim::run_spmd(ranks, |comm| {
            let local = &locals[comm.rank()];
            let (tree, batches) = SourceTree::build_with_batches(local, local, params);
            let charges = ClusterCharges::compute_all(&tree, params.degree);
            let wins = LetWindows::expose(comm, &tree, &charges);
            let out = body(comm, &tree, &batches, &wins, &locals);
            comm.barrier();
            out
        })
        .results
    }

    /// What [`per_batch_reference`] computed and counted.
    struct Reference<const C: usize> {
        cols: [Vec<f64>; C],
        /// Launches and pairs, one launch per batch–cluster pair.
        ops: OpCounts,
        device_bytes: f64,
        /// Payload gets and their bytes, counted from the landed data.
        gets: (u64, u64),
    }

    /// The per-batch loop the run-wise consumer replaced: the whole LET
    /// landed, then each batch's targets against its approximated
    /// clusters (flat tiles over the proxies) and then its direct ones,
    /// each list ascending, into columns that start at `0.0`, with the
    /// counts and device bytes of one launch per batch–cluster pair, and
    /// the gets and bytes the landed payload holds.
    fn per_batch_reference<const C: usize, O: TileOp<C> + ?Sized>(
        issue: &LetIssue,
        batches: &TargetBatches,
        wins: &LetWindows,
        params: &BltcParams,
        op: &O,
    ) -> Reference<C> {
        let m3 = params.proxy_count();
        let whole = plan_chunks(issue, batches, m3, usize::MAX, None);
        let payload = LetPayload::land(issue, &whole, wins, params);
        let clusters = payload.starts.iter().map(|s| s.len() as u64 - 1).sum();
        let landed = payload.qhat.len() + 4 * payload.particles.len();
        let gets = (clusters, 8 * landed as u64);
        let tp = batches.particles();
        let mut cols: [Vec<f64>; C] = std::array::from_fn(|_| vec![0.0; tp.len()]);
        let (mut ops, mut device_bytes) = (OpCounts::default(), 0.0);
        for (b, bl) in batches.batches().iter().zip(&issue.lists.per_batch) {
            let (t, nb) = (tp.xyz(b.start..b.end), b.num_targets() as u64);
            let mut out = cols.each_mut().map(|c| &mut c[b.start..b.end]);
            for &ci in &bl.approx {
                let (grid, qhat) = payload.approx(ci as usize);
                let (px, py, pz) = grid.proxies();
                op.tile(t, (px, py, pz, qhat), &mut out);
                ops.approx_interactions += nb * m3 as u64;
                ops.kernel_launches += 1;
                device_bytes += tile_bytes(nb, m3 as u64, O::TARGET_COLS);
            }
            for &ci in &bl.direct {
                let s = payload.direct(ci as usize);
                op.tile(t, s, &mut out);
                ops.direct_interactions += nb * s.0.len() as u64;
                ops.kernel_launches += 1;
                device_bytes += tile_bytes(nb, s.0.len() as u64, O::TARGET_COLS);
            }
        }
        Reference {
            cols,
            ops,
            device_bytes,
            gets,
        }
    }

    /// Tiles issued, beside the op that computes them.
    struct Counting<'a, O: ?Sized>(&'a O, AtomicU64);

    impl<const C: usize, O: TileOp<C> + ?Sized> TileOp<C> for Counting<'_, O> {
        const APPROX_LAUNCH: &'static str = O::APPROX_LAUNCH;
        const DIRECT_LAUNCH: &'static str = O::DIRECT_LAUNCH;

        fn tile(
            &self,
            t: (&[f64], &[f64], &[f64]),
            s: (&[f64], &[f64], &[f64], &[f64]),
            out: &mut [&mut [f64]; C],
        ) {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.tile(t, s, out);
        }

        fn flops_per_pair(&self, gpu: bool) -> f64 {
            self.0.flops_per_pair(gpu)
        }
    }

    fn bits<const C: usize>(cols: &[Vec<f64>; C]) -> Vec<Vec<u64>> {
        cols.iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// `eval_remote_let` of every LET of this rank under every budget
    /// equals [`per_batch_reference`] bit for bit in its columns, and the
    /// plan's totals equal the reference's own counts: op counts, device
    /// bytes, and the payload gets and bytes that landed.
    fn assert_runs_equal_the_per_batch_loop<const C: usize, O: TileOp<C> + ?Sized>(
        comm: &Comm,
        batches: &TargetBatches,
        wins: &LetWindows,
        params: &BltcParams,
        op: &O,
    ) {
        let m3 = params.proxy_count();
        for t in (0..comm.size()).filter(|&t| t != comm.rank()) {
            let issue = issue_remote_let(t, batches, params, wins);
            let want = per_batch_reference(&issue, batches, wins, params, op);
            for budget in [None, Some(u64::MAX), Some(16 * 1024), Some(1)] {
                let chunks = plan_chunks(&issue, batches, m3, 8, budget);
                let mut got: [Vec<f64>; C] =
                    std::array::from_fn(|_| vec![0.0; batches.particles().len()]);
                eval_remote_let(&issue, &chunks, budget, batches, wins, params, op, &mut got);
                let at = format!("rank {} LET of {t}, budget {budget:?}", comm.rank());
                let (got_bits, want_bits) = (bits(&got), bits(&want.cols));
                let differ = (got_bits.iter().flatten().zip(want_bits.iter().flatten()))
                    .filter(|(g, w)| g != w)
                    .count();
                assert_eq!(differ, 0, "values differing in the columns: {at}");
                let plan = [LetPlan {
                    target: t,
                    skeleton_bytes: issue.skeleton_bytes,
                    chunks,
                }];
                assert_eq!(remote_ops(&plan), want.ops, "op counts: {at}");
                let device_bytes = remote_device_bytes(&plan, O::TARGET_COLS);
                assert_eq!(device_bytes, want.device_bytes, "device bytes: {at}");
                let gets = (plan[0].messages() - 1, plan[0].payload_bytes());
                assert_eq!(gets, want.gets, "payload gets and bytes: {at}");
                assert_eq!(plan[0].bytes(), gets.1 + issue.skeleton_bytes, "{at}");
            }
        }
    }

    /// The run-wise LET consumer equals the per-batch loop it replaced,
    /// bit for bit, under budgets from none to one byte, on pools of 1,
    /// 2 and 4 workers, in the potential pass (`C = 1`) and the field
    /// pass (`C = 4`) of `Coulomb`, `RegularizedCoulomb` and `Yukawa`,
    /// on uniform and Plummer inputs on 2–4 ranks. On the Plummer input
    /// the runs issue fewer tiles than there are batch–cluster pairs.
    #[test]
    fn run_wise_let_equals_the_per_batch_loop_bitwise() {
        let cases = [
            (
                ParticleSet::random_cube(900, 31),
                2,
                BltcParams::new(0.8, 3, 30, 30),
            ),
            (
                ParticleSet::random_cube(1000, 32),
                3,
                BltcParams::new(0.7, 3, 40, 40),
            ),
            (
                ParticleSet::plummer(1200, 1.0, 33),
                4,
                BltcParams::new(0.7, 4, 30, 30),
            ),
        ];
        let (yukawa, softened) = (Yukawa::new(0.5), RegularizedCoulomb::new(0.05));
        let pots: [&dyn Kernel; 3] = [&Coulomb, &softened, &yukawa];
        let fields: [&dyn GradientKernel; 3] = [&Coulomb, &softened, &yukawa];
        for (ps, ranks, params) in &cases {
            for workers in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .expect("pool build");
                pool.install(|| {
                    on_let_world(ps, *ranks, params, |comm, _, batches, wins, _| {
                        for k in pots {
                            assert_runs_equal_the_per_batch_loop(comm, batches, wins, params, k);
                        }
                        for k in fields {
                            assert_runs_equal_the_per_batch_loop(comm, batches, wins, params, k);
                        }
                    })
                });
            }
        }

        // Tiles against batch–cluster pairs, on the Plummer input.
        let (ps, ranks, params) = &cases[2];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool build");
        let counts = pool.install(|| {
            on_let_world(ps, *ranks, params, |comm, _, batches, wins, _| {
                let op = Counting(&Coulomb as &dyn Kernel, AtomicU64::new(0));
                let mut acc = [vec![0.0; batches.particles().len()]];
                let mut launches = 0;
                for t in (0..comm.size()).filter(|&t| t != comm.rank()) {
                    let issue = issue_remote_let(t, batches, params, wins);
                    let chunks = plan_chunks(&issue, batches, params.proxy_count(), 8, None);
                    eval_remote_let(&issue, &chunks, None, batches, wins, params, &op, &mut acc);
                    launches += chunks.iter().map(|c| c.launches).sum::<u64>();
                }
                (op.1.into_inner(), launches)
            })
        });
        let (tiles, pairs) = counts.iter().fold((0, 0), |(a, b), &(t, p)| (a + t, b + p));
        assert!(
            tiles < pairs,
            "{tiles} LET tiles for {pairs} batch-cluster pairs"
        );
    }

    /// In a debug build the LET's walk refuses a list that is not
    /// strictly ascending, the one order its runs rely on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn a_let_list_out_of_ascending_id_is_refused() {
        let ps = ParticleSet::random_cube(600, 37);
        let params = BltcParams::new(0.8, 3, 30, 30);
        on_let_world(&ps, 2, &params, |comm, _, batches, wins, _| {
            let t = 1 - comm.rank();
            let mut issue = issue_remote_let(t, batches, &params, wins);
            let lists = issue.lists.per_batch.iter_mut();
            lists
                .max_by_key(|bl| bl.direct.len())
                .expect("a batch")
                .direct
                .reverse();
            let chunks = plan_chunks(&issue, batches, params.proxy_count(), 8, None);
            let mut acc = [vec![0.0; batches.particles().len()]];
            let op = &Coulomb as &dyn Kernel;
            eval_remote_let(&issue, &chunks, None, batches, wins, &params, op, &mut acc);
        });
    }

    /// Every cluster's payload range, the one statement of the layout,
    /// holds in its owner's windows exactly that cluster's modified
    /// charges and its particles as `[x, y, z, q]`, bit for bit, at the
    /// degrees 1, 3 and 6, on a Plummer input on 3 ranks.
    #[test]
    fn each_payload_range_holds_that_clusters_payload() {
        let ps = ParticleSet::plummer(900, 1.0, 38);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for degree in [1, 3, 6] {
            let params = BltcParams::new(0.7, degree, 30, 30);
            let m3 = params.proxy_count();
            on_let_world(&ps, 3, &params, |comm, _, batches, wins, locals| {
                let t = (comm.rank() + 1) % comm.size();
                let issue = issue_remote_let(t, batches, &params, wins);
                let (owner, _) = SourceTree::build_with_batches(&locals[t], &locals[t], &params);
                let charges = ClusterCharges::compute_all(&owner, degree);
                let (qhat, parts) = (wins.qhat.lock_shared(t), wins.parts.lock_shared(t));
                for ci in 0..owner.num_nodes() {
                    let at = format!("degree {degree}, rank {t}'s cluster {ci}");
                    let got = qhat.get_with(
                        issue.payload_range(ChunkKind::Approx, ci as u32, m3),
                        <[f64]>::to_vec,
                    );
                    assert_eq!(bits(&got), bits(charges.charges(ci)), "{at}");
                    let got = parts.get_with(
                        issue.payload_range(ChunkKind::Direct, ci as u32, m3),
                        <[f64]>::to_vec,
                    );
                    let (x, y, z, q) = owner.node_particles(ci);
                    let want = (0..x.len()).flat_map(|j| [x[j], y[j], z[j], q[j]]);
                    assert_eq!(bits(&got), bits(&want.collect::<Vec<_>>()), "{at}");
                }
            });
        }
    }

    /// Each batch's LET lists, traversed on the skeleton rebuilt from the
    /// wire, equal core's lists on the owner's own tree, entry for entry
    /// and in the same order — the round trip through [`NodeMeta`] gives
    /// bit-identical MAC decisions — and the distinct sets are exactly the
    /// clusters some list names.
    /// On uniform, Plummer, coincident and flat clouds.
    #[test]
    fn skeleton_lists_equal_the_owners_lists() {
        let coincident = ParticleSet::new(
            vec![0.5; 300],
            vec![0.5; 300],
            vec![0.5; 300],
            vec![1.0; 300],
        );
        let mut flat = ParticleSet::random_cube(1200, 35);
        flat.z.iter_mut().for_each(|z| *z = 0.0);
        let cases = [
            (ParticleSet::random_cube(1500, 34), 3),
            (ParticleSet::plummer(1500, 1.0, 36), 4),
            (coincident, 2),
            (flat, 3),
        ];
        let params = BltcParams::new(0.7, 3, 30, 30);
        for (c, (ps, ranks)) in cases.iter().enumerate() {
            let approximated =
                on_let_world(ps, *ranks, &params, |comm, _, batches, wins, locals| {
                    let mut approximated = 0;
                    for t in (0..comm.size()).filter(|&t| t != comm.rank()) {
                        let issue = issue_remote_let(t, batches, &params, wins);
                        let (owner, _) =
                            SourceTree::build_with_batches(&locals[t], &locals[t], &params);
                        let want = InteractionLists::build(batches, &owner, &params);
                        let at = format!("case {c}, rank {} LET of {t}", comm.rank());
                        assert_eq!(issue.nodes.len(), owner.num_nodes(), "{at}");
                        for (got, want) in issue.lists.per_batch.iter().zip(&want.per_batch) {
                            assert_eq!(
                                (&got.approx, &got.direct),
                                (&want.approx, &want.direct),
                                "{at}"
                            );
                        }
                        let named = |pick: fn(&BatchLists) -> &Vec<u32>| {
                            let mut ids: Vec<u32> =
                                want.per_batch.iter().flat_map(pick).copied().collect();
                            ids.sort_unstable();
                            ids.dedup();
                            ids
                        };
                        assert_eq!(issue.approx, named(|bl| &bl.approx), "{at}");
                        assert_eq!(issue.direct, named(|bl| &bl.direct), "{at}");
                        approximated += issue.approx.len();
                    }
                    approximated
                });
            if c < 2 {
                assert!(
                    approximated.iter().sum::<usize>() > 0,
                    "case {c} approximates nothing"
                );
            }
        }
    }
}
