//! Locally essential tree (LET) construction over passive-target RMA
//! (§3.1), and the one loop that evaluates it.
//!
//! Each rank exposes three windows ([`LetWindows`]): its source-tree
//! **skeleton** (node metadata), its tree-ordered **particles**, and its
//! per-cluster **modified charges** — the buffer the staged GPU run
//! copied back from the device, moved in as it is. A rank then builds
//! the LET for every remote rank completely asynchronously: it fetches
//! the skeleton with one one-sided get, runs the *local* batch-MAC
//! traversal against the remote node geometry, and fetches exactly the
//! data the traversal demands — modified charges for MAC-accepted
//! clusters, raw particles for near/undersized clusters. No remote rank
//! takes any action.
//!
//! Assembly is staged so a pipelined epoch can overlap the fill with
//! local work: **issue** ([`issue_remote_let`]) fetches the skeleton and
//! runs the traversal, **plan** ([`plan_chunks`]) groups the demanded
//! clusters into fetch chunks with exact per-chunk cost metadata, and
//! **land** ([`land_chunk`]) executes one chunk's gets — per cluster, in
//! ascending id, under one shared-lock epoch.
//!
//! **Consume** is a single body, `eval_clusters`: one batch against a
//! run of landed clusters — approximated ones first, then direct ones,
//! each in ascending id — through [`TileOp::tile`], with the op count,
//! launch and device-byte tallies taken beside each tile. The pass
//! (potentials, or potentials and gradients) is whatever op the caller
//! hands over; nothing here is written per pass.
//!
//! One driver, [`eval_remote_let`], runs the body for each remote rank:
//! it lands a **window** of planned chunks, evaluates the window's
//! clusters into that LET's per-batch partials in parallel over batches,
//! drops the payload, and after the last window merges the partials into
//! the rank's batch-order columns ([`RemoteEval::merge`]). The window is
//! the whole LET without a memory budget and one chunk under one — the
//! memory-bounded mode that lets a rank's LET far exceed its staging
//! memory, since [`plan_chunks`] caps each chunk at the budget.
//! [`resident_bytes`] is the one statement of what each choice keeps
//! resident, read by the rank's peak and by the pipelined clock's spans.
//!
//! Every window size executes identical gets in identical order, starts
//! every batch's partial at zero once per LET and feeds it the same
//! clusters in the same ascending order, so potentials, forces, op
//! counts and recorded traffic are bitwise independent of the budget.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use rayon::prelude::*;

use bltc_core::config::BltcParams;
use bltc_core::cost::OpCounts;
use bltc_core::geometry::{BoundingBox, Point3};
use bltc_core::interp::tensor::TensorGrid;
use bltc_core::kernel::TileOp;
use bltc_core::mac::{Mac, MacDecision};
use bltc_core::tree::{batch::TargetBatches, ClusterNode, SourceTree};
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

/// One-sided traffic this rank originated during LET construction
/// (drives the α–β network model; the runtime's global `TrafficMatrix`
/// records the same operations for the aggregate report).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CommTally {
    /// One-sided operations issued to remote ranks.
    pub messages: u64,
    /// Total remote payload bytes (skeleton + charges + particles).
    pub bytes: u64,
    /// Payload bytes that must additionally be staged onto the device
    /// (charges + particles; the skeleton stays on the host).
    pub device_bytes: u64,
}

impl CommTally {
    fn record(&mut self, bytes: u64, to_device: bool) {
        self.messages += 1;
        self.bytes += bytes;
        if to_device {
            self.device_bytes += bytes;
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
    /// Expose the local tree (collective, like `MPI_Win_create`) and wait
    /// until every rank has: afterwards passive epochs may begin.
    /// `qhat` is every cluster's modified charges in the window layout —
    /// the staged GPU run's DtH buffer.
    pub(crate) fn expose(comm: &Comm, tree: &SourceTree, qhat: Vec<f64>) -> Self {
        let meta = tree.nodes().iter().map(NodeMeta::from_node).collect();
        let tp = tree.particles();
        let mut pdata = Vec::with_capacity(tp.len() * 4);
        for j in 0..tp.len() {
            pdata.extend_from_slice(&[tp.x[j], tp.y[j], tp.z[j], tp.q[j]]);
        }
        let wins = Self {
            meta: comm.create_window(meta),
            parts: comm.create_window(pdata),
            qhat: comm.create_window(qhat),
        };
        comm.barrier();
        wins
    }
}

/// Raw particles fetched for one remote direct-interaction cluster.
struct RemoteParticles {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    q: Vec<f64>,
}

/// Landed payload of one window of a LET, keyed by remote cluster id.
#[derive(Default)]
struct LetPayload {
    /// Fetched modified charges of MAC-accepted clusters.
    qhat: BTreeMap<u32, Vec<f64>>,
    /// Proxy grids of MAC-accepted clusters (derived locally from the
    /// skeleton geometry — grids travel for free).
    grids: BTreeMap<u32, TensorGrid>,
    /// Fetched particles of direct clusters.
    parts: BTreeMap<u32, RemoteParticles>,
}

/// Recursive batch-vs-remote-skeleton traversal — the exact dual-tree
/// descent of `bltc_core::traversal`, applied to a reconstructed remote
/// tree.
fn traverse_remote(
    mac: &Mac,
    center: Point3,
    radius: f64,
    nodes: &[ClusterNode],
    idx: usize,
    approx: &mut Vec<u32>,
    direct: &mut Vec<u32>,
) {
    let node = &nodes[idx];
    match mac.assess(&center, radius, node) {
        MacDecision::Approximate => approx.push(idx as u32),
        MacDecision::Direct => direct.push(idx as u32),
        MacDecision::Subdivide => {
            for child in node.child_indices() {
                traverse_remote(mac, center, radius, nodes, child, approx, direct);
            }
        }
    }
}

/// The **issue** stage of LET assembly against one remote rank: fetch
/// the skeleton (one bulk one-sided get), run the local batch-MAC
/// traversal against it, and derive the distinct cluster sets the
/// consume stage will need — but fetch no payload data yet. What used to
/// be the front half of a monolithic `build_remote_let` now stands alone
/// so the payload gets can be issued in chunks and overlapped with local
/// work.
pub(crate) struct LetIssue {
    /// Remote rank whose tree this LET views.
    pub target: usize,
    /// Reconstructed remote skeleton.
    pub nodes: Vec<ClusterNode>,
    /// Per-local-batch interaction lists (approx ids, direct ids).
    pub per_batch: Vec<(Vec<u32>, Vec<u32>)>,
    /// Distinct MAC-accepted clusters, ascending.
    pub approx: Vec<u32>,
    /// Distinct direct clusters, ascending.
    pub direct: Vec<u32>,
    /// Payload bytes of the skeleton get (host-side metadata; never
    /// staged to the device).
    pub skeleton_bytes: u64,
}

pub(crate) fn issue_remote_let(
    target: usize,
    batches: &TargetBatches,
    params: &BltcParams,
    wins: &LetWindows,
    tally: &mut CommTally,
) -> LetIssue {
    // Skeleton exchange: one bulk one-sided get of the node array.
    let num_nodes = wins.meta.region_len(target);
    let metas = wins.meta.lock_shared(target).get(0..num_nodes);
    let skeleton_bytes = (num_nodes * std::mem::size_of::<NodeMeta>()) as u64;
    tally.record(skeleton_bytes, false);
    let nodes: Vec<ClusterNode> = metas.into_iter().map(NodeMeta::to_cluster).collect();

    // Local traversal against the remote skeleton: no communication —
    // parallel over batches (the paper's OpenMP-parallel LET
    // traversal). Each batch's lists land in that batch's slot, and
    // the distinct-cluster sets are ordered (BTreeSet) and built from
    // the per-batch lists afterwards, so both the lists and the fetch
    // order below are bitwise independent of the pool size.
    let mac = Mac::new(params);
    let mut per_batch: Vec<(Vec<u32>, Vec<u32>)> = batches
        .batches()
        .par_iter()
        .map(|b| {
            let mut approx = Vec::new();
            let mut direct = Vec::new();
            traverse_remote(
                &mac,
                b.center,
                b.radius,
                &nodes,
                0,
                &mut approx,
                &mut direct,
            );
            (approx, direct)
        })
        .collect();
    // Canonical per-batch order: ascending cluster id. The traversal
    // pushes ids in descent order, which is not monotone in the array
    // layout; every consumer accumulates per-cluster contributions
    // additively, so one fixed order pins the fp accumulation order —
    // and ascending id is exactly the order the consumer replays window
    // by window, which is what makes a one-chunk window bitwise
    // identical to a whole-LET one.
    for (approx, direct) in &mut per_batch {
        approx.sort_unstable();
        direct.sort_unstable();
    }
    let mut approx_set = std::collections::BTreeSet::new();
    let mut direct_set = std::collections::BTreeSet::new();
    for (approx, direct) in &per_batch {
        approx_set.extend(approx.iter().copied());
        direct_set.extend(direct.iter().copied());
    }

    LetIssue {
        target,
        nodes,
        per_batch,
        approx: approx_set.into_iter().collect(),
        direct: direct_set.into_iter().collect(),
        skeleton_bytes,
    }
}

/// The fetch schedule of one LET, kept after evaluation: what the
/// serial and pipelined clocks, the residency and the plan-vs-tally
/// check read.
pub(crate) struct LetPlan {
    /// Remote rank this LET views.
    pub target: usize,
    /// Skeleton payload bytes (one host-side get).
    pub skeleton_bytes: u64,
    /// Payload chunks in land order.
    pub chunks: Vec<ChunkPlan>,
}

/// Which payload window a chunk's gets hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkKind {
    /// Modified charges of MAC-accepted clusters.
    Approx,
    /// Raw particles of direct clusters.
    Direct,
}

/// One chunk of the LET fill: a contiguous group of distinct clusters
/// whose payloads are fetched in one passive-target epoch, plus the
/// exact communication and evaluation work the chunk carries. Every
/// count is derived analytically from the interaction lists, so the
/// per-chunk costs sum to exactly the totals the serial accounting
/// records — the reconciliation the pipelined clock's tests pin.
#[derive(Debug, Clone, Copy)]
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
    // Per-cluster (launches, Σ batch targets) over the interaction lists.
    let mut approx_use: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let mut direct_use: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (b, (approx, direct)) in batches.batches().iter().zip(&issue.per_batch) {
        let nb = b.num_targets() as u64;
        for &ci in approx {
            let e = approx_use.entry(ci).or_insert((0, 0));
            e.0 += 1;
            e.1 += nb;
        }
        for &ci in direct {
            let e = direct_use.entry(ci).or_insert((0, 0));
            e.0 += 1;
            e.1 += nb;
        }
    }

    let chunk_clusters = chunk_clusters.max(1);
    let mut plans = Vec::new();
    for (kind, ids) in [
        (ChunkKind::Approx, &issue.approx),
        (ChunkKind::Direct, &issue.direct),
    ] {
        let mut start = 0;
        while start < ids.len() {
            let mut plan = ChunkPlan {
                kind,
                first: start,
                len: 0,
                messages: 0,
                bytes: 0,
                fetched_particles: 0,
                launches: 0,
                eval_targets: 0,
                eval_sources: 0,
                interactions: 0,
            };
            while plan.len < chunk_clusters && start + plan.len < ids.len() {
                let ci = ids[start + plan.len];
                let (src, payload, nc) = match kind {
                    ChunkKind::Approx => (m3 as u64, (m3 * 8) as u64, 0),
                    ChunkKind::Direct => {
                        let node = &issue.nodes[ci as usize];
                        let nc = (node.end - node.start) as u64;
                        (nc, nc * 4 * 8, nc)
                    }
                };
                // The first cluster is always admitted (one cluster is
                // the minimum resident unit); after that the byte budget
                // closes the chunk.
                if plan.len > 0 && budget.is_some_and(|b| plan.bytes + payload > b) {
                    break;
                }
                let (cnt, sum_nb) = match kind {
                    ChunkKind::Approx => approx_use[&ci],
                    ChunkKind::Direct => direct_use[&ci],
                };
                plan.len += 1;
                plan.messages += 1;
                plan.bytes += payload;
                plan.fetched_particles += nc;
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

/// Land one planned chunk: execute its per-cluster one-sided gets in
/// ascending cluster order under a single shared-lock epoch, inserting
/// the payloads into `payload`. Every window size goes through this one
/// implementation, so the recorded traffic and fetched bytes are
/// identical by construction.
fn land_chunk(
    issue: &LetIssue,
    plan: &ChunkPlan,
    wins: &LetWindows,
    params: &BltcParams,
    tally: &mut CommTally,
    payload: &mut LetPayload,
) {
    match plan.kind {
        ChunkKind::Approx => {
            let m3 = params.proxy_count();
            let guard = wins.qhat.lock_shared(issue.target);
            for &ni in &issue.approx[plan.first..plan.first + plan.len] {
                let base = ni as usize * m3;
                payload.qhat.insert(ni, guard.get(base..base + m3));
                tally.record((m3 * 8) as u64, true);
                payload.grids.insert(
                    ni,
                    TensorGrid::new(params.degree, &issue.nodes[ni as usize].bbox),
                );
            }
        }
        ChunkKind::Direct => {
            let guard = wins.parts.lock_shared(issue.target);
            for &ni in &issue.direct[plan.first..plan.first + plan.len] {
                let node = &issue.nodes[ni as usize];
                let flat = guard.get(4 * node.start..4 * node.end);
                tally.record((flat.len() * 8) as u64, true);
                let nc = node.end - node.start;
                let mut p = RemoteParticles {
                    x: Vec::with_capacity(nc),
                    y: Vec::with_capacity(nc),
                    z: Vec::with_capacity(nc),
                    q: Vec::with_capacity(nc),
                };
                for j in 0..nc {
                    p.x.push(flat[4 * j]);
                    p.y.push(flat[4 * j + 1]);
                    p.z.push(flat[4 * j + 2]);
                    p.q.push(flat[4 * j + 3]);
                }
                payload.parts.insert(ni, p);
            }
        }
    }
}

/// A rank's remote contributions while its LETs are evaluated: the
/// pass's `C` output columns over a range of batch-order targets, plus
/// the op counts and the modeled device bytes of the launches that
/// produced them. The rank holds one over all its targets; the consumer
/// holds one per batch (starting at zero, per LET) and folds it in with
/// [`RemoteEval::merge`].
pub(crate) struct RemoteEval<const C: usize> {
    pub cols: [Vec<f64>; C],
    pub ops: OpCounts,
    /// Per-launch device memory traffic for the GPU clock (an
    /// integer-valued `f64`: exact under any summation order).
    pub device_bytes: f64,
}

impl<const C: usize> RemoteEval<C> {
    pub(crate) fn zeros(targets: usize) -> Self {
        Self {
            cols: std::array::from_fn(|_| vec![0.0; targets]),
            ops: OpCounts::default(),
            device_bytes: 0.0,
        }
    }

    /// Add one batch's partial (the batch owns targets `range`).
    fn merge(&mut self, range: std::ops::Range<usize>, part: &Self) {
        for (col, vals) in self.cols.iter_mut().zip(&part.cols) {
            for (slot, v) in col[range.clone()].iter_mut().zip(vals) {
                *slot += v;
            }
        }
        self.ops = self.ops.merged(&part.ops);
        self.device_bytes += part.device_bytes;
    }
}

/// Device-memory bytes of batch–cluster launches over `targets` targets
/// and `sources` sources in all (the GPU clock's roofline term): every
/// launch reads and writes `target_cols` `f64` per target and reads four
/// per source. Linear in both counts, so it prices one launch as exactly
/// as a chunk's Σ targets and Σ sources ([`ChunkPlan::eval_targets`],
/// [`ChunkPlan::eval_sources`]).
pub(crate) fn launch_bytes(targets: u64, sources: u64, target_cols: usize) -> f64 {
    ((targets * target_cols as u64 + sources * 4) * 8) as f64
}

/// The LET cluster loop — the remote twin of the local batch loop in
/// `bltc_core::engine::PreparedTreecode::evaluate`, one batch at a time:
/// one batch's targets `t` against landed remote clusters, approximated
/// ones first (Eq. 11, a [`TileOp::grid_tile`] over the proxies with the
/// fetched modified charges), then direct ones (Eq. 9, the fetched
/// particles), each list in the order given (ascending id), accumulated
/// into `acc` together with the three tallies of every tile. No RMA
/// happens here, whatever the pass: the data was fetched by the land
/// stage.
fn eval_clusters<const C: usize, O: TileOp<C> + ?Sized>(
    op: &O,
    t: (&[f64], &[f64], &[f64]),
    approx: &[u32],
    direct: &[u32],
    payload: &LetPayload,
    acc: &mut RemoteEval<C>,
) {
    let nb = t.0.len();
    let mut out = acc.cols.each_mut().map(|c| &mut c[..]);
    for ci in approx {
        let qh = &payload.qhat[ci];
        op.grid_tile(t, &payload.grids[ci], qh, &mut out);
        acc.ops.approx_interactions += (nb * qh.len()) as u64;
        acc.ops.kernel_launches += 1;
        acc.device_bytes += launch_bytes(nb as u64, qh.len() as u64, O::TARGET_COLS);
    }
    for ci in direct {
        let p = &payload.parts[ci];
        op.tile(t, (&p.x, &p.y, &p.z, &p.q), &mut out);
        acc.ops.direct_interactions += (nb * p.x.len()) as u64;
        acc.ops.kernel_launches += 1;
        acc.device_bytes += launch_bytes(nb as u64, p.x.len() as u64, O::TARGET_COLS);
    }
}

/// The one LET consumer: land the planned chunks of one LET a *window*
/// at a time, evaluate each window's clusters into that LET's per-batch
/// partials, in parallel over batches, drop the window's payload, and
/// merge the partials into `acc` once, in batch order. The window is the
/// whole LET without a memory budget and one chunk under one
/// ([`resident_bytes`] prices what each choice keeps resident).
///
/// Windows hold consecutive chunks, approx chunks before direct ones,
/// each an ascending run of cluster ids, and a batch's lists are sorted
/// ascending — so every batch's one partial receives exactly its lists,
/// approximated clusters first, each in ascending id, whatever the
/// window. Each batch owns its partial (one uncontended lock), so the
/// columns are bitwise independent of the window and of the pool size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_remote_let<const C: usize, O: TileOp<C> + ?Sized>(
    issue: &LetIssue,
    chunks: &[ChunkPlan],
    budget: Option<u64>,
    batches: &TargetBatches,
    wins: &LetWindows,
    params: &BltcParams,
    tally: &mut CommTally,
    op: &O,
    acc: &mut RemoteEval<C>,
) {
    let tp = batches.particles();
    let partials: Vec<Mutex<RemoteEval<C>>> = batches
        .batches()
        .iter()
        .map(|b| Mutex::new(RemoteEval::zeros(b.num_targets())))
        .collect();
    let window = if budget.is_some() { 1 } else { chunks.len() };
    for window in chunks.chunks(window.max(1)) {
        let mut payload = LetPayload::default();
        for plan in window {
            land_chunk(issue, plan, wins, params, tally, &mut payload);
        }
        batches
            .batches()
            .par_iter()
            .zip(&issue.per_batch)
            .zip(&partials)
            .map(|((b, (approx, direct)), part)| {
                let t = tp.xyz(b.start..b.end);
                let (approx, direct) = (held(approx, &payload.qhat), held(direct, &payload.parts));
                eval_clusters(op, t, approx, direct, &payload, &mut part.lock());
            })
            .collect::<Vec<()>>();
        // Evaluate-and-discard: the window's payload dies here, before
        // the next window lands.
    }
    for (b, part) in batches.batches().iter().zip(partials) {
        acc.merge(b.start..b.end, &part.into_inner());
    }
}

/// The run of an ascending batch list that a window's payload `landed`
/// holds. A window's clusters of one kind are one ascending run of the
/// LET's distinct ids, so they are the ids between its first and last.
fn held<'a, V>(list: &'a [u32], landed: &BTreeMap<u32, V>) -> &'a [u32] {
    match (landed.keys().next(), landed.keys().next_back()) {
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
        resident = if budget.is_some() {
            c.bytes
        } else {
            resident + c.bytes
        };
        resident
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::particles::ParticleSet;

    fn tiny_batches() -> TargetBatches {
        let ps = ParticleSet::random_cube(64, 7);
        let params = BltcParams::new(0.7, 2, 8, 16);
        TargetBatches::build(&ps, &params)
    }

    /// A hand-built issue whose every batch demands every one of
    /// `n_approx` MAC-accepted clusters (payload `m3 * 8` bytes each).
    fn approx_issue(n_approx: usize, batches: &TargetBatches) -> LetIssue {
        let ids: Vec<u32> = (0..n_approx as u32).collect();
        LetIssue {
            target: 1,
            nodes: Vec::new(),
            per_batch: batches
                .batches()
                .iter()
                .map(|_| (ids.clone(), Vec::new()))
                .collect(),
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
            per_batch: batches
                .batches()
                .iter()
                .map(|_| (Vec::new(), ids.clone()))
                .collect(),
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
}
