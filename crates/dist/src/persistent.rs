//! Persistent distributed sessions: the field pipeline re-entered as
//! *epochs* against live ranks, with collectives-based repartitioning
//! and particle **migration** instead of full redistribution.
//!
//! A [`FieldSessionIn`] keeps the ranks alive ([`mpi_sim::SessionIn`])
//! and keeps the particles **resident on their owning ranks** between
//! calls. Its world is plain ([`FieldSession`], which may come from a
//! pool and go back to it) or scoped to a caller's stack — the one-shot
//! doors ([`crate::run_distributed`] and its field twins) are a scoped
//! field session that runs one epoch and drops:
//!
//! - [`FieldSession::launch`] distributes the initial RCB partition and
//!   spawns the rank threads — the session's only thread-spawn phase;
//!   [`FieldSessionIn::launch_in`] does the same onto a world the
//!   caller brings;
//! - [`FieldSessionIn::eval`] runs the rank-level body
//!   ([`crate::eval_rank`]) of any pass as one epoch: windows are
//!   re-exposed for the epoch, LETs rebuilt from the resident positions,
//!   and each rank's columns come back in local order;
//!   [`FieldSessionIn::eval_field`] is that with a gradient kernel, each
//!   rank's [`FieldResult`] moved into its slot (nothing O(N) is
//!   copied);
//! - [`FieldSession::migrate`] repartitions **rank-to-rank**: a
//!   variable-count all-gather of coordinates
//!   ([`mpi_sim::Comm::all_gather_varcount`]) lets every rank compute
//!   the new RCB partition redundantly and deterministically, after
//!   which each rank ships *only the particles whose ownership
//!   changed* through a personalized exchange
//!   ([`mpi_sim::Comm::exchange`]). The driver never touches particle
//!   data — its gather bytes are zero by construction — and the
//!   migration epoch's one-sided traffic is drained into its own
//!   [`MigrationReport`], keeping migration bytes a separate phase in
//!   the traffic accounting;
//! - [`FieldSession::snapshot`] is the opt-in channel that *does*
//!   gather the resident state back (for checkpoints and tests).
//!
//! Per-particle *auxiliary columns* (velocities, inertial masses,
//! cached accelerations — whatever the driver registers at launch)
//! migrate with their particles, which is what lets a time integrator
//! keep its whole mechanical state resident across steps.
//!
//! Determinism: ranks reconstruct the global particle set in global-id
//! order before running RCB, so the partition every rank computes is
//! bit-identical to the one a driver-side
//! [`DistConfig::partition`] over the same positions would produce
//! (flat RCB, or the two-level node×GPU split when the config sets
//! `gpus_per_node > 1`) — and resident local sets (kept sorted by
//! global id) match `partition_particles` of that partition exactly, so
//! an evaluation epoch is bit-equal to [`crate::run_distributed_on`]
//! over it, a world per call against one kept alive.

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::Mutex;

use bltc_core::field::FieldResult;
use bltc_core::kernel::{GradientKernel, TileOp};
use bltc_core::particles::ParticleSet;
use mpi_sim::runtime::TrafficMatrix;
use mpi_sim::{Comm, EpochReport, Session, SessionIn};
use rcb::{partition_particles, RcbPartition};

use crate::{check_decomposition, eval_rank, DistConfig, PhaseMaxima, RankReport};

/// One rank's resident state: the particles it owns, kept sorted by
/// ascending global id (the same order `partition_particles` produces,
/// so an epoch evaluates exactly what the one-shot pipeline would).
#[derive(Debug, Clone)]
pub struct RankLocal {
    /// Global particle ids, ascending.
    pub ids: Vec<usize>,
    /// Positions and kernel weights — the field-evaluation input.
    pub ps: ParticleSet,
    /// Caller-registered per-particle attribute columns (`aux[c][i]` is
    /// column `c` of local particle `i`); they migrate with their
    /// particles.
    pub aux: Vec<Vec<f64>>,
    /// The last epoch's field values in local order, if an evaluation
    /// has run since the last migration.
    pub field: Option<FieldResult>,
}

/// Phase clocks and per-rank reports of one field-evaluation epoch; the
/// field itself stays resident on the ranks.
#[derive(Debug, Clone)]
pub struct SessionFieldReport {
    /// Per-rank reports, indexed by rank.
    pub ranks: Vec<RankReport>,
    /// One-sided traffic of this epoch only.
    pub traffic: TrafficMatrix,
    /// Bulk-synchronous setup seconds: max over ranks.
    pub setup_s: f64,
    /// Bulk-synchronous precompute seconds: max over ranks.
    pub precompute_s: f64,
    /// Bulk-synchronous compute seconds: max over ranks.
    pub compute_s: f64,
    /// Modeled epoch seconds: max over ranks of the per-rank totals.
    pub total_s: f64,
    /// Pipelined epoch seconds: max over ranks of the per-rank
    /// critical paths (`≤ total_s`) — the session epochs expose the
    /// same overlap-aware clock as the one-shot pipelines.
    pub pipelined_s: f64,
}

/// What one rank did during a migration epoch. All tallies are counted
/// at the collective call sites and reconcile exactly against the
/// epoch's [`TrafficMatrix`]:
/// `Σ_ranks (gather_bytes + sent_bytes) == traffic.total_remote_bytes()`
/// (gather traffic is recorded pull-style with the receiver as origin,
/// exchange traffic push-style with the sender as origin).
#[derive(Debug, Clone, Copy)]
pub struct MigrationRankStats {
    /// Rank id.
    pub rank: usize,
    /// Particles owned before the repartition.
    pub n_before: usize,
    /// Particles owned after the migration.
    pub n_after: usize,
    /// Remote contributions received in the coordinate all-gather.
    pub gather_msgs: u64,
    /// Bytes of those contributions (4 `f64` per remote particle).
    pub gather_bytes: u64,
    /// Non-empty emigrant buckets this rank sent.
    pub sent_msgs: u64,
    /// Bytes of emigrant records sent (full record: id, position,
    /// weight, aux columns).
    pub sent_bytes: u64,
    /// Particles this rank emigrated.
    pub sent_particles: u64,
    /// Particles this rank received.
    pub recv_particles: u64,
}

/// Driver-side report of one [`FieldSession::migrate`] epoch.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Per-rank migration statistics, indexed by rank.
    pub ranks: Vec<MigrationRankStats>,
    /// The migration epoch's traffic — a phase of its own, never mixed
    /// with evaluation-epoch LET traffic.
    pub traffic: TrafficMatrix,
    /// Total particles that changed owner.
    pub migrated_particles: u64,
    /// Total bytes of migrated records (the delta payload).
    pub migrated_bytes: u64,
    /// Total bytes of the rank-to-rank coordinate gather.
    pub gather_bytes: u64,
    /// Modeled bytes a *full* repartition exchange would have moved:
    /// every rank fetching every remote rank's complete records
    /// (id + position + weight + aux) instead of only the deltas.
    /// Migration is the win exactly when
    /// `gather_bytes + migrated_bytes < full_exchange_bytes`.
    pub full_exchange_bytes: u64,
    /// Modeled host seconds: the redundant per-rank RCB (bulk
    /// synchronous, so the max equals the single-rank cost).
    pub host_s: f64,
    /// Modeled communication seconds: α–β over the slowest rank's
    /// gather + exchange traffic.
    pub comm_s: f64,
    /// Session epoch index the migration ran as.
    pub epoch: u64,
}

impl MigrationReport {
    /// Total modeled seconds of the migration epoch.
    pub fn total_s(&self) -> f64 {
        self.host_s + self.comm_s
    }
}

/// Driver-side snapshot of the resident state, assembled back into
/// global particle order — the opt-in gather channel.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Positions and kernel weights in global order.
    pub ps: ParticleSet,
    /// Auxiliary columns in global order.
    pub aux: Vec<Vec<f64>>,
    /// Current ownership: `ownership[r]` is rank `r`'s ascending global
    /// ids (the persistent analogue of `RcbPartition::part_indices`).
    pub ownership: Vec<Vec<usize>>,
}

/// A persistent distributed field session whose epochs may borrow
/// anything that lives for `'env`: live ranks, resident particles,
/// epoch-based evaluation, and delta migration. See the module docs for
/// the lifecycle.
pub struct FieldSessionIn<'env> {
    session: SessionIn<'env>,
    cfg: DistConfig,
    slots: Arc<Vec<Mutex<RankLocal>>>,
    n_global: usize,
    aux_cols: usize,
}

/// A field session on plain rank threads, which it spawns itself or
/// takes from a pool.
pub type FieldSession = FieldSessionIn<'static>;

impl FieldSession {
    /// Compute the initial RCB partition of `ps`, distribute each part
    /// (plus its slice of every `aux` column) to its owning rank, and
    /// spawn the rank threads — the session's single thread-spawn
    /// phase.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as [`crate::run_distributed`],
    /// or if an `aux` column's length differs from the particle count.
    pub fn launch(ps: &ParticleSet, aux: &[Vec<f64>], ranks: usize, cfg: &DistConfig) -> Self {
        Self::launch_reusing(ps, aux, ranks, cfg, None, None)
    }

    /// [`FieldSession::launch`] with two optional shortcuts a warm-world
    /// cache can supply:
    ///
    /// - `session`: a live world checked out of a pool (e.g.
    ///   [`mpi_sim::SessionPool`]) instead of spawning rank threads —
    ///   see [`FieldSessionIn::launch_in`] for what it must satisfy.
    ///   Everything rank-resident is rebuilt from `ps`/`aux`, so a
    ///   recycled world carries **no** state from its previous tenant;
    ///   only the thread spawn is skipped.
    /// - `part`: a previously computed initial RCB partition of *these
    ///   same positions* — skips the driver-side `cfg.partition` call.
    ///   RCB is deterministic in the positions, so a cached partition is
    ///   bitwise identical to a recomputed one; the caller is
    ///   responsible for keying the cache on the inputs.
    ///
    /// Both `None` makes this exactly [`FieldSession::launch`].
    ///
    /// # Panics
    ///
    /// As [`FieldSessionIn::launch_in`], and before any thread spawns.
    pub fn launch_reusing(
        ps: &ParticleSet,
        aux: &[Vec<f64>],
        ranks: usize,
        cfg: &DistConfig,
        session: Option<Session>,
        part: Option<&RcbPartition>,
    ) -> Self {
        check_decomposition(ps, ranks, part, cfg);
        let session = session.unwrap_or_else(|| Session::spawn(ranks));
        Self::launch_in(ps, aux, ranks, cfg, session, part)
    }
}

impl<'env> FieldSessionIn<'env> {
    /// Distribute `ps` (plus its slice of every `aux` column) onto the
    /// live world `session` by `part`, or by the RCB partition `cfg`
    /// implies when `part` is `None`. The world may be scoped — that is
    /// how the one-shot door runs its one epoch — or a plain one.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as
    /// [`crate::run_distributed`] (among them every rule of
    /// [`DistConfig::validate`], with its message), if an `aux` column's
    /// length differs from the particle count, on a session whose rank
    /// count differs from `ranks` or that is poisoned, or on a partition
    /// that does not cover `ps`/`ranks` or leaves a rank without
    /// particles — all on the calling thread, before any epoch runs (a
    /// rank failing inside an epoch would poison a pooled world).
    pub fn launch_in(
        ps: &ParticleSet,
        aux: &[Vec<f64>],
        ranks: usize,
        cfg: &DistConfig,
        session: SessionIn<'env>,
        part: Option<&RcbPartition>,
    ) -> Self {
        check_decomposition(ps, ranks, part, cfg);
        for (c, col) in aux.iter().enumerate() {
            assert_eq!(
                col.len(),
                ps.len(),
                "aux column {c} does not cover the particle set"
            );
        }
        assert_eq!(
            session.size(),
            ranks,
            "reused session has {} ranks, job needs {ranks}",
            session.size()
        );
        assert!(!session.is_poisoned(), "cannot reuse a poisoned session");

        let computed;
        let part = match part {
            Some(p) => p,
            None => {
                computed = cfg.partition(ps, ranks);
                &computed
            }
        };
        let locals = partition_particles(ps, part);
        let slots: Vec<Mutex<RankLocal>> = part
            .part_indices
            .iter()
            .zip(locals)
            .map(|(ids, local)| {
                let aux_local: Vec<Vec<f64>> = aux
                    .iter()
                    .map(|col| ids.iter().map(|&i| col[i]).collect())
                    .collect();
                Mutex::new(RankLocal {
                    ids: ids.clone(),
                    ps: local,
                    aux: aux_local,
                    field: None,
                })
            })
            .collect();

        Self {
            session,
            cfg: *cfg,
            slots: Arc::new(slots),
            n_global: ps.len(),
            aux_cols: aux.len(),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.session.size()
    }

    /// Epochs completed so far (evaluations + migrations + custom).
    pub fn epochs_run(&self) -> u64 {
        self.session.epochs_run()
    }

    /// Attach (or detach) a deterministic fault timeline on the
    /// underlying world (see [`mpi_sim::SessionIn::set_chaos`]). Every
    /// epoch this session runs — evaluation, migration, snapshot —
    /// passes through the schedule's injection points.
    pub fn set_chaos(&self, schedule: Option<std::sync::Arc<mpi_sim::ChaosSchedule>>) {
        self.session.set_chaos(schedule);
    }

    /// Arm (or disarm) the epoch watchdog on the underlying session
    /// (see [`mpi_sim::SessionIn::set_deadline`]): a rank that never
    /// reports becomes a poisoned world instead of a hung driver.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.session.set_deadline(deadline);
    }

    /// Tear down the driver-side state and hand the live world back —
    /// the return half of warm-world reuse. The resident slots are
    /// dropped; the rank threads stay up for the next
    /// [`FieldSession::launch_reusing`].
    pub fn into_session(self) -> SessionIn<'env> {
        self.session
    }

    /// Run a caller-defined epoch against the live ranks: `f` executes
    /// SPMD-style on every rank with exclusive access to that rank's
    /// resident [`RankLocal`]. This is the hook a time integrator uses
    /// for rank-local updates (kicks, drifts) and reductions (energy
    /// sums) without any particle data leaving the ranks.
    pub fn run_epoch<R, F>(&mut self, f: F) -> EpochReport<R>
    where
        R: Send + 'static,
        F: Fn(&Comm, &mut RankLocal) -> R + Send + Sync + 'env,
    {
        let slots = Arc::clone(&self.slots);
        self.session.run_epoch(move |comm| {
            let mut slot = slots[comm.rank()].lock();
            f(comm, &mut slot)
        })
    }

    /// Evaluate the pass `op` names at the resident positions as one
    /// epoch: every rank runs [`crate::eval_rank`] on its particles —
    /// windows exposed for the epoch, LETs rebuilt — and hands back its
    /// report and its `C` output columns in local (ascending-id) order.
    /// `op` is anything that dereferences to the pass: a borrowed
    /// `&dyn Kernel` for `C = 1`, an `Arc<dyn GradientKernel>` for
    /// `C = 4`. The columns move, nothing is copied; resident state is
    /// untouched.
    pub fn eval<const C: usize, O>(
        &mut self,
        op: impl Deref<Target = O> + Send + Sync + 'env,
    ) -> EpochReport<(RankReport, [Vec<f64>; C])>
    where
        O: TileOp<C> + ?Sized,
    {
        let cfg = self.cfg;
        self.run_epoch(move |comm, slot| eval_rank(comm, &slot.ps, &cfg, &*op))
    }

    /// Evaluate the distributed field at the resident positions as one
    /// [`FieldSessionIn::eval`] epoch and move each rank's columns, as a
    /// [`FieldResult`], into its [`RankLocal::field`] without a copy; the
    /// report keeps only phase clocks and tallies.
    pub fn eval_field(&mut self, kernel: &Arc<dyn GradientKernel>) -> SessionFieldReport {
        let er = self.eval(Arc::clone(kernel));
        let (ranks, fields): (Vec<_>, Vec<_>) = er.results.into_iter().unzip();
        for (slot, columns) in self.slots.iter().zip(fields) {
            slot.lock().field = Some(columns.into());
        }
        let clocks = PhaseMaxima::over(&ranks);
        SessionFieldReport {
            setup_s: clocks.setup_s,
            precompute_s: clocks.precompute_s,
            compute_s: clocks.compute_s,
            total_s: clocks.total_s,
            pipelined_s: clocks.pipelined_s,
            ranks,
            traffic: er.traffic,
        }
    }

    /// Repartition and migrate as one epoch: gather coordinates
    /// rank-to-rank, recompute the RCB partition redundantly on every
    /// rank, then exchange **only** the particles whose ownership
    /// changed. Resident slots end sorted by global id and any cached
    /// field is invalidated.
    pub fn migrate(&mut self) -> MigrationReport {
        let (n_global, aux_cols, cfg) = (self.n_global, self.aux_cols, self.cfg);
        let er =
            self.run_epoch(move |comm, slot| migrate_rank(comm, slot, n_global, aux_cols, &cfg));

        let stats = er.results;
        let record_bytes = ((5 + self.aux_cols) * 8) as u64;
        let migrated_particles: u64 = stats.iter().map(|s| s.sent_particles).sum();
        let migrated_bytes: u64 = stats.iter().map(|s| s.sent_bytes).sum();
        let gather_bytes: u64 = stats.iter().map(|s| s.gather_bytes).sum();
        // Full-exchange baseline: every rank fetches every remote
        // rank's complete records (as a from-scratch redistribution
        // over the same collectives would).
        let full_exchange_bytes: u64 = stats
            .iter()
            .map(|s| (self.n_global - s.n_before) as u64 * record_bytes)
            .sum();
        let comm_s = stats
            .iter()
            .map(|s| {
                self.cfg
                    .net
                    .seconds_for(s.gather_msgs + s.sent_msgs, s.gather_bytes + s.sent_bytes)
            })
            .fold(0.0, f64::max);
        MigrationReport {
            ranks: stats,
            traffic: er.traffic,
            migrated_particles,
            migrated_bytes,
            gather_bytes,
            full_exchange_bytes,
            host_s: self
                .cfg
                .host
                .repartition_seconds(self.n_global, self.ranks()),
            comm_s,
            epoch: er.epoch,
        }
    }

    /// Gather the resident state back to the driver in global order —
    /// the explicit snapshot channel (checkpoints, trajectory
    /// comparisons). Everything else in the session keeps particle data
    /// on the ranks.
    pub fn snapshot(&mut self) -> Snapshot {
        let er =
            self.run_epoch(|_comm, slot| (slot.ids.clone(), slot.ps.clone(), slot.aux.clone()));
        let n = self.n_global;
        let (mut x, mut y, mut z, mut q) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut aux = vec![vec![0.0; n]; self.aux_cols];
        let mut ownership = Vec::with_capacity(er.results.len());
        for (ids, ps, aux_local) in er.results {
            for (i, &id) in ids.iter().enumerate() {
                x[id] = ps.x[i];
                y[id] = ps.y[i];
                z[id] = ps.z[i];
                q[id] = ps.q[i];
                for (c, col) in aux_local.iter().enumerate() {
                    aux[c][id] = col[i];
                }
            }
            ownership.push(ids);
        }
        Snapshot {
            ps: ParticleSet::new(x, y, z, q),
            aux,
            ownership,
        }
    }
}

/// The rank-level migration body. See [`FieldSession::migrate`].
fn migrate_rank(
    comm: &Comm,
    slot: &mut RankLocal,
    n_global: usize,
    aux_cols: usize,
    cfg: &DistConfig,
) -> MigrationRankStats {
    let rank = comm.rank();
    let ranks = comm.size();
    let n_before = slot.ids.len();

    // ---- 1. rank-to-rank coordinate gather (MPI_Allgatherv) ---------
    let mut coords = Vec::with_capacity(n_before * 4);
    for i in 0..n_before {
        coords.extend_from_slice(&[slot.ids[i] as f64, slot.ps.x[i], slot.ps.y[i], slot.ps.z[i]]);
    }
    let gathered = comm.all_gather_varcount(coords);
    let mut gather_msgs = 0u64;
    let mut gather_bytes = 0u64;
    for (t, buf) in gathered.iter().enumerate() {
        if t != rank && !buf.is_empty() {
            gather_msgs += 1;
            gather_bytes += (buf.len() * 8) as u64;
        }
    }

    // ---- 2. redundant deterministic RCB over the global set ---------
    // Reconstructing in global-id order makes every rank's partition
    // bit-identical to a driver-side `DistConfig::partition` of the same
    // positions (RCB reads positions only, so weights stay zero here) —
    // including the two-level node×GPU split when `gpus_per_node > 1`.
    let (mut gx, mut gy, mut gz) = (
        vec![0.0; n_global],
        vec![0.0; n_global],
        vec![0.0; n_global],
    );
    for buf in &gathered {
        for c in buf.chunks_exact(4) {
            let id = c[0] as usize;
            gx[id] = c[1];
            gy[id] = c[2];
            gz[id] = c[3];
        }
    }
    let gps = ParticleSet::new(gx, gy, gz, vec![0.0; n_global]);
    let part = cfg.partition(&gps, ranks);

    // ---- 3. ownership deltas: ship only the movers ------------------
    let w = 5 + aux_cols; // id, x, y, z, q, aux…
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); ranks];
    let mut keep = Vec::with_capacity(n_before);
    for i in 0..n_before {
        let owner = part.assignment[slot.ids[i]];
        if owner == rank {
            keep.push(i);
            continue;
        }
        let b = &mut buckets[owner];
        b.push(slot.ids[i] as f64);
        b.push(slot.ps.x[i]);
        b.push(slot.ps.y[i]);
        b.push(slot.ps.z[i]);
        b.push(slot.ps.q[i]);
        for col in &slot.aux {
            b.push(col[i]);
        }
    }
    let sent_particles: u64 = buckets.iter().map(|b| (b.len() / w) as u64).sum();
    let sent_msgs = buckets
        .iter()
        .enumerate()
        .filter(|(t, b)| *t != rank && !b.is_empty())
        .count() as u64;
    let sent_bytes: u64 = buckets
        .iter()
        .enumerate()
        .filter(|(t, _)| *t != rank)
        .map(|(_, b)| (b.len() * 8) as u64)
        .sum();
    let received = comm.exchange(buckets);

    // ---- 4. rebuild the slot, sorted by global id -------------------
    // One index of (global id, kept row, received record), sorted by id
    // (a received record's row is unused); each column is then written
    // straight from its rows.
    let recv_particles: usize = received.iter().map(|b| b.len() / w).sum();
    let mut rows: Vec<(usize, usize, Option<&[f64]>)> =
        Vec::with_capacity(keep.len() + recv_particles);
    rows.extend(keep.iter().map(|&i| (slot.ids[i], i, None)));
    for buf in &received {
        rows.extend(buf.chunks_exact(w).map(|c| (c[0] as usize, 0, Some(c))));
    }
    rows.sort_unstable_by_key(|r| r.0);
    let n_after = rows.len();
    // Column `k` of a row: x, y, z, q, then the aux columns.
    let column = |k: usize| -> Vec<f64> {
        let kept = match k {
            0 => &slot.ps.x,
            1 => &slot.ps.y,
            2 => &slot.ps.z,
            3 => &slot.ps.q,
            _ => &slot.aux[k - 4],
        };
        let value =
            |&(_, i, rec): &(usize, usize, Option<&[f64]>)| rec.map_or(kept[i], |c| c[1 + k]);
        rows.iter().map(value).collect()
    };
    let ps = ParticleSet::new(column(0), column(1), column(2), column(3));
    let aux = (4..4 + aux_cols).map(column).collect();
    slot.ids = rows.iter().map(|r| r.0).collect();
    slot.ps = ps;
    slot.aux = aux;
    slot.field = None; // stale after any ownership change

    MigrationRankStats {
        rank,
        n_before,
        n_after,
        gather_msgs,
        gather_bytes,
        sent_msgs,
        sent_bytes,
        sent_particles,
        recv_particles: recv_particles as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_distributed_on;
    use bltc_core::config::BltcParams;
    use bltc_core::kernel::{Coulomb, Kernel};
    use mpi_sim::NetworkSpec;
    use rcb::rcb_partition;

    fn cfg() -> DistConfig {
        DistConfig::comet(BltcParams::new(0.8, 3, 60, 60))
    }

    fn kernel() -> Arc<dyn GradientKernel> {
        Arc::new(Coulomb)
    }

    #[test]
    fn session_eval_matches_respawn_pipeline_bitwise() {
        let ps = ParticleSet::random_cube(700, 11);
        let c = cfg();
        let part = rcb_partition(&ps, 3, None);
        let (columns, ranks, traffic) = run_distributed_on(&ps, &part, &c, &*kernel());
        let (respawn, clocks) = (FieldResult::from(columns), PhaseMaxima::over(&ranks));

        let mut fs = FieldSession::launch(&ps, &[], 3, &c);
        let rep = fs.eval_field(&kernel());
        // Same traffic, same clocks, same per-rank tallies.
        assert_eq!(
            rep.traffic.total_remote_bytes(),
            traffic.total_remote_bytes()
        );
        assert_eq!(rep.total_s, clocks.total_s);
        assert_eq!(rep.pipelined_s, clocks.pipelined_s);
        assert!(rep.pipelined_s <= rep.total_s);
        // The resident fields, scattered by id, equal the respawn
        // pipeline's global assembly bitwise.
        let er =
            fs.run_epoch(|_c, slot| (slot.ids.clone(), slot.field.clone().expect("evaluated")));
        for (ids, field) in er.results {
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(field.potentials[i], respawn.potentials[id]);
                assert_eq!(field.gx[i], respawn.gx[id]);
                assert_eq!(field.gy[i], respawn.gy[id]);
                assert_eq!(field.gz[i], respawn.gz[id]);
            }
        }
    }

    /// A kernel that borrows its softening: not `'static`, so only a
    /// scoped session can run it.
    struct Softened<'a> {
        eps2: &'a f64,
    }

    impl Kernel for Softened<'_> {
        fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
            1.0 / (dx * dx + dy * dy + dz * dz + self.eps2).sqrt()
        }
        fn name(&self) -> &'static str {
            "softened"
        }
        fn flops_per_eval_cpu(&self) -> f64 {
            20.0
        }
        fn flops_per_eval_gpu(&self) -> f64 {
            10.0
        }
    }

    #[test]
    fn scoped_session_epochs_borrow_the_stack() {
        // Two evaluation epochs with a non-'static kernel and one custom
        // epoch reading a stack Vec, on scoped ranks; each epoch drains
        // its own traffic, and the session drops inside the scope.
        let ps = ParticleSet::random_cube(600, 13);
        let c = cfg();
        let part = c.partition(&ps, 3);
        let eps2 = 0.01;
        let kernel = Softened { eps2: &eps2 };
        let op: &dyn Kernel = &kernel;
        let scale = vec![1.0, 10.0, 100.0];
        let (first, second, sizes) = std::thread::scope(|scope| {
            let world = SessionIn::spawn_in(scope, 3);
            let mut fs = FieldSessionIn::launch_in(&ps, &[], 3, &c, world, Some(&part));
            let first = fs.eval(op);
            let second = fs.eval(op);
            let sizes = fs.run_epoch(|comm, slot| slot.ids.len() as f64 * scale[comm.rank()]);
            assert_eq!(fs.epochs_run(), 3);
            drop(fs);
            (first, second, sizes)
        });
        assert!(first.traffic.total_remote_bytes() > 0);
        assert_eq!(first.traffic, second.traffic, "traffic is per epoch");
        assert_eq!(sizes.traffic.total_remote_bytes(), 0);
        let expected: Vec<f64> = part
            .part_indices
            .iter()
            .zip(&scale)
            .map(|(ids, s)| ids.len() as f64 * s)
            .collect();
        assert_eq!(sizes.results, expected);
        // Both epochs, and the one-shot door, give the same bits.
        let one_shot = crate::run_distributed(&ps, 3, &c, op);
        for ((a, b), ids) in first
            .results
            .iter()
            .zip(&second.results)
            .zip(&part.part_indices)
        {
            assert_eq!(a.1, b.1);
            for (&id, &v) in ids.iter().zip(&a.1[0]) {
                assert_eq!(v.to_bits(), one_shot.potentials[id].to_bits());
            }
        }
    }

    #[test]
    fn scoped_potential_epoch_matches_the_field_epochs_potentials() {
        let ps = ParticleSet::random_cube(700, 17);
        let c = cfg();
        let part = c.partition(&ps, 3);
        let potentials = std::thread::scope(|scope| {
            let world = SessionIn::spawn_in(scope, 3);
            let mut fs = FieldSessionIn::launch_in(&ps, &[], 3, &c, world, Some(&part));
            fs.eval(&Coulomb as &dyn Kernel)
        });
        let mut fs = FieldSession::launch_reusing(&ps, &[], 3, &c, None, Some(&part));
        let field = fs.eval_field(&kernel());
        let resident = fs.run_epoch(|_c, slot| slot.field.clone().expect("evaluated"));
        assert_eq!(potentials.traffic, field.traffic);
        for ((report, [pot]), f) in potentials.results.iter().zip(&resident.results) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(pot), bits(&f.potentials), "rank {}", report.rank);
        }
    }

    #[test]
    fn migration_with_static_positions_moves_nothing() {
        let ps = ParticleSet::random_cube(400, 5);
        let mut fs = FieldSession::launch(&ps, &[], 4, &cfg());
        let mig = fs.migrate();
        assert_eq!(mig.migrated_particles, 0, "same positions, same RCB");
        assert_eq!(mig.migrated_bytes, 0);
        assert!(mig.gather_bytes > 0, "the coordinate gather still runs");
        assert!(mig.full_exchange_bytes > mig.gather_bytes + mig.migrated_bytes);
    }

    #[test]
    fn migration_follows_a_position_shuffle() {
        // Drag a block of particles across the domain, migrate, and
        // check ownership equals a fresh driver-side RCB bitwise while
        // the global multiset is preserved.
        let ps = ParticleSet::random_cube(600, 9);
        let vx: Vec<f64> = (0..600).map(|i| i as f64).collect();
        let mut fs = FieldSession::launch(&ps, std::slice::from_ref(&vx), 3, &cfg());
        fs.run_epoch(|_c, slot| {
            for i in 0..slot.ps.len() {
                // Deterministic per-id displacement, rank-independent.
                let id = slot.ids[i] as f64;
                slot.ps.x[i] += (id * 0.7).sin();
                slot.ps.y[i] -= (id * 0.3).cos() * 0.5;
            }
        });
        let mig = fs.migrate();
        assert!(mig.migrated_particles > 0, "the shuffle must move owners");

        let snap = fs.snapshot();
        // Fresh RCB over the snapshot positions = the session ownership.
        let fresh = rcb_partition(&snap.ps, 3, None);
        assert_eq!(snap.ownership, fresh.part_indices, "ownership bitwise");
        // Multiset preserved: aux column still carries id-tagged values.
        for (id, v) in snap.aux[0].iter().enumerate() {
            assert_eq!(*v, vx[id], "aux for particle {id} migrated intact");
        }
        // Per-rank tallies reconcile exactly against the epoch matrix.
        let tallied_bytes: u64 = mig
            .ranks
            .iter()
            .map(|s| s.gather_bytes + s.sent_bytes)
            .sum();
        let tallied_msgs: u64 = mig.ranks.iter().map(|s| s.gather_msgs + s.sent_msgs).sum();
        assert_eq!(tallied_bytes, mig.traffic.total_remote_bytes());
        assert_eq!(tallied_msgs, mig.traffic.total_remote_messages());
        // Sent == received globally.
        let recv: u64 = mig.ranks.iter().map(|s| s.recv_particles).sum();
        assert_eq!(recv, mig.migrated_particles);
    }

    #[test]
    fn relaunch_on_recycled_session_is_bitwise_identical() {
        // Checkout → launch → eval → into_session → relaunch with the
        // same inputs (and a cached partition) must reproduce the
        // fresh-launch field and traffic bitwise: world reuse skips the
        // thread spawn and the driver-side RCB, nothing numeric.
        let ps = ParticleSet::random_cube(500, 21);
        let c = cfg();

        let mut fresh = FieldSession::launch(&ps, &[], 3, &c);
        let fresh_rep = fresh.eval_field(&kernel());
        let fresh_fields = fresh
            .run_epoch(|_c, slot| slot.field.clone().expect("evaluated"))
            .results;

        let part = c.partition(&ps, 3);
        let recycled = fresh.into_session();
        let mut reused = FieldSession::launch_reusing(&ps, &[], 3, &c, Some(recycled), Some(&part));
        let reused_rep = reused.eval_field(&kernel());
        let reused_fields = reused
            .run_epoch(|_c, slot| slot.field.clone().expect("evaluated"))
            .results;

        assert_eq!(
            reused_rep.traffic.total_remote_bytes(),
            fresh_rep.traffic.total_remote_bytes()
        );
        assert_eq!(reused_rep.total_s, fresh_rep.total_s);
        for (a, b) in fresh_fields.iter().zip(&reused_fields) {
            assert_eq!(a.potentials, b.potentials);
            assert_eq!(a.gx, b.gx);
            assert_eq!(a.gy, b.gy);
            assert_eq!(a.gz, b.gz);
        }
        // Epoch counters persist across the relaunch (same live world).
        assert!(reused.epochs_run() > 2, "recycled world kept its history");
    }

    #[test]
    fn reusing_a_wrong_sized_session_is_rejected() {
        let ps = ParticleSet::random_cube(100, 3);
        let c = cfg();
        let s = Session::spawn(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FieldSession::launch_reusing(&ps, &[], 3, &c, Some(s), None)
        }));
        assert!(r.is_err(), "2-rank world cannot serve a 3-rank job");
    }

    #[test]
    fn empty_part_partition_is_refused_on_the_driver_before_any_epoch() {
        // A cached partition that leaves rank 1 without particles used
        // to pass the shape checks and die inside the first epoch
        // ("spmd-rank-1 panicked: cannot build a tree over no sources"),
        // poisoning a pooled world. Every door now refuses it up front.
        let ps = ParticleSet::random_cube(60, 4);
        let c = cfg();
        let mut part = c.partition(&ps, 2);
        let orphans = std::mem::take(&mut part.part_indices[1]);
        for &i in &orphans {
            part.assignment[i] = 0;
        }
        part.part_indices[0].extend(orphans);

        let message = refusal(&ps, &c, &part);
        assert!(
            message.starts_with("every rank needs at least one particle"),
            "unexpected refusal: {message:?}"
        );
    }

    /// The panic message of launching on a pooled world with `part`.
    /// Every caller expects the driver's own assert, not a rank's panic
    /// relayed by the runtime — that is, no epoch ran.
    fn refusal(ps: &ParticleSet, c: &DistConfig, part: &RcbPartition) -> String {
        let ranks = part.num_parts();
        let world = Session::spawn(ranks);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FieldSession::launch_reusing(ps, &[], ranks, c, Some(world), Some(part))
        }));
        let payload = refused.err().expect("the partition must be refused");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        message.unwrap_or_default().to_string()
    }

    #[test]
    fn partial_node_partition_is_refused_on_the_driver_before_any_epoch() {
        // A flat 3-part partition handed to a 2-GPU-per-node config used
        // to launch and evaluate, then fail on every rank inside the
        // first migration epoch (which re-partitions through
        // `DistConfig::partition`), poisoning a pooled world. The
        // whole-node rule is now part of the one driver-side check.
        let ps = ParticleSet::random_cube(60, 5);
        let c = DistConfig {
            gpus_per_node: 2,
            ..cfg()
        };
        let part = rcb_partition(&ps, 3, None);
        assert_eq!(
            refusal(&ps, &c, &part),
            "rank count 3 is not a whole number of 2-GPU nodes"
        );
    }

    #[test]
    fn zero_streams_are_refused_on_the_driver_before_any_epoch() {
        // Zero streams used to pass the submitting thread's validation and fail on every
        // rank inside the launch epoch, poisoning a pooled world.
        let ps = ParticleSet::random_cube(60, 5);
        let c = DistConfig {
            streams: 0,
            ..cfg()
        };
        let part = rcb_partition(&ps, 2, None);
        assert_eq!(refusal(&ps, &c, &part), "streams must be at least 1, got 0");
    }

    #[test]
    fn broken_fabric_is_refused_on_the_driver_before_any_epoch() {
        let ps = ParticleSet::random_cube(60, 5);
        let c = DistConfig {
            net: NetworkSpec {
                bandwidth_gbs: 0.0,
                ..NetworkSpec::infiniband_fdr()
            },
            ..cfg()
        };
        let part = rcb_partition(&ps, 2, None);
        assert_eq!(
            refusal(&ps, &c, &part),
            "network \"InfiniBand FDR\": bandwidth_gbs must be positive and finite"
        );
        let c = DistConfig {
            host: crate::HostModel {
                per_launch_s: f64::NAN,
                ..Default::default()
            },
            ..cfg()
        };
        assert_eq!(
            refusal(&ps, &c, &part),
            "host model per_launch_s must be non-negative and finite, got NaN"
        );
    }

    #[test]
    fn aux_columns_are_validated() {
        let ps = ParticleSet::random_cube(50, 2);
        let bad = vec![vec![0.0; 49]];
        let r = std::panic::catch_unwind(|| FieldSession::launch(&ps, &bad, 2, &cfg()));
        assert!(r.is_err(), "short aux column must be rejected");
    }
}
