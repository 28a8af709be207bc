//! Velocity-Verlet on a **persistent** distributed session: ranks are
//! spawned once, the mechanical state lives on the ranks, and the
//! driver only ever receives [`StepReport`]s (plus explicit snapshots).
//!
//! The [`PersistentIntegrator`] launches one [`bltc_dist::FieldSession`]
//! — the run's only world spawn, charged `world_spawn_seconds` — and
//! advances it with epochs, each charged `epoch_seconds`:
//!
//! 1. **kick–drift epoch** — each rank half-kicks and drifts its
//!    resident particles (velocities, masses, and cached accelerations
//!    ride along as auxiliary columns);
//! 2. **migration epoch** (on the repartition cadence) — coordinates
//!    gather rank-to-rank, every rank recomputes the RCB partition
//!    deterministically, and only the particles whose owner changed
//!    move ([`bltc_dist::FieldSession::migrate`]);
//! 3. **evaluation epoch** — the rank-level pipeline of the one-shot
//!    entries ([`bltc_dist::eval_rank`]) rebuilds windows and LETs from
//!    the resident positions, stores accelerations back into the slots,
//!    completes the kick, and reduces the energies.
//!
//! Repartition data flows rank-to-rank (the driver's gather bytes are
//! zero), and migration moves deltas instead of everything.

use std::sync::Arc;

use bltc_core::field::FieldResult;
use bltc_dist::{eval_rank, DistConfig, FieldSession, PhaseMaxima, RankLocal, RankReport};
use bltc_trace::{Phase, Span, TraceRecorder, Track};
use mpi_sim::runtime::TrafficMatrix;
use mpi_sim::{Comm, Session};
use rcb::RcbPartition;

use crate::forces::ForceModel;
use crate::integrator::{SimConfig, SimReport, StepReport};
use crate::state::SimState;

/// Auxiliary-column layout of the resident state.
const AUX_VX: usize = 0;
const AUX_VY: usize = 1;
const AUX_VZ: usize = 2;
const AUX_MASS: usize = 3;
const AUX_AX: usize = 4;
const AUX_AY: usize = 5;
const AUX_AZ: usize = 6;
const AUX_COLS: usize = 7;

/// The rank-level evaluation body: distributed field evaluation at the
/// resident positions, then [`ForceModel::accelerations_into`] writes
/// the accelerations back into the aux columns.
fn eval_store_rank(
    comm: &Comm,
    slot: &mut RankLocal,
    cfg: &DistConfig,
    model: &ForceModel,
) -> RankReport {
    let (report, columns) = eval_rank(comm, &slot.ps, cfg, model.kernel());
    let field = FieldResult::from(columns);
    let (head, accel) = slot.aux.split_at_mut(AUX_AX);
    let [ax, ay, az] = accel else {
        unreachable!("three acceleration columns follow the mass");
    };
    model.accelerations_into(&field, &slot.ps.q, &head[AUX_MASS], ax, ay, az);
    slot.field = Some(field);
    report
}

/// This rank's kinetic-energy and pair-sum partials (`Σ ½ m v²`,
/// `Σ q(φ − q·G(0))`) over its resident particles.
fn energy_parts(slot: &RankLocal, g0: f64) -> (f64, f64) {
    let field = slot.field.as_ref().expect("evaluated this epoch");
    let mut ke = 0.0;
    let mut pair = 0.0;
    for i in 0..slot.ps.len() {
        let (vx, vy, vz) = (
            slot.aux[AUX_VX][i],
            slot.aux[AUX_VY][i],
            slot.aux[AUX_VZ][i],
        );
        ke += 0.5 * slot.aux[AUX_MASS][i] * (vx * vx + vy * vy + vz * vz);
        let q = slot.ps.q[i];
        pair += q * (field.potentials[i] - q * g0);
    }
    (ke, pair)
}

/// Folded driver-side view of one evaluation epoch.
struct EvalEpoch {
    setup_s: f64,
    precompute_s: f64,
    compute_s: f64,
    total_s: f64,
    pipelined_s: f64,
    rank_msgs: u64,
    rank_bytes: u64,
    matrix_msgs: u64,
    matrix_bytes: u64,
    kinetic: f64,
    pair_sum: f64,
    traffic: TrafficMatrix,
}

/// Warm-world shortcuts for [`PersistentIntegrator::with_world`]: a
/// live session checked out of a pool (skips the thread spawn, and the
/// run's spawn accounting records **zero** world spawns) and/or a
/// cached initial RCB partition of the same positions (skips the
/// driver-side `partition` call). `WorldReuse::default()` is a plain
/// [`PersistentIntegrator::new`].
#[derive(Default)]
pub struct WorldReuse {
    /// A live world with exactly `cfg.ranks` ranks, not poisoned.
    pub session: Option<Session>,
    /// The initial RCB partition of the launch positions.
    pub partition: Option<RcbPartition>,
}

/// A driver-held serialization of the full rank-resident mechanical
/// state at a step boundary: global-order particles, every auxiliary
/// column **including the cached accelerations**, the ownership layout,
/// the integrator clock, and the cumulative report. Taken with
/// [`PersistentIntegrator::checkpoint`], consumed by
/// [`PersistentIntegrator::restore`]; the pair round-trips bitwise —
/// a trajectory resumed from a checkpoint is identical to one that
/// never stopped, because the accelerations ride along (restore never
/// re-evaluates forces) and the ownership layout reproduces the exact
/// resident order on the fresh world.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    ps: bltc_core::particles::ParticleSet,
    aux: Vec<Vec<f64>>,
    ownership: Vec<Vec<usize>>,
    step: u64,
    time: f64,
    report: SimReport,
}

impl Checkpoint {
    /// Completed steps at the checkpoint.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The cumulative report at the checkpoint.
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// The rank count the checkpoint's layout was taken on — a
    /// checkpoint only restores onto a world of the same size (RCB
    /// layouts are not portable across rank counts).
    pub fn ranks(&self) -> usize {
        self.ownership.len()
    }
}

/// Host-model accounting of one restore, kept **out** of the
/// [`SimReport`] deliberately: the report must stay bitwise identical
/// to the unfaulted run's, so recovery overhead (the replacement
/// world's spawn) is surfaced on this side channel for the supervisor's
/// MTTR bookkeeping instead.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RestoreCost {
    /// Worlds spawned for the restore (0 when a warm session was
    /// supplied, 1 otherwise).
    pub world_spawns: u64,
    /// Modeled host seconds of that spawn.
    pub spawn_host_s: f64,
}

/// A velocity-Verlet integrator over a persistent rank session. The
/// mechanical state resides on the ranks for the whole run; the driver
/// holds only configuration, the cumulative [`SimReport`], and the
/// simulation clock. Construct with [`PersistentIntegrator::new`],
/// advance with [`PersistentIntegrator::step`] /
/// [`PersistentIntegrator::run`], and gather state explicitly with
/// [`PersistentIntegrator::snapshot`] when needed.
pub struct PersistentIntegrator {
    cfg: SimConfig,
    session: FieldSession,
    model: Arc<ForceModel>,
    g0: f64,
    step: u64,
    time: f64,
    report: SimReport,
    tracer: Option<Arc<TraceRecorder>>,
}

impl PersistentIntegrator {
    /// Launch the session (initial RCB + the run's **only** thread
    /// spawn), evaluate initial forces on the ranks, and record the
    /// initial energy.
    ///
    /// # Panics
    ///
    /// With the message of [`SimConfig::validate`] for the state's
    /// particle count, on the calling thread before any rank runs.
    pub fn new(cfg: SimConfig, state: &SimState, model: &ForceModel) -> Self {
        Self::with_world(cfg, state, model, WorldReuse::default())
    }

    /// [`PersistentIntegrator::new`] with warm-world shortcuts: when
    /// `reuse.session` carries a live world the thread spawn is skipped
    /// and the report's spawn accounting records zero world spawns (the
    /// spawn was paid by whoever created the session); when
    /// `reuse.partition` carries the cached initial RCB of these same
    /// positions, the driver-side partition call is skipped. Neither
    /// shortcut touches any rank-side epoch, so the trajectory, the
    /// energies, and the per-epoch traffic stay bitwise identical to a
    /// cold start.
    pub fn with_world(
        cfg: SimConfig,
        state: &SimState,
        model: &ForceModel,
        reuse: WorldReuse,
    ) -> Self {
        cfg.validate(state.len()).unwrap_or_else(|e| panic!("{e}"));
        let n = state.len();
        let aux = vec![
            state.vx.clone(),
            state.vy.clone(),
            state.vz.clone(),
            state.mass.clone(),
            vec![0.0; n],
            vec![0.0; n],
            vec![0.0; n],
        ];
        debug_assert_eq!(aux.len(), AUX_COLS);
        let reused_world = reuse.session.is_some();
        let session = FieldSession::launch_reusing(
            &state.particles,
            &aux,
            cfg.ranks,
            &cfg.dist,
            reuse.session,
            reuse.partition.as_ref(),
        );

        let repartition_host_s = cfg.dist.host.repartition_seconds(n, cfg.ranks);
        let (world_spawns, spawn_host_s) = if reused_world {
            (0, 0.0)
        } else {
            (1, cfg.dist.host.world_spawn_seconds(n, cfg.ranks))
        };
        let mut this = Self {
            cfg,
            session,
            model: Arc::new(model.clone()),
            g0: model.kernel().eval(0.0, 0.0, 0.0),
            step: state.step,
            time: state.time,
            report: SimReport::starting(cfg.ranks, repartition_host_s, world_spawns, spawn_host_s),
            tracer: None,
        };
        let eval = this.eval_epoch(false);
        let e0 = eval.kinetic + this.pair_to_potential(eval.pair_sum);
        this.report.initial_energy = e0;
        this.report.final_energy = e0;
        this
    }

    /// Restore a checkpoint onto a fresh (or pool-supplied warm) world
    /// and resume exactly where [`PersistentIntegrator::checkpoint`]
    /// left off. The ownership layout recorded in the checkpoint is
    /// synthesized back into an [`RcbPartition`], so every rank holds
    /// exactly the particles — in exactly the order — it held when the
    /// checkpoint was taken; the cached accelerations ride along in the
    /// aux columns, so no launch-time force evaluation runs and the
    /// resumed trajectory is **bitwise identical** to one that never
    /// stopped. The returned [`RestoreCost`] carries the replacement
    /// world's spawn accounting; the integrator's own report continues
    /// from the checkpoint untouched.
    ///
    /// The restored session restarts its epoch numbering at zero — a
    /// chaos schedule attached afterwards sees fresh epoch indices.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` disagrees with the checkpoint's layout (rank
    /// count, particle count), or with the message of
    /// [`SimConfig::validate`].
    pub fn restore(
        cfg: SimConfig,
        model: &ForceModel,
        ck: &Checkpoint,
        session: Option<Session>,
    ) -> (Self, RestoreCost) {
        cfg.validate(ck.ps.len()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            cfg.ranks,
            ck.ranks(),
            "checkpoint taken on {} ranks cannot restore onto {} ranks",
            ck.ranks(),
            cfg.ranks
        );
        assert_eq!(ck.aux.len(), AUX_COLS, "checkpoint aux layout mismatch");
        let n = ck.ps.len();
        let mut assignment = vec![0usize; n];
        for (rank, ids) in ck.ownership.iter().enumerate() {
            for &id in ids {
                assignment[id] = rank;
            }
        }
        let part = RcbPartition {
            assignment,
            part_indices: ck.ownership.clone(),
            // Bounding regions are a partitioner-side artifact; the
            // resident layout is fully determined by the indices.
            regions: Vec::new(),
        };
        let reused_world = session.is_some();
        let session = FieldSession::launch_reusing(
            &ck.ps,
            &ck.aux,
            cfg.ranks,
            &cfg.dist,
            session,
            Some(&part),
        );
        let cost = if reused_world {
            RestoreCost::default()
        } else {
            RestoreCost {
                world_spawns: 1,
                spawn_host_s: cfg.dist.host.world_spawn_seconds(n, cfg.ranks),
            }
        };
        (
            Self {
                cfg,
                session,
                model: Arc::new(model.clone()),
                g0: model.kernel().eval(0.0, 0.0, 0.0),
                step: ck.step,
                time: ck.time,
                report: ck.report.clone(),
                tracer: None,
            },
            cost,
        )
    }

    /// Serialize the full resident state into a driver-held
    /// [`Checkpoint`]: one snapshot epoch gathering particles plus all
    /// auxiliary columns (velocities, masses, **accelerations**) and
    /// the per-rank ownership layout, stamped with the integrator clock
    /// and the cumulative report. Costs one epoch and one O(N) gather;
    /// adds nothing to the report and perturbs nothing — a run that
    /// checkpoints every step is bitwise identical to one that never
    /// checkpoints.
    pub fn checkpoint(&mut self) -> Checkpoint {
        let snap = self.session.snapshot();
        Checkpoint {
            ps: snap.ps,
            aux: snap.aux,
            ownership: snap.ownership,
            step: self.step,
            time: self.time,
            report: self.report.clone(),
        }
    }

    /// The cumulative run record so far.
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Completed steps (mirrors the resident state's clock).
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Epochs the underlying session has executed.
    pub fn epochs_run(&self) -> u64 {
        self.session.epochs_run()
    }

    /// The underlying distributed session — the hook a job engine uses
    /// for custom epochs and fault injection. Epochs run through this
    /// handle share the resident state with the integrator.
    pub fn field_session(&mut self) -> &mut FieldSession {
        &mut self.session
    }

    /// Tear down the integrator and hand the live world back for reuse
    /// (see [`bltc_dist::FieldSession::into_session`]).
    pub fn into_session(self) -> Session {
        self.session.into_session()
    }

    /// Attach (or detach) a trace recorder. While attached, every
    /// evaluation epoch's rank-side spans are absorbed onto the
    /// recorder's continuous timeline and the driver emits envelope
    /// spans on [`Track::Driver`]: one `step` span per
    /// [`PersistentIntegrator::step`] (billed at the driver-side epoch
    /// dispatch cost) and one `migration` span per repartition (billed
    /// at the migration's host + comm seconds). Detaching (`None`) also
    /// turns rank-side span collection off. Purely observational: the
    /// trajectory, energies, traffic, and every modeled clock are
    /// bitwise identical with or without a recorder (asserted by
    /// `tests/trace.rs`). The launch-time force evaluation runs before
    /// any recorder can be attached, so traces begin at step 1.
    pub fn set_tracer(&mut self, tracer: Option<Arc<TraceRecorder>>) {
        self.session.set_tracing(tracer.is_some());
        self.tracer = tracer;
    }

    /// Gather the most recent field evaluation back into global
    /// particle order — the per-tenant result channel of a job engine
    /// (potentials and gradients of the final force evaluation). Costs
    /// one epoch; the stepping path never does this.
    pub fn last_field(&mut self) -> FieldResult {
        let er = self
            .session
            .run_epoch(|_comm, slot| (slot.ids.clone(), slot.field.clone().expect("evaluated")));
        let n: usize = er.results.iter().map(|(ids, _)| ids.len()).sum();
        let mut out = FieldResult {
            potentials: vec![0.0; n],
            gx: vec![0.0; n],
            gy: vec![0.0; n],
            gz: vec![0.0; n],
        };
        for (ids, field) in er.results {
            for (i, &id) in ids.iter().enumerate() {
                out.potentials[id] = field.potentials[i];
                out.gx[id] = field.gx[i];
                out.gy[id] = field.gy[i];
                out.gz[id] = field.gz[i];
            }
        }
        out
    }

    fn pair_to_potential(&self, pair_sum: f64) -> f64 {
        -self.model.sign * 0.5 * pair_sum
    }

    /// Run one evaluation epoch: field eval + acceleration store, an
    /// optional trailing half-kick, and the energy reduction. Folds the
    /// phase clocks and tallies into the cumulative report.
    fn eval_epoch(&mut self, kick_after: bool) -> EvalEpoch {
        let cfg = self.cfg.dist;
        let model = Arc::clone(&self.model);
        let g0 = self.g0;
        let half = 0.5 * self.cfg.dt;
        let er = self.session.run_epoch(move |comm, slot| {
            let report = eval_store_rank(comm, slot, &cfg, &model);
            if kick_after {
                for i in 0..slot.ps.len() {
                    slot.aux[AUX_VX][i] += half * slot.aux[AUX_AX][i];
                    slot.aux[AUX_VY][i] += half * slot.aux[AUX_AY][i];
                    slot.aux[AUX_VZ][i] += half * slot.aux[AUX_AZ][i];
                }
            }
            let (ke, pair) = energy_parts(slot, g0);
            (report, ke, pair)
        });

        let clocks = PhaseMaxima::over(er.results.iter().map(|(r, _, _)| r));
        let rank_msgs: u64 = er.results.iter().map(|(r, _, _)| r.let_messages).sum();
        let rank_bytes: u64 = er.results.iter().map(|(r, _, _)| r.let_bytes).sum();
        // The RankReport invariant, per epoch: the plans' tallies equal
        // the epoch's drained matrix (kick epochs move nothing, and
        // migration traffic drains into its own epoch, so nothing else
        // can hide in here).
        assert_eq!(rank_msgs, er.traffic.total_remote_messages());
        assert_eq!(rank_bytes, er.traffic.total_remote_bytes());

        let eval = EvalEpoch {
            setup_s: clocks.setup_s,
            precompute_s: clocks.precompute_s,
            compute_s: clocks.compute_s,
            total_s: clocks.total_s,
            pipelined_s: clocks.pipelined_s,
            rank_msgs,
            rank_bytes,
            matrix_msgs: er.traffic.total_remote_messages(),
            matrix_bytes: er.traffic.total_remote_bytes(),
            kinetic: er.results.iter().map(|(_, ke, _)| ke).sum(),
            pair_sum: er.results.iter().map(|(_, _, p)| p).sum(),
            traffic: er.traffic,
        };

        let epoch_s = self.cfg.dist.host.epoch_seconds();
        if let Some(tr) = &self.tracer {
            tr.absorb_epoch(&er.spans);
            tr.advance(epoch_s);
        }
        self.report.force_evals += 1;
        self.report.epoch_host_s += epoch_s;
        self.report.setup_s += eval.setup_s;
        self.report.precompute_s += eval.precompute_s;
        self.report.compute_s += eval.compute_s;
        self.report.total_s += eval.total_s + epoch_s;
        self.report.pipelined_s += eval.pipelined_s;
        self.report.rma_messages += eval.rank_msgs;
        self.report.rma_bytes += eval.rank_bytes;
        self.report.traffic.accumulate(&eval.traffic);
        eval
    }

    /// Advance one velocity-Verlet step of `cfg.dt` entirely on the
    /// ranks: kick–drift epoch, migration epoch on the repartition
    /// cadence, evaluation epoch with the closing kick and energy
    /// reduction. Only this report returns to the driver.
    pub fn step(&mut self) -> StepReport {
        let dt = self.cfg.dt;
        let half = 0.5 * dt;
        let step_trace_start = self.tracer.as_ref().map(|tr| tr.cursor_s());

        // ---- epoch: half-kick + drift -------------------------------
        self.session.run_epoch(move |_comm, slot| {
            for i in 0..slot.ps.len() {
                slot.aux[AUX_VX][i] += half * slot.aux[AUX_AX][i];
                slot.aux[AUX_VY][i] += half * slot.aux[AUX_AY][i];
                slot.aux[AUX_VZ][i] += half * slot.aux[AUX_AZ][i];
                slot.ps.x[i] += dt * slot.aux[AUX_VX][i];
                slot.ps.y[i] += dt * slot.aux[AUX_VY][i];
                slot.ps.z[i] += dt * slot.aux[AUX_VZ][i];
            }
        });
        let mut epoch_host_s = self.cfg.dist.host.epoch_seconds();
        if let Some(tr) = &self.tracer {
            // The kick–drift epoch moves no bytes and emits no
            // rank-side spans; its driver dispatch cost still occupies
            // timeline.
            tr.advance(epoch_host_s);
        }
        self.report.epoch_host_s += epoch_host_s;
        self.report.total_s += epoch_host_s;
        self.step += 1;
        self.time += dt;

        // ---- migration epoch on the cadence -------------------------
        let repartitioned = self.step.is_multiple_of(self.cfg.repartition_every);
        let mut repartition_host_s = 0.0;
        let mut migration_comm_s = 0.0;
        let mut migrated_particles = 0;
        let mut migration_bytes = 0;
        let mut full_exchange_bytes = 0;
        if repartitioned {
            let mig = self.session.migrate();
            let epoch_s = self.cfg.dist.host.epoch_seconds();
            if let Some(tr) = &self.tracer {
                let start = tr.cursor_s();
                let dur = mig.host_s + mig.comm_s;
                tr.push_absolute(
                    Span::new(Track::Driver, "migration", start, start + dur)
                        .phase(Phase::Migration)
                        .bytes(mig.gather_bytes + mig.migrated_bytes),
                );
                tr.advance(dur + epoch_s);
            }
            repartition_host_s = mig.host_s;
            migration_comm_s = mig.comm_s;
            migrated_particles = mig.migrated_particles;
            migration_bytes = mig.gather_bytes + mig.migrated_bytes;
            full_exchange_bytes = mig.full_exchange_bytes;
            epoch_host_s += epoch_s;

            self.report.repartitions += 1;
            self.report.migrations += 1;
            self.report.migrated_particles += mig.migrated_particles;
            self.report.migration_bytes += migration_bytes;
            self.report.migration_comm_s += mig.comm_s;
            self.report.migration_traffic.accumulate(&mig.traffic);
            self.report.repartition_host_s += mig.host_s;
            self.report.epoch_host_s += epoch_s;
            self.report.total_s += mig.host_s + mig.comm_s + epoch_s;
        }

        // ---- epoch: evaluate + closing half-kick + energies ---------
        let eval = self.eval_epoch(true);
        epoch_host_s += self.cfg.dist.host.epoch_seconds();
        if let (Some(tr), Some(start)) = (&self.tracer, step_trace_start) {
            tr.push_absolute(
                Span::new(Track::Driver, "step", start, tr.cursor_s())
                    .phase(Phase::Step)
                    .billed(epoch_host_s),
            );
        }

        let kinetic = eval.kinetic;
        let potential = self.pair_to_potential(eval.pair_sum);
        self.report.steps += 1;
        self.report.final_energy = kinetic + potential;
        let drift = (self.report.final_energy - self.report.initial_energy).abs();
        self.report.max_abs_energy_drift = self.report.max_abs_energy_drift.max(drift);

        StepReport {
            step: self.step,
            time: self.time,
            repartitioned,
            repartition_host_s,
            epoch_host_s,
            migrated_particles,
            migration_bytes,
            full_exchange_bytes,
            migration_comm_s,
            setup_s: eval.setup_s,
            precompute_s: eval.precompute_s,
            compute_s: eval.compute_s,
            total_s: eval.total_s + repartition_host_s + migration_comm_s + epoch_host_s,
            pipelined_s: eval.pipelined_s,
            rank_msgs: eval.rank_msgs,
            rank_bytes: eval.rank_bytes,
            matrix_msgs: eval.matrix_msgs,
            matrix_bytes: eval.matrix_bytes,
            kinetic,
            potential,
        }
    }

    /// Advance `steps` steps, returning the per-step reports.
    pub fn run(&mut self, steps: usize) -> Vec<StepReport> {
        (0..steps).map(|_| self.step()).collect()
    }

    /// Gather the resident state back into a global-order [`SimState`]
    /// — the explicit snapshot channel (checkpoints, trajectory
    /// comparisons). Costs one epoch and one O(N) driver assembly; the
    /// stepping path never does this.
    pub fn snapshot(&mut self) -> SimState {
        let snap = self.session.snapshot();
        let mut cols = snap.aux.into_iter();
        let vx = cols.next().expect("aux column vx");
        let vy = cols.next().expect("aux column vy");
        let vz = cols.next().expect("aux column vz");
        let mass = cols.next().expect("aux column mass");
        let mut state = SimState::with_velocities(snap.ps, vx, vy, vz, mass);
        state.step = self.step;
        state.time = self.time;
        state
    }
}
