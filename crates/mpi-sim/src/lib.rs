//! # mpi-sim — an in-process SPMD runtime with one-sided RMA
//!
//! Substitute for the paper's MPI layer (§3.1). Ranks are OS threads
//! executing the same program (SPMD); every rank gets a [`Comm`] handle.
//! The pieces the distributed BLTC needs are faithfully modeled:
//!
//! - **Passive-target RMA windows** ([`rma::Window`]): a rank exposes a
//!   memory region; any *origin* rank may `lock → get → unlock` it
//!   with **no involvement from the target thread** — the semantics of
//!   `MPI_Win_lock(MPI_LOCK_SHARED)` + `MPI_Get` + `MPI_Win_unlock` that
//!   the paper uses to build locally essential trees asynchronously.
//! - **Collectives** ([`comm`]): barrier, all-gather, all-reduce — used
//!   for window creation (collective in MPI too) and result assembly.
//! - **Traffic accounting** ([`runtime::TrafficMatrix`]): every one-sided
//!   operation records (messages, bytes) per (origin, target) pair, which
//!   the α–β network model ([`netmodel`]) converts into modeled
//!   communication seconds for the scaling studies.
//!
//! The runtime runs real concurrency (real locks, real data movement
//! between rank heaps), so races and epoch misuse are real bugs here just
//! as they are under MPI.
//!
//! ## One runtime, two thread lifetimes
//!
//! Every world is a [`session::SessionIn`]: rank threads spawned once,
//! running **one** rank loop that executes a sequence of *epochs*
//! (closures submitted over a rendezvous channel) against the live
//! ranks. What differs is only how long the threads live:
//!
//! - [`Session::spawn`] (`Session = SessionIn<'static>`) spawns plain
//!   threads that live until the session drops — the analogue of a
//!   long-lived MPI job with persistent communicators, which is what a
//!   time-stepping driver needs to avoid paying thread spawn and world
//!   construction on every step. Epochs are `'static` closures.
//! - [`session::SessionIn::spawn_in`] spawns them on a
//!   [`std::thread::Scope`], so epochs may borrow the caller's stack.
//!   [`run_spmd`] is that with one epoch — `MPI_Init → work →
//!   MPI_Finalize` per call.
//!
//! The session lifecycle in MPI terms: spawning ≈ `MPI_Init` +
//! `MPI_Comm_dup` (once); each epoch is a bulk-synchronous region over
//! that communicator in which windows are exposed and freed
//! (`MPI_Win_create`/`MPI_Win_free` per epoch) while rank-local memory
//! and the per-rank collective sequence counters persist; dropping the
//! session ≈ `MPI_Finalize`. Collective-sequence checking therefore
//! extends across epochs, and each epoch's one-sided traffic is drained
//! into its own [`session::EpochReport`] so drivers can attribute bytes
//! to phases. See the [`session`] module docs for the full rules.
//!
//! A rank that panics between collectives **poisons** the world:
//! surviving ranks fail fast at their next collective with a clear
//! error naming the culprit, instead of deadlocking the way real MPI
//! ranks would.
//!
//! Collectives come in two flavors: control-plane calls ([`Comm::all_gather`],
//! [`Comm::barrier`], window creation) record no traffic, while the
//! data-plane collectives [`Comm::all_gather_varcount`] and
//! [`Comm::exchange`] (`MPI_Allgatherv` / `MPI_Alltoallv`) record
//! per-pair (messages, bytes) exactly like one-sided operations — they
//! carry the repartition coordinate gather and the particle-migration
//! payloads of the distributed dynamics layer.
//!
//! ## Example
//!
//! ```
//! use mpi_sim::runtime::run_spmd;
//!
//! // Every rank exposes its rank id; rank 0 reads them all one-sided.
//! let out = run_spmd(4, |comm| {
//!     let win = comm.create_window(vec![comm.rank() as f64]);
//!     let mut sum = 0.0;
//!     if comm.rank() == 0 {
//!         for r in 0..comm.size() {
//!             let guard = win.lock_shared(r);
//!             sum += guard.get_with(0..1, <[f64]>::to_vec)[0];
//!         }
//!     }
//!     comm.barrier();
//!     sum
//! });
//! assert_eq!(out.results[0], 0.0 + 1.0 + 2.0 + 3.0);
//! ```

pub mod chaos;
pub mod comm;
pub mod netmodel;
pub mod pool;
pub mod rma;
pub mod runtime;
pub mod session;

pub use chaos::{panic_message, ChaosEvent, ChaosSchedule, FaultKind, FaultSpec, HangReleased};
pub use comm::Comm;
pub use netmodel::NetworkSpec;
pub use pool::{PoolStats, SessionPool};
pub use rma::{Window, WindowReadGuard};
pub use runtime::{run_spmd, SpmdResult, Traffic, TrafficMatrix};
pub use session::{EpochReport, Session, SessionIn};
