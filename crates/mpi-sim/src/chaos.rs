//! Deterministic fault injection at the SPMD runtime layer.
//!
//! Chaos engineering for a simulated cluster: a [`ChaosSchedule`] is a
//! driver-held, fully deterministic fault timeline — *rank r does X at
//! epoch k* — attached to a live [`crate::Session`] with
//! [`crate::Session::set_chaos`]. Faults are injected at the runtime
//! layer (epoch entry and the one-sided traffic choke point), so every
//! layer above — distributed field sessions, persistent integrators,
//! the multi-tenant service — inherits them without knowing they exist.
//!
//! Two design rules keep the stack's cardinal invariant (bitwise
//! determinism) intact:
//!
//! 1. **Fatal faults kill, they never corrupt.** [`FaultKind::Panic`]
//!    and [`FaultKind::Hang`] terminate the world through the existing
//!    poison discipline; no fault ever perturbs resident data, epoch
//!    results, or the recorded traffic matrix. A run that survives (or
//!    recovers from) its fault plan is bitwise identical to the
//!    unfaulted run.
//! 2. **Delay faults are observational.** [`FaultKind::Transient`],
//!    [`FaultKind::Straggler`], and [`FaultKind::DegradedLink`] record
//!    deterministic modeled delays as [`ChaosEvent`]s (drained by the
//!    supervising layer into recovery metrics and chaos-track trace
//!    spans); they never touch the integrator's own phase clocks, so
//!    reports stay bitwise comparable against fault-free golden runs.
//!
//! Determinism of the event stream: each rank appends only its own
//! events, in its own program order, to a per-rank buffer; the drain is
//! rank-major — the same discipline the trace sink and the traffic
//! matrix use. Delay sums over the drained stream are therefore
//! reproducible to the last bit regardless of thread interleaving.
//!
//! The schedule is `Arc`-shared and *survives world death*: a
//! supervisor holds it across checkpoint/restore cycles, and per-fault
//! `once` flags guarantee a fault that already fired does not re-fire
//! during replay — which is what makes faulted-then-recovered
//! trajectories reproducible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;

use parking_lot::Mutex;

use crate::netmodel::NetworkSpec;
use crate::runtime::TrafficMatrix;

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The rank panics at epoch entry — the model of a crashed rank
    /// process. The world poisons; the driver sees the panic payload.
    Panic,
    /// The rank parks at epoch entry and never reports — the model of
    /// a wedged rank (the documented MPI deadlock hazard). Resolved by
    /// the session watchdog ([`crate::Session::set_deadline`]), which
    /// poisons the world and releases the parked rank; the released
    /// rank then panics with a [`HangReleased`] payload.
    Hang,
    /// The rank's first `ops` one-sided operations of the epoch each
    /// fail transiently and are retried once — the model of RMA/
    /// collective completion errors with bounded retry. Each retry
    /// records a modeled `delay_s` event; payloads arrive intact, so
    /// the traffic matrix and every result are unperturbed.
    Transient {
        /// One-sided operations that fail once before succeeding.
        ops: u64,
        /// Modeled retry latency per failed operation, seconds.
        delay_s: f64,
    },
    /// The rank's host clock is inflated by a flat modeled delay for
    /// the epoch — the model of a straggler (OS jitter, thermal
    /// throttling).
    Straggler {
        /// Modeled extra host seconds.
        delay_s: f64,
    },
    /// The rank's NIC runs at `multiplier` × nominal bandwidth for the
    /// epoch; the modeled delay is the *extra* serialization time of
    /// the epoch's outgoing traffic under `net` at that fraction:
    /// `(1/multiplier − 1) · origin_seconds`.
    DegradedLink {
        /// Surviving bandwidth fraction in `(0, 1]`.
        multiplier: f64,
        /// The fabric whose α–β model prices the epoch's traffic.
        net: NetworkSpec,
    },
}

impl FaultKind {
    /// Whether this fault terminates the world when it fires (panic or
    /// hang), as opposed to recording observational delay.
    pub fn is_fatal(&self) -> bool {
        matches!(self, FaultKind::Panic | FaultKind::Hang)
    }

    fn label(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Hang => "hang",
            FaultKind::Transient { .. } => "transient-retry",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::DegradedLink { .. } => "degraded-link",
        }
    }
}

/// One scheduled fault: `kind` fires on `rank` when the world enters
/// epoch `epoch` (session-local epoch index, 0-based).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Session epoch the fault fires at.
    pub epoch: u64,
    /// The rank it fires on.
    pub rank: usize,
    /// What happens.
    pub kind: FaultKind,
    /// Fire at most once across the schedule's whole life — including
    /// across world deaths and restores (the flag lives in the shared
    /// schedule, not the world). Recovery replay relies on this for
    /// fatal faults.
    pub once: bool,
}

impl FaultSpec {
    /// The one statement of what a fault may be in a world of `ranks`
    /// ranks: its rank inside `0..ranks`, a delay that is finite and
    /// non-negative, a degraded-link multiplier in `(0, 1]` over a
    /// fabric that passes [`NetworkSpec::validate`].
    pub fn validate(&self, ranks: usize) -> Result<(), String> {
        if self.rank >= ranks {
            return Err(format!(
                "fault targets rank {} but the world has {ranks} ranks",
                self.rank
            ));
        }
        match self.kind {
            FaultKind::Transient { delay_s, .. } | FaultKind::Straggler { delay_s }
                if !(delay_s.is_finite() && delay_s >= 0.0) =>
            {
                Err(format!(
                    "fault delay must be non-negative and finite, got {delay_s}"
                ))
            }
            FaultKind::DegradedLink { multiplier, .. }
                if !(multiplier.is_finite() && multiplier > 0.0 && multiplier <= 1.0) =>
            {
                Err(format!(
                    "degraded-link multiplier must be in (0, 1], got {multiplier}"
                ))
            }
            FaultKind::DegradedLink { net, .. } => net.validate(),
            _ => Ok(()),
        }
    }
}

/// One recorded fault occurrence, in deterministic rank-major order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// Session epoch the fault fired at.
    pub epoch: u64,
    /// The rank it fired on.
    pub rank: usize,
    /// Stable label of the fault kind (`"panic"`, `"hang"`,
    /// `"transient-retry"`, `"straggler"`, `"degraded-link"`).
    pub label: &'static str,
    /// Modeled delay this occurrence contributes (0 for fatal faults).
    pub delay_s: f64,
}

/// Panic payload of a hung rank released by the watchdog — typed so
/// the layers above can classify watchdog resolutions distinctly from
/// ordinary rank panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HangReleased {
    /// The rank that hung.
    pub rank: usize,
    /// The epoch it hung at.
    pub epoch: u64,
}

impl std::fmt::Display for HangReleased {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected hang on rank {} at epoch {} resolved by the epoch watchdog",
            self.rank, self.epoch
        )
    }
}

/// Classify a caught panic payload as the message an error report
/// carries (the service's `JobError::Panicked`, the supervisor's
/// `RecoveryBudgetExhausted`). Strings pass through; the watchdog's
/// typed [`HangReleased`] payload renders its message; any other
/// payload is probed against the primitive types a `panic_any`
/// plausibly carries so the error at least names the type (stable Rust
/// cannot recover a type name from `dyn Any` directly).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    if let Some(h) = payload.downcast_ref::<HangReleased>() {
        return h.to_string();
    }
    macro_rules! probe {
        ($($ty:ty),*) => {
            $(if payload.is::<$ty>() {
                return format!("non-string panic payload of type {}", stringify!($ty));
            })*
        };
    }
    probe!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, f32, f64, bool, char);
    "non-string panic payload".to_string()
}

/// A transient fault armed for the current epoch on one rank. Armed at
/// epoch entry by the faulted rank itself; decremented at the traffic
/// choke point (same thread); cleared by the driver at epoch end — so
/// no cross-thread ordering can make the op count nondeterministic.
struct ArmedTransient {
    ops_left: AtomicU64,
    delay_bits: AtomicU64,
    epoch: AtomicU64,
}

/// A seeded, deterministic fault timeline shared between the driver
/// (which holds it across world deaths) and the live world it is
/// attached to. Construct with [`ChaosSchedule::new`], attach with
/// [`crate::Session::set_chaos`].
pub struct ChaosSchedule {
    faults: Vec<FaultSpec>,
    /// Parallel to `faults`: set the first time the fault fires.
    fired: Vec<AtomicBool>,
    armed: Vec<ArmedTransient>,
    events: Vec<Mutex<Vec<ChaosEvent>>>,
    hang_released: Mutex<bool>,
    hang_cvar: Condvar,
    ranks: usize,
}

impl ChaosSchedule {
    /// Build a schedule for a world of `ranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero, or with the message of
    /// [`FaultSpec::validate`] for the first fault that breaks it.
    pub fn new(faults: Vec<FaultSpec>, ranks: usize) -> Arc<Self> {
        assert!(ranks >= 1, "need at least one rank");
        for f in &faults {
            f.validate(ranks).unwrap_or_else(|e| panic!("{e}"));
        }
        let fired = faults.iter().map(|_| AtomicBool::new(false)).collect();
        Arc::new(Self {
            fired,
            armed: (0..ranks)
                .map(|_| ArmedTransient {
                    ops_left: AtomicU64::new(0),
                    delay_bits: AtomicU64::new(0),
                    epoch: AtomicU64::new(0),
                })
                .collect(),
            events: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
            hang_released: Mutex::new(false),
            hang_cvar: Condvar::new(),
            ranks,
            faults,
        })
    }

    /// The world size this schedule was built for.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The scheduled faults, in declaration order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Whether fault `i` (by declaration order) has fired.
    pub fn fault_fired(&self, i: usize) -> bool {
        self.fired[i].load(Ordering::Relaxed)
    }

    fn record(&self, rank: usize, event: ChaosEvent) {
        self.events[rank].lock().push(event);
    }

    /// Rank-side injection point: called by each rank as it enters an
    /// epoch, before the epoch closure runs. May panic (that is the
    /// point). `poisoned` lets a parked hang bail out if the world dies
    /// for an unrelated reason.
    pub(crate) fn at_epoch_begin(&self, epoch: u64, rank: usize, poisoned: &dyn Fn() -> bool) {
        for (i, f) in self.faults.iter().enumerate() {
            if f.epoch != epoch || f.rank != rank {
                continue;
            }
            if f.once && self.fired[i].swap(true, Ordering::Relaxed) {
                continue; // already fired on an earlier incarnation
            }
            if !f.once {
                self.fired[i].store(true, Ordering::Relaxed);
            }
            match f.kind {
                FaultKind::Panic => {
                    self.record(
                        rank,
                        ChaosEvent {
                            epoch,
                            rank,
                            label: f.kind.label(),
                            delay_s: 0.0,
                        },
                    );
                    panic!("chaos: injected panic on rank {rank} at epoch {epoch}");
                }
                FaultKind::Hang => {
                    self.record(
                        rank,
                        ChaosEvent {
                            epoch,
                            rank,
                            label: f.kind.label(),
                            delay_s: 0.0,
                        },
                    );
                    self.park_until_released(poisoned);
                    std::panic::panic_any(HangReleased { rank, epoch });
                }
                FaultKind::Transient { ops, delay_s } => {
                    let a = &self.armed[rank];
                    a.delay_bits.store(delay_s.to_bits(), Ordering::Relaxed);
                    a.epoch.store(epoch, Ordering::Relaxed);
                    a.ops_left.store(ops, Ordering::Relaxed);
                }
                FaultKind::Straggler { delay_s } => {
                    self.record(
                        rank,
                        ChaosEvent {
                            epoch,
                            rank,
                            label: f.kind.label(),
                            delay_s,
                        },
                    );
                }
                // Priced by the driver at epoch end, from the drained
                // traffic (see `at_epoch_end`).
                FaultKind::DegradedLink { .. } => {}
            }
        }
    }

    /// Traffic-choke-point injection: one one-sided operation by
    /// `origin`. Decrements any armed transient budget and records the
    /// retry event. Same thread as the arm, so the count is exact.
    pub(crate) fn on_rma(&self, origin: usize) {
        let a = &self.armed[origin];
        if a.ops_left.load(Ordering::Relaxed) == 0 {
            return;
        }
        a.ops_left.fetch_sub(1, Ordering::Relaxed);
        self.record(
            origin,
            ChaosEvent {
                epoch: a.epoch.load(Ordering::Relaxed),
                rank: origin,
                label: "transient-retry",
                delay_s: f64::from_bits(a.delay_bits.load(Ordering::Relaxed)),
            },
        );
    }

    /// Driver-side injection at epoch end, after every rank has
    /// reported and the epoch's traffic has been drained: price
    /// degraded links against the drained matrix and disarm any
    /// leftover transient budgets.
    pub(crate) fn at_epoch_end(&self, epoch: u64, traffic: &TrafficMatrix) {
        for a in &self.armed {
            a.ops_left.store(0, Ordering::Relaxed);
        }
        for (i, f) in self.faults.iter().enumerate() {
            let FaultKind::DegradedLink { multiplier, net } = f.kind else {
                continue;
            };
            if f.epoch != epoch || f.rank >= traffic.size() {
                continue;
            }
            if f.once && self.fired[i].swap(true, Ordering::Relaxed) {
                continue;
            }
            if !f.once {
                self.fired[i].store(true, Ordering::Relaxed);
            }
            let nominal = net.origin_seconds(traffic, f.rank);
            self.record(
                f.rank,
                ChaosEvent {
                    epoch,
                    rank: f.rank,
                    label: f.kind.label(),
                    delay_s: (1.0 / multiplier - 1.0) * nominal,
                },
            );
        }
    }

    fn park_until_released(&self, poisoned: &dyn Fn() -> bool) {
        let mut released = self.hang_released.lock();
        loop {
            if *released || poisoned() {
                return;
            }
            // Timed wait so a poison from any source (not just the
            // watchdog) unparks the hang promptly.
            let (guard, _timeout) = self
                .hang_cvar
                .wait_timeout(released, Duration::from_millis(5))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            released = guard;
        }
    }

    /// Release every parked [`FaultKind::Hang`] — called by the session
    /// watchdog after poisoning the world. Permanent: a hang that fires
    /// after release panics immediately instead of parking.
    pub fn release_hangs(&self) {
        *self.hang_released.lock() = true;
        self.hang_cvar.notify_all();
    }

    /// Drain all recorded fault occurrences, rank-major (each rank's in
    /// its own program order) — the deterministic event stream a
    /// supervisor converts into chaos-track spans and MTTR counters.
    pub fn drain_events(&self) -> Vec<ChaosEvent> {
        let mut out = Vec::new();
        for buf in &self.events {
            out.append(&mut buf.lock());
        }
        out
    }
}

impl std::fmt::Debug for ChaosSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosSchedule")
            .field("ranks", &self.ranks)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_validates_its_faults() {
        let bad_rank = std::panic::catch_unwind(|| {
            ChaosSchedule::new(
                vec![FaultSpec {
                    epoch: 0,
                    rank: 3,
                    kind: FaultKind::Panic,
                    once: true,
                }],
                2,
            )
        });
        assert!(bad_rank.is_err(), "out-of-world rank must be rejected");
        let bad_mult = std::panic::catch_unwind(|| {
            ChaosSchedule::new(
                vec![FaultSpec {
                    epoch: 0,
                    rank: 0,
                    kind: FaultKind::DegradedLink {
                        multiplier: 1.5,
                        net: NetworkSpec::infiniband_fdr(),
                    },
                    once: true,
                }],
                2,
            )
        });
        assert!(bad_mult.is_err(), "multiplier above 1 must be rejected");
        let dead_fabric = FaultSpec {
            epoch: 0,
            rank: 0,
            kind: FaultKind::DegradedLink {
                multiplier: 0.5,
                net: NetworkSpec {
                    bandwidth_gbs: 0.0,
                    ..NetworkSpec::infiniband_fdr()
                },
            },
            once: true,
        };
        let e = dead_fabric.validate(2).unwrap_err();
        assert!(e.contains("bandwidth_gbs must be positive"), "{e}");
    }

    #[test]
    fn once_faults_fire_exactly_once() {
        let s = ChaosSchedule::new(
            vec![FaultSpec {
                epoch: 2,
                rank: 0,
                kind: FaultKind::Panic,
                once: true,
            }],
            1,
        );
        // Wrong epoch: nothing happens.
        s.at_epoch_begin(1, 0, &|| false);
        assert!(!s.fault_fired(0));
        // Right epoch: fires (panics).
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.at_epoch_begin(2, 0, &|| false)
        }));
        assert!(out.is_err());
        assert!(s.fault_fired(0));
        // Replay of the same epoch after recovery: spent.
        s.at_epoch_begin(2, 0, &|| false);
        let events = s.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label, "panic");
    }

    #[test]
    fn transient_budget_is_bounded_and_disarmed_at_epoch_end() {
        let s = ChaosSchedule::new(
            vec![FaultSpec {
                epoch: 0,
                rank: 1,
                kind: FaultKind::Transient {
                    ops: 2,
                    delay_s: 0.25,
                },
                once: true,
            }],
            2,
        );
        s.at_epoch_begin(0, 1, &|| false);
        for _ in 0..5 {
            s.on_rma(1);
        }
        s.on_rma(0); // unfaulted rank: never charged
        s.at_epoch_end(0, &TrafficMatrix::zeros(2));
        s.on_rma(1); // disarmed: no further events
        let events = s.drain_events();
        assert_eq!(events.len(), 2, "budget of 2 ops, 5 attempted");
        for e in &events {
            assert_eq!((e.rank, e.label, e.delay_s), (1, "transient-retry", 0.25));
        }
    }

    #[test]
    fn hang_release_unparks_and_panics_with_typed_payload() {
        let s = ChaosSchedule::new(
            vec![FaultSpec {
                epoch: 0,
                rank: 0,
                kind: FaultKind::Hang,
                once: true,
            }],
            1,
        );
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s2.at_epoch_begin(0, 0, &|| false)
            }))
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished(), "rank must be parked");
        s.release_hangs();
        let out = h.join().unwrap();
        let payload = out.expect_err("released hang must panic");
        let hr = payload
            .downcast_ref::<HangReleased>()
            .expect("typed payload");
        assert_eq!((hr.rank, hr.epoch), (0, 0));
        assert!(hr.to_string().contains("watchdog"));
    }

    #[test]
    fn degraded_link_prices_the_drained_traffic() {
        let net = NetworkSpec::infiniband_fdr();
        let s = ChaosSchedule::new(
            vec![FaultSpec {
                epoch: 3,
                rank: 0,
                kind: FaultKind::DegradedLink {
                    multiplier: 0.25,
                    net,
                },
                once: true,
            }],
            2,
        );
        let world = crate::runtime::World::new(2);
        world.record_traffic(0, 1, 8000);
        let traffic = world.drain_traffic();
        s.at_epoch_end(3, &traffic);
        let events = s.drain_events();
        assert_eq!(events.len(), 1);
        let nominal = net.origin_seconds(&traffic, 0);
        assert_eq!(events[0].delay_s, 3.0 * nominal, "(1/0.25 - 1) = 3×");
    }

    #[test]
    fn non_string_panic_payloads_name_their_type() {
        fn classify(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
            let payload = std::panic::catch_unwind(f).unwrap_err();
            panic_message(payload.as_ref())
        }
        assert_eq!(classify(|| panic!("plain &str")), "plain &str");
        assert_eq!(classify(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(
            classify(|| std::panic::panic_any(42i32)),
            "non-string panic payload of type i32"
        );
        assert_eq!(
            classify(|| std::panic::panic_any(2.5f64)),
            "non-string panic payload of type f64"
        );
        assert_eq!(
            classify(|| std::panic::panic_any(true)),
            "non-string panic payload of type bool"
        );
        assert_eq!(
            classify(|| std::panic::panic_any(vec![1u8])),
            "non-string panic payload"
        );
    }
}
