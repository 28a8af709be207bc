//! The fault-plan DSL: declarative, seeded, deterministic timelines.

use std::sync::Arc;

use mpi_sim::{ChaosSchedule, FaultKind, FaultSpec, NetworkSpec};

/// A declarative fault timeline for a world of fixed size. Build one
/// fault at a time with the `*_at` methods (every one is `once`: it
/// fires on its first matching epoch and stays spent across recovery
/// replays — the property that makes faulted-then-recovered runs
/// reproducible), or draw a whole plan from a seed with
/// [`FaultPlan::seeded`]. Compile to the runtime's shared schedule with
/// [`FaultPlan::compile`] and attach via
/// [`mpi_sim::Session::set_chaos`] (or the pass-throughs the dist/sim
/// layers expose).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    ranks: usize,
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan for a world of `ranks` ranks. An empty plan is
    /// bitwise invisible: attaching it changes nothing anywhere.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        Self {
            ranks,
            faults: Vec::new(),
        }
    }

    /// The world size this plan targets.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The scheduled faults, in declaration order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether any fault kills the world when it fires (panic or hang)
    /// — i.e. whether running this plan needs a recovery supervisor.
    pub fn has_fatal(&self) -> bool {
        self.faults.iter().any(|f| f.kind.is_fatal())
    }

    /// Whether any fault is a hang — i.e. whether running this plan
    /// needs an epoch watchdog to terminate.
    pub fn has_hang(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Hang))
    }

    /// Every builder method ends here, so a fault that breaks
    /// [`FaultSpec::validate`] panics with its message where it is
    /// written, not later at [`FaultPlan::compile`].
    fn push(mut self, epoch: u64, rank: usize, kind: FaultKind) -> Self {
        let fault = FaultSpec {
            epoch,
            rank,
            kind,
            once: true,
        };
        fault.validate(self.ranks).unwrap_or_else(|e| panic!("{e}"));
        self.faults.push(fault);
        self
    }

    /// Rank `rank` panics when the world enters epoch `epoch`.
    pub fn panic_at(self, epoch: u64, rank: usize) -> Self {
        self.push(epoch, rank, FaultKind::Panic)
    }

    /// Rank `rank` hangs (never reports) at epoch `epoch`. Needs a
    /// session watchdog deadline to resolve.
    pub fn hang_at(self, epoch: u64, rank: usize) -> Self {
        self.push(epoch, rank, FaultKind::Hang)
    }

    /// Rank `rank`'s first `ops` one-sided operations of epoch `epoch`
    /// each fail transiently and retry once, charging `delay_s` modeled
    /// seconds per retry.
    pub fn transient_at(self, epoch: u64, rank: usize, ops: u64, delay_s: f64) -> Self {
        self.push(epoch, rank, FaultKind::Transient { ops, delay_s })
    }

    /// Rank `rank` straggles at epoch `epoch`: its modeled host clock
    /// is inflated by `delay_s` seconds.
    pub fn straggler_at(self, epoch: u64, rank: usize, delay_s: f64) -> Self {
        self.push(epoch, rank, FaultKind::Straggler { delay_s })
    }

    /// Rank `rank`'s NIC runs at `multiplier` × nominal bandwidth for
    /// epoch `epoch`, priced against `net`.
    pub fn degraded_link_at(
        self,
        epoch: u64,
        rank: usize,
        multiplier: f64,
        net: NetworkSpec,
    ) -> Self {
        self.push(epoch, rank, FaultKind::DegradedLink { multiplier, net })
    }

    /// Draw a deterministic plan from a seed: 0–3 faults with kinds in
    /// {panic, transient, straggler, degraded link}, epochs in
    /// `0..max_epoch`, ranks in `0..ranks`. The same `(seed, ranks,
    /// max_epoch)` always yields the same plan — a seeded plan is a
    /// regression test, not a dice roll. Hangs are never drawn (they
    /// require a watchdog to terminate), so any seeded plan can run
    /// under a plain supervisor.
    pub fn seeded(seed: u64, ranks: usize, max_epoch: u64) -> Self {
        assert!(max_epoch >= 1, "need at least one epoch to fault");
        let mut s = seed;
        let mut next = move || splitmix64(&mut s);
        let mut plan = Self::new(ranks);
        let count = next() % 4;
        for _ in 0..count {
            let epoch = next() % max_epoch;
            let rank = (next() % ranks as u64) as usize;
            plan = match next() % 4 {
                0 => plan.panic_at(epoch, rank),
                1 => {
                    let ops = 1 + next() % 4;
                    plan.transient_at(epoch, rank, ops, 1e-4)
                }
                2 => plan.straggler_at(epoch, rank, 5e-4),
                _ => {
                    let multiplier = 0.25 + (next() % 3) as f64 * 0.25;
                    plan.degraded_link_at(epoch, rank, multiplier, NetworkSpec::infiniband_fdr())
                }
            };
        }
        plan
    }

    /// Compile into the runtime's shared, attachable schedule. Each
    /// compile is a fresh timeline: `fired` flags start clear.
    pub fn compile(&self) -> Arc<ChaosSchedule> {
        ChaosSchedule::new(self.faults.clone(), self.ranks)
    }
}

/// SplitMix64 — the stack's stock deterministic generator (also behind
/// the compat `StdRng`); good enough to scatter fault sites, and free
/// of platform or thread-interleaving dependence.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_and_classify() {
        let plan = FaultPlan::new(4)
            .transient_at(2, 1, 3, 1e-4)
            .straggler_at(5, 0, 2e-3);
        assert_eq!(plan.len(), 2);
        assert!(!plan.has_fatal());
        let plan = plan.panic_at(7, 3);
        assert!(plan.has_fatal());
        assert!(!plan.has_hang());
        let plan = plan.hang_at(9, 2);
        assert!(plan.has_hang());
        let schedule = plan.compile();
        assert_eq!(schedule.faults(), plan.faults());
        assert_eq!(schedule.ranks(), 4);
    }

    #[test]
    #[should_panic(expected = "fault targets rank 5")]
    fn out_of_world_rank_rejected_at_build() {
        let _ = FaultPlan::new(2).panic_at(0, 5);
    }

    #[test]
    #[should_panic(expected = "degraded-link multiplier must be in (0, 1], got 0")]
    fn dead_link_rejected_at_build() {
        let _ = FaultPlan::new(2).degraded_link_at(1, 0, 0.0, NetworkSpec::infiniband_fdr());
    }

    #[test]
    #[should_panic(expected = "fault delay must be non-negative and finite, got -0.001")]
    fn negative_delay_rejected_at_build() {
        let _ = FaultPlan::new(2).straggler_at(1, 1, -1e-3);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_watchdog_free() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, 4, 10);
            let b = FaultPlan::seeded(seed, 4, 10);
            assert_eq!(a, b, "seed {seed} must reproduce");
            assert!(!a.has_hang(), "seeded plans must not require a watchdog");
            for f in a.faults() {
                assert!(f.rank < 4);
                assert!(f.epoch < 10);
                assert!(f.once);
            }
        }
        // Different seeds actually vary the plan.
        assert_ne!(
            FaultPlan::seeded(1, 4, 10),
            FaultPlan::seeded(2, 4, 10),
            "distinct seeds should (here) give distinct plans"
        );
    }
}
