//! Passive-target RMA windows.
//!
//! A [`Window`] is created collectively; each rank contributes a local
//! region. Any rank may then read any region with passive-target
//! synchronization: `lock_shared` (concurrent readers, `MPI_LOCK_SHARED`)
//! opens an epoch, `get_with` operations go through the guard, and
//! dropping it unlocks. The LET is get-only, so there is no exclusive
//! epoch, put or accumulate. A get lends the origin the locked range for
//! the length of a closure, which copies out what it needs: one copy per
//! fetched byte.
//! The target thread takes no action — the defining property of the
//! one-sided model the paper's LET construction relies on (§3.1: "each
//! rank can construct its LET completely asynchronously from other
//! ranks").
//!
//! Every `get_with` records (1 message, payload bytes) in the
//! world's traffic matrix for the α–β communication model.

use std::ops::Range;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use crate::comm::Comm;
use crate::runtime::World;

/// A one-sided memory window over all ranks' exposed regions.
///
/// Cheap to clone (regions are shared). The window remembers which rank
/// created this handle so traffic is attributed to the right origin.
pub struct Window<T> {
    regions: Vec<Arc<RwLock<Vec<T>>>>,
    origin: usize,
    world: Arc<World>,
}

impl<T: Clone + Send + Sync + 'static> Window<T> {
    pub(crate) fn create(comm: &Comm, data: Vec<T>) -> Self {
        let region = Arc::new(RwLock::new(data));
        let regions = comm.all_gather(region);
        Self {
            regions,
            origin: comm.rank(),
            world: Arc::clone(comm.world()),
        }
    }

    /// Length of a target rank's exposed region.
    ///
    /// Takes a momentary shared lock (like an `MPI_Get` of metadata —
    /// in the BLTC pipeline region sizes are exchanged up front instead).
    pub fn region_len(&self, target: usize) -> usize {
        self.regions[target].read().len()
    }

    /// Begin a shared (read) passive-target epoch on `target`.
    pub fn lock_shared(&self, target: usize) -> WindowReadGuard<'_, T> {
        WindowReadGuard {
            guard: self.regions[target].read(),
            origin: self.origin,
            target,
            world: &self.world,
        }
    }
}

impl<T> Clone for Window<T> {
    fn clone(&self) -> Self {
        Self {
            regions: self.regions.clone(),
            origin: self.origin,
            world: Arc::clone(&self.world),
        }
    }
}

/// A shared passive-target epoch: `get_with` operations on one target
/// rank.
pub struct WindowReadGuard<'w, T> {
    guard: RwLockReadGuard<'w, Vec<T>>,
    origin: usize,
    target: usize,
    world: &'w Arc<World>,
}

impl<T> WindowReadGuard<'_, T> {
    /// One-sided get of `range` from the target region, read in place:
    /// `read` borrows the range under the epoch's lock and returns what
    /// it copies out (`get_with(r, <[T]>::to_vec)` for an owned copy).
    ///
    /// Panics if the range is out of bounds (an MPI implementation would
    /// corrupt memory or abort; we fail loudly).
    pub fn get_with<R>(&self, range: Range<usize>, read: impl FnOnce(&[T]) -> R) -> R {
        assert!(
            range.end <= self.guard.len(),
            "RMA get out of bounds: {range:?} on region of {}",
            self.guard.len()
        );
        let bytes = (range.len() * std::mem::size_of::<T>()) as u64;
        self.world.record_traffic(self.origin, self.target, bytes);
        read(&self.guard[range])
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::run_spmd;

    #[test]
    fn get_reads_remote_regions() {
        let out = run_spmd(4, |comm| {
            let win = comm.create_window(vec![comm.rank() as f64 * 100.0; 3]);
            // Each rank reads its right neighbor.
            let nbr = (comm.rank() + 1) % comm.size();
            let v = win.lock_shared(nbr).get_with(0..3, <[f64]>::to_vec);
            comm.barrier();
            v[0]
        });
        assert_eq!(out.results, vec![100.0, 200.0, 300.0, 0.0]);
        // 4 gets of 3 f64 each; all remote (neighbor != self for size 4).
        assert_eq!(out.traffic.total_remote_bytes(), 4 * 24);
    }

    #[test]
    fn concurrent_shared_readers_allowed() {
        // All ranks hold a shared lock on rank 0 simultaneously (the
        // barrier inside the epoch would deadlock if readers excluded
        // each other).
        let out = run_spmd(4, |comm| {
            let win = comm.create_window(vec![42.0f64]);
            let g = win.lock_shared(0);
            comm.barrier(); // every rank is inside its epoch here
            let v = g.get_with(0..1, <[f64]>::to_vec)[0];
            drop(g);
            comm.barrier();
            v
        });
        assert!(out.results.iter().all(|&v| v == 42.0));
    }

    #[test]
    fn traffic_attribution_per_pair() {
        let out = run_spmd(3, |comm| {
            let win = comm.create_window(vec![0.0f64; 8]);
            if comm.rank() == 2 {
                let _ = win.lock_shared(1).get_with(0..8, <[f64]>::to_vec); // 64 bytes 2→1
                let _ = win.lock_shared(2).get_with(0..4, <[f64]>::to_vec); // local, still counted
            }
            comm.barrier();
        });
        assert_eq!(out.traffic.get(2, 1).bytes, 64);
        assert_eq!(out.traffic.get(2, 1).messages, 1);
        assert_eq!(out.traffic.get(2, 2).bytes, 32);
        assert_eq!(out.traffic.remote_bytes_from(2), 64, "local excluded");
        assert_eq!(out.traffic.get(0, 1).messages, 0);
    }

    #[test]
    fn region_len_queries() {
        let out = run_spmd(2, |comm| {
            let len = (comm.rank() + 1) * 5;
            let win = comm.create_window(vec![0u32; len]);
            let other = 1 - comm.rank();
            let remote_len = win.region_len(other);
            comm.barrier();
            remote_len
        });
        assert_eq!(out.results, vec![10, 5]);
    }

    #[test]
    fn out_of_bounds_get_panics_on_single_rank() {
        let result = std::panic::catch_unwind(|| {
            run_spmd(1, |comm| {
                let win = comm.create_window(vec![0.0f64; 2]);
                let _ = win.lock_shared(0).get_with(0..5, <[f64]>::to_vec);
            })
        });
        assert!(result.is_err(), "out-of-bounds get must panic");
    }

    #[test]
    fn concurrent_origins_account_bytes_exactly() {
        // Every rank issues a known per-pair workload concurrently: rank
        // o gets (o + 1) slots from every other rank, 3 times. The
        // matrix must end up exactly right despite full contention.
        let n = 6;
        let rounds = 3u64;
        let out = run_spmd(n, |comm| {
            let win = comm.create_window(vec![0.0f64; n + 1]);
            let o = comm.rank();
            for _ in 0..rounds {
                for t in 0..comm.size() {
                    if t != o {
                        let _ = win.lock_shared(t).get_with(0..o + 1, <[f64]>::to_vec);
                    }
                }
            }
            comm.barrier();
        });
        for o in 0..n {
            for t in 0..n {
                let e = out.traffic.get(o, t);
                if o == t {
                    assert_eq!(e.messages, 0);
                } else {
                    assert_eq!(e.messages, rounds);
                    assert_eq!(e.bytes, rounds * (o as u64 + 1) * 8);
                }
            }
            assert_eq!(
                out.traffic.remote_bytes_from(o),
                rounds * (o as u64 + 1) * 8 * (n as u64 - 1)
            );
        }
    }

    #[test]
    fn windows_of_u32_work() {
        let out = run_spmd(2, |comm| {
            let win = comm.create_window(vec![comm.rank() as u32; 4]);
            let v = win
                .lock_shared(1 - comm.rank())
                .get_with(0..4, <[u32]>::to_vec);
            comm.barrier();
            v[0]
        });
        assert_eq!(out.results, vec![1, 0]);
    }
}
