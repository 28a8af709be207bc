//! Passive-target RMA windows.
//!
//! A [`Window`] is created collectively; each rank contributes a local
//! region. Any rank may then access any region with passive-target
//! synchronization: `lock_shared` (concurrent readers, `MPI_LOCK_SHARED`)
//! or `lock_exclusive` (single writer, `MPI_LOCK_EXCLUSIVE`), perform
//! `get`/`put` operations through the guard, and unlock by dropping it.
//! The target thread takes no action — the defining property of the
//! one-sided model the paper's LET construction relies on (§3.1: "each
//! rank can construct its LET completely asynchronously from other
//! ranks").
//!
//! Every `get`/`put` records (1 message, payload bytes) in the world's
//! traffic matrix for the α–β communication model.

use std::ops::Range;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

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

    /// Begin an exclusive (write) passive-target epoch on `target`.
    pub fn lock_exclusive(&self, target: usize) -> WindowWriteGuard<'_, T> {
        WindowWriteGuard {
            guard: self.regions[target].write(),
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

/// A shared passive-target epoch: `get` operations on one target rank.
pub struct WindowReadGuard<'w, T> {
    guard: RwLockReadGuard<'w, Vec<T>>,
    origin: usize,
    target: usize,
    world: &'w Arc<World>,
}

impl<T: Clone> WindowReadGuard<'_, T> {
    /// One-sided get of `range` from the target region.
    ///
    /// Panics if the range is out of bounds (an MPI implementation would
    /// corrupt memory or abort; we fail loudly).
    pub fn get(&self, range: Range<usize>) -> Vec<T> {
        assert!(
            range.end <= self.guard.len(),
            "RMA get out of bounds: {range:?} on region of {}",
            self.guard.len()
        );
        let bytes = (range.len() * std::mem::size_of::<T>()) as u64;
        self.world.record_traffic(self.origin, self.target, bytes);
        self.guard[range].to_vec()
    }

    /// Length of the locked region.
    pub fn len(&self) -> usize {
        self.guard.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.guard.is_empty()
    }
}

/// An exclusive passive-target epoch: `put`/`accumulate` on one target.
pub struct WindowWriteGuard<'w, T> {
    guard: RwLockWriteGuard<'w, Vec<T>>,
    origin: usize,
    target: usize,
    world: &'w Arc<World>,
}

impl<T: Clone> WindowWriteGuard<'_, T> {
    /// One-sided put of `data` at `offset` in the target region.
    pub fn put(&mut self, offset: usize, data: &[T]) {
        assert!(
            offset + data.len() <= self.guard.len(),
            "RMA put out of bounds: {}..{} on region of {}",
            offset,
            offset + data.len(),
            self.guard.len()
        );
        let bytes = std::mem::size_of_val(data) as u64;
        self.world.record_traffic(self.origin, self.target, bytes);
        self.guard[offset..offset + data.len()].clone_from_slice(data);
    }

    /// One-sided get within an exclusive epoch (legal in MPI).
    pub fn get(&self, range: Range<usize>) -> Vec<T> {
        assert!(range.end <= self.guard.len(), "RMA get out of bounds");
        let bytes = (range.len() * std::mem::size_of::<T>()) as u64;
        self.world.record_traffic(self.origin, self.target, bytes);
        self.guard[range].to_vec()
    }

    /// Length of the locked region.
    pub fn len(&self) -> usize {
        self.guard.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.guard.is_empty()
    }
}

impl WindowWriteGuard<'_, f64> {
    /// One-sided accumulate (`MPI_Accumulate` with `MPI_SUM`).
    pub fn accumulate(&mut self, offset: usize, data: &[f64]) {
        assert!(
            offset + data.len() <= self.guard.len(),
            "RMA accumulate out of bounds"
        );
        let bytes = (data.len() * 8) as u64;
        self.world.record_traffic(self.origin, self.target, bytes);
        for (slot, v) in self.guard[offset..].iter_mut().zip(data) {
            *slot += v;
        }
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
            let v = win.lock_shared(nbr).get(0..3);
            comm.barrier();
            v[0]
        });
        assert_eq!(out.results, vec![100.0, 200.0, 300.0, 0.0]);
        // 4 gets of 3 f64 each; all remote (neighbor != self for size 4).
        assert_eq!(out.traffic.total_remote_bytes(), 4 * 24);
    }

    #[test]
    fn put_writes_remote_regions() {
        let out = run_spmd(3, |comm| {
            let win = comm.create_window(vec![0.0f64; 3]);
            // Everyone writes its rank into slot `rank` of rank 0.
            {
                let mut g = win.lock_exclusive(0);
                g.put(comm.rank(), &[comm.rank() as f64 + 1.0]);
            }
            comm.barrier();
            let v = win.lock_shared(0).get(0..3);
            v
        });
        for v in out.results {
            assert_eq!(v, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn accumulate_sums_under_contention() {
        let out = run_spmd(8, |comm| {
            let win = comm.create_window(vec![0.0f64; 1]);
            for _ in 0..100 {
                win.lock_exclusive(0).accumulate(0, &[1.0]);
            }
            comm.barrier();
            let v = win.lock_shared(0).get(0..1)[0];
            v
        });
        for v in out.results {
            assert_eq!(v, 800.0, "no lost updates under exclusive locks");
        }
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
            let v = g.get(0..1)[0];
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
                let _ = win.lock_shared(1).get(0..8); // 64 bytes 2→1
                let _ = win.lock_shared(2).get(0..4); // local, still counted
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
                let _ = win.lock_shared(0).get(0..5);
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
                        let _ = win.lock_shared(t).get(0..o + 1);
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
    fn exclusive_epoch_makes_read_modify_write_atomic() {
        // A get→put read-modify-write inside ONE exclusive epoch must
        // not lose updates under contention from every rank (the classic
        // race an MPI_LOCK_EXCLUSIVE epoch exists to prevent).
        let out = run_spmd(6, |comm| {
            let win = comm.create_window(vec![0.0f64; 1]);
            for _ in 0..50 {
                let mut g = win.lock_exclusive(0);
                let v = g.get(0..1)[0];
                g.put(0, &[v + 1.0]);
            }
            comm.barrier();
            let v = win.lock_shared(0).get(0..1)[0];
            v
        });
        for v in out.results {
            assert_eq!(v, 300.0, "lost update under exclusive epochs");
        }
    }

    #[test]
    fn windows_of_u32_work() {
        let out = run_spmd(2, |comm| {
            let win = comm.create_window(vec![comm.rank() as u32; 4]);
            let v = win.lock_shared(1 - comm.rank()).get(0..4);
            comm.barrier();
            v[0]
        });
        assert_eq!(out.results, vec![1, 0]);
    }
}
