//! The per-rank communicator: rank identity, collectives, and window
//! creation.
//!
//! Collectives are built on a rendezvous table keyed by a per-rank call
//! counter; because every rank executes the same program, matching calls
//! share a key (calling collectives in different orders on different
//! ranks is an SPMD bug, exactly as in MPI).

use std::cell::Cell;
use std::sync::Arc;

use crate::rma::Window;
use crate::runtime::World;

/// This rank's handle to the SPMD world.
pub struct Comm {
    rank: usize,
    world: Arc<World>,
    seq: Cell<u64>,
}

impl Comm {
    pub(crate) fn new(rank: usize, world: Arc<World>) -> Self {
        Self {
            rank,
            world,
            seq: Cell::new(0),
        }
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.world.size
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.world.barrier.wait();
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// All-gather: every rank contributes `value`; every rank receives
    /// the vector of contributions indexed by rank.
    pub fn all_gather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        let key = self.next_seq();
        {
            let mut r = self.world.rendezvous.lock();
            let slots = r
                .entry(key)
                .or_insert_with(|| (0..self.world.size).map(|_| None).collect());
            assert!(
                slots[self.rank].is_none(),
                "collective sequence mismatch on rank {}",
                self.rank
            );
            slots[self.rank] = Some(Box::new(value));
        }
        self.world.barrier.wait();
        let out: Vec<T> = {
            let r = self.world.rendezvous.lock();
            let slots = r.get(&key).expect("rendezvous entry must exist");
            slots
                .iter()
                .map(|s| {
                    s.as_ref()
                        .expect("all ranks deposited")
                        .downcast_ref::<T>()
                        .expect("collective type mismatch across ranks")
                        .clone()
                })
                .collect()
        };
        self.world.barrier.wait();
        if self.rank == 0 {
            self.world.rendezvous.lock().remove(&key);
        }
        out
    }

    /// Variable-count all-gather of **payload data** (`MPI_Allgatherv`):
    /// every rank contributes a slice of arbitrary length; every rank
    /// receives all contributions indexed by rank.
    ///
    /// Unlike [`Comm::all_gather`] — the control-plane collective used
    /// for window creation and result assembly, which records no
    /// traffic — this is a *data-plane* collective: each origin rank
    /// records one message of `len_t · size_of::<T>()` bytes against
    /// every remote contributor `t`, exactly as if it had fetched each
    /// remote buffer with a one-sided get. This is the collective the
    /// distributed repartition path uses so coordinate exchange flows
    /// rank-to-rank instead of through the global driver.
    pub fn all_gather_varcount<T: Clone + Send + 'static>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        let gathered = self.all_gather(data);
        for (t, buf) in gathered.iter().enumerate() {
            if t != self.rank && !buf.is_empty() {
                self.world.record_traffic(
                    self.rank,
                    t,
                    (buf.len() * std::mem::size_of::<T>()) as u64,
                );
            }
        }
        gathered
    }

    /// Personalized all-to-all exchange (`MPI_Alltoallv`): rank `o`
    /// provides one bucket per destination (`buckets[t]` goes to rank
    /// `t`); the call returns one bucket per source (`out[s]` came from
    /// rank `s`).
    ///
    /// Each non-empty remote bucket records one message of
    /// `len · size_of::<T>()` bytes with the **sender** as origin — the
    /// push-style counterpart of the RMA `put` convention — so per-rank
    /// send tallies reconcile exactly against the world's
    /// [`crate::runtime::TrafficMatrix`]. Empty buckets move nothing
    /// and record nothing. This is the primitive particle migration
    /// rides on: each rank ships only the particles whose ownership
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if `buckets.len() != self.size()`.
    pub fn exchange<T: Clone + Send + 'static>(&self, buckets: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            buckets.len(),
            self.size(),
            "exchange needs one bucket per destination rank"
        );
        for (t, bucket) in buckets.iter().enumerate() {
            if t != self.rank && !bucket.is_empty() {
                self.world.record_traffic(
                    self.rank,
                    t,
                    (bucket.len() * std::mem::size_of::<T>()) as u64,
                );
            }
        }
        // Same rendezvous protocol as `all_gather`, but each rank
        // deposits its bucket table once and readers clone only the
        // column addressed to them — O(total payload) data movement
        // instead of the O(ranks × payload) a gather-everything
        // implementation would copy.
        let key = self.next_seq();
        {
            let mut r = self.world.rendezvous.lock();
            let slots = r
                .entry(key)
                .or_insert_with(|| (0..self.world.size).map(|_| None).collect());
            assert!(
                slots[self.rank].is_none(),
                "collective sequence mismatch on rank {}",
                self.rank
            );
            slots[self.rank] = Some(Box::new(buckets));
        }
        self.world.barrier.wait();
        let out: Vec<Vec<T>> = {
            let r = self.world.rendezvous.lock();
            let slots = r.get(&key).expect("rendezvous entry must exist");
            slots
                .iter()
                .map(|s| {
                    s.as_ref()
                        .expect("all ranks deposited")
                        .downcast_ref::<Vec<Vec<T>>>()
                        .expect("collective type mismatch across ranks")[self.rank]
                        .clone()
                })
                .collect()
        };
        self.world.barrier.wait();
        if self.rank == 0 {
            self.world.rendezvous.lock().remove(&key);
        }
        out
    }

    /// All-reduce sum of an `f64`.
    pub fn all_reduce_sum(&self, value: f64) -> f64 {
        self.all_gather(value).into_iter().sum()
    }

    /// Create an RMA window exposing `data` (collective, like
    /// `MPI_Win_create`). Every rank contributes its local region; the
    /// returned [`Window`] can access any rank's region one-sided.
    pub fn create_window<T: Clone + Send + Sync + 'static>(&self, data: Vec<T>) -> Window<T> {
        Window::create(self, data)
    }

    pub(crate) fn world(&self) -> &Arc<World> {
        &self.world
    }
}

#[cfg(test)]
mod tests {
    use super::Comm;
    use crate::runtime::run_spmd;

    impl Comm {
        /// All-reduce max of an `f64`.
        pub(crate) fn all_reduce_max(&self, value: f64) -> f64 {
            self.all_gather(value)
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    #[test]
    fn all_gather_orders_by_rank() {
        let out = run_spmd(5, |comm| comm.all_gather(comm.rank() * 10));
        for v in out.results {
            assert_eq!(v, vec![0, 10, 20, 30, 40]);
        }
    }

    #[test]
    fn all_reduce_sum_and_max() {
        let out = run_spmd(4, |comm| {
            let s = comm.all_reduce_sum(comm.rank() as f64);
            let m = comm.all_reduce_max(-(comm.rank() as f64));
            (s, m)
        });
        for (s, m) in out.results {
            assert_eq!(s, 6.0);
            assert_eq!(m, 0.0);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        let out = run_spmd(3, |comm| {
            let a = comm.all_gather(comm.rank());
            comm.barrier();
            let b = comm.all_gather(100 + comm.rank());
            (a, b)
        });
        for (a, b) in out.results {
            assert_eq!(a, vec![0, 1, 2]);
            assert_eq!(b, vec![100, 101, 102]);
        }
    }

    #[test]
    fn all_gather_varcount_records_pairwise_traffic() {
        let out = run_spmd(3, |comm| {
            // Rank r contributes r + 1 u64 values.
            let data: Vec<u64> = vec![comm.rank() as u64; comm.rank() + 1];
            comm.all_gather_varcount(data)
        });
        for gathered in out.results {
            assert_eq!(gathered[0], vec![0]);
            assert_eq!(gathered[2], vec![2, 2, 2]);
        }
        // Every origin o pulled (t + 1) · 8 bytes from each remote t.
        for o in 0..3 {
            for t in 0..3 {
                let e = out.traffic.get(o, t);
                if o == t {
                    assert_eq!(e.messages, 0, "no self traffic");
                } else {
                    assert_eq!(e.messages, 1);
                    assert_eq!(e.bytes, (t as u64 + 1) * 8);
                }
            }
        }
    }

    #[test]
    fn exchange_routes_buckets_and_tallies_senders() {
        let out = run_spmd(3, |comm| {
            // Rank o sends [o*10 + t] to each t != o, nothing to itself.
            let buckets: Vec<Vec<u64>> = (0..comm.size())
                .map(|t| {
                    if t == comm.rank() {
                        vec![]
                    } else {
                        vec![(comm.rank() * 10 + t) as u64]
                    }
                })
                .collect();
            comm.exchange(buckets)
        });
        for (r, received) in out.results.iter().enumerate() {
            for (s, bucket) in received.iter().enumerate() {
                if s == r {
                    assert!(bucket.is_empty());
                } else {
                    assert_eq!(bucket, &vec![(s * 10 + r) as u64]);
                }
            }
        }
        // Sender-side accounting: one 8-byte message per remote pair.
        assert_eq!(out.traffic.total_remote_messages(), 6);
        assert_eq!(out.traffic.total_remote_bytes(), 48);
        assert_eq!(out.traffic.get(0, 0).messages, 0, "empty self bucket");
    }

    #[test]
    fn exchange_with_empty_buckets_is_free() {
        let out = run_spmd(4, |comm| {
            let empty: Vec<Vec<f64>> = vec![vec![]; comm.size()];
            comm.exchange(empty)
        });
        assert_eq!(out.traffic.total_remote_messages(), 0);
        assert_eq!(out.traffic.total_remote_bytes(), 0);
        for received in out.results {
            assert!(received.iter().all(|b| b.is_empty()));
        }
    }

    #[test]
    fn all_gather_heterogeneous_sizes() {
        let out = run_spmd(3, |comm| {
            let v: Vec<u8> = vec![comm.rank() as u8; comm.rank() + 1];
            comm.all_gather(v)
        });
        for gathered in out.results {
            assert_eq!(gathered[0], vec![0]);
            assert_eq!(gathered[1], vec![1, 1]);
            assert_eq!(gathered[2], vec![2, 2, 2]);
        }
    }
}
