//! Drop-in for the subset of rayon this workspace calls: flat, indexed
//! `par_iter` / `into_par_iter` / `par_chunks` loops with `map`, `zip`
//! and `collect`, run on a real host thread pool ([`mod@pool`]: one job
//! per parallel call, its chunks claimed by the workers and the calling
//! thread). The iterator layer ([`mod@iter`]) computes item `i`
//! independently of every other and `collect` puts it in slot `i`, so
//! every result is **bitwise identical to serial execution at any pool
//! size**. Pools are sized by `ThreadPoolBuilder::num_threads(n)`, else
//! `BLTC_HOST_THREADS` → `RAYON_NUM_THREADS` → `available_parallelism`.
//! `crates/compat/README.md` has the scheduling model and the
//! divergences from crates.io rayon.
//!
//! ```
//! use rayon::prelude::*;
//!
//! let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
//! let squares: Vec<u64> = pool.install(|| (0..100u64).into_par_iter().map(|i| i * i).collect());
//! assert_eq!(squares[7], 49);
//! let xs = [1.0, 2.0, 3.0];
//! let scaled: Vec<f64> = pool.install(|| xs.par_iter().zip(&squares).map(|(x, s)| x * *s as f64).collect());
//! assert_eq!(scaled, vec![0.0, 2.0, 12.0]);
//! ```

pub mod iter;
pub mod pool;

pub use pool::{
    current_num_threads, current_pool, ThreadPool, ThreadPoolBuilder, HOST_THREADS_ENV,
};

/// The traits every call site imports (`use rayon::prelude::*`).
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelIterator, ParallelSlice};
}
