//! The allocation ledger: what one op of each benchmark shape asks of the
//! heap, counted by a counting global allocator (this test binary's
//! only; the library sets none) and bounded from above.
//!
//! The counters are process-wide, so the binary holds one test, which
//! runs its shapes in sequence, each once warm before it is counted:
//!
//! - a `plummer_pot_4rank` op: `run_distributed_on` over a Plummer cloud
//!   of 6 000 (θ 0.7, n 6, N_L 200, 4 ranks, Coulomb);
//! - a steady and a migrating `plummer_vv_4rank` step: a Plummer sphere
//!   of 4 000 (θ 0.7, n 5, N_L 150, 4 ranks, repartition every 4);
//! - a single-rank `PreparedTreecode::new` plus a parallel `evaluate`
//!   over a cube of 20 000 (θ 0.8, n 6, N_L 1 000, Coulomb).
//!
//! Counts move by a few percent with the host pool's size
//! (`BLTC_HOST_THREADS`), so the count bounds are loose; bytes move
//! less, so the byte bounds are tight. Both hold in the dev and release
//! profiles at 1, 2 and 4 host threads.
//!
//! ```text
//! cargo test --test alloc -- --nocapture    # prints each shape's counts
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use bltc::core::prelude::*;
use bltc::dist::{run_distributed_on, DistConfig};
use bltc::sim::{plummer_sphere, PersistentIntegrator, SimConfig};

/// The system allocator, counting every `alloc` and `realloc` call and
/// the bytes each asks for.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and bytes asked for while `f` runs (on any thread).
fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    drop(f());
    (CALLS.load(Relaxed) - calls, BYTES.load(Relaxed) - bytes)
}

/// One shape's bounds: at most `calls` allocation calls and `mb` MB.
fn check(shape: &str, (calls, bytes): (u64, u64), max_calls: u64, max_mb: f64) {
    let mb = bytes as f64 / 1e6;
    eprintln!("{shape:<16} {calls:>7} allocations {mb:>7.1} MB");
    assert!(
        calls <= max_calls,
        "{shape}: {calls} allocations > {max_calls}"
    );
    assert!(mb <= max_mb, "{shape}: {mb:.1} MB > {max_mb} MB");
}

#[test]
fn each_shape_allocates_within_its_ledger() {
    // ---- plummer_pot_4rank: one warm one-shot op ----------------------
    let ps = ParticleSet::plummer(6_000, 1.0, 1);
    let cfg = DistConfig::comet(BltcParams::new(0.7, 6, 200, 200));
    let part = cfg.partition(&ps, 4);
    let op = &Coulomb as &dyn Kernel;
    let pot4 = || run_distributed_on(&ps, &part, &cfg, op);
    drop(pot4());
    check("pot4 op", counted(pot4), 10_600, 19.0);

    // ---- plummer_vv_4rank: a steady and a migrating step --------------
    let (state, model) = plummer_sphere(4_000, 1.0, 0.05, 1);
    let dist = DistConfig::comet(BltcParams::new(0.7, 5, 150, 150));
    let sim = SimConfig::new(dist, 4, 1e-3).with_repartition_every(4);
    let mut integrator = PersistentIntegrator::new(sim, &state, &model);
    integrator.step();
    check(
        "vv4 steady step",
        counted(|| integrator.step()),
        9_700,
        15.0,
    );
    integrator.step();
    let migrating = counted(|| assert!(integrator.step().repartitioned));
    check("vv4 migration", migrating, 10_500, 18.5);
    drop(integrator);

    // ---- one rank: prepare, then a parallel evaluation ----------------
    let cube = ParticleSet::random_cube(20_000, 1);
    let params = BltcParams::new(0.8, 6, 1_000, 1_000);
    let eval1 = || PreparedTreecode::new(&cube, &cube, params).evaluate_parallel(op);
    drop(eval1());
    check("1-rank eval", counted(eval1), 1_450, 4.0);
}
