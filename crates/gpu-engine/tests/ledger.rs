//! The golden ledger: everything the simulated device prices for one
//! fixed problem — the six modeled `GpuSimBreakdown` phases (as bits),
//! the launch count and the exact profile table — over degrees
//! {1, 4, 8} × streams {1, 3, 4}, for a Coulomb potential pass and a
//! Yukawa field pass. Any moved stream pick, launch geometry, work
//! estimate or transfer size changes a line here.
//!
//! The sweep is priced (`bltc_core::kernel::Priced`): the device clock
//! reads no computed value, so the ledger is the same with the pairs
//! skipped. One case also runs the real kernels against the same lines.
//!
//! The targets are the source cube plus a probe cloud beside it, so every
//! degree prices both launch kinds: the cube's own batches are mostly
//! direct, and the probes approximate the root even at degree 8.
//!
//! On a mismatch the test prints the whole rendered ledger to stderr;
//! a deliberate re-pin pastes it over `GOLDEN`. Every profile table
//! opens with `TABLE_HEADER`; the rows below it are in `GOLDEN`.

use bltc_core::config::BltcParams;
use bltc_core::geometry::Point3;
use bltc_core::kernel::{Coulomb, GradientKernel, Kernel, Priced, TileOp, Yukawa};
use bltc_core::particles::ParticleSet;
use bltc_gpu::{GpuEngine, GpuPass};

fn problem() -> (ParticleSet, ParticleSet) {
    let sources = ParticleSet::random_cube(2000, 97);
    let mut targets = sources.clone();
    let probes = ParticleSet::random_cube(400, 98);
    for i in 0..probes.len() {
        let p = Point3::new(probes.x[i] + 3.0, probes.y[i], probes.z[i]);
        targets.push(p, probes.q[i]);
    }
    (targets, sources)
}

const TABLE_HEADER: &str =
    "kernel                    launches      blocks(avg)      GFLOP     exec(ms)\n";

/// One case: a line with the launch count and the six modeled phases as
/// hex bits, then the profile table's rows.
fn render<const C: usize>(out: &mut String, case: &str, pass: &GpuPass<C>) {
    let sim = &pass.sim;
    out.push_str(&format!("{case} launches={}", pass.events.len()));
    for s in [
        sim.htod_sources_s,
        sim.precompute_s,
        sim.dtoh_charges_s,
        sim.htod_let_s,
        sim.compute_s,
        sim.dtoh_potentials_s,
    ] {
        out.push_str(&format!(" {:016x}", s.to_bits()));
    }
    out.push('\n');
    out.push_str(
        gpu_sim::profile_table(&pass.events)
            .strip_prefix(TABLE_HEADER)
            .expect("profile table header"),
    );
}

/// One case of the sweep at `degree` on `streams` streams: the
/// potential pass `pot` and the field pass `fld`, rendered.
fn ledger_case<P, F>(
    (targets, sources): &(ParticleSet, ParticleSet),
    (degree, streams): (usize, usize),
    pot: &P,
    fld: &F,
) -> String
where
    P: TileOp<1> + ?Sized,
    F: TileOp<4> + ?Sized,
{
    let params = BltcParams::new(0.8, degree, 60, 60);
    let engine = GpuEngine::new(params).with_streams(streams);
    let mut out = String::new();
    let pass = engine.stage(targets, sources).finish(pot);
    render(&mut out, &format!("d{degree} s{streams} pot"), &pass);
    let pass = engine.stage(targets, sources).finish(fld);
    render(&mut out, &format!("d{degree} s{streams} fld"), &pass);
    out
}

/// The whole sweep, priced: a Coulomb potential pass and a Yukawa field
/// pass per case, with `Priced` ops. Then the `Priced` contract on the
/// device: one case with the kernels run renders the same lines.
#[test]
fn modeled_ledger_is_pinned() {
    let problem = problem();
    let yukawa = Yukawa::default();
    let (coulomb, yukawa) = (&Coulomb as &dyn Kernel, &yukawa as &dyn GradientKernel);
    let mut got = String::new();
    for degree in [1, 4, 8] {
        for streams in [1, 3, 4] {
            let case = (degree, streams);
            got.push_str(&ledger_case(
                &problem,
                case,
                &Priced(coulomb),
                &Priced(yukawa),
            ));
        }
    }
    if got != GOLDEN {
        eprintln!("{got}");
    }
    let (want, have): (Vec<_>, Vec<_>) = (GOLDEN.lines().collect(), got.lines().collect());
    for (i, (w, h)) in want.iter().zip(&have).enumerate() {
        assert_eq!(h, w, "ledger line {}", i + 1);
    }
    assert_eq!(have.len(), want.len(), "ledger line count");

    let real = ledger_case(&problem, (1, 3), coulomb, yukawa);
    assert!(
        GOLDEN.contains(&real),
        "the real ops price differently:\n{real}"
    );
}

const GOLDEN: &str = "\
d1 s1 pot launches=3578 3f07c4897901bb33 3f4cde1b511fe164 3ee5c9bb19c14180 3f023ec6e52c3f10 3f951bddcc2fe498 3ee853b3dc3b0000
batch_cluster_approx          2294             31.8      0.004        0.004
batch_cluster_direct          1138             31.5      0.008        0.004
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73              8.0      0.000        0.000
d1 s1 fld launches=3578 3f07c4897901bb33 3f4cde1b511fe164 3ee5c9bb19c14180 3f023ec6e52c3f10 3f952a3d6907c9e2 3f0853b3dc3b0000
batch_cluster_approx_field      2294             31.8      0.025        0.010
batch_cluster_direct_field      1138             31.5      0.048        0.020
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73              8.0      0.000        0.000
d1 s3 pot launches=3578 3f07c4897901bb33 3f33dd004094da63 3ee5c9bb19c14180 3f023ec6e52c3f28 3f7c296063663402 3ee853b3dc3afe00
batch_cluster_approx          2294             31.8      0.004        0.004
batch_cluster_direct          1138             31.5      0.008        0.004
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73              8.0      0.000        0.000
d1 s3 fld launches=3578 3f07c4897901bb33 3f33dd004094da63 3ee5c9bb19c14180 3f023ec6e52c3f28 3f7c3cb7c8c51780 3f0853b3dc3afe00
batch_cluster_approx_field      2294             31.8      0.025        0.010
batch_cluster_direct_field      1138             31.5      0.048        0.020
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73              8.0      0.000        0.000
d1 s4 pot launches=3578 3f07c4897901bb33 3f2e4cf37d070ef7 3ee5c9bb19c14180 3f023ec6e52c3f28 3f7521c26b7f3325 3ee853b3dc3afe00
batch_cluster_approx          2294             31.8      0.004        0.004
batch_cluster_direct          1138             31.5      0.008        0.004
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73              8.0      0.000        0.000
d1 s4 fld launches=3578 3f07c4897901bb33 3f2e4cf37d070ef7 3ee5c9bb19c14180 3f023ec6e52c3f28 3f75301f10935025 3f0853b3dc3afe00
batch_cluster_approx_field      2294             31.8      0.025        0.010
batch_cluster_direct_field      1138             31.5      0.048        0.020
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73              8.0      0.000        0.000
d4 s1 pot launches=3578 3f07c4897901bb33 3f4cd1ca35870422 3ef0dd564036e020 3f023ec6e52c3f10 3f951e7b049aac10 3ee853b3dc3b0000
batch_cluster_approx           136             35.4      0.004        0.002
batch_cluster_direct          3296             31.6      0.023        0.010
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73            125.0      0.004        0.002
d4 s1 fld launches=3578 3f07c4897901bb33 3f4cd1ca35870422 3ef0dd564036e020 3f023ec6e52c3f10 3f95423cfccde446 3f0853b3dc3b0000
batch_cluster_approx_field       136             35.4      0.025        0.010
batch_cluster_direct_field      3296             31.6      0.137        0.057
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73            125.0      0.004        0.002
d4 s3 pot launches=3578 3f07c4897901bb33 3f33d1afa1cb8085 3ef0dd564036e020 3f023ec6e52c3f28 3f7c2ceebe8dfdb4 3ee853b3dc3afe00
batch_cluster_approx           136             35.4      0.004        0.002
batch_cluster_direct          3296             31.6      0.023        0.010
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73            125.0      0.004        0.002
d4 s3 fld launches=3578 3f07c4897901bb33 3f33d1afa1cb8085 3ef0dd564036e020 3f023ec6e52c3f28 3f7c5d0487ad7998 3f0853b3dc3afe00
batch_cluster_approx_field       136             35.4      0.025        0.010
batch_cluster_direct_field      3296             31.6      0.137        0.057
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73            125.0      0.004        0.002
d4 s4 pot launches=3578 3f07c4897901bb33 3f2e34f50d1cef13 3ef0dd564036e020 3f023ec6e52c3f28 3f752463050d6829 3ee853b3dc3afe00
batch_cluster_approx           136             35.4      0.004        0.002
batch_cluster_direct          3296             31.6      0.023        0.010
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73            125.0      0.004        0.002
d4 s4 fld launches=3578 3f07c4897901bb33 3f2e34f50d1cef13 3ef0dd564036e020 3f023ec6e52c3f28 3f75483c9d073ad1 3f0853b3dc3afe00
batch_cluster_approx_field       136             35.4      0.025        0.010
batch_cluster_direct_field      3296             31.6      0.137        0.057
precompute_phase1               73             82.2      0.000        0.000
precompute_phase2               73            125.0      0.004        0.002
d8 s1 pot launches=3578 3f07c4897901bb33 3f4d10bb0172a051 3f07d7f42e76c720 3f023ec6e52c3f40 3f951fa0fd6505f6 3ee853b3dc3b0000
batch_cluster_approx             4             48.8      0.001        0.000
batch_cluster_direct          3428             31.7      0.031        0.014
precompute_phase1               73             82.2      0.001        0.000
precompute_phase2               73            729.0      0.022        0.009
d8 s1 fld launches=3578 3f07c4897901bb33 3f4d10bb0172a051 3f07d7f42e76c720 3f023ec6e52c3f40 3f954920d18c0069 3f0853b3dc3b0000
batch_cluster_approx_field         4             48.8      0.006        0.002
batch_cluster_direct_field      3428             31.7      0.185        0.077
precompute_phase1               73             82.2      0.001        0.000
precompute_phase2               73            729.0      0.022        0.009
d8 s3 pot launches=3578 3f07c4897901bb33 3f340e0565e5d6b8 3f07d7f42e76c718 3f023ec6e52c3f28 3f7c2eacfe11a879 3ee853b3dc3afe00
batch_cluster_approx             4             48.8      0.001        0.000
batch_cluster_direct          3428             31.7      0.031        0.014
precompute_phase1               73             82.2      0.001        0.000
precompute_phase2               73            729.0      0.022        0.009
d8 s3 fld launches=3578 3f07c4897901bb33 3f340e0565e5d6b8 3f07d7f42e76c718 3f023ec6e52c3f28 3f7c678ca6269824 3f0853b3dc3afe00
batch_cluster_approx_field         4             48.8      0.006        0.002
batch_cluster_direct_field      3428             31.7      0.185        0.077
precompute_phase1               73             82.2      0.001        0.000
precompute_phase2               73            729.0      0.022        0.009
d8 s4 pot launches=3578 3f07c4897901bb33 3f2ebbb0079f0535 3f07d7f42e76c718 3f023ec6e52c3f28 3f7525e556674704 3ee853b3dc3afe00
batch_cluster_approx             4             48.8      0.001        0.000
batch_cluster_direct          3428             31.7      0.031        0.014
precompute_phase1               73             82.2      0.001        0.000
precompute_phase2               73            729.0      0.022        0.009
d8 s4 fld launches=3578 3f07c4897901bb33 3f2ebbb0079f0535 3f07d7f42e76c718 3f023ec6e52c3f28 3f75516eb08bea76 3f0853b3dc3afe00
batch_cluster_approx_field         4             48.8      0.006        0.002
batch_cluster_direct_field      3428             31.7      0.185        0.077
precompute_phase1               73             82.2      0.001        0.000
precompute_phase2               73            729.0      0.022        0.009
";
