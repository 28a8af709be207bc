//! Cross-crate integration: all four engines (serial CPU, parallel CPU,
//! simulated GPU, distributed multi-rank) must agree on the same problem.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bltc::core::prelude::*;
use bltc::dist::{run_distributed, run_distributed_on, DistConfig, FieldSession};
use bltc::gpu::GpuEngine;
use bltc::gpu_sim::DeviceSpec;

fn problem(n: usize, seed: u64) -> ParticleSet {
    ParticleSet::random_cube(n, seed)
}

#[test]
fn serial_parallel_gpu_agree_bitwise() {
    let ps = problem(3000, 100);
    let params = BltcParams::new(0.7, 5, 150, 150);
    let kernel = Yukawa::new(0.5);
    let serial = SerialEngine::new(params).compute(&ps, &ps, &kernel);
    let parallel = ParallelEngine::new(params).compute(&ps, &ps, &kernel);
    let gpu = GpuEngine::new(params).compute(&ps, &ps, &kernel);
    assert_eq!(serial.potentials, parallel.potentials);
    assert_eq!(serial.potentials, gpu.potentials);
    assert_eq!(serial.ops, gpu.ops);
}

#[test]
fn cpu_and_gpu_agree_bitwise_at_every_degree_1_to_14() {
    // The host computes q̂ in one fused pass, the device in the paper's
    // two kernels; both are width-monomorphised for degrees 1..=13 and
    // share one slice body above. A compact cloud seen from far-away
    // probes is approximated at the root at every degree (4000 > 15³).
    let sources = problem(4000, 110);
    let mut probes = problem(48, 111);
    for x in &mut probes.x {
        *x += 6.0;
    }
    for degree in 1..=14 {
        let params = BltcParams::new(0.7, degree, 500, 16);
        let cpu = ParallelEngine::new(params).compute(&probes, &sources, &Coulomb);
        let gpu = GpuEngine::new(params).compute(&probes, &sources, &Coulomb);
        assert!(cpu.ops.approx_interactions > 0, "degree {degree}");
        assert_eq!(cpu.potentials, gpu.potentials, "degree {degree}");
    }
}

#[test]
fn distributed_single_rank_equals_gpu_engine() {
    let ps = problem(2000, 101);
    let params = BltcParams::new(0.8, 4, 100, 100);
    let cfg = DistConfig::comet(params);
    let dist = run_distributed(&ps, 1, &cfg, &Coulomb);
    let gpu = GpuEngine::with_spec(params, DeviceSpec::p100()).compute(&ps, &ps, &Coulomb);
    assert_eq!(dist.potentials, gpu.potentials);
}

#[test]
fn all_engines_converge_to_direct_sum() {
    let ps = problem(2500, 102);
    let params = BltcParams::new(0.7, 6, 120, 120);
    let exact = direct_sum(&ps, &ps, &Coulomb);
    let tol = 1e-4;

    let engines: Vec<Box<dyn TreecodeEngine>> = vec![
        Box::new(SerialEngine::new(params)),
        Box::new(ParallelEngine::new(params)),
        Box::new(GpuEngine::new(params)),
    ];
    for e in &engines {
        let r = e.compute(&ps, &ps, &Coulomb);
        let err = relative_l2_error(&exact, &r.potentials);
        assert!(err < tol, "{}: error {err}", e.name());
    }
    for ranks in [2usize, 3] {
        let dist = run_distributed(&ps, ranks, &DistConfig::comet(params), &Coulomb);
        let err = relative_l2_error(&exact, &dist.potentials);
        assert!(err < tol, "dist({ranks}): error {err}");
    }
}

#[test]
fn engines_agree_on_nonuniform_distributions() {
    // Plummer sphere: deep uneven tree.
    let ps = ParticleSet::plummer(2500, 1.0, 103);
    let params = BltcParams::new(0.7, 5, 100, 100);
    let serial = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
    let gpu = GpuEngine::new(params).compute(&ps, &ps, &Coulomb);
    assert_eq!(serial.potentials, gpu.potentials);

    // Clustered blobs: many empty octants. Five small cubes, each
    // particle shrunk into one of them around a uniform centre.
    let centres = ParticleSet::random_cube(5, 104);
    let mut ps = ParticleSet::random_cube(2000, 105);
    for i in 0..ps.len() {
        let c = i % centres.len();
        ps.x[i] = centres.x[c] + 0.04 * ps.x[i];
        ps.y[i] = centres.y[c] + 0.04 * ps.y[i];
        ps.z[i] = centres.z[c] + 0.04 * ps.z[i];
    }
    let serial = SerialEngine::new(params).compute(&ps, &ps, &Coulomb);
    let gpu = GpuEngine::new(params).compute(&ps, &ps, &Coulomb);
    assert_eq!(serial.potentials, gpu.potentials);
}

#[test]
fn stream_count_never_changes_results() {
    let ps = problem(2500, 105);
    let params = BltcParams::new(0.8, 4, 120, 120);
    let base = GpuEngine::new(params)
        .with_streams(1)
        .compute(&ps, &ps, &Coulomb);
    for streams in 2..=4 {
        let r = GpuEngine::new(params)
            .with_streams(streams)
            .compute(&ps, &ps, &Coulomb);
        assert_eq!(base.potentials, r.potentials, "streams={streams}");
    }
}

#[test]
fn rank_counts_agree_with_each_other() {
    let ps = problem(2400, 106);
    let params = BltcParams::new(0.7, 6, 80, 80);
    let cfg = DistConfig::comet(params);
    let d1 = run_distributed(&ps, 1, &cfg, &Yukawa::default());
    for ranks in [2usize, 4, 6] {
        let dr = run_distributed(&ps, ranks, &cfg, &Yukawa::default());
        let diff = relative_l2_error(&d1.potentials, &dr.potentials);
        assert!(diff < 1e-4, "{ranks} ranks vs 1 rank: {diff}");
    }
}

#[test]
fn gradient_parity_across_engines_for_all_gradient_kernels() {
    // The field counterpart of `serial_parallel_gpu_agree_bitwise`:
    // CPU serial, CPU parallel, and simulated-GPU field evaluation must
    // agree bitwise for every built-in GradientKernel.
    let ps = problem(2200, 107);
    let params = BltcParams::new(0.7, 5, 120, 120);
    let kernels: Vec<Box<dyn GradientKernel>> = vec![
        Box::new(Coulomb),
        Box::new(Yukawa::new(0.5)),
        Box::new(RegularizedCoulomb::new(0.05)),
    ];
    let prep = PreparedTreecode::new(&ps, &ps, params);
    for k in &kernels {
        let serial: FieldResult = prep.evaluate(k.as_ref(), false).into();
        let parallel = prep.evaluate_field_parallel(k.as_ref());
        let gpu = GpuEngine::new(params).compute_field_detailed(&ps, &ps, k.as_ref());
        for (name, s, p, g) in [
            (
                "pot",
                &serial.potentials,
                &parallel.potentials,
                &gpu.field.potentials,
            ),
            ("gx", &serial.gx, &parallel.gx, &gpu.field.gx),
            ("gy", &serial.gy, &parallel.gy, &gpu.field.gy),
            ("gz", &serial.gz, &parallel.gz, &gpu.field.gz),
        ] {
            assert_eq!(s, p, "{}: serial vs parallel {name}", k.name());
            assert_eq!(s, g, "{}: serial vs gpu {name}", k.name());
        }
    }
}

#[test]
fn distributed_single_rank_field_equals_gpu_engine() {
    let ps = problem(1600, 108);
    let params = BltcParams::new(0.8, 4, 100, 100);
    let cfg = DistConfig::comet(params);
    let op: &dyn GradientKernel = &Yukawa::default();
    let (columns, ..) = run_distributed_on(&ps, &cfg.partition(&ps, 1), &cfg, op);
    let dist = FieldResult::from(columns);
    let gpu = GpuEngine::with_spec(params, DeviceSpec::p100()).compute_field_detailed(
        &ps,
        &ps,
        &Yukawa::default(),
    );
    assert_eq!(dist.potentials, gpu.field.potentials);
    assert_eq!(dist.gx, gpu.field.gx);
    assert_eq!(dist.gy, gpu.field.gy);
    assert_eq!(dist.gz, gpu.field.gz);
}

#[test]
fn all_field_engines_converge_to_direct_sum_field() {
    let ps = problem(2000, 109);
    let params = BltcParams::new(0.7, 6, 100, 100);
    let exact = direct_sum_field(&ps, &ps, &Coulomb);
    let prep = PreparedTreecode::new(&ps, &ps, params);
    let cfg = DistConfig::comet(params);
    let op: &dyn GradientKernel = &Coulomb;
    let results = [
        (
            "cpu-serial",
            prep.evaluate(&Coulomb as &dyn GradientKernel, false).into(),
        ),
        ("cpu-parallel", prep.evaluate_field_parallel(&Coulomb)),
        (
            "gpu-sim",
            GpuEngine::new(params)
                .compute_field_detailed(&ps, &ps, &Coulomb)
                .field,
        ),
        (
            "dist(3)",
            FieldResult::from(run_distributed_on(&ps, &cfg.partition(&ps, 3), &cfg, op).0),
        ),
    ];
    for (name, f) in &results {
        assert!(
            relative_l2_error(&exact.potentials, &f.potentials) < 1e-4,
            "{name}: potentials"
        );
        for (c, a, b) in [
            ("gx", &exact.gx, &f.gx),
            ("gy", &exact.gy, &f.gy),
            ("gz", &exact.gz, &f.gz),
        ] {
            let err = relative_l2_error(a, b);
            assert!(err < 1e-3, "{name}: {c} err {err}");
        }
    }
}

/// Coulomb that counts how it is called: whole tiles, or single pairs.
#[derive(Default)]
struct CountingCoulomb {
    tiles: AtomicUsize,
    pairs: AtomicUsize,
}

impl Kernel for CountingCoulomb {
    fn eval(&self, dx: f64, dy: f64, dz: f64) -> f64 {
        self.pairs.fetch_add(1, Ordering::Relaxed);
        Coulomb.eval(dx, dy, dz)
    }
    fn potential_tile(
        &self,
        t: (&[f64], &[f64], &[f64]),
        s: (&[f64], &[f64], &[f64], &[f64]),
        out: &mut [&mut [f64]; 1],
    ) {
        self.tiles.fetch_add(1, Ordering::Relaxed);
        Coulomb.potential_tile(t, s, out);
    }
    fn name(&self) -> &'static str {
        "counting-coulomb"
    }
    fn flops_per_eval_cpu(&self) -> f64 {
        Coulomb.flops_per_eval_cpu()
    }
    fn flops_per_eval_gpu(&self) -> f64 {
        Coulomb.flops_per_eval_gpu()
    }
}

impl GradientKernel for CountingCoulomb {
    fn eval_with_grad(&self, dx: f64, dy: f64, dz: f64) -> (f64, f64, f64, f64) {
        self.pairs.fetch_add(1, Ordering::Relaxed);
        Coulomb.eval_with_grad(dx, dy, dz)
    }
    fn field_tile(
        &self,
        t: (&[f64], &[f64], &[f64]),
        s: (&[f64], &[f64], &[f64], &[f64]),
        out: &mut [&mut [f64]; 4],
    ) {
        self.tiles.fetch_add(1, Ordering::Relaxed);
        Coulomb.field_tile(t, s, out);
    }
}

impl CountingCoulomb {
    /// (tile calls, per-pair calls) since the last take.
    fn take(&self) -> (usize, usize) {
        (
            self.tiles.swap(0, Ordering::Relaxed),
            self.pairs.swap(0, Ordering::Relaxed),
        )
    }
}

/// The wrapper trap: a kernel handed over as a trait object must still be
/// driven tile by tile. A forwarding wrapper that leaves `potential_tile`
/// and `field_tile` to their provided bodies instantiates them for
/// *itself* and silently falls back to one virtual `eval` per pair — same
/// bits, none of the speed — so this is only visible by counting.
/// `CountingCoulomb` overrides both flat tiles, in `TileOp`'s form, and
/// forwards them to `Coulomb`'s; its grid tiles are the provided ones,
/// which call its flat tiles over the proxies.
#[test]
fn trait_object_kernels_are_driven_by_tiles_on_every_distributed_door() {
    let ps = problem(1500, 110);
    let cfg = DistConfig::comet(BltcParams::new(0.7, 4, 80, 80));
    let counting = Arc::new(CountingCoulomb::default());

    let as_kernel: &dyn Kernel = &*counting;
    let pot = run_distributed(&ps, 3, &cfg, as_kernel);
    let (tiles, pairs) = counting.take();
    assert!(tiles > 0, "run_distributed never called the kernel's tile");
    assert_eq!(pairs, 0, "run_distributed fell back to per-pair calls");
    assert_eq!(
        pot.potentials,
        run_distributed(&ps, 3, &cfg, &Coulomb).potentials
    );

    let as_gradient: &dyn GradientKernel = &*counting;
    let part = cfg.partition(&ps, 3);
    let (field, ..) = run_distributed_on(&ps, &part, &cfg, as_gradient);
    let (tiles, pairs) = counting.take();
    assert!(
        tiles > 0,
        "run_distributed_on never called the gradient tile"
    );
    assert_eq!(
        pairs, 0,
        "run_distributed_on fell back to per-pair gradient calls"
    );
    let coulomb: &dyn GradientKernel = &Coulomb;
    assert_eq!(field, run_distributed_on(&ps, &part, &cfg, coulomb).0);

    let mut session = FieldSession::launch(&ps, &[], 3, &cfg);
    let shared: Arc<dyn GradientKernel> = counting.clone();
    session.eval_field(&shared);
    let (tiles, pairs) = counting.take();
    assert!(tiles > 0, "FieldSession epoch never called the tile");
    assert_eq!(pairs, 0, "FieldSession epoch fell back to per-pair calls");
}

/// FNV-1a digests of *potential* passes, recorded on the commit before
/// `Coulomb` and `RegularizedCoulomb` got an AVX-512 tile, and of *field*
/// passes (all four columns, `φ, ∂ₓφ, ∂ᵧφ, ∂_zφ`, in that order), recorded
/// on the commit before they got an AVX-512 field tile: of the two golden
/// trajectory digests of `tests/service.rs` only the softened kernel runs
/// a guarded-family field tile, and none runs `Coulomb`'s. The portable
/// tile and the SIMD tile must both reproduce them, so a runner with
/// `avx512f` and one without assert the same bits.
///
/// The `*YUKAWA*` rows were recorded when the exp family got its own
/// exponential (`kernel/exp.rs`). Like the Coulomb rows they no longer
/// depend on libm's `exp`: it is `+ − ×` on this crate's table, and
/// together with `÷ √` it has the same bits on every IEEE 754 host, so
/// every row holds under any instruction selection. Every row still
/// depends on libm's `cos`, which places the interior Chebyshev nodes
/// (`ChebyshevGrid1D::new`) of every approximated cluster.
///
/// The `*_3RANK` rows were re-pinned when node ids became pre-order: each
/// LET now accumulates its clusters in the owner's pre-order. The
/// one-rank rows did not move.
const PIN_COULOMB_PARALLEL: u64 = 0x63cd_7190_b1ef_f6eb;
const PIN_REGULARIZED_COULOMB_PARALLEL: u64 = 0x0081_a0c9_e81a_4553;
const PIN_COULOMB_3RANK: u64 = 0xb957_ec30_c7c5_258f;
const PIN_COULOMB_FIELD_PARALLEL: u64 = 0xfc8f_e0fb_0d8c_7224;
const PIN_REGULARIZED_COULOMB_FIELD_PARALLEL: u64 = 0xf0da_425c_0306_56c5;
const PIN_COULOMB_FIELD_3RANK: u64 = 0x035b_c656_cbc6_2baa;
const PIN_YUKAWA_SERIAL: u64 = 0xa678_4c6e_bb2b_b48e;
const PIN_REGULARIZED_YUKAWA_SERIAL: u64 = 0xca63_22c5_0628_3e0b;
const PIN_YUKAWA_3RANK: u64 = 0x7d3e_e476_1171_3d7c;
const PIN_REGULARIZED_YUKAWA_3RANK: u64 = 0x31b9_b8b0_026a_6e93;
const PIN_YUKAWA_FIELD_PARALLEL: u64 = 0xcf6a_d51f_8849_2204;
const PIN_REGULARIZED_YUKAWA_FIELD_PARALLEL: u64 = 0x561d_2caf_b9df_f472;
const PIN_YUKAWA_FIELD_3RANK: u64 = 0x0d60_a685_8ec8_69fc;
const PIN_REGULARIZED_YUKAWA_FIELD_3RANK: u64 = 0x849a_a93d_64fc_a064;

#[test]
fn potential_digests_are_pinned_across_instruction_sets() {
    let ps = problem(3000, 120);
    let params = BltcParams::new(0.8, 4, 60, 60);
    let cfg = DistConfig::comet(params);
    let digest = |pot: &[f64]| bltc::service::fnv1a(pot.iter().map(|v| v.to_bits()));
    let engine = ParallelEngine::new(params);
    let coulomb = digest(&engine.compute(&ps, &ps, &Coulomb).potentials);
    let softened = digest(
        &engine
            .compute(&ps, &ps, &RegularizedCoulomb::new(0.05))
            .potentials,
    );
    let dist = digest(&run_distributed(&ps, 3, &cfg, &Coulomb).potentials);
    assert_eq!(
        (coulomb, softened, dist),
        (
            PIN_COULOMB_PARALLEL,
            PIN_REGULARIZED_COULOMB_PARALLEL,
            PIN_COULOMB_3RANK
        ),
        "potential bits moved: {coulomb:#018x} {softened:#018x} {dist:#018x}"
    );
    let (yukawa, softened_yukawa) = (Yukawa::new(0.5), RegularizedYukawa::new(0.5, 0.05));
    let serial = SerialEngine::new(params);
    let exp_rows = [
        digest(&serial.compute(&ps, &ps, &yukawa).potentials),
        digest(&serial.compute(&ps, &ps, &softened_yukawa).potentials),
        digest(&run_distributed(&ps, 3, &cfg, &yukawa).potentials),
        digest(&run_distributed(&ps, 3, &cfg, &softened_yukawa).potentials),
    ];
    assert_eq!(
        exp_rows,
        [
            PIN_YUKAWA_SERIAL,
            PIN_REGULARIZED_YUKAWA_SERIAL,
            PIN_YUKAWA_3RANK,
            PIN_REGULARIZED_YUKAWA_3RANK
        ],
        "exp-family potential bits moved: {exp_rows:#018x?}"
    );

    let digest = |f: &FieldResult| {
        let columns = [&f.potentials, &f.gx, &f.gy, &f.gz];
        bltc::service::fnv1a(columns.into_iter().flatten().map(|v| v.to_bits()))
    };
    let prep = PreparedTreecode::new(&ps, &ps, params);
    let coulomb = digest(&prep.evaluate_field_parallel(&Coulomb));
    let softened = digest(&prep.evaluate_field_parallel(&RegularizedCoulomb::new(0.05)));
    let part = cfg.partition(&ps, 3);
    let dist_field =
        |op: &dyn GradientKernel| FieldResult::from(run_distributed_on(&ps, &part, &cfg, op).0);
    let dist = digest(&dist_field(&Coulomb));
    assert_eq!(
        (coulomb, softened, dist),
        (
            PIN_COULOMB_FIELD_PARALLEL,
            PIN_REGULARIZED_COULOMB_FIELD_PARALLEL,
            PIN_COULOMB_FIELD_3RANK
        ),
        "field bits moved: {coulomb:#018x} {softened:#018x} {dist:#018x}"
    );
    let exp_rows = [
        digest(&prep.evaluate_field_parallel(&yukawa)),
        digest(&prep.evaluate_field_parallel(&softened_yukawa)),
        digest(&dist_field(&yukawa)),
        digest(&dist_field(&softened_yukawa)),
    ];
    assert_eq!(
        exp_rows,
        [
            PIN_YUKAWA_FIELD_PARALLEL,
            PIN_REGULARIZED_YUKAWA_FIELD_PARALLEL,
            PIN_YUKAWA_FIELD_3RANK,
            PIN_REGULARIZED_YUKAWA_FIELD_3RANK
        ],
        "exp-family field bits moved: {exp_rows:#018x?}"
    );
}

#[test]
fn facade_reexports_are_usable() {
    // The umbrella crate must expose every subsystem.
    let _ = bltc::gpu_sim::DeviceSpec::titan_v();
    let _ = bltc::mpi_sim::NetworkSpec::infiniband_fdr();
    let ps = ParticleSet::random_cube(64, 1);
    let part = bltc::rcb_partition::rcb_partition(&ps, 2, None);
    assert_eq!(part.num_parts(), 2);
}
