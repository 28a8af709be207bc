//! The golden corpus: one table of digests of what the engines compute,
//! compared bit for bit on every run, and the paper's Fig. 4 accuracy for
//! the Yukawa kernel as upper bounds.
//!
//! Each row of [`CORPUS`] is the FNV-1a digest of one output's bit
//! patterns: the potentials of a serial or distributed pass, all four
//! columns (`φ, ∂ₓφ, ∂ᵧφ, ∂_zφ`) of a parallel or distributed field pass,
//! a 3-rank run's traffic matrix or modeled clocks, or the state digest of
//! a velocity-Verlet trajectory. Each row carries a tag:
//! - `LibmFree`: every operation behind it is `+ − × ÷ √` or bit
//!   manipulation, whose results IEEE 754 pins, so the row holds on every
//!   conforming host and under every instruction selection;
//! - `LibmDependent`: the output also passes through a C library function
//!   (`cos`, `exp`, `expf`, `powf`, …), whose results differ between libm
//!   builds. Such a row pins the host's libm as much as this code, and may
//!   fail on a host with another libm with no bug here. Every row whose
//!   pass approximates a cluster is one: `ChebyshevGrid1D::new` places
//!   the interior Chebyshev nodes with `f64::cos`, and the nodes reach
//!   every modified charge and every proxy evaluation. Only the traffic
//!   and clock rows, which read no computed value, are libm-free.
//!
//! The traffic and clock rows are computed twice: by `run_distributed`
//! with the kernel, and by the generic door `run_distributed_on` with the
//! kernel `Priced`, which skips the pair math. Both must equal the same
//! pin; that is the `Priced` contract.
//!
//! A deliberate change of bits is re-pinned with
//! `BLTC_BLESS=1 cargo test --test corpus -- --nocapture`, which prints
//! the table in the form below instead of asserting it. The `plummer`
//! and `electrolyte` trajectory rows are the digests of
//! `tests/golden/mod.rs`, which the service and chaos suites pin too.

mod golden;

use bltc::core::kernel::{MixedPrecision, Priced};
use bltc::core::prelude::*;
use bltc::dist::{run_distributed, run_distributed_on, DistConfig, RankReport};
use bltc::mpi_sim::runtime::TrafficMatrix;
use bltc::service::{fnv1a, state_digest, Fault, JobSpec, Scenario};
use bltc::sim::PersistentIntegrator;
use golden::{GOLDEN_ELECTROLYTE_STATE, GOLDEN_PLUMMER_STATE};
use Libm::{LibmDependent, LibmFree};
use Output::{
    Clocks, ModifiedCharges, NodePairPotential, ParallelField, RankField, RankPotential,
    SerialPotential, TightClocks, TightRankField, TightRankPotential, TightTraffic, Traffic,
    Trajectory,
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Libm {
    LibmFree,
    LibmDependent,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Output {
    /// `SerialEngine` potentials.
    SerialPotential,
    /// `PreparedTreecode::evaluate_field_parallel`, all four columns.
    ParallelField,
    /// `run_distributed` potentials on 3 ranks.
    RankPotential,
    /// `run_distributed_on` with a gradient kernel on 3 ranks, all four
    /// columns.
    RankField,
    /// [`RankPotential`] with every LET streamed under [`TIGHT_BUDGET`].
    TightRankPotential,
    /// [`RankField`] with every LET streamed under [`TIGHT_BUDGET`].
    TightRankField,
    /// `run_distributed` potentials on 4 ranks, two GPUs per node.
    NodePairPotential,
    /// Messages and bytes of every (origin, target) pair of a 3-rank
    /// potential run.
    Traffic,
    /// [`Traffic`] under [`TIGHT_BUDGET`].
    TightTraffic,
    /// The modeled clocks of a 3-rank potential run: per rank the five
    /// serial phases, `pipelined_s`, `peak_let_bytes` and every chunk's
    /// land and ready times.
    Clocks,
    /// [`Clocks`] under [`TIGHT_BUDGET`].
    TightClocks,
    /// The state digest after 3 velocity-Verlet steps on 4 ranks.
    Trajectory,
    /// `ClusterCharges::compute_all` at this degree over [`charge_cloud`]:
    /// every cluster's `q̂`, node-major.
    ModifiedCharges(usize),
}

/// (kernel or scenario, output, tag, digest).
type Row = (&'static str, Output, Libm, u64);

/// The `let_memory_budget` of the `Tight*` rows: well under every rank's
/// whole LET, above any single cluster's payload.
const TIGHT_BUDGET: u64 = 16 * 1024;

/// Recorded on the commit before the exp family got its own exponential;
/// the Yukawa, regularized-Yukawa and Gaussian rows were re-pinned when it
/// did, and no longer depend on libm's `exp` (they still depend on its
/// `cos`, as every row of an approximating pass does). The `Tight*`, `NodePairPotential`,
/// `Traffic` and `Clocks` rows were recorded before the retained and the
/// streamed LET consumers became one driver. The `ModifiedCharges` rows
/// were recorded on the portable (scalar) charge kernel. Every distributed
/// potential and field row, `Clocks`, `TightClocks` and the
/// `ModifiedCharges` rows were re-pinned when node ids became pre-order:
/// a LET now accumulates its clusters in the owner's pre-order, launches
/// go out in the new batch and node order, and the charges are listed
/// node-major in the new ids. Each re-pinned digest was first predicted
/// by relabelling the old splitter's output into pre-order. The
/// `plummer-1500` and `electrolyte-1200` trajectories were recorded while
/// a LET's gets, bytes and launches were still counted at the RMA calls
/// and in the tile walk besides its fetch plan.
#[rustfmt::skip]
const CORPUS: &[Row] = &[
    ("coulomb", SerialPotential, LibmDependent, 0xaa9c_27eb_d4d8_8874),
    ("coulomb", ParallelField, LibmDependent, 0xb118_1875_a5c0_aa2f),
    ("coulomb", RankPotential, LibmDependent, 0x5fc3_4e79_08e3_549e),
    ("coulomb", RankField, LibmDependent, 0x1d4c_4e20_e534_f2f1),
    ("regularized-coulomb", SerialPotential, LibmDependent, 0xe0c5_6e94_6a4b_0085),
    ("regularized-coulomb", ParallelField, LibmDependent, 0xb53c_bd81_91a9_490d),
    ("regularized-coulomb", RankPotential, LibmDependent, 0x5be0_28fc_bc69_30a8),
    ("regularized-coulomb", RankField, LibmDependent, 0x135f_a522_a9de_c55b),
    ("yukawa", SerialPotential, LibmDependent, 0x77b5_195d_890d_cce4),
    ("yukawa", ParallelField, LibmDependent, 0x2801_80a1_5720_019b),
    ("yukawa", RankPotential, LibmDependent, 0x5922_623f_0e61_725c),
    ("yukawa", RankField, LibmDependent, 0x8bed_1487_0d7e_88e7),
    ("regularized-yukawa", SerialPotential, LibmDependent, 0x5cb7_9065_f24e_1df7),
    ("regularized-yukawa", ParallelField, LibmDependent, 0xc70a_3b17_f163_4ad7),
    ("regularized-yukawa", RankPotential, LibmDependent, 0x9641_bdd8_b28b_61df),
    ("regularized-yukawa", RankField, LibmDependent, 0xbe00_0b81_258e_be36),
    ("gaussian", SerialPotential, LibmDependent, 0x31dc_64db_2ab8_4adb),
    ("gaussian", ParallelField, LibmDependent, 0x0ece_bc44_61f4_4ebc),
    ("gaussian", RankPotential, LibmDependent, 0xb4f1_e53e_51aa_3cdf),
    ("gaussian", RankField, LibmDependent, 0x9fde_b9dc_75b4_b709),
    ("mixed-precision-coulomb", SerialPotential, LibmDependent, 0x565d_27a8_5bd1_4825),
    ("mixed-precision-coulomb", RankPotential, LibmDependent, 0xbf38_0209_21ff_4418),
    ("mixed-precision-yukawa", SerialPotential, LibmDependent, 0x9436_820e_f8df_115d),
    ("mixed-precision-yukawa", RankPotential, LibmDependent, 0x1b6d_6d64_e71b_310e),
    ("coulomb", TightRankPotential, LibmDependent, 0x5fc3_4e79_08e3_549e),
    ("coulomb", TightRankField, LibmDependent, 0x1d4c_4e20_e534_f2f1),
    ("yukawa", TightRankPotential, LibmDependent, 0x5922_623f_0e61_725c),
    ("yukawa", TightRankField, LibmDependent, 0x8bed_1487_0d7e_88e7),
    ("coulomb", NodePairPotential, LibmDependent, 0xd5fb_0637_db9c_e928),
    ("coulomb", Traffic, LibmFree, 0x133e_1cd3_591c_caa3),
    ("coulomb", TightTraffic, LibmFree, 0x133e_1cd3_591c_caa3),
    ("coulomb", Clocks, LibmFree, 0x3e59_26cd_746c_2e3f),
    ("coulomb", TightClocks, LibmFree, 0x8277_b40a_5399_c9c1),
    ("plummer", Trajectory, LibmDependent, GOLDEN_PLUMMER_STATE),
    ("electrolyte", Trajectory, LibmDependent, GOLDEN_ELECTROLYTE_STATE),
    ("plummer-1500", Trajectory, LibmDependent, 0x4ed5_9f9f_8a10_c2e6),
    ("electrolyte-1200", Trajectory, LibmDependent, 0x7bab_84c2_9d8a_a9ab),
    ("cloud", ModifiedCharges(1), LibmDependent, 0x3e3d_98b8_e248_8b93),
    ("cloud", ModifiedCharges(2), LibmDependent, 0xed64_f273_8dd3_1f2a),
    ("cloud", ModifiedCharges(3), LibmDependent, 0x513a_1869_d29f_a2bf),
    ("cloud", ModifiedCharges(4), LibmDependent, 0x2873_f34a_a056_ebc7),
    ("cloud", ModifiedCharges(5), LibmDependent, 0x90ca_163b_f0b7_2f7b),
    ("cloud", ModifiedCharges(6), LibmDependent, 0x07a3_257d_0fcc_7758),
    ("cloud", ModifiedCharges(7), LibmDependent, 0x383f_34bf_995d_6b10),
    ("cloud", ModifiedCharges(8), LibmDependent, 0x268a_5fb6_58cb_36ea),
];

/// The seven kernels of the table, by row name: the potential kernel,
/// and its gradient twin where it has one (`MixedPrecision` has none).
fn kernel(name: &str) -> (Box<dyn Kernel>, Option<Box<dyn GradientKernel>>) {
    fn both<K: GradientKernel + Copy + 'static>(
        k: K,
    ) -> (Box<dyn Kernel>, Option<Box<dyn GradientKernel>>) {
        (Box::new(k), Some(Box::new(k)))
    }
    match name {
        "coulomb" => both(Coulomb),
        "regularized-coulomb" => both(RegularizedCoulomb::new(0.05)),
        "yukawa" => both(Yukawa::new(0.5)),
        "regularized-yukawa" => both(RegularizedYukawa::new(0.5, 0.05)),
        "gaussian" => both(Gaussian::new(0.3)),
        "mixed-precision-coulomb" => (Box::new(MixedPrecision(Coulomb)), None),
        "mixed-precision-yukawa" => (Box::new(MixedPrecision(Yukawa::new(0.5))), None),
        _ => panic!("no corpus kernel named {name}"),
    }
}

/// The service suites' golden trajectories (see `tests/golden/mod.rs`),
/// and the same scenarios at 1 500 and 1 200 particles, run straight
/// through the persistent integrator. In the golden two every rank's tree
/// is one leaf; in the larger two every rank's LETs hold approximated and
/// direct clusters, which the row asserts on the initial state.
fn trajectory(name: &str) -> u64 {
    let plummer = Scenario::Plummer {
        a: 1.0,
        softening: 0.05,
    };
    let electrolyte = Scenario::Electrolyte {
        kappa: 0.5,
        softening: 0.05,
        thermal_speed: 0.1,
    };
    let (scenario, n, seed) = match name {
        "plummer" => (plummer, 128, 42),
        "electrolyte" => (electrolyte, 96, 7),
        "plummer-1500" => (plummer, 1500, 42),
        "electrolyte-1200" => (electrolyte, 1200, 7),
        _ => panic!("no corpus trajectory named {name}"),
    };
    let spec = JobSpec {
        scenario,
        n,
        seed,
        ranks: 4,
        steps: 3,
        dt: 1e-3,
        repartition_every: 2,
        dist: DistConfig::comet(BltcParams::new(0.8, 3, 40, 40)),
        fault: Fault::None,
        checkpoint_every: None,
        deadline_s: None,
        allow_degraded: false,
    };
    let (state, model) = spec.scenario.build(spec.n, spec.seed);
    if n > 1000 {
        let part = spec.dist.partition(&state.particles, 4);
        let (_, ranks, _) = run_distributed_on(&state.particles, &part, &spec.dist, model.kernel());
        for r in &ranks {
            let s = r.let_stats;
            assert!(
                s.remote_approx_nodes > 0 && s.remote_direct_nodes > 0,
                "{name}: rank {} fetches {s:?}",
                r.rank
            );
        }
    }
    let mut integ = PersistentIntegrator::new(spec.sim_config(), &state, &model);
    for _ in 0..spec.steps {
        integ.step();
    }
    state_digest(&integ.snapshot())
}

/// The digests of one row's output, computed afresh: one, or two for a
/// row that reads no computed value (the kernel's run, then the same run
/// priced), each compared with the row's one pin. Every kernel row runs
/// on the same problem: 1200 particles in the unit cube, θ = 0.8, degree
/// 4, leaves and batches of 60 — enough that both the approximated and
/// the direct paths carry weight.
fn compute(name: &str, output: Output) -> Vec<u64> {
    match output {
        Trajectory => return vec![trajectory(name)],
        ModifiedCharges(degree) => return vec![modified_charges(name, degree)],
        _ => {}
    }
    let ps = ParticleSet::random_cube(1200, 31);
    let params = BltcParams::new(0.8, 4, 60, 60);
    let cfg = DistConfig::comet(params);
    let potentials = |pot: &[f64]| fnv1a(pot.iter().map(|v| v.to_bits()));
    let field = |f: &FieldResult| {
        let columns = [&f.potentials, &f.gx, &f.gy, &f.gz];
        fnv1a(columns.into_iter().flatten().map(|v| v.to_bits()))
    };
    let tight = DistConfig {
        let_memory_budget: Some(TIGHT_BUDGET),
        ..cfg
    };
    let node_pairs = DistConfig {
        gpus_per_node: 2,
        ..cfg
    };
    let (k, grad) = kernel(name);
    let grad = || {
        grad.as_deref()
            .expect("a field row needs a gradient kernel")
    };
    // A row that reads no computed value: the digest of a 3-rank run,
    // then of the same run priced through the generic door.
    let priced_too = |digest: fn(&[RankReport], &TrafficMatrix) -> u64, cfg: &DistConfig| {
        let rep = run_distributed(&ps, 3, cfg, &*k);
        let part = cfg.partition(&ps, 3);
        let (_, ranks, matrix) = run_distributed_on(&ps, &part, cfg, &Priced(&*k));
        vec![digest(&rep.ranks, &rep.traffic), digest(&ranks, &matrix)]
    };
    let digest = match output {
        SerialPotential => potentials(&SerialEngine::new(params).compute(&ps, &ps, &*k).potentials),
        ParallelField => {
            field(&PreparedTreecode::new(&ps, &ps, params).evaluate_field_parallel(grad()))
        }
        RankPotential => potentials(&run_distributed(&ps, 3, &cfg, &*k).potentials),
        RankField => {
            let (columns, ..) = run_distributed_on(&ps, &cfg.partition(&ps, 3), &cfg, grad());
            field(&columns.into())
        }
        TightRankPotential => potentials(&run_distributed(&ps, 3, &tight, &*k).potentials),
        TightRankField => {
            let (columns, ..) = run_distributed_on(&ps, &tight.partition(&ps, 3), &tight, grad());
            field(&columns.into())
        }
        NodePairPotential => potentials(&run_distributed(&ps, 4, &node_pairs, &*k).potentials),
        Traffic => return priced_too(traffic, &cfg),
        TightTraffic => return priced_too(traffic, &tight),
        Clocks => return priced_too(clocks, &cfg),
        TightClocks => return priced_too(clocks, &tight),
        Trajectory | ModifiedCharges(_) => unreachable!(),
    };
    vec![digest]
}

/// The cloud of the [`ModifiedCharges`] rows, built to reach every path
/// of the charge kernel: a random cube, its eight corners, duplicated
/// particles, zero charges, and a patch apart from the cube whose
/// particles share one `z`, so the clusters over it are collapsed along
/// that axis. Leaves of 40 give clusters of many sizes on both sides of
/// eight particles.
fn charge_cloud() -> ParticleSet {
    let mut ps = ParticleSet::random_cube(300, 53);
    for corner in 0..8 {
        let bit = |b: usize| f64::from((corner >> b & 1) as u8);
        ps.push(Point3::new(bit(0), bit(1), bit(2)), 0.5 - bit(2));
    }
    for j in (0..300).step_by(9) {
        let (p, q) = (ps.position(j), ps.q[j]);
        ps.push(p, -q);
    }
    for j in 0..48 {
        let t = f64::from(j as u8) / 48.0;
        let x = 2.0 + 0.5 * t;
        let y = 2.0 + 0.5 * (7.0 * t).fract();
        ps.push(Point3::new(x, y, 0.25), 1.0 - 2.0 * (3.0 * t).fract());
    }
    for q in ps.q.iter_mut().step_by(7) {
        *q = 0.0;
    }
    ps
}

/// The digest of every cluster's modified charges over [`charge_cloud`].
fn modified_charges(name: &str, degree: usize) -> u64 {
    assert_eq!(name, "cloud", "no charge corpus cloud named {name}");
    let tree = SourceTree::build(&charge_cloud(), &BltcParams::new(0.8, degree, 40, 40));
    let cc = ClusterCharges::compute_all(&tree, degree);
    let qhat = (0..cc.num_nodes()).flat_map(|idx| cc.charges(idx));
    fnv1a(qhat.map(|v| v.to_bits()))
}

/// Messages, then bytes, of every (origin, target) pair, row-major.
fn traffic(_: &[RankReport], matrix: &TrafficMatrix) -> u64 {
    let n = matrix.size();
    let pairs = (0..n).flat_map(|o| (0..n).map(move |t| (o, t)));
    fnv1a(pairs.flat_map(|(o, t)| {
        let cell = matrix.get(o, t);
        [cell.messages, cell.bytes]
    }))
}

/// Per rank: the five serial phase clocks, `pipelined_s`,
/// `peak_let_bytes`, then every chunk's land and ready times — the ends
/// of its `let-chunk-get` and `stage` spans.
fn clocks(ranks: &[RankReport], _: &TrafficMatrix) -> u64 {
    fnv1a(ranks.iter().flat_map(|r| {
        let phases = [
            r.setup_host_s,
            r.setup_comm_s,
            r.setup_stage_s,
            r.precompute_s,
            r.compute_s,
            r.pipelined_s(),
        ];
        let chunk_ends = |name| {
            let spans = r.pipeline.spans.iter();
            spans.filter(move |s| s.name == name && s.chunk.is_some())
        };
        let landed = chunk_ends("let-chunk-get").zip(chunk_ends("stage"));
        let chunks = landed.flat_map(|(get, stage)| {
            assert_eq!(get.chunk, stage.chunk);
            [get.end_s, stage.end_s]
        });
        phases
            .into_iter()
            .map(f64::to_bits)
            .chain([r.peak_let_bytes])
            .chain(chunks.map(f64::to_bits))
            .collect::<Vec<_>>()
    }))
}

/// The row as it appears in [`CORPUS`].
fn source_line((name, output, libm, digest): Row) -> String {
    let hex = format!("{digest:016x}");
    let grouped = [&hex[..4], &hex[4..8], &hex[8..12], &hex[12..]].join("_");
    format!("    ({name:?}, {output:?}, {libm:?}, 0x{grouped}),")
}

/// Recomputes `rows` and compares each digest with its row's pin — or,
/// under `BLTC_BLESS=1`, prints the recomputed rows instead.
fn check(rows: impl Iterator<Item = &'static Row>) {
    let bless = std::env::var("BLTC_BLESS").is_ok_and(|v| v == "1");
    let mut moved = Vec::new();
    for &(name, output, libm, pinned) in rows {
        let mut digests = compute(name, output);
        if bless {
            // Two lines for one row: its priced run disagrees.
            digests.dedup();
        }
        for got in digests {
            if bless {
                println!("{}", source_line((name, output, libm, got)));
            } else if got != pinned {
                moved.push(format!(
                    "{} (pinned {pinned:#018x})",
                    source_line((name, output, libm, got))
                ));
            }
        }
    }
    assert!(moved.is_empty(), "corpus rows moved:\n{}", moved.join("\n"));
}

#[test]
fn kernel_rows_are_pinned() {
    check(
        CORPUS
            .iter()
            .filter(|row| !matches!(row.1, Trajectory | ModifiedCharges(_))),
    );
}

#[test]
fn trajectory_rows_are_pinned() {
    check(CORPUS.iter().filter(|row| row.1 == Trajectory));
}

/// Degrees 1–8: grid widths 2–9, on both sides of eight lanes.
#[test]
fn modified_charge_rows_are_pinned() {
    check(
        CORPUS
            .iter()
            .filter(|row| matches!(row.1, ModifiedCharges(_))),
    );
}

/// Relative L2 error of the force, `‖∇φ − ∇φ_exact‖ / ‖∇φ_exact‖` over
/// all three components.
fn force_error(exact: &FieldResult, got: &FieldResult) -> f64 {
    let pairs = [
        (&exact.gx, &got.gx),
        (&exact.gy, &got.gy),
        (&exact.gz, &got.gz),
    ];
    let (mut diff, mut norm) = (0.0, 0.0);
    for (e, g) in pairs {
        for (e, g) in e.iter().zip(g) {
            diff += (e - g) * (e - g);
            norm += e * e;
        }
    }
    (diff / norm).sqrt()
}

/// Fig. 4 for the Yukawa kernel (κ = 0.5) as numbers: the relative L2
/// error of the potential and of the force, against direct summation, at
/// three (θ, degree) points of the paper's curve family. Each bound is
/// **twice** the error measured when the row was recorded, rounded up to
/// two digits, so a change that merely re-rounds passes and one that loses
/// a digit fails.
#[test]
fn yukawa_errors_stay_under_the_fig4_bounds() {
    // (θ, degree, potential bound, force bound)
    const BOUNDS: [(f64, usize, f64, f64); 3] = [
        (0.9, 3, 3.1e-3, 9.7e-4),
        (0.7, 5, 7.2e-6, 2.5e-6),
        (0.6, 6, 1.8e-7, 6.0e-8),
    ];
    let ps = ParticleSet::random_cube(3000, 41);
    let k = Yukawa::new(0.5);
    let exact = direct_sum_field(&ps, &ps, &k);
    let mut measured = Vec::new();
    for (theta, degree, pot_bound, force_bound) in BOUNDS {
        let cap = 300.max((degree + 1).pow(3) / 2);
        let prep = PreparedTreecode::new(&ps, &ps, BltcParams::new(theta, degree, cap, cap));
        let got = prep.evaluate_field_parallel(&k);
        let pot = relative_l2_error(&exact.potentials, &got.potentials);
        let force = force_error(&exact, &got);
        measured.push((theta, degree, pot, force));
        println!("θ = {theta}, n = {degree}: potential {pot:.3e}, force {force:.3e}");
        assert!(pot.is_finite() && force.is_finite());
        if std::env::var("BLTC_BLESS").is_ok_and(|v| v == "1") {
            continue;
        }
        assert!(
            pot <= pot_bound,
            "θ = {theta}, n = {degree}: potential error {pot:e} > {pot_bound:e}"
        );
        assert!(
            force <= force_bound,
            "θ = {theta}, n = {degree}: force error {force:e} > {force_bound:e}"
        );
    }
    // The curve family itself: tighter θ and higher degree, fewer digits lost.
    for pair in measured.windows(2) {
        assert!(
            pair[1].2 < pair[0].2 && pair[1].3 < pair[0].3,
            "{measured:?}"
        );
    }
}

/// Fig. 4 for the distributed treecode: Coulomb and Yukawa (κ = 0.5), a
/// potential pass and a field pass on 3 and 4 ranks, at three (θ,
/// degree) points of the paper's curve family. Each case pins four
/// distances, relative L2 over all targets: the potential pass against
/// `direct_sum` and against the one-rank `SerialEngine`, and the field
/// pass's force against `direct_sum_field` and against the one-rank
/// `evaluate_field_parallel`, all at the same parameters. Each bound is
/// **twice** the value measured when the row was recorded, rounded up to
/// two digits. Leaves and batches hold `max(60, (n+1)³/2)` particles, so
/// `(n+1)³ > N_L` at every point: the MAC takes non-leaf clusters direct,
/// and a LET fetches particles under a direct cluster and again under
/// its direct descendants. At the corpus's 1 200 particles the two finer
/// points approximate nothing, so the cube here holds 4 000.
#[test]
fn distributed_errors_stay_under_the_fig4_bounds() {
    // (kernel, θ, degree, per rank count 3 and 4: [potential vs direct,
    // potential vs one rank, force vs direct, force vs one rank])
    #[rustfmt::skip]
    const BOUNDS: [(&str, f64, usize, [[f64; 4]; 2]); 6] = [
        ("coulomb", 0.9, 3, [[6.4e-3, 6.7e-3, 1.8e-3, 2.3e-3], [6.2e-3, 4.9e-3, 1.7e-3, 1.5e-3]]),
        ("coulomb", 0.7, 5, [[4.6e-6, 6.8e-6, 1.3e-6, 1.8e-6], [5.5e-6, 3.4e-6, 1.3e-6, 8.0e-7]]),
        ("coulomb", 0.6, 6, [[3.5e-8, 1.4e-7, 6.6e-9, 3.3e-8], [1.4e-7, 4.7e-8, 3.2e-8, 1.5e-8]]),
        ("yukawa", 0.9, 3, [[6.5e-3, 6.9e-3, 1.8e-3, 2.3e-3], [6.3e-3, 4.9e-3, 1.6e-3, 1.4e-3]]),
        ("yukawa", 0.7, 5, [[4.7e-6, 7.0e-6, 1.3e-6, 1.8e-6], [5.7e-6, 3.5e-6, 1.3e-6, 7.8e-7]]),
        ("yukawa", 0.6, 6, [[3.5e-8, 1.4e-7, 6.3e-9, 3.2e-8], [1.4e-7, 4.7e-8, 3.1e-8, 1.5e-8]]),
    ];
    const WHAT: [&str; 4] = [
        "potential vs direct",
        "potential vs one rank",
        "force vs direct",
        "force vs one rank",
    ];
    let bless = std::env::var("BLTC_BLESS").is_ok_and(|v| v == "1");
    let ps = ParticleSet::random_cube(4000, 31);
    let mut exact: Option<(&str, Vec<f64>, FieldResult)> = None;
    let mut measured: Vec<(&str, usize, [f64; 4])> = Vec::new();
    for (name, theta, degree, bounds) in BOUNDS {
        let (k, grad) = kernel(name);
        let grad = grad.expect("both kernels have a gradient twin");
        if exact.as_ref().is_none_or(|(n, ..)| *n != name) {
            exact = Some((
                name,
                direct_sum(&ps, &ps, &*k),
                direct_sum_field(&ps, &ps, &*grad),
            ));
        }
        let (_, exact_pot, exact_field) = exact.as_ref().expect("set above");
        let cap = 60.max((degree + 1).pow(3) / 2);
        let params = BltcParams::new(theta, degree, cap, cap);
        let cfg = DistConfig::comet(params);
        let one_pot = SerialEngine::new(params).compute(&ps, &ps, &*k).potentials;
        let one_field = PreparedTreecode::new(&ps, &ps, params).evaluate_field_parallel(&*grad);
        for (ranks, bounds) in [3, 4].into_iter().zip(bounds) {
            let pot = run_distributed(&ps, ranks, &cfg, &*k).potentials;
            let (columns, ..) = run_distributed_on(&ps, &cfg.partition(&ps, ranks), &cfg, &*grad);
            let field = FieldResult::from(columns);
            let got = [
                relative_l2_error(exact_pot, &pot),
                relative_l2_error(&one_pot, &pot),
                force_error(exact_field, &field),
                force_error(&one_field, &field),
            ];
            let at = format!("{name}, {ranks} ranks, θ = {theta}, n = {degree}");
            println!("{at}: {got:?}");
            assert!(got.iter().all(|e| e.is_finite()), "{at}: {got:?}");
            for ((what, e), bound) in WHAT.iter().zip(got).zip(bounds) {
                assert!(bless || e <= bound, "{at}: {what} {e:e} > {bound:e}");
            }
            measured.push((name, ranks, got));
        }
    }
    // The curve family itself: along each kernel's and rank count's
    // points, tighter θ and higher degree lose fewer digits, against
    // direct summation and against the one-rank treecode alike.
    for (i, (name, ranks, got)) in measured.iter().enumerate() {
        let next = measured[i + 1..]
            .iter()
            .find(|m| (m.0, m.1) == (name, *ranks));
        if let Some((_, _, finer)) = next {
            assert!(
                finer.iter().zip(got).all(|(f, g)| f < g),
                "{name}, {ranks} ranks: {measured:?}"
            );
        }
    }
}
