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
//!   (`exp`, `expf`, `powf`, …), whose results differ between libm builds.
//!   Such a row pins the host's libm as much as this code, and may fail on
//!   a host with another libm with no bug here.
//!
//! A deliberate change of bits is re-pinned with
//! `BLTC_BLESS=1 cargo test --test corpus -- --nocapture`, which prints
//! the table in the form below instead of asserting it. The two
//! trajectory rows are the digests of `tests/golden/mod.rs`, which the
//! service and chaos suites pin too.

mod golden;

use bltc::core::kernel::MixedPrecision;
use bltc::core::prelude::*;
use bltc::dist::{run_distributed, run_distributed_field, DistConfig, DistReport};
use bltc::service::{fnv1a, state_digest, Fault, JobSpec, Scenario};
use bltc::sim::PersistentIntegrator;
use golden::{GOLDEN_ELECTROLYTE_STATE, GOLDEN_PLUMMER_STATE};
use Libm::{LibmDependent, LibmFree};
use Output::{
    Clocks, NodePairPotential, ParallelField, RankField, RankPotential, SerialPotential,
    TightClocks, TightRankField, TightRankPotential, TightTraffic, Traffic, Trajectory,
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
    /// `run_distributed_field` on 3 ranks, all four columns.
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
}

/// (kernel or scenario, output, tag, digest).
type Row = (&'static str, Output, Libm, u64);

/// The `let_memory_budget` of the `Tight*` rows: well under every rank's
/// whole LET, above any single cluster's payload.
const TIGHT_BUDGET: u64 = 16 * 1024;

/// Recorded on the commit before the exp family got its own exponential;
/// the Yukawa, regularized-Yukawa and Gaussian rows were re-pinned, and
/// became libm-free, when it did. The `Tight*`, `NodePairPotential`,
/// `Traffic` and `Clocks` rows were recorded before the retained and the
/// streamed LET consumers became one driver.
#[rustfmt::skip]
const CORPUS: &[Row] = &[
    ("coulomb", SerialPotential, LibmFree, 0xaa9c_27eb_d4d8_8874),
    ("coulomb", ParallelField, LibmFree, 0xb118_1875_a5c0_aa2f),
    ("coulomb", RankPotential, LibmFree, 0xa090_268c_ab25_d49f),
    ("coulomb", RankField, LibmFree, 0x4392_4610_7093_fb97),
    ("regularized-coulomb", SerialPotential, LibmFree, 0xe0c5_6e94_6a4b_0085),
    ("regularized-coulomb", ParallelField, LibmFree, 0xb53c_bd81_91a9_490d),
    ("regularized-coulomb", RankPotential, LibmFree, 0x0cb3_874a_e46d_2e2c),
    ("regularized-coulomb", RankField, LibmFree, 0x6d8a_f86b_44dd_dd7c),
    ("yukawa", SerialPotential, LibmFree, 0x77b5_195d_890d_cce4),
    ("yukawa", ParallelField, LibmFree, 0x2801_80a1_5720_019b),
    ("yukawa", RankPotential, LibmFree, 0x4f01_0e08_f3fa_603a),
    ("yukawa", RankField, LibmFree, 0xd6f0_d126_1833_34ce),
    ("regularized-yukawa", SerialPotential, LibmFree, 0x5cb7_9065_f24e_1df7),
    ("regularized-yukawa", ParallelField, LibmFree, 0xc70a_3b17_f163_4ad7),
    ("regularized-yukawa", RankPotential, LibmFree, 0x2d15_b260_6f68_fd08),
    ("regularized-yukawa", RankField, LibmFree, 0x0b62_8e4d_4404_455d),
    ("gaussian", SerialPotential, LibmFree, 0x31dc_64db_2ab8_4adb),
    ("gaussian", ParallelField, LibmFree, 0x0ece_bc44_61f4_4ebc),
    ("gaussian", RankPotential, LibmFree, 0x9e99_b530_c08d_651d),
    ("gaussian", RankField, LibmFree, 0xf7ed_739e_1d65_bd16),
    ("mixed-precision-coulomb", SerialPotential, LibmFree, 0x565d_27a8_5bd1_4825),
    ("mixed-precision-coulomb", RankPotential, LibmFree, 0xfdb7_135f_830b_d36c),
    ("mixed-precision-yukawa", SerialPotential, LibmDependent, 0x9436_820e_f8df_115d),
    ("mixed-precision-yukawa", RankPotential, LibmDependent, 0x4f07_8a94_a827_6187),
    ("coulomb", TightRankPotential, LibmFree, 0xa090_268c_ab25_d49f),
    ("coulomb", TightRankField, LibmFree, 0x4392_4610_7093_fb97),
    ("yukawa", TightRankPotential, LibmFree, 0x4f01_0e08_f3fa_603a),
    ("yukawa", TightRankField, LibmFree, 0xd6f0_d126_1833_34ce),
    ("coulomb", NodePairPotential, LibmFree, 0x89ae_eaaa_7139_d0ac),
    ("coulomb", Traffic, LibmFree, 0x133e_1cd3_591c_caa3),
    ("coulomb", TightTraffic, LibmFree, 0x133e_1cd3_591c_caa3),
    ("coulomb", Clocks, LibmFree, 0x90b0_f469_3c5c_79fd),
    ("coulomb", TightClocks, LibmFree, 0x7885_720e_85da_933f),
    ("plummer", Trajectory, LibmDependent, GOLDEN_PLUMMER_STATE),
    ("electrolyte", Trajectory, LibmDependent, GOLDEN_ELECTROLYTE_STATE),
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
/// run straight through the persistent integrator.
fn trajectory(name: &str) -> u64 {
    let (scenario, n, seed) = match name {
        "plummer" => {
            let scenario = Scenario::Plummer {
                a: 1.0,
                softening: 0.05,
            };
            (scenario, 128, 42)
        }
        "electrolyte" => {
            let scenario = Scenario::Electrolyte {
                kappa: 0.5,
                softening: 0.05,
                thermal_speed: 0.1,
            };
            (scenario, 96, 7)
        }
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
    let mut integ = PersistentIntegrator::new(spec.sim_config(), &state, &model);
    for _ in 0..spec.steps {
        integ.step();
    }
    state_digest(&integ.snapshot())
}

/// The digest of one row's output, computed afresh. Every kernel row runs
/// on the same problem: 1200 particles in the unit cube, θ = 0.8, degree
/// 4, leaves and batches of 60 — enough that both the approximated and
/// the direct paths carry weight.
fn compute(name: &str, output: Output) -> u64 {
    if output == Trajectory {
        return trajectory(name);
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
    match output {
        SerialPotential => potentials(&SerialEngine::new(params).compute(&ps, &ps, &*k).potentials),
        ParallelField => {
            field(&PreparedTreecode::new(&ps, &ps, params).evaluate_field_parallel(grad()))
        }
        RankPotential => potentials(&run_distributed(&ps, 3, &cfg, &*k).potentials),
        RankField => field(&run_distributed_field(&ps, 3, &cfg, grad()).field),
        TightRankPotential => potentials(&run_distributed(&ps, 3, &tight, &*k).potentials),
        TightRankField => field(&run_distributed_field(&ps, 3, &tight, grad()).field),
        NodePairPotential => potentials(&run_distributed(&ps, 4, &node_pairs, &*k).potentials),
        Traffic => traffic(&run_distributed(&ps, 3, &cfg, &*k)),
        TightTraffic => traffic(&run_distributed(&ps, 3, &tight, &*k)),
        Clocks => clocks(&run_distributed(&ps, 3, &cfg, &*k)),
        TightClocks => clocks(&run_distributed(&ps, 3, &tight, &*k)),
        Trajectory => unreachable!(),
    }
}

/// Messages, then bytes, of every (origin, target) pair, row-major.
fn traffic(rep: &DistReport) -> u64 {
    let n = rep.traffic.size();
    let pairs = (0..n).flat_map(|o| (0..n).map(move |t| (o, t)));
    fnv1a(pairs.flat_map(|(o, t)| {
        let cell = rep.traffic.get(o, t);
        [cell.messages, cell.bytes]
    }))
}

/// Per rank: the five serial phase clocks, `pipelined_s`,
/// `peak_let_bytes`, then every chunk's land and ready times.
fn clocks(rep: &DistReport) -> u64 {
    fnv1a(rep.ranks.iter().flat_map(|r| {
        let phases = [
            r.setup_host_s,
            r.setup_comm_s,
            r.setup_stage_s,
            r.precompute_s,
            r.compute_s,
            r.pipelined_s(),
        ];
        let chunks = r.pipeline.chunks.iter().flat_map(|c| [c.land_s, c.ready_s]);
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

/// Recomputes `rows` and compares each with its pin — or, under
/// `BLTC_BLESS=1`, prints the recomputed rows instead.
fn check(rows: impl Iterator<Item = &'static Row>) {
    let bless = std::env::var("BLTC_BLESS").is_ok_and(|v| v == "1");
    let mut moved = Vec::new();
    for &(name, output, libm, pinned) in rows {
        let got = compute(name, output);
        if bless {
            println!("{}", source_line((name, output, libm, got)));
        } else if got != pinned {
            moved.push(format!(
                "{} (pinned {pinned:#018x})",
                source_line((name, output, libm, got))
            ));
        }
    }
    assert!(moved.is_empty(), "corpus rows moved:\n{}", moved.join("\n"));
}

#[test]
fn kernel_rows_are_pinned() {
    check(CORPUS.iter().filter(|row| row.1 != Trajectory));
}

#[test]
fn trajectory_rows_are_pinned() {
    check(CORPUS.iter().filter(|row| row.1 == Trajectory));
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
