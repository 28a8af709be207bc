//! Fig. 5 — weak scaling of the distributed GPU BLTC: fixed particles
//! per GPU, ranks 1 → 32, Coulomb and Yukawa, three per-GPU sizes.
//!
//! Paper configuration: 8/16/32 M particles per P100, θ = 0.8, n = 8,
//! `N_L = N_B = 4000`; largest run 1.024 B particles (345 s Coulomb,
//! 380 s Yukawa, errors 7.6e-6 / 1.5e-5).
//!
//! Scaled default: 8k/16k/32k particles per rank with n = 4 and
//! `N_L = N_B = 1000` (the `(n+1)³ = 729` proxy grid of the paper's
//! n = 8 would exceed a scaled-down leaf, disabling approximation
//! entirely, and batches below ~1000 targets leave the simulated GPU
//! launch-bound). Run times are the bulk-synchronous model:
//! max-over-ranks of (setup + precompute + compute).
//!
//! With `--forces` every configuration runs the distributed **field**
//! pipeline (`run_distributed_field`): gradient kernels on every rank
//! (~4× compute flops on the device clock, same LET traffic) and the
//! sampled error reported over the gradient components.
//!
//! ```text
//! cargo run --release --bin fig5_weak [-- --per-rank 4000 --max-ranks 32 --forces]
//! cargo run --release --bin fig5_weak -- --pipeline --streams 4
//! ```
//!
//! `--pipeline` switches `t_total` to the pipelined critical-path clock
//! (LET chunks landing while local batches evaluate, remote batches on
//! `--streams` simulated streams) and appends the win over the serial
//! phase sum; `--no-pipeline` forces the serial clock. Results and
//! errors are bitwise identical either way.
//!
//! ```text
//! cargo run --release --bin fig5_weak -- --stream --budget 65536 --nodes 2
//! ```
//!
//! `--stream` runs the memory-bounded weak-scaling study instead: each
//! rank streams its remote LET payloads through a `--budget`-byte
//! resident cap (evaluate-and-discard), `--nodes G` groups ranks into
//! G-GPU compute nodes (two-level RCB, intra-node traffic priced on the
//! P2P path), and the sweep is extrapolated through the analytic clock
//! model to a ≥10⁸-particle point — the budget-capped per-rank resident
//! footprint is scale-invariant, which is the whole point. Rows land in
//! `--out` (default `BENCH_streaming.json`); `--smoke` shrinks sizes
//! and hard-asserts `peak ≤ budget` on every rank.
//!
//! `--trace out.json` (either mode) exports the last swept
//! configuration's per-rank span timeline as Perfetto-loadable Chrome
//! trace-event JSON and prints the text flame summary.

use bltc_bench::json::Json;
use bltc_bench::{sampled_gradient_error, sci, write_trace, Args};
use bltc_core::engine::direct_sum_subset;
use bltc_core::error::{sample_indices, sampled_relative_l2_error};
use bltc_core::field::direct_sum_field;
use bltc_core::kernel::{Coulomb, GradientKernel, Yukawa};
use bltc_core::prelude::*;
use bltc_dist::{run_distributed, run_distributed_field, DistConfig};

fn main() {
    let args = Args::from_env();
    if args.flag("stream") {
        run_streaming(&args);
        return;
    }
    let base = args.usize("per-rank", 8_000);
    let max_ranks = args.usize("max-ranks", 16);
    let theta = args.f64("theta", 0.8);
    let degree = args.usize("degree", 4);
    let cap = args.usize("cap", 1000);
    let seed = args.usize("seed", 11) as u64;
    let forces = args.flag("forces");
    let streams = args.usize("streams", 0);
    let pipeline = args.flag("pipeline") && !args.flag("no-pipeline");
    let params = BltcParams::new(theta, degree, cap, cap);

    let mode = if forces { "forces" } else { "potentials" };
    println!("Fig. 5 — weak scaling ({mode}, θ = {theta}, n = {degree}, N_L = N_B = {cap})");
    if pipeline {
        println!("clock: pipelined critical path; win% is vs the serial phase sum");
    }
    println!(
        "per-rank sizes: {base}, {}, {} (paper: 8M, 16M, 32M)\n",
        2 * base,
        4 * base
    );

    let kernels: Vec<Box<dyn GradientKernel>> =
        vec![Box::new(Coulomb), Box::new(Yukawa::default())];
    let mut ranks_list = vec![1usize];
    while *ranks_list.last().unwrap() < max_ranks {
        ranks_list.push(ranks_list.last().unwrap() * 2);
    }

    // --trace keeps the spans of the last configuration swept (the
    // largest Yukawa system) for the timeline export at the end.
    let mut trace_spans = Vec::new();

    for kernel in &kernels {
        println!("== {} ==", kernel.name());
        if pipeline {
            println!(
                "per-rank      ranks    N_total     t_total(s)   setup%  precomp%  compute%      win%"
            );
        } else {
            println!("per-rank      ranks    N_total     t_total(s)   setup%  precomp%  compute%");
        }
        for &mult in &[1usize, 2, 4] {
            let per_rank = base * mult;
            let mut largest: Option<(usize, f64, f64)> = None;
            for &ranks in &ranks_list {
                let n = per_rank * ranks;
                let ps = ParticleSet::random_cube(n, seed + ranks as u64);
                let mut cfg = DistConfig::comet(params);
                if streams > 0 {
                    cfg.streams = streams;
                }
                // Sampled error of the largest configuration (paper
                // reports 7.6e-6 / 1.5e-5 at 1.024B).
                let idx =
                    (ranks == *ranks_list.last().unwrap()).then(|| sample_indices(n, 200, seed));
                let (setup_s, precompute_s, compute_s, serial_s, pipelined_s, err) = if forces {
                    let rep = run_distributed_field(&ps, ranks, &cfg, kernel.as_ref());
                    let err = idx.as_ref().map(|idx| {
                        let exact = direct_sum_field(&ps.subset(idx), &ps, kernel.as_ref());
                        sampled_gradient_error(&exact, &rep.field, idx)
                    });
                    trace_spans = rep
                        .ranks
                        .iter()
                        .flat_map(|r| r.pipeline.spans.iter().copied())
                        .collect();
                    (
                        rep.setup_s,
                        rep.precompute_s,
                        rep.compute_s,
                        rep.total_s,
                        rep.pipelined_s,
                        err,
                    )
                } else {
                    let rep = run_distributed(&ps, ranks, &cfg, kernel.as_ref());
                    let err = idx.as_ref().map(|idx| {
                        let exact = direct_sum_subset(&ps, idx, &ps, kernel.as_ref());
                        sampled_relative_l2_error(&exact, &rep.potentials, idx)
                    });
                    trace_spans = rep
                        .ranks
                        .iter()
                        .flat_map(|r| r.pipeline.spans.iter().copied())
                        .collect();
                    (
                        rep.setup_s,
                        rep.precompute_s,
                        rep.compute_s,
                        rep.total_s,
                        rep.pipelined_s,
                        err,
                    )
                };
                let total = if pipeline { pipelined_s } else { serial_s };
                let phase_sum = setup_s + precompute_s + compute_s;
                if pipeline {
                    let win = 100.0 * (1.0 - pipelined_s / serial_s);
                    println!(
                        "{per_rank:>8}  {ranks:>8}  {n:>9}  {:>12}  {:>6.1}  {:>8.1}  {:>8.1}  {win:>7.1}%",
                        sci(total),
                        100.0 * setup_s / phase_sum,
                        100.0 * precompute_s / phase_sum,
                        100.0 * compute_s / phase_sum,
                    );
                } else {
                    println!(
                        "{per_rank:>8}  {ranks:>8}  {n:>9}  {:>12}  {:>6.1}  {:>8.1}  {:>8.1}",
                        sci(total),
                        100.0 * setup_s / phase_sum,
                        100.0 * precompute_s / phase_sum,
                        100.0 * compute_s / phase_sum,
                    );
                }
                if let Some(err) = err {
                    largest = Some((n, total, err));
                }
            }
            if let Some((n, total, err)) = largest {
                println!(
                    "  largest {} system: N = {n}, t = {} s, sampled error = {}",
                    kernel.name(),
                    sci(total),
                    sci(err)
                );
            }
        }
        println!();
    }
    println!("paper shape checks:");
    println!("  - run time grows only modestly with rank count at fixed per-rank N (O(N log N))");
    println!("  - Yukawa times sit slightly above Coulomb times");
    println!("  - errors stay in the 4-6 digit band of the chosen (θ, n)");
    write_trace(&args, &trace_spans);
}

/// One measured (or extrapolated) point of the streaming sweep.
struct StreamRow {
    ranks: usize,
    per_rank: usize,
    n_total: usize,
    total_s: f64,
    pipelined_s: f64,
    /// Slowest rank's peak resident remote-payload bytes.
    peak_let_bytes_max: u64,
    modeled: bool,
}

/// The `--stream` mode: memory-bounded weak scaling under a per-rank
/// resident byte budget, with a two-level node×GPU decomposition and an
/// analytic extrapolation to ≥10⁸ particles.
fn run_streaming(args: &Args) {
    let smoke = args.flag("smoke");
    let base = args.usize("per-rank", if smoke { 2_000 } else { 8_000 });
    let max_ranks = args.usize("max-ranks", if smoke { 4 } else { 32 });
    let theta = args.f64("theta", 0.8);
    let degree = args.usize("degree", 4);
    let cap = args.usize("cap", 1000);
    let seed = args.usize("seed", 11) as u64;
    let budget = args.usize("budget", 64 * 1024) as u64;
    let gpus_per_node = args.usize("nodes", 1);
    let out_path = args
        .get_opt("out")
        .unwrap_or_else(|| "BENCH_streaming.json".to_string());
    let params = BltcParams::new(theta, degree, cap, cap);

    println!(
        "Fig. 5 (streaming) — memory-bounded weak scaling \
         (θ = {theta}, n = {degree}, N_L = N_B = {cap})"
    );
    println!(
        "budget = {budget} B resident remote payload per rank, \
         {gpus_per_node} GPU(s) per node, Coulomb\n"
    );
    println!("   ranks   per-rank      N_total    t_total(s)  pipelined(s)   peak LET(B)");

    let mut ranks_list = vec![gpus_per_node.max(1)];
    while *ranks_list.last().unwrap() < max_ranks {
        ranks_list.push(ranks_list.last().unwrap() * 2);
    }

    let mut rows: Vec<StreamRow> = Vec::new();
    let mut trace_spans = Vec::new();
    for &ranks in &ranks_list {
        let n = base * ranks;
        let ps = ParticleSet::random_cube(n, seed + ranks as u64);
        let mut cfg = DistConfig::comet(params);
        cfg.let_memory_budget = Some(budget);
        cfg.gpus_per_node = gpus_per_node;
        let rep = run_distributed(&ps, ranks, &cfg, &Coulomb);
        trace_spans = rep
            .ranks
            .iter()
            .flat_map(|r| r.pipeline.spans.iter().copied())
            .collect();
        let peak = rep.ranks.iter().map(|r| r.peak_let_bytes).max().unwrap();
        for r in &rep.ranks {
            // The streaming contract: the resident footprint never
            // exceeds the budget. Hard failure, not a report field.
            assert!(
                r.peak_let_bytes <= budget,
                "rank {}: peak {} B exceeds the {budget} B budget",
                r.rank,
                r.peak_let_bytes
            );
        }
        println!(
            "{ranks:>8}  {base:>9}  {n:>11}  {:>12}  {:>12}  {peak:>12}",
            sci(rep.total_s),
            sci(rep.pipelined_s)
        );
        rows.push(StreamRow {
            ranks,
            per_rank: base,
            n_total: n,
            total_s: rep.total_s,
            pipelined_s: rep.pipelined_s,
            peak_let_bytes_max: peak,
            modeled: false,
        });
    }

    // ---- analytic extrapolation to ≥1e8 particles -------------------
    // Every clock in the sweep is a pure function of modeled work
    // counts, so a larger per-rank population scales the phases
    // analytically: tree build and treecode interactions are
    // O(N log N), precompute is O(N) in the cluster count. The
    // budget-capped resident footprint does NOT scale — chunks keep
    // landing and dying under the same cap — which is what makes the
    // 10⁸-particle point feasible on a fixed-memory GPU at all.
    let last = rows.last().expect("sweep produced no rows");
    let target_n = 120_000_000usize.max(last.n_total);
    let per_rank_big = target_n.div_ceil(last.ranks);
    let n_big = per_rank_big * last.ranks;
    let m = last.per_rank as f64;
    let mp = per_rank_big as f64;
    let linear = mp / m;
    let nlogn = (mp * mp.ln()) / (m * m.ln());
    let total_big = last.total_s * nlogn;
    let pipelined_big = (last.pipelined_s * nlogn).min(total_big);
    println!(
        "{:>8}  {per_rank_big:>9}  {n_big:>11}  {:>12}  {:>12}  {:>12}  (modeled)",
        last.ranks,
        sci(total_big),
        sci(pipelined_big),
        last.peak_let_bytes_max,
    );
    println!(
        "\nmodeled {n_big}-particle point: ×{linear:.0} per-rank particles, \
         O(N log N) clock ×{nlogn:.0}, same {} B resident footprint",
        last.peak_let_bytes_max
    );
    rows.push(StreamRow {
        ranks: last.ranks,
        per_rank: per_rank_big,
        n_total: n_big,
        total_s: total_big,
        pipelined_s: pipelined_big,
        peak_let_bytes_max: rows.last().unwrap().peak_let_bytes_max,
        modeled: true,
    });

    let json = render_streaming_json(&rows, theta, degree, cap, budget, gpus_per_node, smoke);
    std::fs::write(&out_path, json).expect("write bench json");
    println!("wrote {out_path}");
    write_trace(args, &trace_spans);
}

fn render_streaming_json(
    rows: &[StreamRow],
    theta: f64,
    degree: usize,
    cap: usize,
    budget: u64,
    gpus_per_node: usize,
    smoke: bool,
) -> String {
    let rows = rows
        .iter()
        .map(|r| {
            Json::obj()
                .field("ranks", Json::u(r.ranks as u64))
                .field("per_rank", Json::u(r.per_rank as u64))
                .field("n_total", Json::u(r.n_total as u64))
                .field("total_s", Json::e(r.total_s, 9))
                .field("pipelined_s", Json::e(r.pipelined_s, 9))
                .field("peak_let_bytes_max", Json::u(r.peak_let_bytes_max))
                .field("modeled", Json::b(r.modeled))
        })
        .collect();
    Json::obj()
        .field("bench", Json::s("fig5_weak_streaming"))
        .field("theta", Json::Num(theta.to_string()))
        .field("degree", Json::u(degree as u64))
        .field("cap", Json::u(cap as u64))
        .field("let_memory_budget", Json::u(budget))
        .field("gpus_per_node", Json::u(gpus_per_node as u64))
        .field("smoke", Json::b(smoke))
        .field("peak_within_budget", Json::b(true))
        .field("rows", Json::arr(rows))
        .render_bench()
}
