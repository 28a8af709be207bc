//! The deterministic-tracing contracts (tier-1):
//!
//! - tracing is **observationally free**: every computed result —
//!   potentials, trajectories, traffic, modeled clocks — is bitwise
//!   identical with a trace recorder attached or not;
//! - spans are **exact accounting**, not estimates: per rank, the
//!   `billed_s` sums per phase reconcile against the serial
//!   `RankReport` phase clocks to ≤ 1e-12 relative, the latest span
//!   end *is* the pipelined critical path, and NIC span bytes
//!   reconcile exactly against both the rank tallies and the drained
//!   [`mpi_sim`] traffic matrix;
//! - the LET resident-byte watermark on streaming spans reproduces
//!   `peak_let_bytes` across memory budgets and rank counts;
//! - service traces **partition by tenant** with no leakage between
//!   jobs;
//! - the Chrome trace-event export is **byte-identical** run-to-run.

use std::sync::Arc;

use bltc_core::config::BltcParams;
use bltc_core::kernel::Coulomb;
use bltc_core::particles::ParticleSet;
use bltc_dist::{run_distributed, DistConfig, FieldSession, RankReport};
use bltc_service::{Fault, JobSpec, Scenario, ServiceConfig, SimService, TenantId};
use bltc_sim::{plummer_sphere, PersistentIntegrator, SimConfig};
use bltc_trace::{chrome_trace, flame_summary, sort_spans, Phase, Span, TraceRecorder, Track};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `a == b` to 1e-12 relative (exact equality required at zero).
fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-12 * a.abs().max(b.abs());
    assert!(
        (a - b).abs() <= tol,
        "{what}: {a:.17e} vs {b:.17e} (|Δ| = {:.3e} > {tol:.3e})",
        (a - b).abs()
    );
}

/// Sum the billed seconds of `spans` for one phase.
fn billed(spans: &[Span], phase: Phase) -> f64 {
    spans
        .iter()
        .filter(|s| s.phase == phase)
        .map(|s| s.billed_s)
        .sum()
}

/// Assert one rank's span billing reconciles against its five serial
/// phase clocks and that the latest span end is the pipelined makespan.
fn assert_rank_reconciles(r: &RankReport, ctx: &str) {
    let spans = &r.pipeline.spans;
    assert!(!spans.is_empty(), "{ctx}: rank {} emitted no spans", r.rank);
    for (phase, clock) in [
        (Phase::SetupHost, r.setup_host_s),
        (Phase::SetupComm, r.setup_comm_s),
        (Phase::SetupStage, r.setup_stage_s),
        (Phase::Precompute, r.precompute_s),
        (Phase::Compute, r.compute_s),
    ] {
        assert_close(
            billed(spans, phase),
            clock,
            &format!("{ctx}: rank {} phase {:?}", r.rank, phase),
        );
    }
    let makespan = spans.iter().map(|s| s.end_s).fold(0.0, f64::max);
    assert_eq!(
        makespan.to_bits(),
        r.pipeline.pipelined_s.to_bits(),
        "{ctx}: rank {} latest span end must be the pipelined clock",
        r.rank
    );
    // Every span stays on a track of its own rank (the driver track is
    // driver-level only and never emitted by the rank-side DAG).
    for s in spans {
        assert_eq!(
            s.track.rank(),
            Some(r.rank as u32),
            "{ctx}: rank {} span {} sits on foreign track {}",
            r.rank,
            s.name,
            s.track.label()
        );
    }
}

#[test]
fn span_billing_reconciles_with_the_serial_phase_clocks() {
    let ps = ParticleSet::random_cube(1400, 411);
    let params = BltcParams::new(0.8, 3, 70, 70);
    for &ranks in &[1usize, 2, 4] {
        for &streams in &[1usize, 4] {
            let mut cfg = DistConfig::comet(params);
            cfg.streams = streams;
            let rep = run_distributed(&ps, ranks, &cfg, &Coulomb);
            for r in &rep.ranks {
                assert_rank_reconciles(r, &format!("{ranks} ranks / {streams} streams"));
            }
        }
    }
}

#[test]
fn nic_span_bytes_reconcile_with_rank_tallies_and_traffic() {
    let ps = ParticleSet::random_cube(1600, 412);
    let params = BltcParams::new(0.8, 3, 70, 70);
    for &ranks in &[2usize, 4] {
        let rep = run_distributed(&ps, ranks, &DistConfig::comet(params), &Coulomb);
        let mut total_span_bytes = 0u64;
        for r in &rep.ranks {
            let nic_bytes: u64 = r
                .pipeline
                .spans
                .iter()
                .filter(|s| matches!(s.track, Track::Nic(_)))
                .map(|s| s.bytes)
                .sum();
            assert_eq!(
                nic_bytes, r.let_bytes,
                "{ranks} ranks: rank {} NIC span bytes vs let_bytes",
                r.rank
            );
            assert_eq!(
                nic_bytes,
                rep.traffic.remote_bytes_from(r.rank),
                "{ranks} ranks: rank {} NIC span bytes vs traffic matrix origin row",
                r.rank
            );
            // Every NIC span is a real transfer: a named remote target
            // distinct from the origin, with a positive payload.
            for s in r
                .pipeline
                .spans
                .iter()
                .filter(|s| matches!(s.track, Track::Nic(_)))
            {
                assert!(s.bytes > 0, "empty NIC span {}", s.name);
                let t = s.target.expect("NIC span without a target rank");
                assert_ne!(t, r.rank as u32, "self-targeted NIC span");
            }
            total_span_bytes += nic_bytes;
        }
        assert_eq!(
            total_span_bytes,
            rep.traffic.total_remote_bytes(),
            "{ranks} ranks: global NIC span bytes vs drained traffic"
        );
    }
}

#[test]
fn resident_watermark_reproduces_peak_let_bytes_across_budgets() {
    // Satellite sweep: retained, a feasible streaming cap, and the
    // pathological one-cluster-per-chunk floor — at 1/2/4 ranks the
    // span-level watermark must *be* the rank's reported peak, and the
    // billing reconciliation must survive every chunking.
    let ps = ParticleSet::random_cube(1500, 413);
    let params = BltcParams::new(0.8, 3, 70, 70);
    for &budget in &[None, Some(16 * 1024u64), Some(1)] {
        for &ranks in &[1usize, 2, 4] {
            let mut cfg = DistConfig::comet(params);
            cfg.let_memory_budget = budget;
            let rep = run_distributed(&ps, ranks, &cfg, &Coulomb);
            let ctx = format!("budget {budget:?} / {ranks} ranks");
            for r in &rep.ranks {
                assert_rank_reconciles(r, &ctx);
                let watermark = r
                    .pipeline
                    .spans
                    .iter()
                    .filter_map(|s| s.resident_bytes)
                    .max()
                    .unwrap_or(0);
                assert_eq!(
                    watermark, r.peak_let_bytes,
                    "{ctx}: rank {} span watermark vs peak_let_bytes",
                    r.rank
                );
            }
        }
    }
}

/// The bits of a span list's `f64` fields, in order — `Span`'s
/// `PartialEq` alone would take `-0.0` for `+0.0`.
fn span_bits(spans: &[Span]) -> Vec<[u64; 4]> {
    spans
        .iter()
        .map(|s| [s.start_s, s.end_s, s.billed_s, s.flops].map(f64::to_bits))
        .collect()
}

#[test]
fn session_epoch_spans_reconcile_and_repeat_bitwise() {
    let ps = ParticleSet::random_cube(900, 414);
    let cfg = DistConfig::comet(BltcParams::new(0.7, 3, 60, 60));
    let kernel: Arc<dyn bltc_core::kernel::GradientKernel> = Arc::new(Coulomb);

    let mut s = FieldSession::launch(&ps, &[], 3, &cfg);
    let a = s.eval_field(&kernel);
    let b = s.eval_field(&kernel);

    // Each rank's report carries its epoch's spans, and they obey the
    // same reconciliation as one-shot runs.
    for (epoch, rep) in [&a, &b].into_iter().enumerate() {
        assert_eq!(rep.ranks.len(), 3);
        for r in &rep.ranks {
            assert_rank_reconciles(r, &format!("session epoch {epoch}"));
        }
    }
    // The positions did not move, so the second epoch's phase DAG is the
    // first's, bit for bit.
    for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
        assert_eq!(ra.pipeline.spans, rb.pipeline.spans, "rank {}", ra.rank);
        assert_eq!(
            span_bits(&ra.pipeline.spans),
            span_bits(&rb.pipeline.spans),
            "rank {}",
            ra.rank
        );
    }
}

#[test]
fn tracer_is_bitwise_invisible_to_trajectories_and_stitches_steps() {
    let (ranks, steps) = (3usize, 4u64);
    let run = |traced: bool| {
        let (state, model) = plummer_sphere(200, 1.0, 0.05, 42);
        let dist = DistConfig::comet(BltcParams::new(0.7, 3, 50, 50));
        let cfg = SimConfig::new(dist, ranks, 1e-3).with_repartition_every(2);
        let mut integ = PersistentIntegrator::new(cfg, &state, &model);
        let tracer = traced.then(|| Arc::new(TraceRecorder::new()));
        integ.set_tracer(tracer.clone());
        for _ in 0..steps {
            integ.step();
        }
        let snap = integ.snapshot();
        (snap, tracer.map(|t| t.take_spans()).unwrap_or_default())
    };
    let (traced_state, spans) = run(true);
    let (plain_state, none) = run(false);

    assert!(none.is_empty());
    assert_eq!(
        bits(&traced_state.particles.x),
        bits(&plain_state.particles.x)
    );
    assert_eq!(bits(&traced_state.vz), bits(&plain_state.vz));
    assert_eq!(traced_state.time.to_bits(), plain_state.time.to_bits());

    // One driver step envelope per step, containing its epoch spans on
    // a single continuous timeline (nondecreasing span ends across
    // sorted order, every span inside some step envelope's range).
    let step_spans: Vec<&Span> = spans
        .iter()
        .filter(|s| s.track == Track::Driver && s.phase == Phase::Step)
        .collect();
    assert_eq!(step_spans.len(), steps as usize);
    let mig_count = spans
        .iter()
        .filter(|s| s.track == Track::Driver && s.phase == Phase::Migration)
        .count();
    assert!(
        mig_count >= 1,
        "repartition cadence emitted no migration span"
    );
    let last_end = spans.iter().map(|s| s.end_s).fold(0.0, f64::max);
    let last_step_end = step_spans.iter().map(|s| s.end_s).fold(0.0, f64::max);
    assert_eq!(
        last_end.to_bits(),
        last_step_end.to_bits(),
        "the final step envelope must close the timeline"
    );

    // Each step's evaluation epoch is absorbed once, all ranks together:
    // one `build` span per rank and step, and inside each step envelope
    // the ranks' builds start at the same instant (a dropped rank, a
    // doubled absorb or a cursor per rank breaks one of these).
    let builds: Vec<&Span> = spans.iter().filter(|s| s.name == "build").collect();
    assert_eq!(builds.len(), ranks * steps as usize);
    for step in &step_spans {
        let starts: Vec<f64> = builds
            .iter()
            .filter(|b| step.start_s <= b.start_s && b.start_s < step.end_s)
            .map(|b| b.start_s)
            .collect();
        assert_eq!(starts.len(), ranks, "build spans in step {step:?}");
        assert!(
            starts.iter().all(|t| t.to_bits() == starts[0].to_bits()),
            "ranks' builds start apart within one step: {starts:?}"
        );
    }
}

#[test]
fn service_traces_partition_by_tenant_with_no_leakage() {
    let dist = DistConfig::comet(BltcParams::new(0.7, 3, 50, 50));
    let spec = |seed: u64| JobSpec {
        scenario: Scenario::Plummer {
            a: 1.0,
            softening: 0.05,
        },
        n: 150,
        seed,
        ranks: 2,
        steps: 2,
        dt: 1e-3,
        repartition_every: 4,
        dist,
        fault: Fault::None,
        checkpoint_every: None,
        deadline_s: None,
        allow_degraded: false,
    };
    let svc = SimService::start(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        cache_capacity: 4,
        max_retries: 0,
        start_paused: false,
        trace: true,
        ..ServiceConfig::with_workers(2)
    });
    let tenants: [TenantId; 4] = [1, 2, 1, 2];
    let tickets: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, &t)| svc.submit(t, spec(50 + i as u64)).expect("admitted"))
        .collect();
    let outputs: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("job completes"))
        .collect();
    let stats = svc.shutdown();

    let mut expected_union = Vec::new();
    for out in &outputs {
        assert!(!out.trace_spans.is_empty(), "traced job produced no spans");
        // Every span of a job is stamped with exactly that job's
        // identity — the partition invariant.
        for s in &out.trace_spans {
            assert_eq!(
                (s.tenant, s.job),
                (Some(out.tenant), Some(out.job_id)),
                "span {} leaked across the job boundary",
                s.name
            );
        }
        // Exactly one whole-job envelope, billing the job's total.
        let envelopes: Vec<&Span> = out
            .trace_spans
            .iter()
            .filter(|s| s.phase == Phase::Job)
            .collect();
        assert_eq!(envelopes.len(), 1);
        assert_eq!(
            envelopes[0].billed_s.to_bits(),
            out.report.total_s.to_bits()
        );
        expected_union.extend(out.trace_spans.iter().copied());
    }
    sort_spans(&mut expected_union);
    assert_eq!(
        stats.trace_spans, expected_union,
        "service-level union must be exactly the per-job spans, sorted"
    );
    // Per-tenant meters observed both tenants' jobs.
    assert_eq!(stats.meters.len(), 2);
    for meter in stats.meters.values() {
        assert_eq!(meter.jobs_completed, 2);
    }
}

#[test]
fn chrome_export_is_byte_identical_run_to_run() {
    let render = || {
        let ps = ParticleSet::random_cube(1000, 415);
        let rep = run_distributed(
            &ps,
            3,
            &DistConfig::comet(BltcParams::new(0.8, 3, 60, 60)),
            &Coulomb,
        );
        let mut spans: Vec<Span> = rep
            .ranks
            .iter()
            .flat_map(|r| r.pipeline.spans.iter().copied())
            .collect();
        sort_spans(&mut spans);
        (chrome_trace(&spans), flame_summary(&spans))
    };
    let (json_a, flame_a) = render();
    let (json_b, flame_b) = render();
    assert_eq!(json_a, json_b, "chrome trace must be byte-identical");
    assert_eq!(flame_a, flame_b, "flame summary must be byte-identical");
    // Perfetto-loadable shape: one JSON object with the trace-event
    // array and the display unit.
    assert!(json_a.starts_with('{') && json_a.trim_end().ends_with('}'));
    assert!(json_a.contains("\"traceEvents\":["));
    assert!(json_a.contains("\"displayTimeUnit\":"));
    assert!(json_a.contains("\"ph\":\"X\""));
}
