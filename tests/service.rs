//! Tier-1 tenant-isolation harness for the many-tenant service.
//!
//! The contract under test: multiplexing N tenants onto a shared pool
//! of warm persistent worlds is **invisible to results**. Every
//! tenant's potentials, forces, trajectory, and per-tenant traffic
//! must be bitwise identical to the same [`JobSpec`] run solo through
//! [`PersistentIntegrator`] — across pool sizes × tenant mixes, on
//! cache hits and misses, and with a panicking tenant in the mix.

mod golden;

use std::collections::BTreeMap;

use bltc::core::config::BltcParams;
use bltc::core::field::FieldResult;
use bltc::dist::DistConfig;
use bltc::service::{
    state_digest, Admission, Fault, JobError, JobOutput, JobSpec, KernelSpec, RejectReason,
    Scenario, ServiceConfig, SimService, TenantId,
};
use bltc::sim::{PersistentIntegrator, SimReport, SimState};
use golden::{GOLDEN_ELECTROLYTE_STATE, GOLDEN_PLUMMER_STATE};
use proptest::prelude::*;

fn dist_cfg() -> DistConfig {
    DistConfig::comet(BltcParams::new(0.8, 3, 40, 40))
}

fn plummer(n: usize, seed: u64, ranks: usize, steps: u64) -> JobSpec {
    JobSpec {
        scenario: Scenario::Plummer {
            a: 1.0,
            softening: 0.05,
        },
        n,
        seed,
        ranks,
        steps,
        dt: 1e-3,
        repartition_every: 2,
        dist: dist_cfg(),
        fault: Fault::None,
        checkpoint_every: None,
        deadline_s: None,
        allow_degraded: false,
    }
}

fn electrolyte(n: usize, seed: u64, ranks: usize, steps: u64) -> JobSpec {
    JobSpec {
        scenario: Scenario::Electrolyte {
            kappa: 0.5,
            softening: 0.05,
            thermal_speed: 0.1,
        },
        ..plummer(n, seed, ranks, steps)
    }
}

fn custom(kernel: KernelSpec, n: usize, seed: u64, ranks: usize, steps: u64) -> JobSpec {
    JobSpec {
        scenario: Scenario::Custom { kernel },
        ..plummer(n, seed, ranks, steps)
    }
}

struct SoloRun {
    state: SimState,
    field: FieldResult,
    report: SimReport,
}

/// The reference path: the same spec, one caller, straight through the
/// persistent integrator — exactly what the service's workers drive,
/// minus the service.
fn solo(spec: &JobSpec) -> SoloRun {
    let (state, model) = spec.scenario.build(spec.n, spec.seed);
    let mut integ = PersistentIntegrator::new(spec.sim_config(), &state, &model);
    for _ in 0..spec.steps {
        integ.step();
    }
    let field = integ.last_field();
    let state = integ.snapshot();
    SoloRun {
        state,
        field,
        report: integ.report().clone(),
    }
}

/// Bitwise identity of everything a tenant can observe: trajectory,
/// field, energies, and the per-tenant traffic/clock accounting.
fn assert_bitwise(out: &JobOutput, solo: &SoloRun) {
    let (s, f) = (&out.final_state, &out.field);
    assert_eq!(s.particles.x, solo.state.particles.x);
    assert_eq!(s.particles.y, solo.state.particles.y);
    assert_eq!(s.particles.z, solo.state.particles.z);
    assert_eq!(s.particles.q, solo.state.particles.q);
    assert_eq!(s.vx, solo.state.vx);
    assert_eq!(s.vy, solo.state.vy);
    assert_eq!(s.vz, solo.state.vz);
    assert_eq!(s.mass, solo.state.mass);
    assert_eq!(s.step, solo.state.step);
    assert_eq!(s.time.to_bits(), solo.state.time.to_bits());
    assert_eq!(f.potentials, solo.field.potentials);
    assert_eq!(f.gx, solo.field.gx);
    assert_eq!(f.gy, solo.field.gy);
    assert_eq!(f.gz, solo.field.gz);

    let (r, sr) = (&out.report, &solo.report);
    assert_eq!(r.steps, sr.steps);
    assert_eq!(r.force_evals, sr.force_evals);
    assert_eq!(r.rma_messages, sr.rma_messages);
    assert_eq!(r.rma_bytes, sr.rma_bytes);
    assert_eq!(r.migrations, sr.migrations);
    assert_eq!(r.migrated_particles, sr.migrated_particles);
    assert_eq!(r.migration_bytes, sr.migration_bytes);
    assert_eq!(
        r.traffic.total_remote_messages(),
        sr.traffic.total_remote_messages()
    );
    assert_eq!(
        r.traffic.total_remote_bytes(),
        sr.traffic.total_remote_bytes()
    );
    assert_eq!(
        r.migration_traffic.total_remote_bytes(),
        sr.migration_traffic.total_remote_bytes()
    );
    // Per-pair, not just totals: tenancy must not even reroute bytes.
    for i in 0..r.traffic.size() {
        for j in 0..r.traffic.size() {
            assert_eq!(r.traffic.get(i, j), sr.traffic.get(i, j));
            assert_eq!(
                r.migration_traffic.get(i, j),
                sr.migration_traffic.get(i, j)
            );
        }
    }
    assert_eq!(r.initial_energy.to_bits(), sr.initial_energy.to_bits());
    assert_eq!(r.final_energy.to_bits(), sr.final_energy.to_bits());
    // Modeled clocks fold in identical order on both paths — bitwise
    // on a fresh world; on a recycled world the only divergence is the
    // amortized spawn (that difference IS the service's win).
    assert_eq!(r.pipelined_s.to_bits(), sr.pipelined_s.to_bits());
    if out.world_reused {
        assert_eq!(r.world_spawns, 0);
        assert_eq!(r.spawn_host_s, 0.0);
        assert!(r.total_s < sr.total_s, "reuse must shave the spawn cost");
    } else {
        assert_eq!(r.world_spawns, sr.world_spawns);
        assert_eq!(r.spawn_host_s.to_bits(), sr.spawn_host_s.to_bits());
        assert_eq!(r.total_s.to_bits(), sr.total_s.to_bits());
    }
}

/// Nine distinct tenant workloads mixing scenarios, sizes, seeds, rank
/// counts, and budgets.
fn tenant_mix() -> Vec<JobSpec> {
    vec![
        plummer(90, 1, 2, 2),
        plummer(120, 2, 3, 1),
        electrolyte(80, 3, 2, 2),
        electrolyte(100, 4, 4, 1),
        custom(KernelSpec::Coulomb, 70, 5, 2, 2),
        custom(KernelSpec::Yukawa { kappa: 0.5 }, 90, 6, 3, 2),
        plummer(60, 7, 2, 3),
        electrolyte(72, 8, 3, 2),
        custom(KernelSpec::RegularizedCoulomb { epsilon: 0.1 }, 64, 9, 2, 1),
    ]
}

#[test]
fn tenants_are_bitwise_invisible_across_pool_and_tenant_mixes() {
    // Pool sizes {1, 2, 4} × concurrent tenants {1, 4, 9}: every
    // tenant's bits must match its solo run in every combination —
    // whether jobs serialize through one worker or race across four,
    // and whatever warm world each lands on.
    let specs = tenant_mix();
    let solos: Vec<SoloRun> = specs.iter().map(solo).collect();
    for workers in [1usize, 2, 4] {
        for tenants in [1usize, 4, 9] {
            let svc = SimService::start(ServiceConfig {
                workers,
                queue_depth: 16,
                cache_capacity: 16,
                max_retries: 0,
                start_paused: false,
                ..ServiceConfig::with_workers(workers)
            });
            let tickets: Vec<_> = (0..tenants)
                .map(|t| svc.submit(t as TenantId, specs[t]).expect("admitted"))
                .collect();
            for (t, ticket) in tickets.into_iter().enumerate() {
                let out = ticket
                    .wait()
                    .unwrap_or_else(|e| panic!("tenant {t} failed under pool={workers}: {e}"));
                assert_bitwise(&out, &solos[t]);
            }
            let stats = svc.shutdown();
            assert_eq!(stats.jobs_completed, tenants as u64);
        }
    }
}

#[test]
fn cache_hits_are_bitwise_identical_to_cache_misses() {
    let spec = plummer(90, 11, 3, 2);
    let reference = solo(&spec);
    let svc = SimService::start(ServiceConfig::with_workers(2));
    let miss = svc.submit(1, spec).unwrap().wait().expect("miss runs");
    let hit = svc.submit(2, spec).unwrap().wait().expect("hit runs");
    assert!(!miss.cache_hit);
    assert!(hit.cache_hit, "identical setup must be served from cache");
    assert_bitwise(&miss, &reference);
    assert_bitwise(&hit, &reference);
    let stats = svc.shutdown();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn mid_run_tenant_panic_does_not_perturb_survivors() {
    // One tenant's world dies mid-trajectory while three peers run
    // concurrently on the same service. The victim fails alone; every
    // survivor's bits match solo; and the service keeps serving
    // afterwards (the poisoned world never re-enters the pool).
    let survivors = [
        plummer(90, 1, 2, 2),
        electrolyte(80, 3, 2, 2),
        plummer(60, 7, 2, 3),
    ];
    let solos: Vec<SoloRun> = survivors.iter().map(solo).collect();
    let mut doomed = plummer(70, 13, 2, 3);
    doomed.fault = Fault::PanicAtStep(2);

    let svc = SimService::start(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        cache_capacity: 8,
        max_retries: 0,
        ..ServiceConfig::with_workers(2)
    });
    let bad = svc.submit(99, doomed).expect("admitted");
    let good: Vec<_> = survivors
        .iter()
        .enumerate()
        .map(|(t, s)| svc.submit(t as TenantId, *s).expect("admitted"))
        .collect();

    match bad.wait() {
        Err(JobError::Panicked {
            tenant,
            attempts,
            message,
            ..
        }) => {
            assert_eq!(tenant, 99);
            assert_eq!(attempts, 1);
            assert!(message.contains("injected tenant fault"), "got: {message}");
        }
        Ok(_) => panic!("the faulted job must fail"),
        Err(other) => panic!("expected Panicked, got {other}"),
    }
    for (t, ticket) in good.into_iter().enumerate() {
        let out = ticket.wait().expect("survivors complete");
        assert_bitwise(&out, &solos[t]);
    }
    // The service is still healthy: a fresh job on the same rank count
    // as the poisoned world runs clean.
    let after = svc
        .submit(7, survivors[0])
        .unwrap()
        .wait()
        .expect("post-panic job");
    assert_bitwise(&after, &solos[0]);

    let stats = svc.shutdown();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 4);
    assert_eq!(stats.meters[&99].jobs_failed, 1);
    assert_eq!(stats.meters[&99].jobs_completed, 0);
    assert_eq!(
        stats.pool.poisoned_dropped, 0,
        "a panicked attempt's world is consumed by the unwind, never checked in"
    );
}

#[test]
fn panic_once_retries_to_the_fault_free_bits() {
    let clean = plummer(80, 17, 2, 2);
    let reference = solo(&clean);
    let mut flaky = clean;
    flaky.fault = Fault::PanicOnceAtStep(1);

    let svc = SimService::start(ServiceConfig {
        max_retries: 1,
        ..ServiceConfig::with_workers(1)
    });
    let out = svc
        .submit(1, flaky)
        .unwrap()
        .wait()
        .expect("retry succeeds");
    assert_eq!(out.retries, 1, "first attempt panicked, second ran clean");
    assert_bitwise(&out, &reference);
    let stats = svc.shutdown();
    assert_eq!(stats.meters[&1].retries, 1);
}

#[test]
fn partial_node_spec_is_refused_at_admission_and_the_worker_lives_on() {
    // 3 ranks cannot fill 2-GPU nodes. Such a spec used to be admitted
    // and kill the only worker while it held the preparation cache's
    // lock, so every later job waited forever.
    let mut partial = plummer(80, 21, 3, 2);
    partial.dist.gpus_per_node = 2;
    let svc = SimService::start(ServiceConfig::with_workers(1));
    match svc.submit(1, partial) {
        Err(RejectReason::Invalid(msg)) => {
            assert!(msg.contains("whole number of 2-GPU nodes"), "{msg}")
        }
        Err(other) => panic!("unexpected rejection: {other}"),
        Ok(ticket) => panic!("admitted as {:?}", ticket.admission),
    }
    let valid = plummer(80, 21, 2, 2);
    let out = svc
        .submit(1, valid)
        .unwrap()
        .wait()
        .expect("the next job runs");
    assert_bitwise(&out, &solo(&valid));
    let stats = svc.shutdown();
    assert_eq!((stats.jobs_rejected, stats.jobs_completed), (1, 1));
}

#[test]
fn degraded_rerun_that_breaks_whole_nodes_keeps_the_original_error() {
    // One rank fewer than 4 ranks on 2-GPU nodes is no world at all: the
    // degraded rerun is skipped and the full-world failure stands,
    // instead of the worker dying while it prepares a 3-rank world.
    let mut doomed = plummer(90, 13, 4, 3);
    doomed.dist.gpus_per_node = 2;
    doomed.fault = Fault::RankLossAtStep(1);
    doomed.allow_degraded = true;
    let svc = SimService::start(ServiceConfig {
        max_retries: 1,
        ..ServiceConfig::with_workers(1)
    });
    match svc.submit(1, doomed).unwrap().wait() {
        Err(JobError::Panicked { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected Panicked, got {other:?}"),
    }
    let valid = plummer(80, 21, 2, 2);
    let out = svc
        .submit(1, valid)
        .unwrap()
        .wait()
        .expect("the next job runs");
    assert_bitwise(&out, &solo(&valid));
    let stats = svc.shutdown();
    assert_eq!((stats.jobs_failed, stats.jobs_completed), (1, 1));
}

#[test]
fn metering_reconciles_exactly_against_drained_traffic() {
    // The meter is a fold over job reports, and each report's counters
    // reconcile against its drained matrices — so per-tenant totals
    // must equal the sums we compute independently from the outputs,
    // byte for byte.
    let svc = SimService::start(ServiceConfig::with_workers(2));
    let jobs: [(TenantId, JobSpec); 5] = [
        (1, plummer(90, 1, 2, 2)),
        (1, electrolyte(80, 3, 2, 2)),
        (2, plummer(90, 1, 2, 2)), // tenant 2 rides tenant 1's cache
        (2, plummer(60, 7, 2, 3)),
        (3, custom(KernelSpec::Coulomb, 70, 5, 2, 2)),
    ];
    let mut outputs: Vec<JobOutput> = Vec::new();
    for (tenant, spec) in jobs {
        outputs.push(svc.submit(tenant, spec).unwrap().wait().expect("runs"));
    }
    let meters = svc.meters();

    let mut expect: BTreeMap<TenantId, (u64, u64, u64, u64, u64, u64)> = BTreeMap::new();
    for out in &outputs {
        let e = expect.entry(out.tenant).or_default();
        e.0 += out.report.traffic.total_remote_messages();
        e.1 += out.report.traffic.total_remote_bytes();
        e.2 += out.report.migration_traffic.total_remote_messages();
        e.3 += out.report.migration_traffic.total_remote_bytes();
        e.4 += out.report.steps;
        e.5 += out.report.world_spawns;
    }
    for (tenant, (msgs, bytes, mig_msgs, mig_bytes, steps, spawns)) in expect {
        let m = &meters[&tenant];
        assert_eq!(m.rma_messages, msgs, "tenant {tenant} LET messages");
        assert_eq!(m.rma_bytes, bytes, "tenant {tenant} LET bytes");
        assert_eq!(m.migration_messages, mig_msgs);
        assert_eq!(m.migration_bytes, mig_bytes);
        assert_eq!(m.steps, steps);
        assert_eq!(m.world_spawns, spawns);
    }
    // And the per-report counters themselves reconcile against their
    // matrices (the layer-below invariant the meter builds on).
    for out in &outputs {
        assert_eq!(
            out.report.rma_messages,
            out.report.traffic.total_remote_messages()
        );
        assert_eq!(
            out.report.rma_bytes,
            out.report.traffic.total_remote_bytes()
        );
        assert_eq!(
            out.report.migration_bytes,
            out.report.migration_traffic.total_remote_bytes()
        );
    }
    let stats = svc.shutdown();
    // Spawn amortization across tenants: 5 jobs, all on 2-rank worlds,
    // at most `workers` distinct worlds ever spawned.
    assert!(stats.pool.spawned <= 2, "spawned {}", stats.pool.spawned);
    assert_eq!(stats.pool.spawned + stats.pool.reused, 5);
}

/// Golden determinism digests: seeded 4-rank trajectories, hashed
/// bit-exactly. Any PR that perturbs one ULP anywhere in the stack
/// (kernel evaluation, RCB, LET assembly, integrator arithmetic, RNG)
/// fails here loudly instead of silently shifting benches.
///
/// If a change is *intended* to alter numerics, the assert messages
/// print the new values; the digests are defined once, in
/// `tests/golden/mod.rs`.
#[test]
fn golden_4rank_trajectory_digests() {
    let plummer_spec = plummer(128, 42, 4, 3);
    let electro_spec = electrolyte(96, 7, 4, 3);

    let p = solo(&plummer_spec);
    let e = solo(&electro_spec);
    let pd = state_digest(&p.state);
    let ed = state_digest(&e.state);
    assert_eq!(
        pd, GOLDEN_PLUMMER_STATE,
        "plummer(128, seed 42, 4 ranks, 3 steps) drifted: got {pd:#018x}"
    );
    assert_eq!(
        ed, GOLDEN_ELECTROLYTE_STATE,
        "electrolyte(96, seed 7, 4 ranks, 3 steps) drifted: got {ed:#018x}"
    );

    // The service must land on the same goldens, by the isolation
    // contract.
    let svc = SimService::start(ServiceConfig::with_workers(2));
    let po = svc.submit(1, plummer_spec).unwrap().wait().expect("runs");
    let eo = svc.submit(2, electro_spec).unwrap().wait().expect("runs");
    assert_eq!(po.state_digest, GOLDEN_PLUMMER_STATE);
    assert_eq!(eo.state_digest, GOLDEN_ELECTROLYTE_STATE);
    drop(svc);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random job mixes through a deliberately saturated pool: the
    /// multiset of completed results matches solo runs bitwise, the
    /// metering totals reconcile exactly, and admission verdicts are
    /// the pure function of arrival order the paused-gate guarantees.
    #[test]
    fn saturated_pool_serves_solo_bits(
        picks in proptest::collection::vec(
            (0usize..3, 50usize..100, 0u64..6, 1u64..3, 2usize..4),
            7..8,
        ),
    ) {
        let specs: Vec<JobSpec> = picks
            .iter()
            .map(|&(kind, n, seed, steps, ranks)| match kind {
                0 => plummer(n, seed, ranks, steps),
                1 => electrolyte(n, seed, ranks, steps),
                _ => custom(KernelSpec::Yukawa { kappa: 0.5 }, n, seed, ranks, steps),
            })
            .collect();

        // workers 2 + queue 3 = capacity 5 < 7 submissions: the pool
        // is saturated by construction and the last two are rejected.
        let svc = SimService::start(ServiceConfig {
            workers: 2,
            queue_depth: 3,
            cache_capacity: 8,
            max_retries: 0,
            start_paused: true,
            ..ServiceConfig::with_workers(2)
        });
        let mut tickets = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let tenant = (i % 3) as TenantId;
            match svc.submit(tenant, *spec) {
                Ok(t) => {
                    // Deterministic admission: arrival i of capacity 5.
                    let expected = if i < 2 {
                        Admission::Immediate
                    } else {
                        Admission::Queued { position: i - 2 }
                    };
                    assert_eq!(t.admission, expected, "arrival {i}");
                    tickets.push((i, t));
                }
                Err(RejectReason::Saturated { in_flight, capacity }) => {
                    assert!(i >= 5, "arrival {i} rejected early");
                    assert_eq!(in_flight, 5);
                    assert_eq!(capacity, 5);
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert_eq!(tickets.len(), 5);
        svc.resume();

        // Multiset equality via sorted digests: the service may finish
        // jobs in any order, but the set of results is exactly the set
        // of solo results.
        let mut outputs = Vec::new();
        for (i, t) in tickets {
            outputs.push((i, t.wait().expect("admitted jobs complete")));
        }
        let mut got: Vec<u64> = outputs.iter().map(|(_, o)| o.state_digest).collect();
        let mut want: Vec<u64> = outputs
            .iter()
            .map(|(i, _)| state_digest(&solo(&specs[*i]).state))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "completed multiset != solo multiset");

        // Exact metering reconciliation per tenant.
        let meters = svc.meters();
        let mut expect: BTreeMap<TenantId, (u64, u64, u64)> = BTreeMap::new();
        for (i, out) in &outputs {
            let e = expect.entry((*i % 3) as TenantId).or_default();
            e.0 += out.report.traffic.total_remote_messages();
            e.1 += out.report.traffic.total_remote_bytes()
                + out.report.migration_traffic.total_remote_bytes();
            e.2 += out.report.steps;
        }
        for (tenant, (msgs, bytes, steps)) in expect {
            let m = &meters[&tenant];
            assert_eq!(m.rma_messages, msgs);
            assert_eq!(m.rma_bytes + m.migration_bytes, bytes);
            assert_eq!(m.steps, steps);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.jobs_completed, 5);
        assert_eq!(stats.jobs_rejected, 2);
    }
}
