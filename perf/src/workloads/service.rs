//! Workload 5: many small jobs through the job engine (`SimService`):
//! two client threads, each submitting and waiting in a closed loop,
//! over a job mix that both hits and evicts the preparation cache.

use std::sync::{Barrier, Mutex};
use std::time::Instant;

use crate::api::{self, JobScenario, JobSpec, SimService};
use crate::harness::{
    set_bench_layer, set_end_to_end, ColdSetups, OpSample, Outcome, RunCfg, Sampler, Window,
    WARMUP_OPS,
};
use crate::spans::Recorder;
use crate::sys;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const QUEUE_DEPTH: usize = 8;
/// Smaller than the six preparations, so the cache evicts.
const CACHE_CAPACITY: usize = 4;
const TENANTS: u64 = 4;
const PREPARATIONS: usize = 6;
/// Largest relative energy drift of any job that still counts as
/// correct.
const MAX_DRIFT: f64 = 1e-3;
/// Jobs (full size, smoke size) of the traced pass over which the
/// count metrics are taken, so that a run of any length reports the
/// same counts; every run submits at least this many. In the untraced
/// pass each client runs at least as many, so that every preparation
/// of the mix has been served on a warm world.
const READOUT_JOBS: (usize, usize) = (96, 32);

/// The six distinct preparations: Plummer and electrolyte alternating,
/// each with its own scenario seed.
fn specs(cfg: &RunCfg) -> Vec<JobSpec> {
    let dist = api::dist_config(api::params(0.7, 4, 100, 100));
    (0..PREPARATIONS)
        .map(|i| {
            let scenario = if i % 2 == 0 {
                JobScenario::Plummer
            } else {
                JobScenario::Electrolyte
            };
            api::job_spec(
                scenario,
                cfg.size(400, 120),
                cfg.derive(10 + i as u64),
                2,
                2,
                dist,
            )
        })
        .collect()
}

/// The preparation job `k` of client `client` uses: half the jobs draw
/// from the first two preparations, the rest from the other four.
fn pick(cfg: &RunCfg, client: usize, k: usize) -> usize {
    let h = cfg.derive(1_000 + ((client as u64) << 32 | k as u64));
    if h & 1 == 0 {
        (h >> 1) as usize % 2
    } else {
        2 + (h >> 1) as usize % (PREPARATIONS - 2)
    }
}

/// Share of the job mix that uses preparation `i`.
fn mix_weight(i: usize) -> f64 {
    if i < 2 {
        0.25
    } else {
        0.5 / (PREPARATIONS - 2) as f64
    }
}

/// What the solo replay of a spec produced: the bits every job of that
/// spec must reproduce, and its energy drift.
struct Solo {
    state_digest: u64,
    field_digest: u64,
    drift: f64,
}

fn solo(spec: &JobSpec) -> Solo {
    let (state, field, report) = api::solo_job(spec);
    let (state_digest, field_digest) = api::digests(&state, &field);
    Solo {
        state_digest,
        field_digest,
        drift: report.max_relative_energy_drift(),
    }
}

/// One finished job as a client saw it, reduced to what the benchmark
/// keeps (the output itself is dropped once checked: two thousand of
/// them would be the process's memory).
struct Done {
    spec: usize,
    /// Served, and with the solo replay's bits.
    ok: bool,
    /// The job's modeled seconds, if it ran on a warm world.
    warm_modeled_s: Option<f64>,
}

impl Done {
    fn new(spec: usize, output: Option<&api::JobOutput>, solos: &[Solo]) -> Self {
        Self {
            spec,
            ok: output.is_some_and(|o| {
                o.state_digest == solos[spec].state_digest
                    && o.field_digest == solos[spec].field_digest
            }),
            warm_modeled_s: output.filter(|o| o.world_reused).map(|o| o.report.total_s),
        }
    }

    fn check(&self, out: &mut Outcome) {
        out.check(self.ok, || {
            format!(
                "a job of preparation {} was refused, failed or returned other bits",
                self.spec
            )
        });
    }
}

/// Submit one job and wait for it.
fn run_job(svc: &SimService, tenant: u64, spec: &JobSpec) -> Option<api::JobOutput> {
    svc.submit(tenant, *spec).ok()?.wait().ok()
}

/// The paper's clock for one job of the mix: each preparation's modeled
/// seconds on a warm world (identical for every such job of that
/// preparation, or the clock is not deterministic), weighted by its
/// share of the mix.
fn modeled_job_seconds(jobs: &[Done], out: &mut Outcome) -> f64 {
    let mut modeled = 0.0;
    for i in 0..PREPARATIONS {
        let mut clocks = jobs
            .iter()
            .filter(|d| d.spec == i)
            .filter_map(|d| d.warm_modeled_s);
        let first = clocks.next();
        out.check(first.is_some_and(|first| clocks.all(|c| c == first)), || {
            format!("the warm-world jobs of preparation {i} disagree on their modeled seconds, or none ran")
        });
        modeled += mix_weight(i) * first.unwrap_or(0.0);
    }
    modeled
}

/// Run the workload: the untraced pass, or the traced pass.
pub fn run(cfg: &RunCfg) -> Outcome {
    let specs = specs(cfg);
    let solos: Vec<Solo> = specs.iter().map(solo).collect();
    let mut out = Outcome::default();
    let worst_drift = solos.iter().map(|s| s.drift).fold(0.0, f64::max);
    out.check_at_most("energy drift", worst_drift, MAX_DRIFT);
    if cfg.trace {
        traced(cfg, &specs, &solos, &mut out);
        out.set("bench.accuracy_err", worst_drift);
        return out;
    }

    // Cold set-up: a fresh service and the six jobs that miss its cache.
    let cold = || {
        let svc = api::service_start(WORKERS, QUEUE_DEPTH, CACHE_CAPACITY);
        for (i, spec) in specs.iter().enumerate() {
            let done = run_job(&svc, i as u64 % TENANTS, spec);
            assert!(done.is_some(), "set-up job {i} was rejected or failed");
        }
        svc
    };
    let setups = ColdSetups::before(cold);

    let svc = api::service_start(WORKERS, QUEUE_DEPTH, CACHE_CAPACITY);
    let min_jobs = cfg.size(READOUT_JOBS.0, READOUT_JOBS.1);
    let barrier = Barrier::new(CLIENTS);
    let window_start = Mutex::new(None::<Instant>);
    let per_client: Vec<Vec<(OpSample, Done)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (svc, specs, solos) = (&svc, &specs, &solos);
                let (barrier, window_start) = (&barrier, &window_start);
                scope.spawn(move || {
                    let job = |k: usize| {
                        let spec = pick(cfg, client, k);
                        let tenant = (client + CLIENTS * k) as u64 % TENANTS;
                        (spec, run_job(svc, tenant, &specs[spec]))
                    };
                    for k in 0..WARMUP_OPS {
                        job(k);
                    }
                    barrier.wait();
                    let start = *window_start
                        .lock()
                        .expect("window start lock")
                        .get_or_insert_with(Instant::now);
                    let mut done = Vec::new();
                    for k in WARMUP_OPS.. {
                        let t = Instant::now();
                        let (spec, output) = job(k);
                        let sample = OpSample {
                            kind: spec,
                            latency_s: t.elapsed().as_secs_f64(),
                            finished_s: start.elapsed().as_secs_f64(),
                        };
                        done.push((sample, Done::new(spec, output.as_ref(), solos)));
                        if start.elapsed().as_secs_f64() >= cfg.seconds && done.len() >= min_jobs {
                            break;
                        }
                    }
                    done
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let (mut ops, jobs): (Vec<OpSample>, Vec<Done>) = per_client.into_iter().flatten().unzip();
    ops.sort_by(|a, b| a.finished_s.total_cmp(&b.finished_s));
    let window = Window { ops };
    let stats = svc.shutdown();

    for done in &jobs {
        done.check(&mut out);
    }
    out.check(stats.jobs_rejected + stats.jobs_failed == 0, || {
        format!(
            "service counted {} rejected and {} failed jobs",
            stats.jobs_rejected, stats.jobs_failed
        )
    });
    modeled_job_seconds(&jobs, &mut out);
    let mix: Vec<f64> = (0..PREPARATIONS).map(mix_weight).collect();
    set_end_to_end(&mut out, &window, &mix, cfg);
    out.set("setup_s", setups.after(cold));
    out
}

/// The traced pass runs one worker and one client, so that the
/// difference between a job and its solo replay is the service's own
/// cost and not contention between jobs.
fn traced(cfg: &RunCfg, specs: &[JobSpec], solos: &[Solo], out: &mut Outcome) {
    out.set("bench.calib_s", sys::calibration_seconds());
    let readout_jobs = cfg.size(READOUT_JOBS.0, READOUT_JOBS.1);
    let mut rec = Recorder::new();
    let svc = rec.time("service", "start", || {
        api::service_start(1, QUEUE_DEPTH, CACHE_CAPACITY)
    });
    let job = |k: usize| (pick(cfg, 0, k), k as u64 % TENANTS);
    for k in 0..WARMUP_OPS {
        let (spec, tenant) = job(k);
        run_job(&svc, tenant, &specs[spec]);
    }

    let (mut plain, mut via_spans, mut solo_runs) =
        (Sampler::default(), Sampler::default(), Sampler::default());
    let (mut cache_hits, mut worlds_reused) = (0usize, 0usize);
    let mut jobs: Vec<Done> = Vec::new();
    let start = Instant::now();
    for iteration in 0.. {
        let k = WARMUP_OPS + 2 * iteration;
        let mut record = |out: &mut Outcome, spec: usize, output: Option<&api::JobOutput>| {
            if jobs.len() < readout_jobs {
                cache_hits += usize::from(output.is_some_and(|o| o.cache_hit));
                worlds_reused += usize::from(output.is_some_and(|o| o.world_reused));
            }
            let done = Done::new(spec, output, solos);
            done.check(out);
            jobs.push(done);
        };

        let (spec, tenant) = job(k);
        let output = plain.time(|| run_job(&svc, tenant, &specs[spec]));
        record(out, spec, output.as_ref());

        let (spec, tenant) = job(k + 1);
        rec.next_op();
        let output = via_spans.time(|| {
            let op = rec.begin("bench", "op");
            let ticket = rec.time("service", "submit", || svc.submit(tenant, specs[spec]).ok());
            let output = rec.time("service", "wait", || ticket.and_then(|t| t.wait().ok()));
            rec.end(op);
            output
        });
        record(out, spec, output.as_ref());
        if let Some(o) = &output {
            rec.time("service", "digest", || {
                api::digests(&o.final_state, &o.field)
            });
        }

        // The same spec without the service: scenario build, world
        // spawn, steps, result gather.
        solo_runs.time(|| rec.time("service", "solo_job", || api::solo_job(&specs[spec])));

        if start.elapsed().as_secs_f64() >= cfg.seconds && jobs.len() >= readout_jobs {
            break;
        }
    }
    let pool = svc.pool_stats();
    let stats = rec.time("service", "shutdown", || svc.shutdown());

    set_bench_layer(out, &plain, &via_spans);
    out.set_span_medians(
        &rec,
        &[
            ("service.start_s", "service", "start"),
            ("service.submit_s", "service", "submit"),
            ("service.solo_job_s", "service", "solo_job"),
            ("service.digest_s", "service", "digest"),
            ("service.shutdown_s", "service", "shutdown"),
        ],
    );
    out.set("service.job_tax_s", plain.p50() - solo_runs.p50());
    out.set(
        "service.cache_hit_frac",
        cache_hits as f64 / readout_jobs as f64,
    );
    out.set(
        "service.worlds_reused_frac",
        worlds_reused as f64 / readout_jobs as f64,
    );
    out.set("service.worlds_spawned", pool.spawned as f64);
    let modeled = modeled_job_seconds(&jobs, out);
    out.set("bench.modeled_op_s", modeled);
    out.set(
        "service.rejected",
        (stats.jobs_rejected + stats.jobs_failed) as f64,
    );
    out.spans = rec.spans().to_vec();
}
