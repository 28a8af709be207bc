//! `perf` — the repository's wall-clock benchmark. See README.md.
//!
//! ```text
//! perf [--seed S] [--seconds T] [--runs N] [--workload W] [--trace-only] [--smoke] [--out FILE]
//!     every workload (or W), each pass in its own child process:
//!     the untraced pass for the end-to-end metrics, then the traced
//!     pass for the per-layer metrics; writes results.json and one
//!     trace_<workload>.json
//! perf --workload W --seed S --seconds T --trace 0|1 [--smoke]
//!     one pass of one workload in this process; the last line of
//!     standard output is the result as one JSON object
//! perf compare A.json B.json
//!     verdict per workload × end-to-end metric against the bounds
//! perf describe
//!     the definitions, as BENCHMARK.json
//! ```

mod api;
mod compare;
mod defs;
mod harness;
mod jsonin;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use api::{Args, Json};
use harness::{Outcome, RunCfg, HOST_THREADS};
use jsonin::Value;

/// Measured seconds per pass under `--smoke`.
const SMOKE_SECONDS: f64 = 0.3;

/// `--seconds`, or the mode's default.
fn seconds_arg(args: &Args, smoke: bool) -> f64 {
    let default = if smoke {
        SMOKE_SECONDS
    } else {
        defs::RUN_SECONDS as f64
    };
    args.f64("seconds", default)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", defs::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("compare") => return compare_files(&argv[1..]),
        _ => {}
    }
    // One hardware thread cannot run a two-worker pool beside a rank
    // thread: every timing would measure the scheduler. A recording
    // made that way (BENCH_host_parallel.json was) is worse than none.
    let parallelism = sys::available_parallelism();
    if parallelism < HOST_THREADS {
        eprintln!(
            "perf: available_parallelism is {parallelism}, the protocol needs {HOST_THREADS}; \
             refusing to emit timing metrics"
        );
        return ExitCode::from(2);
    }
    let args = Args::from_vec(argv);
    let result = if args.get_opt("trace").is_some() {
        single_pass(&args)
    } else {
        full_run(&args, parallelism)
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

fn compare_files(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("usage: perf compare <a.json> <b.json>");
        return ExitCode::from(2);
    };
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    match read(a)
        .and_then(|a| Ok((a, read(b)?)))
        .and_then(|(a, b)| compare::compare(&a, &b))
    {
        Ok((table, any_worse)) => {
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("perf compare: {message}");
            ExitCode::from(2)
        }
    }
}

/// Directory for result and trace files: `perf-results/` in the cargo
/// target directory this binary was built into.
fn results_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("the binary is not inside a cargo target directory")?;
    let dir = target.join("perf-results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

// ---- one pass of one workload, in this process -------------------------

fn single_pass(args: &Args) -> Result<ExitCode, String> {
    // Service workers are plain threads outside any installed pool and
    // fall back to the global one; size it before anything spawns.
    std::env::set_var(api::HOST_THREADS_ENV, HOST_THREADS.to_string());
    let name = args
        .get_opt("workload")
        .ok_or("--trace needs --workload <name>")?;
    let workload = defs::workload(&name).ok_or_else(|| {
        let known: Vec<&str> = defs::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {known:?}")
    })?;
    let smoke = args.flag("smoke");
    let cfg = RunCfg {
        seed: args.usize("seed", 1) as u64,
        seconds: seconds_arg(args, smoke),
        trace: args.usize("trace", 0) != 0,
        smoke,
        cycle_ops: workload.cycle_ops,
    };
    if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
        return Err(format!("--seconds {} is not a duration", cfg.seconds));
    }
    let out = (workload.run)(&cfg);

    // The pass's metric set: every end-to-end metric (each must have
    // been measured), or every per-layer metric (0 where the workload
    // never enters the layer).
    let metrics: Vec<(&str, f64)> = if cfg.trace {
        defs::PER_LAYER
            .iter()
            .map(|m| (m.name, out.get(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        defs::END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name,
                    out.get(m.name)
                        .expect("every workload sets every end-to-end metric"),
                )
            })
            .collect()
    };
    if let Some((name, value)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{}: metric {name} is {value}", workload.name));
    }
    debug_assert!(
        out.metrics
            .iter()
            .all(|(n, _)| metrics.iter().any(|(m, _)| m == n)),
        "a workload set a metric the definitions do not list"
    );

    print_pass(workload.name, &cfg, &out);
    if cfg.trace {
        let path = results_dir()?.join(format!("trace_{}.json", workload.name));
        std::fs::write(&path, spans::chrome_trace(workload.name, &out.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let by_layer: Vec<String> = spans::self_seconds_by_layer(&out.spans)
            .iter()
            .map(|(layer, seconds)| format!("{layer} {seconds:.3}"))
            .collect();
        println!(
            "  self seconds by layer, all spans: {}",
            by_layer.join(", ")
        );
        println!("  {} spans -> {}", out.spans.len(), path.display());
    }
    println!("{}", result_line(&out, &metrics));
    Ok(ExitCode::SUCCESS)
}

fn print_pass(workload: &str, cfg: &RunCfg, out: &Outcome) {
    println!(
        "{workload}: {} pass, seed {}, {} s measured{}; {} ops attempted, {} failed",
        if cfg.trace { "traced" } else { "untraced" },
        cfg.seed,
        cfg.seconds,
        if cfg.smoke {
            ", SMOKE sizes: timings are not comparable"
        } else {
            ""
        },
        out.attempted,
        out.failed,
    );
    for failure in &out.failures {
        println!("  FAILED: {failure}");
    }
    for &(name, value) in &out.metrics {
        let unit = defs::unit_of(name).expect("defined metric");
        println!("  {name:<30} {value:>16.9e} {unit}");
    }
    if cfg.trace {
        println!(
            "  the other {} per-layer metrics belong to layers this workload never enters: 0",
            defs::PER_LAYER.len() - out.metrics.len()
        );
    }
}

/// The result object the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`; every value with all its digits.
fn result_line(out: &Outcome, metrics: &[(&str, f64)]) -> String {
    let metrics = metrics.iter().fold(Json::obj(), |obj, &(name, value)| {
        obj.field(
            name,
            Json::obj()
                .field("value", Json::Num(format!("{value}")))
                .field(
                    "unit",
                    Json::s(defs::unit_of(name).expect("defined metric")),
                ),
        )
    });
    Json::obj()
        .field("correct", Json::b(out.failed == 0))
        .field("attempted", Json::u(out.attempted))
        .field("failed", Json::u(out.failed))
        .field("metrics", metrics)
        .render_compact()
}

// ---- every workload, each pass in a child process ----------------------

/// One child's parsed result line.
struct PassResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Re-run this binary for one pass of one workload. Its table is
/// passed through; its last line is the result.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{table}");
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let doc = jsonin::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::num)
            .map(|n| n as u64)
            .ok_or_else(|| format!("{workload}: result line has no {key:?}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::obj)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::num);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(PassResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

fn full_run(args: &Args, parallelism: usize) -> Result<ExitCode, String> {
    let smoke = args.flag("smoke");
    let seed = args.usize("seed", 1) as u64;
    let seconds = seconds_arg(args, smoke);
    let runs = args.usize("runs", 1).max(1);
    let trace_only = args.flag("trace-only");
    let selected: Vec<&defs::Workload> = match args.get_opt("workload") {
        Some(name) => {
            vec![defs::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?]
        }
        None => defs::WORKLOADS.iter().collect(),
    };
    let out_path = match args.get_opt("out") {
        Some(path) => PathBuf::from(path),
        None => results_dir()?.join("results.json"),
    };

    // Per workload: end-to-end values of every run, per-layer values of
    // the one traced pass.
    #[derive(Default)]
    struct Collected {
        attempted: u64,
        failed: u64,
        end_to_end: Vec<(String, Vec<f64>)>,
        per_layer: Vec<(String, f64)>,
    }
    let mut collected: Vec<Collected> = selected.iter().map(|_| Collected::default()).collect();
    for run in 0..runs {
        for (workload, slot) in selected.iter().zip(&mut collected) {
            if !trace_only {
                let pass = run_child(workload.name, seed, seconds, false, smoke)?;
                slot.attempted += pass.attempted;
                slot.failed += pass.failed;
                for (name, value) in pass.metrics {
                    match slot.end_to_end.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, values)) => values.push(value),
                        None => slot.end_to_end.push((name, vec![value])),
                    }
                }
            }
            // Per-layer numbers have no bound to test a spread
            // against: one traced pass, in the first run.
            if run == 0 {
                let pass = run_child(workload.name, seed, seconds, true, smoke)?;
                slot.attempted += pass.attempted;
                slot.failed += pass.failed;
                slot.per_layer = pass.metrics;
            }
        }
    }

    let number = |v: f64| Json::Num(format!("{v}"));
    let doc = Json::obj()
        .field(
            "machine",
            Json::obj()
                .field("available_parallelism", Json::u(parallelism as u64))
                .field("host_threads", Json::u(HOST_THREADS as u64))
                .field("git_rev", Json::s(sys::git_rev()))
                .field("rustc", Json::s(sys::rustc_version()))
                .field("seed", Json::u(seed))
                .field("seconds", number(seconds))
                .field("runs", Json::u(runs as u64))
                .field("smoke", Json::b(smoke)),
        )
        .field(
            "workloads",
            Json::arr(
                selected
                    .iter()
                    .zip(&collected)
                    .map(|(workload, c)| {
                        Json::obj()
                            .field("name", Json::s(workload.name))
                            .field("attempted", Json::u(c.attempted))
                            .field("failed", Json::u(c.failed))
                            .field(
                                "end_to_end",
                                c.end_to_end
                                    .iter()
                                    .fold(Json::obj(), |obj, (name, values)| {
                                        obj.field(
                                            name.clone(),
                                            Json::arr(values.iter().map(|&v| number(v)).collect()),
                                        )
                                    }),
                            )
                            .field(
                                "per_layer",
                                c.per_layer.iter().fold(Json::obj(), |obj, (name, value)| {
                                    obj.field(name.clone(), number(*value))
                                }),
                            )
                    })
                    .collect(),
            ),
        );
    std::fs::write(&out_path, doc.render_bench())
        .map_err(|e| format!("{}: {e}", out_path.display()))?;

    let failed: u64 = collected.iter().map(|c| c.failed).sum();
    println!(
        "{} workloads, {runs} run(s), {} ops attempted, {failed} failed{} -> {}",
        selected.len(),
        collected.iter().map(|c| c.attempted).sum::<u64>(),
        if smoke {
            " (SMOKE: timings are not comparable)"
        } else {
            ""
        },
        out_path.display(),
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
