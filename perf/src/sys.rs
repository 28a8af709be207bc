//! What the benchmark reads from the machine rather than from the
//! library: process CPU seconds and peak resident memory from `/proc`,
//! a fixed arithmetic loop for machine-speed drift, and the machine
//! facts recorded with every run.

use std::process::Command;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. Linux has
/// reported `USER_HZ = 100` on every architecture for two decades; the
/// offline toolchain has no `libc` to ask `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU seconds so far (user + system, all threads, including
/// joined ones). Tick resolution is 10 ms, so difference it only
/// across whole measured windows, never across a single short call.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("parse /proc/self/stat") / TICKS_PER_S
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Seconds a fixed dependent-arithmetic loop takes on one thread. It
/// touches no memory and calls nothing, so between two runs it moves
/// only when the machine's speed does — a drifting `bench.calib_s`
/// says "the box changed", not "the code changed".
pub fn calibration_seconds() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0.0f64;
    for i in 0..20_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        acc += (x >> 40) as f64 * 1e-9;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Hardware threads the process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails (a checkout that is not a git
/// repository still benchmarks).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc -V` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// `git rev-parse HEAD` of the working directory.
pub fn git_rev() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parse_survives_hostile_command_names() {
        let line = "4242 (perf (x) y) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 4 0 99 1 2";
        assert_eq!(parse_cpu_ticks(line), Some(300.0));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_parse() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tperf\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_machine() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(available_parallelism() >= 1);
    }
}
