//! # gpu-sim — a discrete-event GPU execution model
//!
//! A stand-in for the OpenACC + NVIDIA stack the paper runs on. The
//! device holds no data and runs no code: the caller computes on the
//! host, and tells the device what each step *would* cost — a transfer
//! of so many bytes, a kernel of such a grid and such a work estimate on
//! such a stream. A discrete-event scheduler prices those launches and
//! copies, and the device keeps one record per kernel, its log. The
//! launch count is the log's length, and the per-class profile is a
//! fold over a log ([`profile_table`]) for a reader who asks. The model
//! reproduces the GPU behaviors the paper's design decisions react to:
//!
//! - **launch latency** — every kernel pays a fixed setup cost that
//!   occupies its stream but not the compute units; queuing kernels on
//!   multiple asynchronous streams overlaps one stream's setup with
//!   another's compute (§3.2 "Asynchronous Streams"),
//! - **occupancy** — a kernel with fewer resident blocks than SMs cannot
//!   saturate the device; concurrent kernels on different streams share
//!   the SMs through a proportional (fluid) model, so several small
//!   kernels fill the device where one cannot,
//! - **host↔device transfers** — HtD/DtH copies run on a serial PCIe
//!   channel with latency + bandwidth cost (§3.2 "Host and Device Data
//!   Management"),
//! - **throughput** — compute time is `max(flops / (peak·efficiency),
//!   bytes / bandwidth)` for the exec phase of each kernel.
//!
//! Concurrent streams accumulating into one target's potential need
//! `#pragma acc atomic` on the paper's GPU. Here the host's tile adds
//! each target's terms in a fixed sequential order, which is the
//! deterministic model of that atomic update.
//!
//! The model makes no claim about absolute seconds on real silicon; it is
//! calibrated (SM counts, DP throughput, PCIe numbers from public spec
//! sheets) so that *relative* behavior — GPU≫CPU, stream ablation,
//! occupancy starvation at low per-rank work — matches the paper's
//! observations.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{Device, DeviceSpec, LaunchConfig, WorkEstimate};
//!
//! let mut dev = Device::new(DeviceSpec::titan_v());
//! dev.transfer(1024 * 8); // HtD
//! dev.launch(
//!     LaunchConfig::new("scale", 8).stream(0),
//!     WorkEstimate::flops(1024.0),
//! );
//! dev.transfer(1024 * 8); // DtH
//! assert_eq!(dev.kernel_events()[0].name, "scale");
//! assert_eq!(dev.kernel_events().len(), 1);
//! assert!(dev.now() > 0.0);
//! ```

pub mod sched;
pub mod spec;

use std::collections::BTreeMap;

pub use sched::{Device, KernelEvent, LaunchConfig, WorkEstimate};
pub use spec::DeviceSpec;

/// The per-class profile of a kernel log: one row per kernel class, in
/// name order, with its launches, average blocks per launch, GFLOP and
/// full-device exec milliseconds, each summed over `events` in `seq`
/// order.
pub fn profile_table(events: &[KernelEvent]) -> String {
    // (launches, blocks, flops, exec seconds) per class.
    let mut classes: BTreeMap<&str, (u64, u64, f64, f64)> = BTreeMap::new();
    for e in events {
        let c = classes.entry(e.name).or_default();
        c.0 += 1;
        c.1 += e.grid_blocks as u64;
        c.2 += e.flops;
        c.3 += e.exec_s;
    }
    let mut out = String::from(
        "kernel                    launches      blocks(avg)      GFLOP     exec(ms)\n",
    );
    for (name, (launches, blocks, flops, exec_s)) in classes {
        out.push_str(&format!(
            "{name:<24} {launches:>9} {:>16.1} {:>10.3} {:>12.3}\n",
            blocks as f64 / launches as f64,
            flops / 1e9,
            exec_s * 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let spec = DeviceSpec::titan_v();
        let mut dev = Device::new(spec);
        dev.transfer(3 * 8);
        let t_after_copy = dev.now();
        assert_eq!(t_after_copy, spec.transfer_seconds(24.0));
        dev.launch(LaunchConfig::new("double", 1), WorkEstimate::flops(3.0));
        dev.transfer(3 * 8);
        assert!(dev.now() > t_after_copy + spec.transfer_seconds(24.0));
        assert_eq!(dev.kernel_events().len(), 1);
        assert_eq!(dev.kernel_events()[0].name, "double");
    }

    /// A launch is on the log at once; its cost lands on the clock
    /// only when the device synchronizes.
    #[test]
    fn launches_before_synchronize_execute_but_clock_waits() {
        let mut dev = Device::new(DeviceSpec::titan_v());
        dev.launch(LaunchConfig::new("w", 1), WorkEstimate::flops(1e6));
        assert_eq!(dev.kernel_events().len(), 1);
        let before = dev.now();
        dev.synchronize();
        assert!(dev.now() > before);
    }
}
