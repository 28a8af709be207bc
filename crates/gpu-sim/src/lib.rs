//! # gpu-sim — a discrete-event GPU execution model
//!
//! A stand-in for the OpenACC + NVIDIA stack the paper runs on. The
//! device holds no data and runs no code: the caller computes on the
//! host, and tells the device what each step *would* cost — a transfer
//! of so many bytes, a kernel of such a grid and such a work estimate on
//! such a stream. A discrete-event scheduler prices that ledger,
//! reproducing the GPU behaviors the paper's design decisions react to:
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
//! dev.htod(1024 * 8);
//! dev.launch(
//!     LaunchConfig::new("scale", 8, 128).stream(0),
//!     WorkEstimate::flops(1024.0),
//! );
//! dev.dtoh(1024 * 8);
//! assert_eq!(dev.profiler().class("scale").unwrap().launches, 1);
//! assert!(dev.now() > 0.0);
//! ```

pub mod profile;
pub mod sched;
pub mod spec;

pub use profile::{KernelClassStats, Profiler};
pub use sched::{KernelEvent, LaunchConfig, Scheduler, WorkEstimate};
pub use spec::DeviceSpec;

/// A simulated GPU: a stream scheduler and a profiler, driven by a
/// simulated clock.
pub struct Device {
    sched: Scheduler,
    profiler: Profiler,
}

impl Device {
    /// Create a device from a hardware spec.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            sched: Scheduler::new(spec),
            profiler: Profiler::default(),
        }
    }

    /// Host→device copy of `bytes`: waits for pending kernels, then
    /// charges the PCIe channel.
    pub fn htod(&mut self, bytes: usize) {
        self.sched.transfer(bytes as f64);
    }

    /// Device→host copy of `bytes`: waits for pending kernels (the copy
    /// depends on their results), then charges the PCIe channel.
    pub fn dtoh(&mut self, bytes: usize) {
        self.sched.transfer(bytes as f64);
    }

    /// Launch a kernel asynchronously on `cfg.stream`: its cost is
    /// enqueued on the simulated stream and realized at the next
    /// [`Device::synchronize`] or transfer.
    pub fn launch(&mut self, cfg: LaunchConfig, work: WorkEstimate) {
        let exec = self.sched.enqueue(cfg, work);
        self.profiler
            .record(cfg.name, work.flops, exec, cfg.grid_blocks);
    }

    /// Wait for all streams and transfers; advances the simulated clock.
    pub fn synchronize(&mut self) {
        self.sched.synchronize();
    }

    /// Current simulated time in seconds (meaningful after a
    /// synchronize or a transfer).
    pub fn now(&self) -> f64 {
        self.sched.now()
    }

    /// Per-kernel-class profile.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let spec = DeviceSpec::titan_v();
        let mut dev = Device::new(spec);
        dev.htod(3 * 8);
        let t_after_copy = dev.now();
        assert_eq!(t_after_copy, spec.transfer_seconds(24.0));
        dev.launch(LaunchConfig::new("double", 1, 32), WorkEstimate::flops(3.0));
        dev.dtoh(3 * 8);
        assert!(dev.now() > t_after_copy + spec.transfer_seconds(24.0));
        assert_eq!(dev.profiler().class("double").unwrap().launches, 1);
    }

    /// A launch is on the ledger at once; its cost lands on the clock
    /// only when the device synchronizes.
    #[test]
    fn launches_before_synchronize_execute_but_clock_waits() {
        let mut dev = Device::new(DeviceSpec::titan_v());
        dev.launch(LaunchConfig::new("w", 1, 32), WorkEstimate::flops(1e6));
        assert_eq!(dev.profiler().total_launches(), 1);
        let before = dev.now();
        dev.synchronize();
        assert!(dev.now() > before);
    }
}
