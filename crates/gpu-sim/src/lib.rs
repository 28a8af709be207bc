//! # gpu-sim — a discrete-event GPU execution model
//!
//! A stand-in for the OpenACC + NVIDIA stack the paper runs on. Kernel
//! *bodies* execute on the host (bit-real results); kernel *timing* is
//! modeled by a discrete-event scheduler that reproduces the GPU behaviors
//! the paper's design decisions react to:
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
//! let buf = dev.alloc_f64(vec![1.0; 1024]);
//! let out = dev.alloc_f64(vec![0.0; 1024]);
//! dev.launch(
//!     LaunchConfig::new("scale", 8, 128).stream(0),
//!     WorkEstimate::flops(1024.0),
//!     |mem| {
//!         let ([src], [dst]) = mem.f64_split([buf], [out]);
//!         for (d, s) in dst.iter_mut().zip(src) { *d = 2.0 * s; }
//!     },
//! );
//! dev.synchronize();
//! let host = dev.dtoh_f64(out);
//! assert!(host.iter().all(|&v| v == 2.0));
//! assert!(dev.now() > 0.0);
//! ```

pub mod atomic;
pub mod memory;
pub mod profile;
pub mod sched;
pub mod spec;

pub use atomic::AtomicF64Cell;
pub use memory::{BufF64, DeviceMemory};
pub use profile::{KernelClassStats, Profiler};
pub use sched::{KernelEvent, LaunchConfig, Scheduler, WorkEstimate};
pub use spec::DeviceSpec;

/// A simulated GPU: memory arena + stream scheduler + profiler, driven by
/// a simulated clock.
pub struct Device {
    spec: DeviceSpec,
    mem: DeviceMemory,
    sched: Scheduler,
    profiler: Profiler,
}

impl Device {
    /// Create a device from a hardware spec.
    pub fn new(spec: DeviceSpec) -> Self {
        let sched = Scheduler::new(spec);
        Self {
            spec,
            mem: DeviceMemory::default(),
            sched,
            profiler: Profiler::default(),
        }
    }

    /// The hardware spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Allocate a device `f64` buffer initialized from host data,
    /// *without* modeling a transfer (device-resident scratch).
    pub fn alloc_f64(&mut self, data: Vec<f64>) -> BufF64 {
        self.mem.alloc_f64(data)
    }

    /// Host→device copy: allocates a buffer and charges the PCIe channel.
    pub fn htod_f64(&mut self, data: Vec<f64>) -> BufF64 {
        let bytes = (data.len() * 8) as f64;
        self.sched.transfer(bytes);
        self.mem.alloc_f64(data)
    }

    /// Device→host copy: synchronizes outstanding kernels first (the copy
    /// depends on their results), charges the PCIe channel, and returns a
    /// host clone of the buffer.
    pub fn dtoh_f64(&mut self, buf: BufF64) -> Vec<f64> {
        self.sched.synchronize();
        let data = self.mem.f64(buf).to_vec();
        self.sched.transfer((data.len() * 8) as f64);
        data
    }

    /// Overwrite an existing device buffer from host data, modeling the
    /// HtD transfer (used when re-staging per-phase data into a
    /// preallocated region).
    pub fn htod_update_f64(&mut self, buf: BufF64, data: &[f64]) {
        self.sched.transfer((data.len() * 8) as f64);
        let dst = self.mem.f64_mut(buf);
        assert_eq!(dst.len(), data.len(), "htod update length mismatch");
        dst.copy_from_slice(data);
    }

    /// Launch a kernel asynchronously on `cfg.stream`.
    ///
    /// The body runs immediately on the host against the device memory
    /// arena (results are real); the timing cost is enqueued on the
    /// simulated stream and realized at the next [`Device::synchronize`].
    pub fn launch<F>(&mut self, cfg: LaunchConfig, work: WorkEstimate, body: F)
    where
        F: FnOnce(&mut DeviceMemory),
    {
        body(&mut self.mem);
        let exec = self.sched.enqueue(cfg, work);
        self.profiler
            .record(cfg.name, work.flops, exec, cfg.grid_blocks);
    }

    /// Wait for all streams and transfers; advances the simulated clock.
    pub fn synchronize(&mut self) {
        self.sched.synchronize();
    }

    /// Current simulated time in seconds (meaningful after a
    /// synchronize/dtoh).
    pub fn now(&self) -> f64 {
        self.sched.now()
    }

    /// Immutable view of device memory (for tests/diagnostics).
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
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
        let mut dev = Device::new(DeviceSpec::titan_v());
        let a = dev.htod_f64(vec![1.0, 2.0, 3.0]);
        dev.synchronize();
        let t_after_copy = dev.now();
        assert!(t_after_copy > 0.0, "transfer must cost time");
        dev.launch(
            LaunchConfig::new("double", 1, 32),
            WorkEstimate::flops(3.0),
            |mem| {
                for v in mem.f64_mut(a) {
                    *v *= 2.0;
                }
            },
        );
        let host = dev.dtoh_f64(a);
        assert_eq!(host, vec![2.0, 4.0, 6.0]);
        assert!(dev.now() > t_after_copy);
        assert_eq!(dev.profiler().class("double").unwrap().launches, 1);
    }

    #[test]
    fn launches_before_synchronize_execute_but_clock_waits() {
        let mut dev = Device::new(DeviceSpec::titan_v());
        let a = dev.alloc_f64(vec![0.0; 4]);
        dev.launch(
            LaunchConfig::new("w", 1, 32),
            WorkEstimate::flops(1e6),
            |mem| mem.f64_mut(a)[0] = 7.0,
        );
        // Body already ran (eager execution)...
        assert_eq!(dev.memory().f64(a)[0], 7.0);
        let before = dev.now();
        dev.synchronize();
        // ...but simulated time only advances at synchronization.
        assert!(dev.now() > before);
    }
}
