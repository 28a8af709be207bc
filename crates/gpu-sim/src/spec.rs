//! Device hardware specifications.
//!
//! Numbers come from public spec sheets; `efficiency` is the sustained
//! fraction of double-precision peak this class of irregular, reduction-
//! heavy kernel achieves in practice. The two presets are the paper's
//! GPUs: the NVIDIA Titan V (single-GPU accuracy study, Fig. 4) and the
//! Tesla P100 (Comet scaling studies, Figs. 5–6).

/// Static description of a simulated GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Peak double-precision throughput in GFLOP/s.
    pub peak_dp_gflops: f64,
    /// Sustained fraction of peak for treecode-style kernels.
    pub efficiency: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Host↔device (PCIe) bandwidth in GB/s.
    pub pcie_bandwidth_gbs: f64,
    /// Per-transfer fixed latency in seconds.
    pub pcie_latency_s: f64,
    /// Kernel launch latency in seconds (stream-serial setup cost).
    pub launch_latency_s: f64,
    /// Host-side cost to enqueue one kernel (CPU loop overhead).
    pub host_enqueue_s: f64,
    /// Number of hardware streams the runtime cycles through (the paper's
    /// GPUs expose four).
    pub num_streams: usize,
}

impl DeviceSpec {
    /// NVIDIA Titan V (Volta GV100): 80 SMs, ~6.9 TFLOP/s FP64.
    pub fn titan_v() -> Self {
        Self {
            name: "NVIDIA Titan V",
            sm_count: 80,
            peak_dp_gflops: 6900.0,
            efficiency: 0.35,
            mem_bandwidth_gbs: 651.0,
            pcie_bandwidth_gbs: 12.0,
            pcie_latency_s: 10e-6,
            launch_latency_s: 6e-6,
            host_enqueue_s: 1.5e-6,
            num_streams: 4,
        }
    }

    /// NVIDIA Tesla P100 (Pascal GP100): 56 SMs, ~4.7 TFLOP/s FP64.
    pub fn p100() -> Self {
        Self {
            name: "NVIDIA Tesla P100",
            sm_count: 56,
            peak_dp_gflops: 4700.0,
            efficiency: 0.35,
            mem_bandwidth_gbs: 732.0,
            pcie_bandwidth_gbs: 12.0,
            pcie_latency_s: 10e-6,
            launch_latency_s: 6e-6,
            host_enqueue_s: 1.5e-6,
            num_streams: 4,
        }
    }

    /// Effective sustained GFLOP/s.
    pub fn sustained_gflops(&self) -> f64 {
        self.peak_dp_gflops * self.efficiency
    }

    /// Seconds of *full-device* compute to retire `flops` flop-equivalents
    /// moving `bytes` bytes (roofline max of compute and bandwidth).
    pub fn exec_seconds(&self, flops: f64, bytes: f64) -> f64 {
        let compute = flops / (self.sustained_gflops() * 1e9);
        let memory = bytes / (self.mem_bandwidth_gbs * 1e9);
        compute.max(memory)
    }

    /// Seconds for a PCIe transfer of `bytes`.
    pub fn transfer_seconds(&self, bytes: f64) -> f64 {
        self.pcie_latency_s + bytes / (self.pcie_bandwidth_gbs * 1e9)
    }

    /// Fraction of the device a kernel with `blocks` resident blocks can
    /// occupy (1.0 = saturating).
    pub fn occupancy(&self, blocks: usize) -> f64 {
        (blocks as f64 / self.sm_count as f64).min(1.0)
    }

    /// The device model's six rules; the error names the first field
    /// that breaks one. Every simulated device checks them when it is
    /// created, once per rank per epoch, so the message is built only on
    /// failure.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |v: f64| v > 0.0;
        let broken = if self.sm_count == 0 {
            "sm_count must be positive"
        } else if !positive(self.peak_dp_gflops) {
            "peak_dp_gflops must be positive"
        } else if !(positive(self.efficiency) && self.efficiency <= 1.0) {
            "efficiency must lie in (0, 1]"
        } else if !positive(self.mem_bandwidth_gbs) {
            "mem_bandwidth_gbs must be positive"
        } else if !positive(self.pcie_bandwidth_gbs) {
            "pcie_bandwidth_gbs must be positive"
        } else if self.num_streams == 0 {
            "num_streams must be at least 1"
        } else {
            return Ok(());
        };
        Err(broken.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(DeviceSpec::titan_v().validate(), Ok(()));
        assert_eq!(DeviceSpec::p100().validate(), Ok(()));
    }

    #[test]
    fn titan_v_is_faster_than_p100() {
        assert!(DeviceSpec::titan_v().sustained_gflops() > DeviceSpec::p100().sustained_gflops());
    }

    #[test]
    fn exec_seconds_roofline() {
        let spec = DeviceSpec::titan_v();
        // Pure compute: 2.415e12 sustained flops → 1e12 flops ≈ 0.414 s.
        let t = spec.exec_seconds(1e12, 0.0);
        assert!((t - 1e12 / (6900.0e9 * 0.35)).abs() < 1e-12);
        // Memory-bound: enormous byte traffic dominates.
        let tm = spec.exec_seconds(1.0, 651e9);
        assert!((tm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_includes_latency() {
        let spec = DeviceSpec::titan_v();
        let t0 = spec.transfer_seconds(0.0);
        assert_eq!(t0, spec.pcie_latency_s);
        let t = spec.transfer_seconds(12e9);
        assert!((t - (spec.pcie_latency_s + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn occupancy_saturates_at_one() {
        let spec = DeviceSpec::titan_v();
        assert_eq!(spec.occupancy(0), 0.0);
        assert!((spec.occupancy(40) - 0.5).abs() < 1e-12);
        assert_eq!(spec.occupancy(80), 1.0);
        assert_eq!(spec.occupancy(8000), 1.0);
    }
}
