//! The α–β communication-time model.
//!
//! The paper's scaling runs use Comet's FDR InfiniBand fabric. We record
//! every one-sided operation in the traffic matrix and convert a rank's
//! communication into modeled seconds with the classic postal model:
//! `T = messages · α + bytes / β`, assuming each rank's NIC serializes
//! its own traffic (a standard, slightly pessimistic assumption).

use crate::runtime::TrafficMatrix;

/// Network fabric parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSpec {
    /// Fabric name.
    pub name: &'static str,
    /// Per-message latency α in seconds.
    pub latency_s: f64,
    /// Bandwidth β in GB/s.
    pub bandwidth_gbs: f64,
}

impl NetworkSpec {
    /// FDR InfiniBand (56 Gb/s signalling ≈ 6.8 GB/s effective), the
    /// fabric of SDSC Comet used in the paper's Figs. 5–6.
    pub fn infiniband_fdr() -> Self {
        Self {
            name: "InfiniBand FDR",
            latency_s: 1.5e-6,
            bandwidth_gbs: 6.8,
        }
    }

    /// 10 GbE (for sensitivity studies: slower fabric ⇒ setup phase
    /// dominates earlier).
    pub fn ethernet_10g() -> Self {
        Self {
            name: "10 GbE",
            latency_s: 20e-6,
            bandwidth_gbs: 1.1,
        }
    }

    /// Intra-node GPU↔GPU path (PCIe peer-to-peer / shared-memory MPI):
    /// far lower latency and higher effective bandwidth than any
    /// fabric. The hierarchy-aware distributed model prices one-sided
    /// traffic between ranks that share a compute node with this spec
    /// instead of the inter-node fabric.
    pub fn intranode_p2p() -> Self {
        Self {
            name: "intra-node P2P",
            latency_s: 0.4e-6,
            bandwidth_gbs: 12.0,
        }
    }

    /// The rules every α–β price relies on: a finite, non-negative
    /// latency and a finite, positive bandwidth (a zero or `NaN`
    /// bandwidth makes every transfer `inf` or `NaN` seconds).
    pub fn validate(&self) -> Result<(), String> {
        let broken = if !(self.latency_s.is_finite() && self.latency_s >= 0.0) {
            "latency_s must be non-negative and finite"
        } else if !(self.bandwidth_gbs.is_finite() && self.bandwidth_gbs > 0.0) {
            "bandwidth_gbs must be positive and finite"
        } else {
            return Ok(());
        };
        Err(format!("network {:?}: {broken}", self.name))
    }

    /// Modeled seconds for one rank's outgoing traffic.
    pub fn origin_seconds(&self, traffic: &TrafficMatrix, origin: usize) -> f64 {
        let msgs = traffic.remote_messages_from(origin) as f64;
        let bytes = traffic.remote_bytes_from(origin) as f64;
        msgs * self.latency_s + bytes / (self.bandwidth_gbs * 1e9)
    }

    /// Modeled seconds for an explicit (messages, bytes) pair.
    pub fn seconds_for(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_spmd;

    #[test]
    fn presets_validate_and_broken_links_do_not() {
        for net in [
            NetworkSpec::infiniband_fdr(),
            NetworkSpec::ethernet_10g(),
            NetworkSpec::intranode_p2p(),
        ] {
            assert_eq!(net.validate(), Ok(()));
        }
        let fdr = NetworkSpec::infiniband_fdr();
        for (bad, rule) in [
            (
                NetworkSpec {
                    bandwidth_gbs: 0.0,
                    ..fdr
                },
                "bandwidth_gbs",
            ),
            (
                NetworkSpec {
                    bandwidth_gbs: f64::INFINITY,
                    ..fdr
                },
                "bandwidth_gbs",
            ),
            (
                NetworkSpec {
                    latency_s: -1e-6,
                    ..fdr
                },
                "latency_s",
            ),
            (
                NetworkSpec {
                    latency_s: f64::NAN,
                    ..fdr
                },
                "latency_s",
            ),
        ] {
            let e = bad.validate().unwrap_err();
            assert!(e.contains(rule), "{e}");
        }
    }

    #[test]
    fn seconds_for_postal_model() {
        let net = NetworkSpec::infiniband_fdr();
        let t = net.seconds_for(10, 6_800_000_000);
        assert!((t - (10.0 * 1.5e-6 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn origin_seconds_from_recorded_traffic() {
        let out = run_spmd(2, |comm| {
            let win = comm.create_window(vec![0.0f64; 1000]);
            if comm.rank() == 0 {
                let _ = win.lock_shared(1).get_with(0..1000, <[f64]>::to_vec); // 8000 bytes
            }
            comm.barrier();
        });
        let net = NetworkSpec::infiniband_fdr();
        let t0 = net.origin_seconds(&out.traffic, 0);
        let t1 = net.origin_seconds(&out.traffic, 1);
        assert!((t0 - (1.5e-6 + 8000.0 / 6.8e9)).abs() < 1e-12);
        assert_eq!(t1, 0.0);
    }

    #[test]
    fn slower_fabric_costs_more() {
        let ib = NetworkSpec::infiniband_fdr();
        let eth = NetworkSpec::ethernet_10g();
        assert!(eth.seconds_for(100, 1_000_000) > ib.seconds_for(100, 1_000_000));
    }

    #[test]
    fn intranode_path_is_cheaper_than_any_fabric() {
        let p2p = NetworkSpec::intranode_p2p();
        for fabric in [NetworkSpec::infiniband_fdr(), NetworkSpec::ethernet_10g()] {
            assert!(p2p.latency_s < fabric.latency_s, "{}", fabric.name);
            assert!(p2p.bandwidth_gbs > fabric.bandwidth_gbs, "{}", fabric.name);
            assert!(p2p.seconds_for(100, 1_000_000) < fabric.seconds_for(100, 1_000_000));
        }
    }
}
