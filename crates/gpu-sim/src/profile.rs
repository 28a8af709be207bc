//! Per-kernel-class profiling: launch counts, flops, modeled exec time
//! and blocks launched (occupancy). This is the table the `gpu_profile`
//! example prints and every GPU run report carries.

use std::collections::BTreeMap;

/// Aggregate statistics for one kernel class (keyed by launch name).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelClassStats {
    /// Number of launches.
    pub launches: u64,
    /// Total flop-equivalents.
    pub flops: f64,
    /// Total modeled full-device exec seconds.
    pub exec_seconds: f64,
    /// Total blocks launched.
    pub blocks: u64,
}

/// Collector of per-class statistics.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    classes: BTreeMap<&'static str, KernelClassStats>,
}

impl Profiler {
    /// Record one launch.
    pub fn record(&mut self, name: &'static str, flops: f64, exec_seconds: f64, blocks: usize) {
        let e = self.classes.entry(name).or_default();
        e.launches += 1;
        e.flops += flops;
        e.exec_seconds += exec_seconds;
        e.blocks += blocks as u64;
    }

    /// Stats for one class.
    pub fn class(&self, name: &str) -> Option<&KernelClassStats> {
        self.classes.get(name)
    }

    /// Total launches across classes.
    pub fn total_launches(&self) -> u64 {
        self.classes.values().map(|c| c.launches).sum()
    }

    /// Render a fixed-width table (one row per class, in name order).
    pub fn table(&self) -> String {
        let mut out = String::from(
            "kernel                    launches      blocks(avg)      GFLOP     exec(ms)\n",
        );
        for (name, c) in &self.classes {
            out.push_str(&format!(
                "{name:<24} {:>9} {:>16.1} {:>10.3} {:>12.3}\n",
                c.launches,
                c.blocks as f64 / c.launches as f64,
                c.flops / 1e9,
                c.exec_seconds * 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_aggregates() {
        let mut p = Profiler::default();
        p.record("direct", 1e6, 1e-3, 100);
        p.record("direct", 3e6, 2e-3, 300);
        p.record("approx", 5e6, 4e-3, 50);
        let d = p.class("direct").unwrap();
        assert_eq!(d.launches, 2);
        assert!((d.flops - 4e6).abs() < 1.0);
        assert_eq!(d.blocks, 400);
        assert_eq!(p.total_launches(), 3);
        assert!(p.class("missing").is_none());
    }

    #[test]
    fn table_lists_all_classes() {
        let mut p = Profiler::default();
        p.record("b_kernel", 1.0, 1.0, 1);
        p.record("a_kernel", 1.0, 1.0, 1);
        let t = p.table();
        assert!(t.contains("a_kernel"));
        assert!(t.contains("b_kernel"));
        // BTreeMap ⇒ sorted order.
        assert!(t.find("a_kernel").unwrap() < t.find("b_kernel").unwrap());
    }
}
