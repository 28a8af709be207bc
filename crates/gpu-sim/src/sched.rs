//! The simulated device: a discrete-event stream scheduler and its
//! kernel log.
//!
//! Model (per §3.2's description of OpenACC async streams):
//!
//! - The **host** enqueues kernels, paying `host_enqueue_s` per launch; a
//!   kernel's *issue time* is the host clock at its enqueue.
//! - Each **stream** executes its kernels in order. A kernel occupies its
//!   stream for `launch_latency_s` of setup before its exec phase starts
//!   — this setup consumes no compute units, so other streams' exec
//!   phases overlap it (the paper's motivation (2) for streams).
//! - The **exec phases** of kernels on different streams run concurrently
//!   under proportional (fluid) sharing of the SMs: a kernel demands an
//!   occupancy fraction `min(1, blocks/SMs)`; if total demand exceeds the
//!   device it is scaled back proportionally. A single low-occupancy
//!   kernel cannot saturate the device, but several on different streams
//!   can (motivation (3)).
//! - **Transfers** are synchronous: they drain pending kernels, then pay
//!   latency + bytes/bandwidth on the PCIe channel.
//!
//! The simulated clock is shared by host and device; `synchronize`
//! advances it past the last completion.
//!
//! The device keeps one record per kernel, a [`KernelEvent`] pushed at
//! enqueue (so its index is its `seq`) and completed at retirement. The
//! launch count, the per-class profile ([`crate::profile_table`]) and the
//! dispatcher's timeline are all read from that one log.

use std::collections::VecDeque;

use crate::spec::DeviceSpec;

/// Kernel launch geometry and placement.
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Kernel class name (profiling key).
    pub name: &'static str,
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Stream index (wrapped modulo the device's stream count).
    pub stream: usize,
}

impl LaunchConfig {
    /// Construct with stream 0.
    pub fn new(name: &'static str, grid_blocks: usize) -> Self {
        assert!(grid_blocks >= 1, "kernel must have at least one block");
        Self {
            name,
            grid_blocks,
            stream: 0,
        }
    }

    /// Select the stream.
    pub fn stream(mut self, stream: usize) -> Self {
        self.stream = stream;
        self
    }
}

/// Cost estimate for one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct WorkEstimate {
    /// Flop-equivalents retired by the kernel.
    pub flops: f64,
    /// Device-memory bytes moved (for the roofline term).
    pub bytes: f64,
}

impl WorkEstimate {
    /// Pure-compute estimate.
    pub fn flops(flops: f64) -> Self {
        Self { flops, bytes: 0.0 }
    }

    /// Compute + memory-traffic estimate.
    pub fn new(flops: f64, bytes: f64) -> Self {
        Self { flops, bytes }
    }
}

/// A kernel whose exec phase is running.
#[derive(Debug, Clone, Copy)]
struct Active {
    /// Index of the kernel's record in the log.
    seq: usize,
    stream: usize,
    start: f64,
    remaining: f64,
    demand: f64,
}

/// The record of one launched kernel: what it is, and — once it has
/// retired — where it ran on its stream's timeline. Purely
/// observational: reading the log never changes the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelEvent {
    /// Enqueue order across all streams (0-based), and the record's
    /// index in the log.
    pub seq: u64,
    /// Kernel class name (profiling key).
    pub name: &'static str,
    /// Stream the kernel ran on (post-wrap index).
    pub stream: usize,
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Flop-equivalents retired by the kernel.
    pub flops: f64,
    /// Full-device exec seconds (roofline).
    pub exec_s: f64,
    /// Host clock at enqueue.
    pub issue_s: f64,
    /// Start of the exec phase (after launch latency and any stream /
    /// device waiting); NaN until the kernel retires.
    pub start_s: f64,
    /// Retirement time; NaN until then. `end_s - start_s` ≥ `exec_s`
    /// whenever the device was shared.
    pub end_s: f64,
}

/// A simulated GPU: a stream scheduler with a simulated clock, and the
/// log of every kernel launched on it.
pub struct Device {
    spec: DeviceSpec,
    /// Simulated wall clock (valid after synchronize/transfer).
    clock: f64,
    /// Host position on the simulated timeline.
    host_clock: f64,
    /// Per-stream pending kernels (log indices) since the last
    /// synchronize.
    queues: Vec<VecDeque<usize>>,
    /// Per-stream completion time of the last retired kernel.
    stream_tail: Vec<f64>,
    /// One record per launched kernel, in enqueue order.
    events: Vec<KernelEvent>,
}

impl Device {
    /// Create a device from a hardware spec.
    ///
    /// # Panics
    ///
    /// With the message of [`DeviceSpec::validate`].
    pub fn new(spec: DeviceSpec) -> Self {
        spec.validate().unwrap_or_else(|e| panic!("{e}"));
        Self {
            spec,
            clock: 0.0,
            host_clock: 0.0,
            queues: (0..spec.num_streams).map(|_| VecDeque::new()).collect(),
            stream_tail: vec![0.0; spec.num_streams],
            events: Vec::new(),
        }
    }

    /// Make room in the log for `launches` more kernels at once, so a
    /// caller that knows its launch count never regrows it.
    pub fn reserve(&mut self, launches: usize) {
        self.events.reserve_exact(launches);
    }

    /// Launch a kernel asynchronously on `cfg.stream`: its record goes on
    /// the log at once, and its cost is realized at the next
    /// [`Device::synchronize`] or transfer.
    pub fn launch(&mut self, cfg: LaunchConfig, work: WorkEstimate) {
        self.host_clock += self.spec.host_enqueue_s;
        let seq = self.events.len();
        let stream = cfg.stream % self.spec.num_streams;
        self.queues[stream].push_back(seq);
        self.events.push(KernelEvent {
            seq: seq as u64,
            name: cfg.name,
            stream,
            grid_blocks: cfg.grid_blocks,
            flops: work.flops,
            exec_s: self.spec.exec_seconds(work.flops, work.bytes),
            issue_s: self.host_clock,
            start_s: f64::NAN,
            end_s: f64::NAN,
        });
    }

    /// Move the host forward to absolute time `t` on the simulated
    /// timeline (no-op if the host is already past it). Kernels enqueued
    /// afterwards carry issue times ≥ `t` — this is how a pipelined
    /// caller expresses "this launch cannot be issued before its input
    /// chunk has landed".
    pub fn advance_host_to(&mut self, t: f64) {
        self.host_clock = self.host_clock.max(t);
    }

    /// Mark the device busy until absolute time `t`: every stream's tail
    /// is pushed to at least `t`, so no kernel's exec phase can start
    /// earlier. A pipelined caller uses this to account for a
    /// monolithic block of device work (e.g. the local-batch
    /// evaluation) without paying per-kernel enqueue or launch-latency
    /// costs for it.
    pub fn occupy_until(&mut self, t: f64) {
        for tail in &mut self.stream_tail {
            *tail = tail.max(t);
        }
        self.clock = self.clock.max(t);
    }

    /// Synchronous host↔device copy of `bytes`: drains pending kernels
    /// (the copy depends on their results), then occupies the PCIe
    /// channel for latency + bytes/bandwidth. Host blocks.
    pub fn transfer(&mut self, bytes: usize) {
        self.synchronize();
        let t = self.spec.transfer_seconds(bytes as f64);
        self.clock += t;
        self.host_clock = self.clock;
    }

    /// Earliest time the head of stream `s` can *start exec* (issue and
    /// predecessor constraints plus launch latency).
    fn head_start(&self, s: usize) -> Option<f64> {
        self.queues[s]
            .front()
            .map(|&k| self.events[k].issue_s.max(self.stream_tail[s]) + self.spec.launch_latency_s)
    }

    /// Drain all pending kernels, advancing the simulated clock to the
    /// last completion (no-op when nothing is pending).
    pub fn synchronize(&mut self) {
        if self.queues.iter().all(|q| q.is_empty()) {
            self.host_clock = self.host_clock.max(self.clock);
            self.clock = self.host_clock;
            return;
        }
        let ns = self.queues.len();
        let mut t = self.clock;
        let mut active: Vec<Active> = Vec::with_capacity(ns);
        // In-order streams: only the head of each queue is eligible, and
        // only once its predecessor on the same stream has retired.
        let mut stream_busy = vec![false; ns];

        loop {
            // Promote eligible heads.
            #[allow(clippy::needless_range_loop)]
            for s in 0..ns {
                if stream_busy[s] {
                    continue;
                }
                if let Some(start) = self.head_start(s) {
                    if start <= t + 1e-18 {
                        let k = self.queues[s].pop_front().expect("head exists");
                        let e = &self.events[k];
                        active.push(Active {
                            seq: k,
                            stream: s,
                            start: start.max(t),
                            remaining: e.exec_s.max(1e-15),
                            demand: self.spec.occupancy(e.grid_blocks).max(1e-6),
                        });
                        stream_busy[s] = true;
                    }
                }
            }

            if active.is_empty() {
                // Jump to the next head start, or finish.
                let next = (0..ns)
                    .filter(|&s| !stream_busy[s])
                    .filter_map(|s| self.head_start(s))
                    .fold(f64::INFINITY, f64::min);
                if next.is_finite() {
                    t = t.max(next);
                    continue;
                }
                break;
            }

            // Proportional share of the device.
            let total_demand: f64 = active.iter().map(|a| a.demand).sum();
            let scale = if total_demand > 1.0 {
                1.0 / total_demand
            } else {
                1.0
            };

            // Next completion among active kernels.
            let dt_complete = active
                .iter()
                .map(|a| a.remaining / (a.demand * scale))
                .fold(f64::INFINITY, f64::min);
            // Next arrival on an idle stream (changes the shares).
            let dt_arrival = (0..ns)
                .filter(|&s| !stream_busy[s])
                .filter_map(|s| self.head_start(s))
                .filter(|&start| start > t)
                .map(|start| start - t)
                .fold(f64::INFINITY, f64::min);

            let dt = dt_complete.min(dt_arrival).max(1e-18);
            t += dt;
            for a in &mut active {
                a.remaining -= a.demand * scale * dt;
            }
            // Retire finished kernels.
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining <= 1e-15 {
                    let a = active.swap_remove(i);
                    self.stream_tail[a.stream] = t;
                    stream_busy[a.stream] = false;
                    let e = &mut self.events[a.seq];
                    e.start_s = a.start;
                    e.end_s = t;
                } else {
                    i += 1;
                }
            }
        }

        self.clock = t.max(self.host_clock);
        self.host_clock = self.clock;
    }

    /// The simulated clock (seconds; meaningful after a synchronize or a
    /// transfer).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The log: one record per launched kernel, in enqueue order (index
    /// = `seq`), whatever order the overlapping streams retired them in.
    pub fn kernel_events(&self) -> &[KernelEvent] {
        &self.events
    }

    /// The log, taking the device with it.
    pub fn into_kernel_events(self) -> Vec<KernelEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::titan_v()
    }

    fn dev() -> Device {
        Device::new(spec())
    }

    /// One saturating kernel: total = enqueue + latency + work.
    #[test]
    fn single_kernel_timing() {
        let mut s = dev();
        let work_flops = 1e9;
        s.launch(
            LaunchConfig::new("k", 1000),
            WorkEstimate::flops(work_flops),
        );
        s.synchronize();
        let expect =
            spec().host_enqueue_s + spec().launch_latency_s + spec().exec_seconds(work_flops, 0.0);
        assert!(
            (s.now() - expect).abs() < 1e-12,
            "got {}, expect {expect}",
            s.now()
        );
        assert_eq!(s.kernel_events().len(), 1);
    }

    /// A low-occupancy kernel runs slower than its full-device time.
    #[test]
    fn low_occupancy_kernel_is_slower() {
        let mut s = dev();
        // 8 blocks on an 80-SM device: occupancy 0.1.
        s.launch(LaunchConfig::new("k", 8), WorkEstimate::flops(1e9));
        s.synchronize();
        let full = spec().exec_seconds(1e9, 0.0);
        let exec = s.now() - spec().host_enqueue_s - spec().launch_latency_s;
        assert!(
            (exec - full / 0.1).abs() < full * 1e-6,
            "exec {exec} vs expected {}",
            full / 0.1
        );
    }

    /// Same-stream kernels serialize, latencies included: four saturating
    /// kernels issued `host_enqueue_s` apart each wait for their
    /// predecessor, so the last retires at `enqueue + 4·(latency + exec)`.
    #[test]
    fn same_stream_serializes() {
        let mut s = dev();
        let w = 1e8;
        for _ in 0..4 {
            s.launch(LaunchConfig::new("k", 1000), WorkEstimate::flops(w));
        }
        s.synchronize();
        let (enqueue, latency) = (spec().host_enqueue_s, spec().launch_latency_s);
        let exec = spec().exec_seconds(w, 0.0);
        assert!(
            enqueue < latency + exec,
            "each issue precedes the predecessor's retirement"
        );
        let expect = enqueue + 4.0 * (latency + exec);
        assert!(
            (s.now() - expect).abs() < 1e-12,
            "got {}, expect {expect}",
            s.now()
        );
    }

    /// Four low-occupancy kernels on four streams run ~concurrently,
    /// beating the single-stream schedule by close to 4×.
    #[test]
    fn streams_overlap_low_occupancy_kernels() {
        let w = 1e8;
        let run = |use_streams: bool| {
            let mut s = dev();
            for i in 0..4 {
                let stream = if use_streams { i } else { 0 };
                // 20 blocks: occupancy 0.25 on 80 SMs.
                s.launch(
                    LaunchConfig::new("k", 20).stream(stream),
                    WorkEstimate::flops(w),
                );
            }
            s.synchronize();
            s.now()
        };
        let serial = run(false);
        let overlapped = run(true);
        assert!(
            overlapped < serial * 0.35,
            "4 streams {overlapped} not ≪ 1 stream {serial}"
        );
    }

    /// Streams also hide launch latency for saturating kernels.
    #[test]
    fn streams_hide_latency_for_tiny_kernels() {
        // Exec time comparable to launch latency: latency matters.
        let w = spec().sustained_gflops() * 1e9 * spec().launch_latency_s; // exec == latency
        let run = |nstreams: usize| {
            let mut s = dev();
            for i in 0..64 {
                s.launch(
                    LaunchConfig::new("k", 1000).stream(i % nstreams),
                    WorkEstimate::flops(w),
                );
            }
            s.synchronize();
            s.now()
        };
        let one = run(1);
        let four = run(4);
        assert!(four < one, "4 streams {four} !< 1 stream {one}");
        // With latency hidden the lower bound is the pure exec sum.
        let exec_sum = 64.0 * spec().exec_seconds(w, 0.0);
        assert!(four >= exec_sum - 1e-12);
    }

    /// Saturating kernels gain (almost) nothing from streams: the device
    /// is the bottleneck either way.
    #[test]
    fn saturating_kernels_gain_little_from_streams() {
        let w = 1e10; // exec ≫ latency
        let run = |nstreams: usize| {
            let mut s = dev();
            for i in 0..8 {
                s.launch(
                    LaunchConfig::new("k", 4000).stream(i % nstreams),
                    WorkEstimate::flops(w),
                );
            }
            s.synchronize();
            s.now()
        };
        let one = run(1);
        let four = run(4);
        assert!(four <= one);
        assert!(
            four > one * 0.95,
            "streams should not speed up saturated device: {four} vs {one}"
        );
    }

    #[test]
    fn transfer_advances_clock() {
        let mut s = dev();
        s.transfer(12_000_000_000); // 1 s at 12 GB/s + latency
        assert!((s.now() - (1.0 + spec().pcie_latency_s)).abs() < 1e-9);
        // Transfers drain kernels first.
        s.launch(LaunchConfig::new("k", 1000), WorkEstimate::flops(1e9));
        let before = s.now();
        s.transfer(0);
        assert!(s.now() > before + spec().pcie_latency_s - 1e-12);
        assert_eq!(s.kernel_events().len(), 1);
    }

    #[test]
    fn synchronize_idempotent() {
        let mut s = dev();
        s.launch(LaunchConfig::new("k", 100), WorkEstimate::flops(1e6));
        s.synchronize();
        let t = s.now();
        s.synchronize();
        assert_eq!(s.now(), t);
    }

    #[test]
    fn stream_index_wraps() {
        let mut s = dev();
        s.launch(
            LaunchConfig::new("k", 10).stream(7), // 7 % 4 = 3
            WorkEstimate::flops(1e6),
        );
        s.synchronize();
        assert_eq!(s.kernel_events().len(), 1);
    }

    /// A kernel enqueued after `advance_host_to(t)` cannot start before
    /// `t`: the issue time is gated on the advanced host clock.
    #[test]
    fn advance_host_to_gates_issue_times() {
        let mut s = dev();
        let t0 = 1.0;
        s.advance_host_to(t0);
        s.launch(LaunchConfig::new("k", 1000), WorkEstimate::flops(1e8));
        s.synchronize();
        let expect =
            t0 + spec().host_enqueue_s + spec().launch_latency_s + spec().exec_seconds(1e8, 0.0);
        assert!((s.now() - expect).abs() < 1e-12, "got {}", s.now());
        // Moving backwards is a no-op.
        s.advance_host_to(0.0);
        s.synchronize();
        assert!((s.now() - expect).abs() < 1e-12);
    }

    /// `occupy_until` delays every stream's first exec phase without
    /// charging enqueue or launch-latency costs for the occupied block.
    #[test]
    fn occupy_until_blocks_all_streams() {
        let busy = 2.0;
        let w = 1e8;
        let mut s = dev();
        s.occupy_until(busy);
        for i in 0..4 {
            s.launch(
                LaunchConfig::new("k", 1000).stream(i),
                WorkEstimate::flops(w),
            );
        }
        s.synchronize();
        // All four saturating kernels start after `busy` and serialize on
        // the device (demand 1.0 each): latency overlaps across streams,
        // exec phases share the device.
        let exec = spec().exec_seconds(w, 0.0);
        assert!(s.now() >= busy + 4.0 * exec - 1e-12, "now {}", s.now());
        // With nothing enqueued, synchronize still lands at the occupied
        // time, not before.
        let mut idle = dev();
        idle.occupy_until(busy);
        idle.synchronize();
        assert!((idle.now() - busy).abs() < 1e-15);
    }

    /// Kernel events reconstruct the schedule: one event per retired
    /// kernel, exec windows inside [issue + latency, synchronize time],
    /// same-stream events non-overlapping, log order = enqueue order —
    /// with no sort, although overlapping streams retire out of order.
    #[test]
    fn kernel_events_describe_the_schedule() {
        let mut s = dev();
        for i in 0..8 {
            s.launch(
                LaunchConfig::new("k", 40).stream(i % 4),
                WorkEstimate::flops(1e8),
            );
        }
        s.synchronize();
        let events = s.kernel_events();
        assert_eq!(events.len(), 8);
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        for e in events {
            assert!(e.issue_s + spec().launch_latency_s <= e.start_s + 1e-15);
            assert!(e.start_s < e.end_s);
            assert!(e.end_s <= s.now() + 1e-15);
            // Exec stretched or equal, never compressed.
            assert!(e.end_s - e.start_s >= spec().exec_seconds(1e8, 0.0) - 1e-15);
        }
        // In-order streams: same-stream events serialize.
        for a in events {
            for b in events {
                if a.seq < b.seq && a.stream == b.stream {
                    assert!(a.end_s <= b.start_s + 1e-15);
                }
            }
        }
        // A short kernel overtakes a long one enqueued before it on
        // another stream; the log keeps enqueue order.
        let mut s = dev();
        s.launch(LaunchConfig::new("long", 40), WorkEstimate::flops(1e10));
        s.launch(
            LaunchConfig::new("short", 40).stream(1),
            WorkEstimate::flops(1e6),
        );
        s.synchronize();
        let [long, short] = s.kernel_events() else {
            panic!("two launches, two records")
        };
        assert_eq!(
            (long.name, long.seq, short.name, short.seq),
            ("long", 0, "short", 1)
        );
        assert!(short.end_s < long.end_s, "the short kernel retires first");
    }

    /// A pipelined caller's schedule: a block occupies the device, then
    /// each chunk's launches are gated on its ready time and cycle over
    /// the streams. Every record's exec window opens no earlier than its
    /// own issue plus the launch latency, its issue no earlier than its
    /// chunk's ready time, and the last retirement is the clock.
    #[test]
    fn gated_round_robin_records_start_after_their_issue() {
        let mut s = dev();
        s.occupy_until(0.05);
        let mut stream = 0;
        for (ready, launches) in [(0.1, 3), (0.3, 2)] {
            s.advance_host_to(ready);
            for _ in 0..launches {
                s.launch(
                    LaunchConfig::new("k", 1000).stream(stream),
                    WorkEstimate::flops(1e8),
                );
                stream += 1;
            }
        }
        s.synchronize();
        let events = s.kernel_events();
        assert_eq!(events.len(), 5);
        for e in events {
            let ready = if e.seq < 3 { 0.1 } else { 0.3 };
            assert!(e.issue_s >= ready);
            assert!(e.issue_s + spec().launch_latency_s <= e.start_s + 1e-15);
            assert!(e.start_s < e.end_s);
        }
        let last = events.iter().fold(0.0f64, |m, e| m.max(e.end_s));
        assert_eq!(last, s.now());
    }

    /// The profile over a mixed two-class, two-stream schedule: each row
    /// is its class's launches, blocks, flops and exec seconds summed by
    /// hand.
    #[test]
    fn profile_table_sums_each_class_in_seq_order() {
        let mut s = dev();
        s.launch(
            LaunchConfig::new("direct", 100).stream(0),
            WorkEstimate::flops(1e9),
        );
        s.launch(
            LaunchConfig::new("approx", 50).stream(1),
            WorkEstimate::new(5e9, 1e9),
        );
        s.launch(
            LaunchConfig::new("direct", 300).stream(1),
            WorkEstimate::flops(3e9),
        );
        s.synchronize();
        assert_eq!(s.kernel_events().len(), 3);
        let exec = |f: f64, b: f64| spec().exec_seconds(f, b) * 1e3;
        let expect = format!(
            "kernel                    launches      blocks(avg)      GFLOP     exec(ms)\n\
             approx                           1             50.0      5.000 {:>12.3}\n\
             direct                           2            200.0      4.000 {:>12.3}\n",
            exec(5e9, 1e9),
            exec(1e9, 0.0) + exec(3e9, 0.0),
        );
        assert_eq!(crate::profile_table(s.kernel_events()), expect);
    }

    #[test]
    fn table_lists_all_classes() {
        let mut s = dev();
        s.launch(LaunchConfig::new("b_kernel", 1), WorkEstimate::flops(1.0));
        s.launch(LaunchConfig::new("a_kernel", 1), WorkEstimate::flops(1.0));
        let t = crate::profile_table(&s.into_kernel_events());
        assert!(t.contains("a_kernel"));
        assert!(t.contains("b_kernel"));
        // BTreeMap ⇒ sorted order.
        assert!(t.find("a_kernel").unwrap() < t.find("b_kernel").unwrap());
    }

    /// A reserved log takes its launches without regrowing.
    #[test]
    fn reserved_log_never_regrows() {
        let mut s = dev();
        s.reserve(5);
        let capacity = s.events.capacity();
        assert!(capacity >= 5);
        for _ in 0..5 {
            s.launch(LaunchConfig::new("k", 1), WorkEstimate::flops(1.0));
        }
        assert_eq!(s.events.capacity(), capacity);
    }
}
