//! The discrete-event stream scheduler.
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

use std::collections::VecDeque;

use crate::spec::DeviceSpec;

/// Kernel launch geometry and placement.
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Kernel class name (profiling key).
    pub name: &'static str,
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Stream index (wrapped modulo the device's stream count).
    pub stream: usize,
}

impl LaunchConfig {
    /// Construct with stream 0.
    pub fn new(name: &'static str, grid_blocks: usize, threads_per_block: usize) -> Self {
        assert!(grid_blocks >= 1, "kernel must have at least one block");
        assert!(
            threads_per_block >= 1,
            "kernel must have at least one thread"
        );
        Self {
            name,
            grid_blocks,
            threads_per_block,
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

#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Enqueue order across all streams (event correlation key).
    seq: u64,
    /// Host clock at enqueue.
    issue: f64,
    /// Full-device exec seconds (roofline).
    work: f64,
    /// Occupancy demand in (0, 1].
    demand: f64,
}

#[derive(Debug, Clone, Copy)]
struct Active {
    seq: u64,
    stream: usize,
    issue: f64,
    start: f64,
    remaining: f64,
    demand: f64,
}

/// The modeled lifetime of one retired kernel — what a trace exporter
/// needs to place the kernel on its stream's timeline. Purely
/// observational: collecting (or dropping) events never changes the
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelEvent {
    /// Enqueue order across all streams (0-based).
    pub seq: u64,
    /// Stream the kernel ran on (post-wrap index).
    pub stream: usize,
    /// Host clock at enqueue.
    pub issue_s: f64,
    /// Start of the exec phase (after launch latency and any stream /
    /// device waiting).
    pub start_s: f64,
    /// Retirement time. `end_s - start_s` ≥ the full-device exec time
    /// whenever the device was shared.
    pub end_s: f64,
}

/// Stream scheduler with a simulated clock.
pub struct Scheduler {
    spec: DeviceSpec,
    /// Simulated wall clock (valid after synchronize/transfer).
    clock: f64,
    /// Host position on the simulated timeline.
    host_clock: f64,
    /// Per-stream pending queues (since the last synchronize).
    queues: Vec<VecDeque<Queued>>,
    /// Per-stream completion time of the last retired kernel.
    stream_tail: Vec<f64>,
    /// Seconds the device spent with nonzero active demand.
    busy_seconds: f64,
    /// Total kernels retired.
    retired: u64,
    /// Enqueue counter (assigns [`KernelEvent::seq`]).
    enqueued: u64,
    /// Lifetimes of retired kernels since the last drain.
    events: Vec<KernelEvent>,
}

impl Scheduler {
    /// New scheduler for a device.
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
            busy_seconds: 0.0,
            retired: 0,
            enqueued: 0,
            events: Vec::new(),
        }
    }

    /// Enqueue a kernel; returns its full-device exec seconds (for the
    /// profiler).
    pub fn enqueue(&mut self, cfg: LaunchConfig, work: WorkEstimate) -> f64 {
        assert!(
            cfg.threads_per_block <= self.spec.max_threads_per_block,
            "threads_per_block {} exceeds device limit {}",
            cfg.threads_per_block,
            self.spec.max_threads_per_block
        );
        self.host_clock += self.spec.host_enqueue_s;
        let exec = self.spec.exec_seconds(work.flops, work.bytes);
        let demand = self.spec.occupancy(cfg.grid_blocks).max(1e-6);
        let s = cfg.stream % self.spec.num_streams;
        let seq = self.enqueued;
        self.enqueued += 1;
        self.queues[s].push_back(Queued {
            seq,
            issue: self.host_clock,
            work: exec,
            demand,
        });
        exec
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

    /// Synchronous PCIe transfer: drains pending kernels, then occupies
    /// the channel for latency + bytes/bandwidth. Host blocks.
    pub fn transfer(&mut self, bytes: f64) {
        self.synchronize();
        let t = self.spec.transfer_seconds(bytes);
        self.clock += t;
        self.host_clock = self.clock;
    }

    /// Drain all pending kernels, advancing the simulated clock to the
    /// last completion (no-op when nothing is pending).
    pub fn synchronize(&mut self) {
        if self.queues.iter().all(|q| q.is_empty()) {
            self.host_clock = self.host_clock.max(self.clock);
            self.clock = self.host_clock;
            return;
        }
        let latency = self.spec.launch_latency_s;
        let ns = self.queues.len();
        let mut t = self.clock;
        let mut active: Vec<Active> = Vec::with_capacity(ns);
        // In-order streams: only the head of each queue is eligible, and
        // only once its predecessor on the same stream has retired.
        let mut stream_busy = vec![false; ns];
        // Earliest time the head of stream s can *start exec* (issue and
        // predecessor constraints plus launch latency).
        let head_start = |q: &VecDeque<Queued>, tail: f64| -> Option<f64> {
            q.front().map(|k| k.issue.max(tail) + latency)
        };

        loop {
            // Promote eligible heads.
            #[allow(clippy::needless_range_loop)]
            for s in 0..ns {
                if stream_busy[s] {
                    continue;
                }
                if let Some(start) = head_start(&self.queues[s], self.stream_tail[s]) {
                    if start <= t + 1e-18 {
                        let k = self.queues[s].pop_front().expect("head exists");
                        active.push(Active {
                            seq: k.seq,
                            stream: s,
                            issue: k.issue,
                            start: start.max(t),
                            remaining: k.work.max(1e-15),
                            demand: k.demand,
                        });
                        stream_busy[s] = true;
                    }
                }
            }

            if active.is_empty() {
                // Jump to the next head start, or finish.
                let next = (0..ns)
                    .filter(|&s| !stream_busy[s])
                    .filter_map(|s| head_start(&self.queues[s], self.stream_tail[s]))
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
                .filter_map(|s| head_start(&self.queues[s], self.stream_tail[s]))
                .filter(|&start| start > t)
                .map(|start| start - t)
                .fold(f64::INFINITY, f64::min);

            let dt = dt_complete.min(dt_arrival).max(1e-18);
            t += dt;
            self.busy_seconds += dt * total_demand.min(1.0);
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
                    self.retired += 1;
                    self.events.push(KernelEvent {
                        seq: a.seq,
                        stream: a.stream,
                        issue_s: a.issue,
                        start_s: a.start,
                        end_s: t,
                    });
                } else {
                    i += 1;
                }
            }
        }

        self.clock = t.max(self.host_clock);
        self.host_clock = self.clock;
    }

    /// The simulated clock (seconds).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Seconds during which the device had nonzero active demand.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }

    /// Kernels retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Take the lifetimes of kernels retired since the last drain,
    /// sorted by enqueue order. Kernels retire out of enqueue order
    /// when streams overlap; the sort makes the drained vector
    /// deterministic and lets callers correlate events back to their
    /// enqueue sequence.
    pub fn drain_kernel_events(&mut self) -> Vec<KernelEvent> {
        let mut ev = std::mem::take(&mut self.events);
        ev.sort_by_key(|e| e.seq);
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::titan_v()
    }

    fn sched() -> Scheduler {
        Scheduler::new(spec())
    }

    /// One saturating kernel: total = enqueue + latency + work.
    #[test]
    fn single_kernel_timing() {
        let mut s = sched();
        let work_flops = 1e9;
        s.enqueue(
            LaunchConfig::new("k", 1000, 256),
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
        assert_eq!(s.retired(), 1);
    }

    /// A low-occupancy kernel runs slower than its full-device time.
    #[test]
    fn low_occupancy_kernel_is_slower() {
        let mut s = sched();
        // 8 blocks on an 80-SM device: occupancy 0.1.
        s.enqueue(LaunchConfig::new("k", 8, 256), WorkEstimate::flops(1e9));
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
        let mut s = sched();
        let w = 1e8;
        for _ in 0..4 {
            s.enqueue(LaunchConfig::new("k", 1000, 256), WorkEstimate::flops(w));
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
            let mut s = sched();
            for i in 0..4 {
                let stream = if use_streams { i } else { 0 };
                // 20 blocks: occupancy 0.25 on 80 SMs.
                s.enqueue(
                    LaunchConfig::new("k", 20, 256).stream(stream),
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
            let mut s = sched();
            for i in 0..64 {
                s.enqueue(
                    LaunchConfig::new("k", 1000, 256).stream(i % nstreams),
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
            let mut s = sched();
            for i in 0..8 {
                s.enqueue(
                    LaunchConfig::new("k", 4000, 256).stream(i % nstreams),
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
        let mut s = sched();
        s.transfer(12e9); // 1 s at 12 GB/s + latency
        assert!((s.now() - (1.0 + spec().pcie_latency_s)).abs() < 1e-9);
        // Transfers drain kernels first.
        s.enqueue(LaunchConfig::new("k", 1000, 256), WorkEstimate::flops(1e9));
        let before = s.now();
        s.transfer(0.0);
        assert!(s.now() > before + spec().pcie_latency_s - 1e-12);
        assert_eq!(s.retired(), 1);
    }

    #[test]
    fn synchronize_idempotent() {
        let mut s = sched();
        s.enqueue(LaunchConfig::new("k", 100, 256), WorkEstimate::flops(1e6));
        s.synchronize();
        let t = s.now();
        s.synchronize();
        assert_eq!(s.now(), t);
    }

    #[test]
    fn stream_index_wraps() {
        let mut s = sched();
        s.enqueue(
            LaunchConfig::new("k", 10, 64).stream(7), // 7 % 4 = 3
            WorkEstimate::flops(1e6),
        );
        s.synchronize();
        assert_eq!(s.retired(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_rejected() {
        let mut s = sched();
        s.enqueue(LaunchConfig::new("k", 1, 4096), WorkEstimate::flops(1.0));
    }

    /// A kernel enqueued after `advance_host_to(t)` cannot start before
    /// `t`: the issue time is gated on the advanced host clock.
    #[test]
    fn advance_host_to_gates_issue_times() {
        let mut s = sched();
        let t0 = 1.0;
        s.advance_host_to(t0);
        s.enqueue(LaunchConfig::new("k", 1000, 256), WorkEstimate::flops(1e8));
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
        let mut s = sched();
        s.occupy_until(busy);
        for i in 0..4 {
            s.enqueue(
                LaunchConfig::new("k", 1000, 256).stream(i),
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
        let mut idle = sched();
        idle.occupy_until(busy);
        idle.synchronize();
        assert!((idle.now() - busy).abs() < 1e-15);
    }

    /// Kernel events reconstruct the schedule: one event per retired
    /// kernel, exec windows inside [issue + latency, synchronize time],
    /// same-stream events non-overlapping, drain order = enqueue order.
    #[test]
    fn kernel_events_describe_the_schedule() {
        let mut s = sched();
        for i in 0..8 {
            s.enqueue(
                LaunchConfig::new("k", 40, 128).stream(i % 4),
                WorkEstimate::flops(1e8),
            );
        }
        s.synchronize();
        let events = s.drain_kernel_events();
        assert_eq!(events.len(), 8);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        for e in &events {
            assert!(e.issue_s + spec().launch_latency_s <= e.start_s + 1e-15);
            assert!(e.start_s < e.end_s);
            assert!(e.end_s <= s.now() + 1e-15);
            // Exec stretched or equal, never compressed.
            assert!(e.end_s - e.start_s >= spec().exec_seconds(1e8, 0.0) - 1e-15);
        }
        // In-order streams: same-stream events serialize.
        for a in &events {
            for b in &events {
                if a.seq < b.seq && a.stream == b.stream {
                    assert!(a.end_s <= b.start_s + 1e-15);
                }
            }
        }
        // Drained: a second drain is empty, retire count unaffected.
        assert!(s.drain_kernel_events().is_empty());
        assert_eq!(s.retired(), 8);
    }

    #[test]
    fn busy_seconds_bounded_by_elapsed() {
        let mut s = sched();
        for i in 0..16 {
            s.enqueue(
                LaunchConfig::new("k", 40, 128).stream(i % 4),
                WorkEstimate::flops(1e8),
            );
        }
        s.synchronize();
        assert!(s.busy_seconds() > 0.0);
        assert!(s.busy_seconds() <= s.now() + 1e-12);
    }
}
