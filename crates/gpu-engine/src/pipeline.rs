//! Stream-aware dispatch of remote-evaluation chunks — the device leg of
//! the pipelined rank epoch.
//!
//! A pipelined rank overlaps its local-batch evaluation with the LET
//! fetch: remote-evaluation batches are held back until the chunk of LET
//! data they read has landed, then launched onto the simulated
//! asynchronous streams. This module models exactly that dispatch on the
//! `gpu-sim` discrete-event scheduler:
//!
//! - the **local block** (HtD staging, precompute, local compute) is
//!   charged as one monolithic occupancy interval via
//!   [`Scheduler::occupy_until`] — it pays no per-kernel launch costs
//!   here because the serial clock already charged them, and an extra
//!   enqueue would break the `pipelined == serial` identity on one rank;
//! - each **remote chunk** becomes `launches` saturating kernels whose
//!   exec phases split the chunk's exec seconds evenly; their issue is
//!   gated on the chunk's ready time via [`Scheduler::advance_host_to`],
//!   and stream ids cycle round-robin so launch latencies on one stream
//!   hide behind exec phases on another (§3.2's motivation for streams).
//!
//! With one stream the schedule still overlaps communication with
//! compute but serializes every launch latency; with ≥2 streams the
//! latencies vanish from the critical path — the per-stream win the
//! distributed ablation sweeps measure.
//!
//! Chunks with zero launches are skipped **before** their ready-time
//! gate. Memory-budgeted LET streaming can close a chunk around
//! clusters that no remote-evaluation batch reads (pure skeleton
//! padding), and such a chunk must neither stall the host clock at its
//! land time nor emit phantom kernels.

use gpu_sim::{DeviceSpec, KernelEvent, LaunchConfig, Scheduler, WorkEstimate};

/// One LET chunk's worth of remote-evaluation work, ready for dispatch.
#[derive(Debug, Clone, Copy)]
pub struct RemoteChunkWork {
    /// Earliest time the chunk's kernels may be issued (its LET data has
    /// landed, been unpacked, and been staged onto the device).
    pub ready_s: f64,
    /// Full-device exec seconds of the chunk's kernels combined (its
    /// proportional share of the aggregate remote roofline time).
    pub exec_s: f64,
    /// Batch–cluster kernel launches the chunk contains.
    pub launches: u64,
}

/// Outcome of dispatching a rank's remote chunks behind its local block.
#[derive(Debug, Clone)]
pub struct ChunkDispatchReport {
    /// Time the device retires the last kernel (or finishes the local
    /// block when no chunks exist).
    pub done_s: f64,
    /// Per-kernel lifetimes in enqueue order. The dispatcher enqueues
    /// chunks in land order, `launches` kernels each (zero-launch chunks
    /// skipped), so `events[k]` correlates back to its chunk by walking
    /// that order. Observational only.
    pub events: Vec<KernelEvent>,
}

/// Dispatch `chunks` (in land order) onto `streams` simulated streams of
/// `spec`, behind a local block that occupies the device until
/// `local_busy_until_s`. Returns when the device drains.
///
/// Deterministic: the schedule depends only on the arguments, never on
/// host threads or wall time.
pub fn dispatch_remote_chunks(
    spec: &DeviceSpec,
    streams: usize,
    local_busy_until_s: f64,
    chunks: &[RemoteChunkWork],
) -> ChunkDispatchReport {
    let mut spec = *spec;
    spec.num_streams = streams.max(1);
    let mut sched = Scheduler::new(spec);
    sched.occupy_until(local_busy_until_s);

    let mut stream = 0usize;
    for chunk in chunks {
        if chunk.launches == 0 {
            continue;
        }
        sched.advance_host_to(chunk.ready_s);
        // Saturating kernels (one block per SM): the schedule is
        // work-conserving, so total exec time is conserved no matter how
        // the streams interleave — streams only hide launch latency.
        let per_launch = chunk.exec_s / chunk.launches as f64;
        let flops = per_launch * spec.sustained_gflops() * 1e9;
        for _ in 0..chunk.launches {
            sched.enqueue(
                LaunchConfig::new("remote-chunk", spec.sm_count, 256).stream(stream),
                WorkEstimate::flops(flops),
            );
            stream = stream.wrapping_add(1);
        }
    }
    sched.synchronize();
    ChunkDispatchReport {
        done_s: sched.now(),
        events: sched.drain_kernel_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::p100()
    }

    #[test]
    fn no_chunks_is_exactly_the_local_block() {
        let rep = dispatch_remote_chunks(&spec(), 4, 1.25, &[]);
        assert_eq!(rep.done_s, 1.25);
        assert_eq!(rep.events.len(), 0);
    }

    #[test]
    fn chunk_waits_for_its_data() {
        let c = RemoteChunkWork {
            ready_s: 3.0,
            exec_s: 0.5,
            launches: 1,
        };
        let rep = dispatch_remote_chunks(&spec(), 4, 0.0, &[c]);
        // Cannot finish before the data landed plus the exec time.
        assert!(rep.done_s >= 3.0 + 0.5, "done {}", rep.done_s);
        assert_eq!(rep.events.len(), 1);
    }

    #[test]
    fn exec_time_is_conserved_across_stream_counts() {
        // Saturating kernels: streams hide latency, never exec time.
        let chunks: Vec<RemoteChunkWork> = (0..8)
            .map(|i| RemoteChunkWork {
                ready_s: i as f64 * 1e-6,
                exec_s: 1e-4,
                launches: 16,
            })
            .collect();
        let one = dispatch_remote_chunks(&spec(), 1, 0.0, &chunks);
        let four = dispatch_remote_chunks(&spec(), 4, 0.0, &chunks);
        let exec_sum: f64 = chunks.iter().map(|c| c.exec_s).sum();
        assert!(one.done_s >= exec_sum);
        assert!(four.done_s >= exec_sum);
        // More streams never hurt, and with 8×16 launch latencies in
        // play they win outright.
        assert!(
            four.done_s < one.done_s,
            "{} !< {}",
            four.done_s,
            one.done_s
        );
    }

    #[test]
    fn zero_launch_chunks_neither_gate_nor_launch() {
        // A launch-free chunk landing absurdly late (as a tight memory
        // budget can produce) must not drag the host clock to its ready
        // time before the real chunk issues.
        let chunks = [
            RemoteChunkWork {
                ready_s: 100.0,
                exec_s: 0.0,
                launches: 0,
            },
            RemoteChunkWork {
                ready_s: 0.1,
                exec_s: 1e-3,
                launches: 2,
            },
        ];
        let rep = dispatch_remote_chunks(&spec(), 2, 0.0, &chunks);
        assert_eq!(rep.events.len(), 2, "phantom kernels from the empty chunk");
        assert!(
            rep.done_s < 1.0,
            "empty chunk gated the schedule: done at {}",
            rep.done_s
        );
    }

    #[test]
    fn deterministic() {
        let chunks = [RemoteChunkWork {
            ready_s: 0.5,
            exec_s: 2e-3,
            launches: 7,
        }];
        let a = dispatch_remote_chunks(&spec(), 2, 0.1, &chunks);
        let b = dispatch_remote_chunks(&spec(), 2, 0.1, &chunks);
        assert_eq!(a.done_s, b.done_s);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn events_cover_every_kernel_in_enqueue_order() {
        let chunks = [
            RemoteChunkWork {
                ready_s: 0.1,
                exec_s: 1e-3,
                launches: 3,
            },
            RemoteChunkWork {
                ready_s: 0.2,
                exec_s: 0.0,
                launches: 0,
            },
            RemoteChunkWork {
                ready_s: 0.3,
                exec_s: 2e-3,
                launches: 2,
            },
        ];
        let rep = dispatch_remote_chunks(&spec(), 2, 0.05, &chunks);
        assert_eq!(rep.events.len(), 5, "zero-launch chunk emits no events");
        assert!(rep.events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        // Chunk 0's kernels (seq 0..3) issue no earlier than its ready
        // time; chunk 1's (seq 3..5) no earlier than theirs.
        for e in &rep.events {
            let ready = if e.seq < 3 { 0.1 } else { 0.3 };
            assert!(e.issue_s >= ready - 1e-15);
        }
        // The last retirement is the report's done time.
        let last = rep.events.iter().fold(0.0f64, |m, e| m.max(e.end_s));
        assert!((last - rep.done_s).abs() < 1e-15);
    }
}
