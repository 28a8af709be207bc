//! # bltc-trace — deterministic tracing and metrics for the BLTC stack
//!
//! Every clock in this workspace is *modeled*: a pure function of exact
//! work counts, never wall time. This crate turns those clocks into
//! first-class observability artifacts without perturbing a single bit
//! of the computation they describe:
//!
//! - [`Span`] — one interval of modeled time on a named resource
//!   [`Track`] (`host/{rank}`, `nic/{rank}`, `pcie/{rank}`,
//!   `device/{rank}/stream/{s}`, or the driver), carrying typed
//!   attributes: the serial [`Phase`] it bills against, its exact
//!   billed seconds, bytes, flops, LET chunk/target ids, resident-byte
//!   watermarks, and tenant/job identity.
//! - [`TraceRecorder`] — the driver-side accumulator: absorbs each
//!   epoch's spans from the ranks' reports (shifting each epoch onto a
//!   continuous per-job timeline), stamps tenant/job context, and
//!   exports.
//! - [`chrome_trace`] — Chrome trace-event JSON, loadable in Perfetto
//!   or `chrome://tracing`, with a fully deterministic field order and
//!   span ordering (byte-identical run-to-run).
//! - [`flame_summary`] — a compact text flamegraph-style rollup of
//!   billed seconds per track and per phase.
//! - [`Histogram`] / [`MetricsSnapshot`] — fixed-bucket histograms and
//!   counter/gauge snapshots for per-tenant metering.
//! - [`json`] — the deterministic insertion-ordered JSON writer shared
//!   by the exporters and the bench bins.
//!
//! ## The invisibility contract
//!
//! Spans are *derived* from modeled clocks after the fact — nothing in
//! the computation ever reads them — so attaching a recorder or not is
//! bitwise invisible to potentials, forces, trajectories, traffic
//! matrices, and every modeled clock. `tests/trace.rs` (workspace
//! tier-1) pins this, along with exact reconciliation: per-phase span
//! billed-second sums equal the serial `RankReport` phase totals, the
//! latest span end equals `pipelined_s`, and NIC span bytes equal the
//! drained `TrafficMatrix` bytes.
//!
//! ```
//! use bltc_trace::{chrome_trace, Phase, Span, Track, TraceRecorder};
//!
//! let rec = TraceRecorder::new();
//! rec.absorb_epoch(&[Span::new(Track::Host(0), "build", 0.0, 1.5e-4)
//!     .phase(Phase::SetupHost)
//!     .billed(1.5e-4)]);
//! let spans = rec.spans();
//! assert_eq!(spans.len(), 1);
//! let json = chrome_trace(&spans);
//! assert!(json.contains("\"name\":\"build\""));
//! assert_eq!(json, chrome_trace(&rec.spans()), "byte-deterministic");
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use export::{chrome_trace, flame_summary};
pub use metrics::{Histogram, MetricsSnapshot};
pub use recorder::{sort_spans, TraceRecorder};
pub use span::{Phase, Span, Track};
