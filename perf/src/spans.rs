//! Wall-clock spans recorded from outside the library.
//!
//! The traced pass wraps every library call the harness makes in a
//! span `{op, layer, name, start, end, parent}`. Spans stay in memory
//! until the run ends and are then written as Chrome trace-event JSON
//! (one track per layer), the format `bltc-trace` exports for modeled
//! time — so a wall-clock trace and a modeled trace open side by side
//! in Perfetto. Spans inside the library are a later change; until
//! then a layer's time is what its public calls take.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::api::Json;
use crate::stats;

/// One timed interval. `parent` indexes the enclosing span in the
/// recorder's span list; the root span of an op has none.
#[derive(Debug, Clone, PartialEq)]
pub struct WallSpan {
    /// Index of the op this span belongs to (spans of one op share it).
    pub op: u32,
    /// The layer (crate) the call enters.
    pub layer: &'static str,
    /// The metric stem: span `tree_build` on layer `core` feeds
    /// `core.tree_build_s`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
}

impl WallSpan {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (see [`Recorder::begin`]).
#[derive(Debug)]
#[must_use = "an open span must be closed with Recorder::end"]
pub struct Open(u32);

/// In-memory span sink for one traced run.
pub struct Recorder {
    t0: Instant,
    spans: Vec<WallSpan>,
    stack: Vec<u32>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Advance to the next op: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(WallSpan {
            op: self.op,
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close a span; returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `open` is the innermost open span (spans nest).
    pub fn end(&mut self, open: Open) -> f64 {
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans must close innermost-first"
        );
        let now = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        span.seconds()
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer, name);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[WallSpan] {
        &self.spans
    }

    /// Durations of every span named `layer.name`, in recording order.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(WallSpan::seconds)
            .collect()
    }

    /// Median duration of the spans named `layer.name`, if any ran.
    pub fn median(&self, layer: &str, name: &str) -> Option<f64> {
        let d = self.durations(layer, name);
        (!d.is_empty()).then(|| stats::median(&d))
    }
}

/// Self seconds of every span: its duration minus the part of that
/// interval its direct children cover (children of one span never
/// overlap here — the harness is one thread — so the covered part is
/// the sum of their durations).
pub fn self_seconds(spans: &[WallSpan]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(WallSpan::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.seconds();
        }
    }
    own
}

/// Total self seconds per layer.
pub fn self_seconds_by_layer(spans: &[WallSpan]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_seconds(spans)) {
        *by_layer.entry(s.layer).or_insert(0.0) += own;
    }
    by_layer
}

/// Render spans as Chrome trace-event JSON: process `workload`, one
/// thread per layer (ids by sorted layer name), one complete (`"X"`)
/// event per span with its op, parent and self time in `args`.
pub fn chrome_trace(workload: &str, spans: &[WallSpan]) -> String {
    let tids: BTreeMap<&str, u64> = spans
        .iter()
        .map(|s| s.layer)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .zip(1..)
        .collect();
    let meta = |name: &str, tid: u64, value: &str| {
        Json::obj()
            .field("name", Json::s(name))
            .field("ph", Json::s("M"))
            .field("pid", Json::u(1))
            .field("tid", Json::u(tid))
            .field("args", Json::obj().field("name", Json::s(value)))
    };
    let mut events = vec![meta("process_name", 0, workload)];
    events.extend(
        tids.iter()
            .map(|(layer, &tid)| meta("thread_name", tid, layer)),
    );
    for (s, own) in spans.iter().zip(self_seconds(spans)) {
        let mut args = Json::obj()
            .field("op", Json::u(u64::from(s.op)))
            .field("self_us", Json::f(own * 1e6, 3));
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            args = args.field(
                "parent",
                Json::s(format!("{}.{}", parent.layer, parent.name)),
            );
        }
        events.push(
            Json::obj()
                .field("name", Json::s(s.name))
                .field("cat", Json::s(s.layer))
                .field("ph", Json::s("X"))
                .field("ts", Json::f(s.start_ns as f64 * 1e-3, 3))
                .field("dur", Json::f((s.end_ns - s.start_ns) as f64 * 1e-3, 3))
                .field("pid", Json::u(1))
                .field("tid", Json::u(tids[s.layer]))
                .field("args", args),
        );
    }
    Json::obj()
        .field("displayTimeUnit", Json::s("ns"))
        .field("traceEvents", Json::arr(events))
        .render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> WallSpan {
        WallSpan {
            op: 0,
            layer,
            name: "x",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0, 100) ⊃ core [10, 40) ⊃ gpu [15, 25); op ⊃ core [50, 90).
        let spans = [
            span("bench", 0, 100, None),
            span("core", 10, 40, Some(0)),
            span("gpu", 15, 25, Some(1)),
            span("core", 50, 90, Some(0)),
        ];
        let own: Vec<u64> = self_seconds(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        // The grandchild is charged to its parent only, not to the root.
        assert_eq!(own, [30, 20, 10, 40]);
        let by_layer = self_seconds_by_layer(&spans);
        assert!((by_layer["core"] - 60e-9).abs() < 1e-15);
        // Self times partition the root: nothing lost, nothing counted twice.
        let total: f64 = by_layer.values().sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_numbers_ops() {
        let mut rec = Recorder::new();
        let op = rec.begin("bench", "op");
        rec.time("core", "tree_build", || ());
        rec.end(op);
        rec.next_op();
        rec.time("mpi", "spmd_spawn", || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[0].op, spans[2].op), (0, 1));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(rec.durations("core", "tree_build").len(), 1);
        assert!(rec.median("core", "nope").is_none());
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_panics() {
        let mut rec = Recorder::new();
        let outer = rec.begin("bench", "op");
        let _inner = rec.begin("core", "eval");
        rec.end(outer);
    }

    #[test]
    fn chrome_trace_has_one_track_per_layer() {
        let spans = [
            span("bench", 0, 2_000, None),
            span("core", 500, 1_500, Some(0)),
        ];
        let json = chrome_trace("w", &spans);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"args\":{\"name\":\"bench\"}"));
        assert!(json.contains("\"args\":{\"name\":\"core\"}"));
        assert!(json.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(json.contains("\"parent\":\"bench.x\""));
        assert!(json.contains("\"self_us\":1.000"));
    }
}
