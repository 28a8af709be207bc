//! The driver-side trace accumulator.
//!
//! Each rank's report carries the spans of its epoch; the driver hands
//! every rank's, in rank order, to one [`TraceRecorder::absorb_epoch`].
//! The recorder's job is purely editorial — it never feeds anything
//! back into the computation:
//!
//! - **epoch stitching** — every epoch's spans start at modeled time 0
//!   on their rank; [`TraceRecorder::absorb_epoch`] shifts them by the
//!   running cursor and advances the cursor by the epoch makespan, so a
//!   multi-epoch run (a time-stepped trajectory, a service job) becomes
//!   one continuous timeline;
//! - **context stamping** — a recorder built with
//!   [`TraceRecorder::for_job`] stamps every absorbed span with the
//!   tenant and job id, which is what makes service traces partition
//!   cleanly by tenant;
//! - **deterministic export** — [`TraceRecorder::spans`] returns the
//!   spans sorted by their total ordering key, so exported traces are
//!   byte-identical run-to-run regardless of worker absorb order.

use std::sync::Mutex;

use crate::span::Span;

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    cursor_s: f64,
}

/// Accumulates spans across epochs onto one continuous modeled
/// timeline. Interior-mutable (`&self` methods) so drivers can share it
/// behind an `Arc` without plumbing `&mut` through integrator loops.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    inner: Mutex<Inner>,
    tenant: Option<u64>,
    job: Option<u64>,
}

impl TraceRecorder {
    /// A context-free recorder (single-driver runs).
    pub fn new() -> Self {
        Self::default()
    }

    /// A job-scoped recorder: every absorbed or pushed span is stamped
    /// with `tenant` and `job`.
    pub fn for_job(tenant: u64, job: u64) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            tenant: Some(tenant),
            job: Some(job),
        }
    }

    /// Current timeline cursor: where the next absorbed epoch begins.
    pub fn cursor_s(&self) -> f64 {
        self.inner.lock().expect("recorder lock").cursor_s
    }

    /// Absorb one epoch's spans: shift each onto the running timeline,
    /// stamp context, and advance the cursor by the epoch makespan (the
    /// latest shifted span end). Returns the makespan (0.0 for an epoch
    /// that produced no spans).
    pub fn absorb_epoch<'a>(&self, spans: impl IntoIterator<Item = &'a Span>) -> f64 {
        let mut inner = self.inner.lock().expect("recorder lock");
        let offset = inner.cursor_s;
        let mut end = offset;
        for s in spans {
            let mut s = *s;
            s.start_s += offset;
            s.end_s += offset;
            if self.tenant.is_some() {
                s.tenant = self.tenant;
                s.job = self.job;
            }
            end = end.max(s.end_s);
            inner.spans.push(s);
        }
        inner.cursor_s = end;
        end - offset
    }

    /// Push one span at absolute timeline coordinates (driver-level
    /// step/migration/job envelopes). Context is stamped; the cursor is
    /// not advanced.
    pub fn push_absolute(&self, mut span: Span) {
        if self.tenant.is_some() {
            span.tenant = self.tenant;
            span.job = self.job;
        }
        self.inner.lock().expect("recorder lock").spans.push(span);
    }

    /// Advance the cursor without absorbing spans (an epoch whose work
    /// is modeled but produced no rank-side spans).
    pub fn advance(&self, dt_s: f64) {
        self.inner.lock().expect("recorder lock").cursor_s += dt_s.max(0.0);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock").spans.len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministically sorted copy of all recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.inner.lock().expect("recorder lock").spans.clone();
        sort_spans(&mut v);
        v
    }

    /// Drain all recorded spans (deterministically sorted), resetting
    /// the recorder's span list but keeping its cursor and context.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut v = std::mem::take(&mut self.inner.lock().expect("recorder lock").spans);
        sort_spans(&mut v);
        v
    }
}

/// Sort spans by their total deterministic key — the order every
/// exporter relies on for byte-identical output.
pub fn sort_spans(spans: &mut [Span]) {
    spans.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, Track};

    fn span(start: f64, end: f64) -> Span {
        Span::new(Track::Host(0), "s", start, end).phase(Phase::SetupHost)
    }

    #[test]
    fn epochs_stitch_onto_one_timeline() {
        let rec = TraceRecorder::new();
        assert_eq!(rec.absorb_epoch(&[span(0.0, 2.0), span(1.0, 3.0)]), 3.0);
        assert_eq!(rec.cursor_s(), 3.0);
        assert_eq!(rec.absorb_epoch(&[span(0.0, 1.5)]), 1.5);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].start_s, 3.0);
        assert_eq!(spans[2].end_s, 4.5);
    }

    #[test]
    fn job_context_is_stamped() {
        let rec = TraceRecorder::for_job(7, 42);
        rec.absorb_epoch(&[span(0.0, 1.0)]);
        rec.push_absolute(span(0.0, 1.0));
        for s in rec.spans() {
            assert_eq!((s.tenant, s.job), (Some(7), Some(42)));
        }
    }

    #[test]
    fn take_spans_drains_but_keeps_cursor() {
        let rec = TraceRecorder::new();
        rec.absorb_epoch(&[span(0.0, 1.0)]);
        assert_eq!(rec.take_spans().len(), 1);
        assert!(rec.is_empty());
        assert_eq!(rec.cursor_s(), 1.0);
    }

    #[test]
    fn sorted_output_is_insertion_order_independent() {
        let a = TraceRecorder::new();
        a.push_absolute(span(1.0, 2.0));
        a.push_absolute(span(0.0, 1.0));
        let b = TraceRecorder::new();
        b.push_absolute(span(0.0, 1.0));
        b.push_absolute(span(1.0, 2.0));
        assert_eq!(a.spans(), b.spans());
    }

    #[test]
    fn empty_epoch_leaves_cursor_alone() {
        let rec = TraceRecorder::new();
        rec.absorb_epoch(&[span(0.0, 1.0)]);
        assert_eq!(rec.absorb_epoch(&[]), 0.0);
        assert_eq!(rec.cursor_s(), 1.0);
        rec.advance(0.5);
        assert_eq!(rec.cursor_s(), 1.5);
    }
}
