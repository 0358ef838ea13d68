//! In-memory span recorder for traced runs.
//!
//! The benchmark opens one span around every call it makes into a layer's
//! public function. Each span keeps its name, start and end (seconds since
//! the tracer's epoch), the span that encloses it and the id of the run
//! (one measured iteration, or one set-up) it belongs to. Spans stay in
//! memory until the run ends; [`Tracer::self_times`] then charges every
//! span its duration minus the time its child spans cover, and
//! [`write_spans`] writes them out.
//!
//! A disabled tracer records nothing: its guards are inert, so the
//! untraced runs that produce the end-to-end metrics pay one branch per
//! call.
//!
//! Every span is opened on the benchmark's own (main) thread; parallel
//! work happens inside the layers, so one stack suffices.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// The run (set-up or iteration) this span belongs to.
    pub run: u32,
    /// The layer function called, e.g. `klayout.os_layout`.
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch (`NaN` while still open).
    pub end: f64,
}

/// The recorder. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: std::cell::Cell<bool>,
    epoch: Instant,
    run: std::cell::Cell<u32>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
}

/// Closes its span when dropped; inert for a disabled tracer.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: Option<u32>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.epoch.elapsed().as_secs_f64();
            self.tracer.spans.borrow_mut()[id as usize].end = end;
            let popped = self.tracer.stack.borrow_mut().pop();
            debug_assert_eq!(popped, Some(id), "spans close in stack order");
        }
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: std::cell::Cell::new(enabled),
            epoch: Instant::now(),
            run: std::cell::Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Tags the spans opened from now on with run id `run`.
    pub fn set_run(&self, run: u32) {
        self.run.set(run);
    }

    /// Opens a span named `name`, closed when the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.borrow().last().copied();
        spans.push(Span {
            id,
            parent,
            run: self.run.get(),
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.stack.borrow_mut().push(id);
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time per span name, summed over the spans of run `run`: each
    /// span's duration minus the durations of its direct children.
    #[must_use]
    pub fn self_times(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_time = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p as usize] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            if s.run != run {
                continue;
            }
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - child_time[s.id as usize];
        }
        out
    }
}

/// Writes spans as one JSON object per line.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
            s.id, s.run, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(secs: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < secs {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.set_run(7);
        {
            let _outer = t.span("outer");
            spin(0.002);
            {
                let _inner = t.span("inner");
                spin(0.004);
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].run, 7);
        let st = t.self_times(7);
        let outer = spans[0].end - spans[0].start;
        let inner = spans[1].end - spans[1].start;
        assert!((st["outer"] - (outer - inner)).abs() < 1e-9);
        assert!((st["inner"] - inner).abs() < 1e-9);
        assert!(t.self_times(1).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _g = t.span("x");
        }
        assert!(t.spans().is_empty());
    }
}
