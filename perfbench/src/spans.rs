//! The benchmark's own spans: one around each call it makes into a
//! layer's public functions, kept in memory and written at exit as one
//! Chrome trace.

use crate::stats::num;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (its parent handle for nested calls).
pub type SpanId = usize;

/// Thread lanes of the trace.
pub const LANE_MAIN: u64 = 0;
/// Lane of the interactive tenant's thread.
pub const LANE_INTERACTIVE: u64 = 1;
/// Lane of the batch tenant's thread.
pub const LANE_BATCH: u64 = 2;

struct Span {
    name: String,
    lane: u64,
    job: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    dur_ns: u64,
}

/// Span recorder. Disabled recorders only time calls.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled` is the run's `--trace` flag.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept: the run is traced.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, returning its result and duration in seconds, and
    /// records a span named `name` on `lane` for `job` under `parent`.
    pub fn time<T>(
        &self,
        name: &str,
        lane: u64,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        if self.enabled {
            self.push(name, lane, job, parent, start, dur.as_nanos() as u64);
        }
        (out, dur.as_secs_f64())
    }

    /// Opens a span whose children are recorded while it is open; close
    /// it with [`Spans::end`].
    pub fn begin(&self, name: &str, lane: u64, job: u64, parent: Option<SpanId>) -> Option<SpanId> {
        self.enabled
            .then(|| self.push(name, lane, job, parent, Instant::now(), 0))
    }

    /// Closes a span opened with [`Spans::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.epoch.elapsed().as_nanos() as u64;
            let mut spans = self.spans.lock().expect("span list poisoned");
            let s = &mut spans[id];
            s.dur_ns = now.saturating_sub(s.start_ns);
        }
    }

    fn push(
        &self,
        name: &str,
        lane: u64,
        job: u64,
        parent: Option<SpanId>,
        start: Instant,
        dur_ns: u64,
    ) -> SpanId {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name: name.to_string(),
            lane,
            job,
            parent,
            start_ns,
            dur_ns,
        });
        spans.len() - 1
    }

    /// The spans as one Chrome trace-event document. Each span's args
    /// carry its job id, parent index and self time: its duration minus
    /// the time its child spans cover.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let self_us = s.dur_ns.saturating_sub(child_ns[i]) as f64 / 1e3;
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \
\"dur\": {}, \"args\": {{\"span\": {i}, \"job\": {}, \"parent\": {}, \"self_us\": {}}}}}",
                s.name.replace('"', "'"),
                s.lane,
                num(s.start_ns as f64 / 1e3),
                num(s.dur_ns as f64 / 1e3),
                s.job,
                s.parent.map_or(-1, |p| p as i64),
                num(self_us)
            );
        }
        out.push_str("]}");
        out
    }
}
