//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each of its own calls into the
//! simulator (machine construction, runs, submissions, scheduling
//! steps, digests). Spans nest by call order; a span's *self time* is
//! its duration minus the part its direct children cover. At the end
//! the spans are written as Chrome trace-event JSON, one track per job.
//!
//! A tracer built with [`Tracer::off`] records nothing: `begin`/`end`
//! are a branch each, so untraced passes pay about nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Track of the pass-level span and of fleet-wide calls.
pub const TRACK_PASS: u32 = 0;
/// Track of the set-up spans.
pub const TRACK_SETUP: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.run`.
    pub name: &'static str,
    /// What the call worked on, e.g. `matmul.131k`.
    pub label: String,
    /// Chrome-trace track (job index + 1, or a `TRACK_*` constant).
    pub track: u32,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Handle of an open span.
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    tracks: BTreeMap<u32, String>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: None,
            spans: Vec::new(),
            stack: Vec::new(),
            tracks: BTreeMap::new(),
        }
    }

    /// A recording tracer whose timestamps count from `origin`.
    pub fn on(origin: Instant) -> Self {
        Self {
            origin: Some(origin),
            ..Self::off()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.origin.is_some()
    }

    /// Names a track (no-op when off).
    pub fn name_track(&mut self, track: u32, name: impl FnOnce() -> String) {
        if self.is_on() {
            self.tracks.insert(track, name());
        }
    }

    /// Opens a span; `label` is only evaluated when recording.
    #[inline]
    pub fn begin(
        &mut self,
        name: &'static str,
        track: u32,
        label: impl FnOnce() -> String,
    ) -> Open {
        let Some(origin) = self.origin else {
            return Open(None);
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            label: label(),
            track,
            start_ns: origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, open: Open) {
        let (Some(index), Some(origin)) = (open.0, self.origin) else {
            return;
        };
        let now = origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[index];
        span.dur_ns = now - span.start_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends `other`'s spans and track names (same origin assumed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.tracks.extend(other.tracks);
    }

    /// Self time of every span, in nanoseconds, in opening order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of the spans named `name`, in opening order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Share of span `index`'s duration covered by its direct children.
    pub fn coverage(&self, index: usize) -> f64 {
        let dur = self.spans[index].dur_ns;
        if dur == 0 {
            return 1.0;
        }
        1.0 - self.self_ns()[index] as f64 / dur as f64
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, one
    /// named thread per track).
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        let mut sep = |s: &mut String| {
            if !std::mem::take(&mut first) {
                s.push_str(",\n");
            }
        };
        for (track, name) in &self.tracks {
            sep(&mut s);
            let _ = write!(
                s,
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {track}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(name)
            );
        }
        for span in &self.spans {
            sep(&mut s);
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"label\": \"{}\"}}}}",
                span.name,
                span.track,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                escape(&span.label)
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {}
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("x", 0, || unreachable!("label built while off"));
        t.end(s);
        assert!(t.spans().is_empty());
        assert!(!t.is_on());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on(Instant::now());
        let outer = t.begin("pass", TRACK_PASS, String::new);
        let inner = t.begin("core.run", 1, || "a\"b".into());
        spin(4);
        t.end(inner);
        spin(1);
        t.end(outer);
        let own = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0] + t.spans()[1].dur_ns, t.spans()[0].dur_ns);
        assert!(t.coverage(0) > 0.5 && t.coverage(0) < 1.0);
        t.name_track(1, || "job 0".into());
        let v = crate::json::parse(&t.chrome_json()).expect("valid trace JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3);
    }
}
