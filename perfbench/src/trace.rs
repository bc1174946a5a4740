//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as NDJSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scenario::Value;

/// Identifies a recorded span; [`NO_SPAN`] when tracing is off.
pub type SpanId = usize;

/// The id an untraced run hands out.
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    layer: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    request: u64,
}

/// Records spans when enabled; every call is a no-op otherwise, so
/// the untraced run executes the same code path.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Opens a span in `layer`; close it with [`Tracer::close`].
    pub fn open(
        &self,
        layer: &'static str,
        name: impl Into<String>,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        let Some(spans) = &self.spans else {
            return NO_SPAN;
        };
        let now = self.epoch.elapsed();
        let mut spans = spans.lock().expect("a span writer panicked");
        spans.push(Span {
            name: name.into(),
            layer,
            start: now,
            end: now,
            parent: (parent != NO_SPAN).then_some(parent),
            request,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        if let Some(spans) = &self.spans {
            let now = self.epoch.elapsed();
            spans.lock().expect("a span writer panicked")[id].end = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: impl Into<String>,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(layer, name, parent, 0);
        let out = f(id);
        self.close(id);
        out
    }

    /// Each layer's self time in seconds: its spans' durations minus
    /// the part their direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let Some(spans) = &self.spans else {
            return out;
        };
        let spans = spans.lock().expect("a span writer panicked");
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        for (s, children) in spans.iter().zip(child_time) {
            let own = (s.end - s.start).saturating_sub(children);
            *out.entry(s.layer).or_insert(0.0) += own.as_secs_f64();
        }
        out
    }

    /// The spans as NDJSON, one object per line, times in
    /// microseconds since the tracer was created.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        let Some(spans) = &self.spans else {
            return out;
        };
        for (id, s) in spans
            .lock()
            .expect("a span writer panicked")
            .iter()
            .enumerate()
        {
            let mut v = Value::obj()
                .with("id", id)
                .with("name", s.name.as_str())
                .with("layer", s.layer)
                .with("start_us", s.start.as_micros() as u64)
                .with("end_us", s.end.as_micros() as u64);
            if let Some(p) = s.parent {
                v = v.with("parent", p);
            }
            if s.request != 0 {
                v = v.with("request", s.request);
            }
            let _ = writeln!(out, "{v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("scenario", "outer", NO_SPAN, |outer| {
            std::thread::sleep(Duration::from_millis(20));
            t.span("core", "inner", outer, |_| {
                std::thread::sleep(Duration::from_millis(30))
            });
        });
        let own = t.self_seconds();
        assert!(own["core"] >= 0.03);
        assert!(own["scenario"] >= 0.02 && own["scenario"] < 0.03 + 0.02);
        assert_eq!(t.to_ndjson().lines().count(), 2);
        let off = Tracer::new(false);
        assert_eq!(off.span("core", "x", NO_SPAN, |id| id), NO_SPAN);
        assert!(off.self_seconds().is_empty());
    }
}
