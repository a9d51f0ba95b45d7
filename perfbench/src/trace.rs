//! The benchmark's wall clock and its in-memory span recorder.
//!
//! Spans are recorded in the benchmark's own code, around calls into a
//! layer's public functions; nothing inside the library is timed. A
//! *shadow* span times a call the benchmark makes only to measure a
//! layer in isolation (for example, replaying a host's operations into
//! a bare `TrustService`). Shadows may be attributed to a parent whose
//! work they mirror; only their own layer's numbers are taken from
//! them.

use std::sync::OnceLock;
use std::time::Instant;
use tsn_core::json::JsonValue;

/// Seconds since the first clock read of the process.
pub fn now() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    // tsn-lint: allow(wall-clock, "the benchmark measures elapsed real time; it never feeds a simulated run")
    let origin = *ORIGIN.get_or_init(Instant::now);
    origin.elapsed().as_secs_f64()
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now();
    let out = f();
    (out, now() - start)
}

/// One recorded span. Times are seconds on the [`now`] clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `host.boundary`.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Whether this span times a shadow call.
    pub shadow: bool,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder. A disabled tracer records nothing.
///
/// Per-operation calls happen millions of times per run, so they are
/// kept as duration samples per name ([`Tracer::op`]), and only every
/// [`OP_SPAN_EVERY`]-th one is also kept as an individual span.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: Vec<(&'static str, Vec<f64>)>,
}

/// Sampling stride for individual per-operation spans.
pub const OP_SPAN_EVERY: usize = 1024;

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (recorded spans are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Every recorded span, in start order of recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a finished span under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: f64, end: f64, shadow: bool) -> usize {
        let parent = self.open.last().copied();
        self.record_under(name, start, end, parent, shadow)
    }

    /// Records a finished span under an explicit parent.
    pub fn record_under(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        shadow: bool,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            shadow,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`; spans recorded while it
    /// runs become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = now();
        let id = self.record(name, start, start, false);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = now();
        out
    }

    /// Runs `f` as a shadow span under the innermost open span.
    pub fn shadow<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = now();
        let out = f();
        self.record(name, start, now(), true);
        out
    }

    /// Index of the most recent span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Runs `f` as a shadow span attributed to span `parent` (typically
    /// one that has already closed).
    pub fn shadow_under<R>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = now();
        let out = f();
        self.record_under(name, start, now(), parent, true);
        out
    }

    /// Records one per-operation call of `name` lasting from `start` to
    /// `end`.
    pub fn op(&mut self, name: &'static str, start: f64, end: f64, shadow: bool) {
        if !self.enabled {
            return;
        }
        // A handful of names per run: a linear scan beats hashing.
        let i = match self.ops.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.ops.push((name, Vec::new()));
                self.ops.len() - 1
            }
        };
        let samples = &mut self.ops[i].1;
        samples.push(end - start);
        if samples.len() % OP_SPAN_EVERY == 1 {
            self.record(name, start, end, shadow);
        }
    }

    /// Per-operation duration samples (seconds) recorded under `name`.
    pub fn op_samples(&self, name: &str) -> &[f64] {
        self.ops
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self times (seconds) of every span named `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        let all = self_times(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// The trace as JSON: every span with its self time, plus a summary
    /// of each per-operation sample set.
    pub fn to_json(&self, run_id: &str, fingerprint: JsonValue) -> JsonValue {
        let selfs = self_times(&self.spans);
        let ns = |s: f64| JsonValue::U64((s * 1e9).round().max(0.0) as u64);
        let spans = self.spans.iter().zip(&selfs).map(|(s, &self_time)| {
            JsonValue::object([
                ("name", JsonValue::str(s.name)),
                ("start_ns", ns(s.start)),
                ("end_ns", ns(s.end)),
                (
                    "parent",
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::U64(p as u64)),
                ),
                ("shadow", JsonValue::Bool(s.shadow)),
                ("self_ns", ns(self_time)),
                ("run_id", JsonValue::str(run_id)),
            ])
        });
        let ops = self.ops.iter().map(|(name, samples)| {
            let mut fields = vec![
                ("count".to_string(), JsonValue::U64(samples.len() as u64)),
                ("total_ns".to_string(), ns(samples.iter().sum::<f64>())),
            ];
            if let Some(m) = crate::stats::median(samples) {
                fields.push(("p50_ns".to_string(), ns(m)));
            }
            if let Some(t) = crate::stats::tail(samples) {
                fields.push(("tail_pct".to_string(), JsonValue::F64(t.pct)));
                fields.push(("tail_ns".to_string(), ns(t.value)));
            }
            (name.to_string(), JsonValue::Object(fields))
        });
        JsonValue::object([
            ("run_id", JsonValue::str(run_id)),
            ("fingerprint", fingerprint),
            ("spans", JsonValue::array(spans)),
            ("ops", JsonValue::Object(ops.collect())),
        ])
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its real children, minus the full duration of
/// its shadow children (a shadow repeats part of the parent's work
/// outside the parent's interval). Clamped at zero.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut intervals: Vec<(f64, f64)> = Vec::new();
            let mut shadow = 0.0;
            for &c in &children[i] {
                let child = &spans[c];
                if child.shadow {
                    shadow += child.duration();
                } else {
                    let (a, b) = (child.start.max(s.start), child.end.min(s.end));
                    if b > a {
                        intervals.push((a, b));
                    }
                }
            }
            (s.duration() - covered(&mut intervals) - shadow).max(0.0)
        })
        .collect()
}

/// Total length of the union of `intervals`.
fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>, shadow: bool) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            shadow,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("host.boundary", 0.0, 10.0, None, false),
            // Two overlapping children (parallel workers) cover 2..6.
            span("a", 2.0, 5.0, Some(0), false),
            span("b", 4.0, 6.0, Some(0), false),
            // A child reaching past the parent only counts inside it.
            span("c", 9.0, 12.0, Some(0), false),
            // A grandchild is its parent's business, not the root's.
            span("d", 2.5, 3.0, Some(1), false),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 5.0).abs() < 1e-12, "10 - (4 + 1)");
        assert!((selfs[1] - 2.5).abs() < 1e-12);
        assert!((selfs[2] - 2.0).abs() < 1e-12);
        assert!((selfs[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_shadow_children_by_duration() {
        let spans = vec![
            span("host.boundary", 0.0, 10.0, None, false),
            // Shadow commit and checkpoint ran after the boundary.
            span("service.commit", 11.0, 14.0, Some(0), true),
            span("service.checkpoint", 14.0, 16.5, Some(0), true),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 4.5).abs() < 1e-12);
        // Shadows larger than their parent clamp at zero.
        let spans = vec![
            span("p", 0.0, 1.0, None, false),
            span("s", 2.0, 5.0, Some(0), true),
        ];
        assert_eq!(self_times(&spans)[0], 0.0);
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |t| {
                t.shadow("shadow", || ());
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[2].shadow);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", |t| {
            t.op("op", 0.0, 1.0, false);
            t.shadow("s", || 7)
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.op_samples("op").is_empty());
    }

    #[test]
    fn op_samples_keep_every_duration_and_some_spans() {
        let mut t = Tracer::new(true);
        for i in 0..(2 * OP_SPAN_EVERY) {
            t.op("host.apply", i as f64, i as f64 + 0.5, false);
        }
        assert_eq!(t.op_samples("host.apply").len(), 2 * OP_SPAN_EVERY);
        assert_eq!(t.durations("host.apply").len(), 2);
    }
}
