//! What one workload run hands back, and the metric catalogue the
//! final JSON line is checked against.

use crate::stats::{self, Tail};
use crate::trace::Tracer;

/// End-to-end metrics: `(name, unit)`. Every workload reports every
/// one; `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A traced run reports every one;
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("runner.build_ms", "ms"),
    ("runner.sweep_speedup", "x"),
    ("graph.generate_ms", "ms"),
    ("scenario.round_p50_ms", "ms"),
    ("scenario.first_round_ms", "ms"),
    ("scenario.assembly_ms", "ms"),
    ("scenario.cell_ms.static", "ms"),
    ("scenario.cell_ms.overlay", "ms"),
    ("scenario.interactions", "count"),
    ("scenario.reports", "count"),
    ("scenario.messages", "count"),
    ("scenario.isolated", "count"),
    ("reputation.refresh_iterations", "count"),
    ("reputation.record_batch_ms", "ms"),
    ("reputation.refresh_ms", "ms"),
    ("service.ingest_ns", "ns"),
    ("service.query_ns", "ns"),
    ("service.commit_ms", "ms"),
    ("service.checkpoint_ms", "ms"),
    ("service.checkpoint_bytes", "bytes"),
    ("journal.append_ns", "ns"),
    ("journal.bytes_per_op", "bytes"),
    ("host.apply_ns.ingest", "ns"),
    ("host.apply_ns.query", "ns"),
    ("host.boundary_ms", "ms"),
    ("host.boundary_self_ms", "ms"),
    ("host.recovery_ms", "ms"),
    ("replica.apply_ns", "ns"),
    ("replica.boundary_ms", "ms"),
    ("replica.caught_up", "count"),
    ("replica.failovers", "count"),
    ("driver.gen_ms", "ms"),
    ("driver.late_ms.p99", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// One named number with its unit and an optional note (sample count,
/// percentile actually reported).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Free-form note for the human-readable line.
    pub note: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (names from [`END_TO_END`]).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end numbers under the names the
    /// workload documentation uses (printed, not part of the final
    /// line).
    pub detail: Vec<Metric>,
    /// Per-layer metrics (names from [`PER_LAYER`]), traced runs only.
    pub layers: Vec<Metric>,
    /// Output checks: `(name, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were abandoned.
    pub failed_ops: u64,
    /// Workload parameters, for the fingerprint.
    pub params: Vec<(&'static str, String)>,
    /// The run's spans (empty unless traced).
    pub tracer: Tracer,
}

fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note,
    }
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.end_to_end.push(metric(name, value, unit, note));
    }

    /// Adds a workload-named end-to-end number.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.detail.push(metric(name, value, unit, note));
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(metric(name, value, unit, String::new()));
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    /// Records a workload parameter.
    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    /// Failed checks.
    pub fn failed_checks(&self) -> u64 {
        self.checks.iter().filter(|(_, ok)| !ok).count() as u64
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.failed_checks()
    }

    /// Adds the latency median (printed) and tail (bounded) of
    /// `samples_ms`, pooled over the run. A set too small for the tail
    /// rule has no tail (NaN, which fails the run).
    pub fn latency(&mut self, what: &str, samples_ms: &[f64]) {
        let n = samples_ms.len();
        self.detail(
            "latency_p50_ms",
            med(samples_ms),
            "ms",
            format!("{what}, n={n}"),
        );
        let (value, note) = match stats::tail(samples_ms) {
            Some(Tail { pct, value, count }) => (value, format!("{what}, p{pct:.3}, n={count}")),
            None => (f64::NAN, format!("{what}: no tail, n={n}")),
        };
        self.e2e("latency_tail_ms", value, "ms", note);
    }

    /// Adds a p50 (in µs) and a p99 (in ms) for one request class, under
    /// the names the workload documentation uses.
    pub fn class_latency(&mut self, class: &str, p50_ms: f64, p99_ms: f64, note: String) {
        self.detail(&format!("{class}_p50_us"), p50_ms * 1e3, "us", note.clone());
        self.detail(&format!("{class}_p99_ms"), p99_ms, "ms", note);
    }
}

/// Median of `samples`, or NaN when there are none.
pub fn med(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(f64::NAN)
}

/// FNV-1a over 64-bit words: the outcome digests compared across
/// repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a float in by its bits.
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
