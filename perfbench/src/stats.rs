//! The benchmark's own statistics: medians, the tail-percentile rule
//! and latency measured from an operation's due time.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample set that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100)`.
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the set holds.
    pub count: usize,
}

/// Median of `samples` (the mean of the two middle values for an even
/// count), or `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The tail rule: with `n` samples sorted ascending, the value of rank
/// `n - TAIL_BEYOND` (1-based) has exactly `TAIL_BEYOND` samples beyond
/// it, and its percentile is `(n - TAIL_BEYOND) / n`. A set too small to
/// leave that many samples beyond any value has no tail.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: sorted(samples)[rank - 1],
        count: n,
    })
}

/// The value at percentile `pct` (nearest rank), provided at least
/// [`TAIL_BEYOND`] samples lie beyond it; `None` otherwise.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < TAIL_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Latency of one open-loop operation, timed from when it was due.
///
/// `due`, `issued` and `done` are offsets on one clock. An operation
/// issued late because earlier work still held the loop waited in the
/// queue; that wait is part of its latency. `generator_late` is the
/// part of the lateness that is the generator's own: how far past the
/// due time it released an operation while the loop was idle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueLatency {
    /// `done - due`: what the caller of the service observes.
    pub latency: f64,
    /// Release overshoot of an idle generator (0 when the loop was
    /// busy at the due time).
    pub generator_late: f64,
}

/// Computes [`DueLatency`] for an operation due at `due` that the loop
/// could start at `free` (when the previous operation finished),
/// actually issued at `issued` and finished at `done`.
pub fn due_latency(due: f64, free: f64, issued: f64, done: f64) -> DueLatency {
    let generator_late = if free <= due {
        (issued - due).max(0.0)
    } else {
        0.0
    };
    DueLatency {
        latency: done - due,
        generator_late,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=1000: rank 990 is the value 990, ten values lie above it.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples).expect("large enough");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.count, 1000);
        assert!((t.pct - 99.0).abs() < 1e-12);
        let beyond = samples.iter().filter(|&&s| s > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("one value has ten beyond it");
        assert_eq!(t.value, 0.0);
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = tail(&samples).expect("large enough");
        samples.reverse();
        assert_eq!(tail(&samples), Some(a));
        assert_eq!(a.value, 189.0);
    }

    #[test]
    fn named_percentile_requires_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        // p99.5 would leave only five samples beyond it.
        assert_eq!(percentile(&samples, 99.5), None);
        assert_eq!(percentile(&samples[..100], 99.0), None);
    }

    /// A synthetic stall: operations due every 1 ms, each taking 0.1 ms,
    /// except that the third one takes 10 ms. Every operation due while
    /// it runs waits for it, and that wait shows in its latency even
    /// though its own service time stays 0.1 ms.
    #[test]
    fn latency_from_due_time_counts_the_wait_behind_a_stall() {
        let service = |k: usize| if k == 2 { 10.0 } else { 0.1 };
        let mut free = 0.0f64;
        let mut latencies = Vec::new();
        let mut late = Vec::new();
        for k in 0..20 {
            let due = k as f64;
            let issued = due.max(free);
            let done = issued + service(k);
            let l = due_latency(due, free, issued, done);
            latencies.push(l.latency);
            late.push(l.generator_late);
            free = done;
        }
        // The stalled op itself: its own 10 ms.
        assert!((latencies[2] - 10.0).abs() < 1e-9);
        // Op 3 was due at 3 ms, the loop was free at 12 ms, so it
        // waited 9 ms and finished at 12.1 ms.
        assert!((latencies[3] - 9.1).abs() < 1e-9);
        // The backlog drains one op per 0.1 ms: op 11 (due 11) starts
        // at 12.8 ms.
        assert!((latencies[11] - 1.9).abs() < 1e-9);
        // From op 13 on, the loop is idle again.
        for l in &latencies[13..] {
            assert!((l - 0.1).abs() < 1e-9);
        }
        // Queue waits are the system's, not the generator's.
        assert!(late.iter().all(|&g| g == 0.0));
        // Timing only each op's own service time would hide the stall.
        let service_only: Vec<f64> = (0..20).map(service).collect();
        assert!(median(&latencies).expect("non-empty") > median(&service_only).expect("non-empty"));
    }

    #[test]
    fn generator_lateness_is_only_charged_when_idle() {
        // Idle loop, released 0.02 past due.
        let l = due_latency(5.0, 4.0, 5.02, 5.12);
        assert!((l.generator_late - 0.02).abs() < 1e-9);
        assert!((l.latency - 0.12).abs() < 1e-9);
        // Busy loop: the lateness is queueing.
        let l = due_latency(5.0, 6.0, 6.0, 6.1);
        assert_eq!(l.generator_late, 0.0);
        assert!((l.latency - 1.1).abs() < 1e-9);
    }
}
