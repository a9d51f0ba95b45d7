//! Bench: EigenTrust power-iteration convergence at scale, and the
//! per-report ingestion cost of every mechanism.
//!
//! Run: `cargo bench -p tsn-bench --bench eigentrust`
//! Emits `BENCH_eigentrust.json`; `BENCH_CHECK=1` gates against the
//! committed baseline.

use tsn_bench::harness::{Bench, BenchSuite};
use tsn_reputation::mechanism::build_mechanism;
use tsn_reputation::{
    DisclosurePolicy, EigenTrust, FeedbackReport, InteractionOutcome, MechanismKind,
    ReputationMechanism,
};
use tsn_simnet::{NodeId, SimRng, SimTime};

fn random_reports(n: usize, count: usize, seed: u64) -> Vec<FeedbackReport> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let rater = NodeId(rng.gen_range(0..n as u32));
            let mut ratee = NodeId(rng.gen_range(0..n as u32));
            if ratee == rater {
                ratee = NodeId((ratee.0 + 1) % n as u32);
            }
            FeedbackReport {
                rater,
                ratee,
                outcome: if rng.gen_bool(0.7) {
                    InteractionOutcome::Success {
                        quality: rng.gen_f64(),
                    }
                } else {
                    InteractionOutcome::Failure
                },
                topic: None,
                at: SimTime::ZERO,
            }
        })
        .collect()
}

fn main() {
    let policy = DisclosurePolicy::full();
    // Perf trajectory, same protocol (warm incremental refresh), same
    // machine class — pre-PR2 = HashMap local matrix + per-refresh
    // rebuild: 100 nodes 56.0µs, 500 nodes 409µs, 1000 nodes 924µs.
    let mut suite = BenchSuite::new(
        "eigentrust",
        "refresh:warm-incremental nodes=100,500,1000 reports=20n seed=7; record:nodes=500 reports=1000 seed=8; samples=10",
    );

    // Warm incremental refresh: the scenario's steady-state pattern is
    // "a few records, then refresh" on a long-lived mechanism. (The old
    // clone-per-sample protocol mostly measured the allocator: a fresh
    // clone starts with cold buffers and pays the page-fault storm.)
    let bench = Bench::new("eigentrust_refresh").samples(10);
    for n in [100usize, 500, 1000] {
        let reports = random_reports(n, n * 20, 7);
        let mut m = EigenTrust::new(n, Vec::new());
        for r in &reports {
            m.record(&policy.view(r));
        }
        m.refresh();
        let extra = policy.view(&reports[0]);
        // One record + one refresh per call: throughput = refreshes/sec.
        suite.record(bench.run(&format!("{n}_nodes"), || {
            m.record(&extra);
            m.refresh()
        }));
    }

    let bench = Bench::new("record_1k_reports").samples(10);
    let n = 500;
    let reports = random_reports(n, 1000, 8);
    for kind in [
        MechanismKind::Beta,
        MechanismKind::EigenTrust,
        MechanismKind::PowerTrust,
        MechanismKind::TrustMe,
    ] {
        suite.record(bench.run_items(kind.name(), reports.len() as u64, || {
            let mut m = build_mechanism(kind, n);
            for r in &reports {
                m.record(&policy.view(r));
            }
            m
        }));
    }

    suite.finish();
}
