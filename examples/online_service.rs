//! Online mode: a long-lived TrustService under a streaming workload,
//! checkpointed mid-flight and resumed bit-identically.
//!
//! ```text
//! cargo run --release --example online_service
//! ```
//!
//! The batch layers answer "what happens over N rounds"; this example
//! shows the deployed shape of the same system: events and queries
//! interleave on one sim clock, trust updates land as per-epoch deltas,
//! and the whole service snapshots to bytes at an arbitrary point.

use tsn::prelude::*;

fn main() {
    // The default workload; the service itself mirrors the population.
    // (`tsn-cli serve` exposes each workload knob as a flag.)
    let workload = DriverConfig::default();
    let config = ServiceConfig {
        nodes: workload.nodes,
        epoch: SimDuration::from_secs(60),
        ..ServiceConfig::default()
    };
    println!(
        "online service: {} nodes, {}s epochs, {} arrivals/node/epoch",
        config.nodes,
        config.epoch.as_micros() / 1_000_000,
        workload.arrival_rate,
    );

    let mut service = TrustService::new(config).expect("valid config");
    let driver = ServiceDriver::new(workload).expect("valid workload");

    // Phase 1: five epochs of open-loop traffic.
    driver.drive(&mut service, 5).expect("clean drive");
    for s in service.samples() {
        println!(
            "  epoch {:>2}: {:>5} events committed, mean score {:.4} ({} iterations)",
            s.epoch, s.committed, s.mean_score, s.refresh_iterations
        );
    }

    // A query between epoch boundaries sees the last commit, with an
    // explicit staleness bound.
    let at = service.now() + SimDuration::from_secs(12);
    let q = service.query_trust(NodeId(0), at).expect("valid query");
    println!(
        "query at +12s: score {:.4}, staleness {}ms (bounded by one epoch)",
        q.score,
        q.staleness.as_micros() / 1000
    );

    // Checkpoint mid-epoch (the query above left the clock inside
    // epoch 5), resume in a fresh instance, and continue both.
    let bytes = service.checkpoint().expect("eigentrust checkpoints");
    println!("checkpoint: {} bytes", bytes.len());
    let mut resumed = TrustService::restore(&bytes).expect("valid checkpoint");
    driver.drive(&mut service, 3).expect("clean drive");
    driver.drive(&mut resumed, 3).expect("clean drive");

    let diverged = service
        .scores()
        .iter()
        .zip(resumed.scores().iter())
        .any(|(a, b)| a.to_bits() != b.to_bits());
    assert!(!diverged, "restore must continue bit-identically");
    println!("restore + 3 epochs == uninterrupted + 3 epochs, bit for bit ✓");

    let stats = service.stats();
    println!(
        "totals: {} events ingested, {} queries answered, {} commits",
        stats.ingested, stats.queries, stats.commits
    );
}
