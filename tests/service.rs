//! Online-service contracts: streaming equals batch, and checkpoints
//! are invisible.
//!
//! Two equivalences pin the service's determinism story:
//!
//! 1. **Streaming == batch.** Feeding a workload through the service
//!    one op at a time (arrivals interleaved with queries on the sim
//!    clock) yields trust scores bit-identical to applying the same
//!    events epoch-wise to a bare mechanism — the service's staging
//!    and delta commits change *when* work happens, never *what* is
//!    computed.
//! 2. **Checkpoint == uninterrupted.** Snapshotting at any point —
//!    between epochs, mid-epoch with staged events, mid
//!    partition-window — then restoring and continuing produces the
//!    same outcome (scores *and* the per-epoch sample series) as a run
//!    that never checkpointed.

use tsn::prelude::*;
use tsn::reputation::{build_mechanism, DisclosurePolicy, FeedbackReport};
use tsn::service::{checkpoint_sections, ServiceEvent};
use tsn::simnet::codec::crc32;

fn workload(nodes: usize, seed: u64) -> (ServiceDriver, TrustService) {
    let driver = ServiceDriver::new(DriverConfig {
        nodes,
        arrival_rate: 3.0,
        disclosure_rate: 0.25,
        query_rate: 0.4,
        malicious_fraction: 0.2,
        seed,
        membership: None,
    })
    .expect("valid workload");
    let service = TrustService::new(ServiceConfig {
        nodes,
        epoch: SimDuration::from_secs(60),
        ..ServiceConfig::default()
    })
    .expect("valid config");
    (driver, service)
}

/// Streaming through the service == epoch-wise batch over the bare
/// mechanism, bit for bit.
#[test]
fn streaming_equals_batch_bit_identically() {
    let nodes = 300;
    let (driver, mut service) = workload(nodes, 7);
    let epochs = 6;

    // The batch side: the same mechanism fed the same events in the
    // same order, one record_batch + refresh per epoch — the exact
    // computation the service performs internally, minus the service.
    let mut mechanism = build_mechanism(service.config().mechanism, nodes);
    let policy = DisclosurePolicy::ladder(service.config().disclosure_level);
    for epoch in 0..epochs {
        let ops = driver.ops_for_epoch(&service, epoch);
        let views: Vec<_> = ops
            .iter()
            .filter_map(|op| match *op {
                ServiceOp::Ingest(ServiceEvent::Interaction {
                    rater,
                    ratee,
                    outcome,
                    at,
                }) => Some(policy.view(&FeedbackReport {
                    rater,
                    ratee,
                    outcome,
                    topic: None,
                    at,
                })),
                _ => None,
            })
            .collect();
        mechanism.record_batch(&views);
        mechanism.refresh();
    }

    // The streaming side: every op individually, queries interleaved.
    driver.drive(&mut service, epochs).expect("clean drive");
    assert!(
        service.stats().queries > 0,
        "workload must exercise queries"
    );

    let streamed = service.scores();
    let batch = mechanism.scores();
    assert_eq!(streamed.len(), batch.len());
    for (i, (s, b)) in streamed.iter().zip(&batch).enumerate() {
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "node {i}: streamed {s} != batch {b}"
        );
    }
}

/// Restore-and-continue == never-checkpointed, across several cut
/// points (between epochs and mid-epoch with staged events).
#[test]
fn checkpoint_restore_continue_equals_uninterrupted() {
    let nodes = 200;
    let total_epochs = 6;

    let (driver, mut uninterrupted) = workload(nodes, 11);
    driver
        .drive(&mut uninterrupted, total_epochs)
        .expect("clean drive");

    for cut_epochs in [1, 3, 5] {
        let (_, mut service) = workload(nodes, 11);
        driver.drive(&mut service, cut_epochs).expect("clean drive");
        // Stage some of the next epoch before cutting, so the
        // checkpoint carries uncommitted events.
        let pending = driver.ops_for_epoch(&service, service.epoch_index());
        let mid = pending.len() / 2;
        for op in &pending[..mid] {
            service.apply(op).expect("clean apply");
        }
        assert!(service.staged_len() > 0, "cut must land mid-epoch");

        let bytes = service.checkpoint().expect("checkpointable");
        let mut resumed = TrustService::restore(&bytes).expect("valid checkpoint");
        assert_eq!(resumed.staged_len(), service.staged_len());

        // Finish the interrupted epoch on the restored instance, then
        // run out the remaining epochs.
        let now = resumed.now();
        for op in &pending[mid..] {
            if op.at() >= now {
                resumed.apply(op).expect("clean apply");
            }
        }
        resumed.finish_epoch().expect("clean finish");
        driver
            .drive(&mut resumed, total_epochs - cut_epochs - 1)
            .expect("clean drive");

        let a = uninterrupted.scores();
        let b = resumed.scores();
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "cut at {cut_epochs}: node {i} diverged ({x} vs {y})"
            );
        }
        // The whole per-epoch series must match, not just the endpoint.
        assert_eq!(
            uninterrupted.samples(),
            resumed.samples(),
            "cut at {cut_epochs}: sample series diverged"
        );
        assert_eq!(uninterrupted.stats().ingested, resumed.stats().ingested);
    }
}

/// A checkpoint taken while a partition window is open restores the
/// gating exactly: the same events are rejected after restore as in an
/// uninterrupted run.
#[test]
fn checkpoint_mid_partition_window_restores_gating() {
    let nodes = 100;
    // Epochs are 60s; the window splits epochs 2 and 3 into two groups.
    let partitions = vec![PartitionWindow::full_split(
        SimTime::from_secs(120),
        SimTime::from_secs(240),
        2,
    )];
    let config = ServiceConfig {
        nodes,
        epoch: SimDuration::from_secs(60),
        partitions: partitions.clone(),
        ..ServiceConfig::default()
    };
    let driver = ServiceDriver::new(DriverConfig {
        nodes,
        arrival_rate: 3.0,
        seed: 23,
        ..DriverConfig::default()
    })
    .expect("valid workload");

    let mut uninterrupted = TrustService::new(config.clone()).expect("valid config");
    driver.drive(&mut uninterrupted, 5).expect("clean drive");
    assert!(
        uninterrupted.stats().rejected > 0,
        "the window must actually reject cross-group traffic"
    );

    // Cut *inside* the window: after epoch 2 committed, the clock sits
    // at 180s with the split still active until 240s.
    let mut service = TrustService::new(config).expect("valid config");
    driver.drive(&mut service, 3).expect("clean drive");
    let at = service.now();
    assert!(at >= partitions[0].start && at < partitions[0].end);

    let bytes = service.checkpoint().expect("checkpointable");
    let mut resumed = TrustService::restore(&bytes).expect("valid checkpoint");
    assert_eq!(resumed.config().partitions, partitions);
    driver.drive(&mut resumed, 2).expect("clean drive");

    assert_eq!(uninterrupted.stats().rejected, resumed.stats().rejected);
    assert_eq!(uninterrupted.samples(), resumed.samples());
    let a = uninterrupted.scores();
    let b = resumed.scores();
    assert!(
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
        "mid-window restore diverged"
    );
}

/// The checkpoint works for every mechanism that supports snapshots,
/// and fails with a clear error for the ones that don't.
#[test]
fn checkpoint_support_matrix() {
    for kind in MechanismKind::ALL {
        let mut service = TrustService::new(ServiceConfig {
            nodes: 20,
            mechanism: kind,
            epoch: SimDuration::from_secs(60),
            ..ServiceConfig::default()
        })
        .expect("valid config");
        let driver = ServiceDriver::new(DriverConfig {
            nodes: 20,
            seed: 5,
            ..DriverConfig::default()
        })
        .expect("valid workload");
        driver.drive(&mut service, 2).expect("clean drive");
        match service.checkpoint() {
            Ok(bytes) => {
                let resumed = TrustService::restore(&bytes).expect("valid checkpoint");
                let a = service.scores();
                let b = resumed.scores();
                assert!(
                    a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{kind}: restore changed scores"
                );
            }
            Err(e) => assert!(
                e.contains("does not support"),
                "{kind}: unexpected error {e}"
            ),
        }
    }
}

/// Queries never see uncommitted events, and staleness is bounded by
/// one epoch length once the first epoch has committed.
#[test]
fn staleness_is_bounded_by_one_epoch() {
    let (driver, mut service) = workload(150, 3);
    driver.drive(&mut service, 4).expect("clean drive");
    let epoch_us = service.config().epoch.as_micros();
    // Probe a grid of query times across the next two epochs.
    for step in 0..20u64 {
        let at = service.now() + SimDuration::from_micros(epoch_us / 10);
        let q = service
            .query_trust(NodeId(step as u32), at)
            .expect("valid query");
        assert!(
            q.staleness.as_micros() < epoch_us,
            "staleness {} exceeds the epoch bound {epoch_us}",
            q.staleness.as_micros()
        );
        assert_eq!(
            q.as_of.as_micros() % epoch_us,
            0,
            "answers reflect epoch boundaries only"
        );
    }
}

#[test]
fn restore_bounds_the_node_count_behind_a_valid_crc() {
    // CRCs only catch plain corruption: a config section rewritten with
    // its CRC recomputed reaches the decoder, which must still refuse an
    // unallocatable population by name.
    let service = TrustService::new(ServiceConfig {
        nodes: 8,
        ..ServiceConfig::default()
    })
    .expect("valid");
    let mut bytes = service.checkpoint().expect("checkpoint");
    let config = checkpoint_sections(&bytes).expect("framing")[0];
    assert_eq!(config.name, "config");
    // `nodes` leads the config payload as a little-endian u64; the
    // section's CRC sits before its u64 length prefix.
    let payload = config.offset..config.offset + config.len;
    bytes[config.offset..config.offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let crc = crc32(&bytes[payload]).to_le_bytes();
    let crc_at = config.offset - 8 - 4;
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc);
    assert!(checkpoint_sections(&bytes)
        .expect("framing")
        .iter()
        .all(|s| s.crc_ok));
    let err = TrustService::restore_with_cursor(&bytes).expect_err("nodes out of range");
    assert!(err.contains("nodes"), "{err}");
}
