//! Replication torture: failover is invisible.
//!
//! The contracts pinned here:
//!
//! 1. **Kill-primary → promote → continue == uninterrupted**, bit for
//!    bit, for every crash-point class — an epoch boundary, mid-epoch
//!    with staged events, mid-partition-window, and a torn
//!    mid-journal-write on the primary's own storage. A client of the
//!    set never observes the outage: scores, samples, stats, and the
//!    checkpoint bytes the promoted primary would write are identical
//!    to a single host that never crashed.
//! 2. **The faulted run replays bit for bit.** The same
//!    `(FaultPlan, seed)` reproduces the same promotions (same
//!    `FailoverReport`s, same timestamps) and the same final state.
//! 3. **Recovery replay cost is bounded by checkpoint age, not service
//!    age**: a restart opens only the journal-segment suffix past the
//!    restored checkpoint's cursor, however long the host has run.

use tsn::prelude::*;
use tsn::service::{EpochSample, FailoverReport, ReplicaConfig, ReplicaSet, ServiceStats};

/// One step of a timeline: an op at its own timestamp, or an explicit
/// clock advance (the epoch-boundary commit).
#[derive(Debug, Clone, Copy)]
enum Action {
    Op(ServiceOp),
    Advance(SimTime),
}

impl Action {
    fn at(&self) -> SimTime {
        match *self {
            Action::Op(op) => op.at(),
            Action::Advance(at) => at,
        }
    }

    fn run_host(&self, host: &mut ServiceHost) {
        match *self {
            Action::Op(op) => {
                host.apply(&op).expect("workload ops are valid");
            }
            Action::Advance(at) => host.advance_to(at).expect("advance is valid"),
        }
    }

    fn run_set(&self, set: &mut ReplicaSet) {
        match *self {
            Action::Op(op) => {
                set.apply(&op).expect("a live set acknowledges every op");
            }
            Action::Advance(at) => set.advance_to(at).expect("advance is valid"),
        }
    }
}

/// Everything a client of the set can observe, bit-exact — including
/// the checkpoint bytes the serving service would persist.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    now_us: u64,
    epoch: u64,
    staged: usize,
    stats: ServiceStats,
    samples: Vec<EpochSample>,
    score_bits: Vec<u64>,
    checkpoint: Option<Vec<u8>>,
}

fn fingerprint(service: &TrustService) -> Fingerprint {
    Fingerprint {
        now_us: service.now().as_micros(),
        epoch: service.epoch_index(),
        staged: service.staged_len(),
        stats: service.stats(),
        samples: service.samples().to_vec(),
        score_bits: service.scores().iter().map(|s| s.to_bits()).collect(),
        checkpoint: service.checkpoint().ok(),
    }
}

/// The same 3-epoch workload over 30 nodes as `tests/faults.rs`, with a
/// partition window open inside epoch 1 (70 s – 110 s on a 60 s epoch).
fn torture_setup() -> (ReplicaConfig, Vec<Action>) {
    let nodes = 30;
    let epochs = 3u64;
    let driver = ServiceDriver::new(DriverConfig {
        nodes,
        arrival_rate: 2.0,
        disclosure_rate: 0.25,
        query_rate: 0.4,
        malicious_fraction: 0.2,
        seed: 11,
        membership: None,
    })
    .expect("valid driver");
    let service = ServiceConfig {
        nodes,
        epoch: SimDuration::from_secs(60),
        partitions: vec![PartitionWindow::full_split(
            SimTime::from_secs(70),
            SimTime::from_secs(110),
            2,
        )],
        ..ServiceConfig::default()
    };
    let config = ReplicaConfig {
        host: HostConfig {
            service: service.clone(),
            journal: true,
            checkpoint_every_epochs: 1,
            retain_checkpoints: 2,
            recovery_grace: SimDuration::ZERO,
            ..HostConfig::default()
        },
        replicas: 3,
    };
    let probe = TrustService::new(service).expect("valid service");
    let mut actions = Vec::new();
    for epoch in 0..epochs {
        for op in driver.ops_for_epoch(&probe, epoch) {
            actions.push(Action::Op(op));
        }
        actions.push(Action::Advance(probe.epoch_end(epoch)));
    }
    (config, actions)
}

/// A single host that never crashes, over the same timeline.
fn reference_run(config: &ReplicaConfig, actions: &[Action]) -> Fingerprint {
    let mut host = ServiceHost::new(config.host.clone()).expect("valid host");
    for action in actions {
        action.run_host(&mut host);
    }
    fingerprint(host.service().expect("reference host never crashes"))
}

/// Runs the whole timeline through a set whose primary (replica 0) is
/// killed at `crash_at` by a fault plan, returning the final
/// fingerprint and the promotions that happened.
fn killed_primary_run(
    config: &ReplicaConfig,
    actions: &[Action],
    crash_at: SimTime,
) -> (Fingerprint, Vec<FailoverReport>) {
    let mut set = ReplicaSet::new(config.clone()).expect("valid set");
    set.attach_faults(
        FaultInjector::new(
            FaultPlan::replica_crash(0, crash_at, SimDuration::from_secs(20)),
            11,
        )
        .expect("valid plan"),
    );
    for action in actions {
        action.run_set(&mut set);
    }
    let print = fingerprint(set.primary_service().expect("set ends serving"));
    (print, set.failovers().to_vec())
}

/// Contract 1, clean crash classes: the primary dies at an epoch
/// boundary, mid-partition-window, and mid-epoch with staged events;
/// every class promotes exactly once and stays bit-identical to the
/// uninterrupted single host.
#[test]
fn killed_primary_is_invisible_at_every_crash_class() {
    let (config, actions) = torture_setup();
    let reference = reference_run(&config, &actions);
    let crash_points = [
        SimTime::from_secs(60),  // exactly the epoch boundary
        SimTime::from_secs(90),  // mid-partition-window
        SimTime::from_secs(150), // mid-epoch 2, staged events
    ];
    for crash_at in crash_points {
        let (promoted, failovers) = killed_primary_run(&config, &actions, crash_at);
        assert_eq!(
            failovers.len(),
            1,
            "one crash, one promotion (crash at {crash_at:?}): {failovers:?}"
        );
        assert_eq!(failovers[0].from, 0, "replica 0 was the primary");
        assert_ne!(failovers[0].to, 0, "promotion picks a live follower");
        assert!(
            failovers[0].at >= crash_at,
            "promotion happens at or after the crash"
        );
        assert_eq!(
            promoted, reference,
            "failover diverged from the uninterrupted run for a crash at {crash_at:?}"
        );
    }
}

/// Contract 1, torn mid-journal-write: the primary dies halfway through
/// appending an acknowledged entry to its own journal. The entry is in
/// the replicated log, so nothing is lost and no client retry is
/// needed — the set's state stays bit-identical.
#[test]
fn torn_primary_write_is_invisible_without_a_client_retry() {
    let (config, actions) = torture_setup();
    let reference = reference_run(&config, &actions);
    let len = actions.len();
    for i in [len / 5, len / 2, 4 * len / 5] {
        let mut set = ReplicaSet::new(config.clone()).expect("valid set");
        let mut torn = false;
        for (idx, action) in actions.iter().enumerate() {
            action.run_set(&mut set);
            if idx == i {
                set.crash_primary_torn(action.at());
                torn = true;
            }
        }
        assert!(torn, "the torn crash point must land inside the run");
        assert_eq!(set.failovers().len(), 1, "the torn crash promotes once");
        let promoted = fingerprint(set.primary_service().expect("set ends serving"));
        assert_eq!(
            promoted, reference,
            "torn-primary failover diverged after action {i}"
        );
    }
}

/// Contract 2: the same `(FaultPlan, seed)` replays the same crashes,
/// the same promotions (reports and all), and the same final state,
/// bit for bit.
#[test]
fn faulted_replicated_runs_replay_bit_for_bit() {
    let (config, actions) = torture_setup();
    let crash_at = SimTime::from_secs(90);
    let (first, first_failovers) = killed_primary_run(&config, &actions, crash_at);
    let (second, second_failovers) = killed_primary_run(&config, &actions, crash_at);
    assert_eq!(
        first_failovers, second_failovers,
        "the same plan must replay the same promotions"
    );
    assert_eq!(first, second, "replayed runs must be bit-identical");
}

/// A healthy set (no faults) converges every epoch and never retains
/// more of the log than the newest entry.
#[test]
fn a_healthy_set_stays_in_lockstep_and_compacts_its_log() {
    let (config, actions) = torture_setup();
    let reference = reference_run(&config, &actions);
    let mut set = ReplicaSet::new(config).expect("valid set");
    for action in &actions {
        action.run_set(&mut set);
        assert!(
            set.retained_log_len() <= 1,
            "an in-sync set keeps at most the newest entry for torn re-delivery"
        );
    }
    assert!(set.failovers().is_empty(), "no faults, no promotions");
    for (i, host) in set.hosts().iter().enumerate() {
        let print = fingerprint(host.service().expect("all members up"));
        assert_eq!(print, reference, "member {i} diverged from the reference");
    }
}

/// Contract 3: recovery opens only the journal-segment suffix past the
/// restored checkpoint's cursor. Tripling the service's age triples the
/// segments ever written but leaves the restart's segment-open count
/// flat — the bound is the checkpoint cadence, not the uptime.
#[test]
fn recovery_opens_a_bounded_segment_suffix_regardless_of_age() {
    let driver = ServiceDriver::new(DriverConfig {
        nodes: 30,
        arrival_rate: 2.0,
        disclosure_rate: 0.25,
        query_rate: 0.4,
        malicious_fraction: 0.2,
        seed: 11,
        membership: None,
    })
    .expect("valid driver");
    let config = HostConfig {
        service: ServiceConfig {
            nodes: 30,
            epoch: SimDuration::from_secs(60),
            ..ServiceConfig::default()
        },
        journal: true,
        checkpoint_every_epochs: 1,
        retain_checkpoints: 2,
        recovery_grace: SimDuration::ZERO,
        journal_segment_bytes: 512, // tiny: many seals per epoch
    };
    let mut opened = Vec::new();
    let mut created = Vec::new();
    for epochs in [4u64, 12] {
        let mut host = ServiceHost::new(config.clone()).expect("valid host");
        driver.drive_host(&mut host, epochs).expect("clean run");
        let crash_at = host.service().expect("up").now();
        host.crash(crash_at);
        host.restart(crash_at).expect("recovery succeeds");
        let report = host.last_recovery().expect("recovery ran").clone();
        // Every live segment is accounted for: opened or skipped.
        assert_eq!(
            report.segments_opened + report.segments_skipped,
            host.journal().segments().len(),
            "recovery must account for every live segment"
        );
        opened.push(report.segments_opened);
        created.push(host.journal().segments_created());
    }
    assert!(
        created[1] > created[0],
        "a longer run writes more segments overall ({created:?})"
    );
    assert!(
        opened[1] <= opened[0] + 1,
        "segment opens must track the checkpoint cadence, not uptime \
         (opened {opened:?} for segments created {created:?})"
    );
}
