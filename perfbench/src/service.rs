//! `service_host` and `service_failover`: the online trust service
//! behind a journaled host, and behind a 3-replica set with primary
//! kills.

use crate::report::{med, Report};
use crate::stats::{self, due_latency};
use crate::trace::{now, timed, Tracer};
use tsn_reputation::{build_mechanism, DisclosurePolicy, FeedbackReport, ReportView};
use tsn_service::{
    DriverConfig, EventJournal, HostConfig, HostError, HostState, JournalRecord, ReplicaConfig,
    ReplicaSet, ServiceConfig, ServiceDriver, ServiceEvent, ServiceHost, ServiceOp, TrustService,
};
use tsn_simnet::{FaultInjector, FaultPlan, SimDuration, SimTime};

const EPOCH_SECS: u64 = 60;
/// Epochs driven during set-up, before anything is timed.
const WARM_EPOCHS: u64 = 2;
/// Repetitions per run, each on a freshly set-up service: the set-ups
/// give `setup_s` its median, and the bounded metrics are medians over
/// the repetitions.
const REPS: usize = 3;

fn epoch_end(epoch: u64) -> SimTime {
    SimTime::from_secs(EPOCH_SECS * (epoch + 1))
}

fn driver(nodes: usize, seed: u64) -> ServiceDriver {
    ServiceDriver::new(DriverConfig {
        nodes,
        arrival_rate: 6.0,
        disclosure_rate: 0.1,
        query_rate: 0.5,
        malicious_fraction: 0.1,
        seed,
        membership: None,
    })
    .expect("the workload's driver configuration is valid")
}

fn host_config(nodes: usize) -> HostConfig {
    HostConfig {
        service: ServiceConfig {
            nodes,
            epoch: SimDuration::from_secs(EPOCH_SECS),
            ..ServiceConfig::default()
        },
        journal: true,
        checkpoint_every_epochs: 1,
        retain_checkpoints: 2,
        recovery_grace: SimDuration::ZERO,
        ..HostConfig::default()
    }
}

fn params(report: &mut Report, nodes: usize, seed: u64) {
    report.param("nodes", nodes);
    report.param("epoch_s", EPOCH_SECS);
    report.param("arrival_rate", 6.0);
    report.param("disclosure_rate", 0.1);
    report.param("query_rate", 0.5);
    report.param("malicious_fraction", 0.1);
    report.param("driver_seed", seed);
    report.param("warm_epochs", WARM_EPOCHS);
}

/// Pre-generated operations, epoch by epoch, starting at
/// [`WARM_EPOCHS`].
struct Pool {
    epochs: Vec<Vec<ServiceOp>>,
    gen_ms: Vec<f64>,
}

impl Pool {
    fn generate(driver: &ServiceDriver, epochs: u64) -> Pool {
        let mut gen_ms = Vec::new();
        let epochs = (WARM_EPOCHS..WARM_EPOCHS + epochs)
            .map(|e| {
                let (ops, s) =
                    timed(|| driver.ops_for_epoch_len(SimDuration::from_secs(EPOCH_SECS), e));
                gen_ms.push(s * 1e3);
                ops
            })
            .collect();
        Pool { epochs, gen_ms }
    }

    /// Epoch index of pool slot `i`.
    fn epoch(i: usize) -> u64 {
        WARM_EPOCHS + i as u64
    }
}

fn is_query(op: &ServiceOp) -> bool {
    !op.is_ingest()
}

/// The report views one epoch's interactions turn into at commit, in
/// arrival order.
fn views(ops: &[ServiceOp], policy: &DisclosurePolicy) -> Vec<ReportView> {
    ops.iter()
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
        .collect()
}

fn score_bits(service: &TrustService) -> Vec<u64> {
    service.scores().iter().map(|s| s.to_bits()).collect()
}

/// Set-up of one host: construction plus warm-up epochs, whose
/// operations are generated inside the set-up.
fn warm_host(nodes: usize, driver: &ServiceDriver) -> ServiceHost {
    let mut host = ServiceHost::new(host_config(nodes)).expect("the host configuration is valid");
    for e in 0..WARM_EPOCHS {
        for op in driver.ops_for_epoch_len(SimDuration::from_secs(EPOCH_SECS), e) {
            host.apply(&op)
                .expect("a fresh host acknowledges the warm-up");
        }
        host.advance_to(epoch_end(e)).expect("the warm-up commits");
    }
    host
}

const HOST_NODES: usize = 10_000;
/// Open-loop arrival rate: about half the closed-loop capacity of a
/// young host on the 2-core reference machine (≈300k ops/s), fixed so
/// that a slower host shows as latency rather than as a lower offered
/// load.
const OPEN_RATE: f64 = 150_000.0;
/// Closed-loop epochs per second of `--seconds` and repetition (about
/// the rate of the 2-core reference machine). The epoch count is fixed
/// by `--seconds` alone, because boundary cost grows with service age:
/// every repetition must end at the same age.
const HOST_CLOSED_EPOCHS_PER_S: f64 = 3.5;
/// Epochs of the traced segment.
const TRACED_EPOCHS: usize = 4;

/// Median and p99 of one latency sample set, in ms.
#[derive(Debug, Clone, Copy, Default)]
struct Summary {
    p50: f64,
    p99: f64,
}

impl Summary {
    fn of(samples_ms: &[f64]) -> Summary {
        Summary {
            p50: med(samples_ms),
            p99: stats::percentile(samples_ms, 99.0).unwrap_or(f64::NAN),
        }
    }
}

/// One `service_host` repetition on a freshly set-up host. Latency
/// samples are summarised per repetition and dropped, so the harness's
/// own memory stays small next to the host's.
#[derive(Default)]
struct HostRep {
    setup_s: f64,
    /// Open-loop latency from due time: all operations, ingests,
    /// queries; and the generator's own lateness.
    all: Summary,
    ingest: Summary,
    query: Summary,
    late: Summary,
    /// Tail-rule latency over every open-loop operation.
    tail_ms: f64,
    capacity: f64,
    boundary_ms: Vec<f64>,
    /// Closed-loop time per operation, boundaries excluded.
    op_s: f64,
    attempted: u64,
    failed: u64,
}

/// Commits the open epoch when pool slot `slot` belongs to a later
/// one. Returns whether the commit succeeded.
fn boundary(host: &mut ServiceHost, open_epoch: &mut u64, slot: usize) -> bool {
    let epoch = Pool::epoch(slot);
    if epoch <= *open_epoch {
        return true;
    }
    let ok = host.advance_to(epoch_end(*open_epoch)).is_ok();
    *open_epoch = epoch;
    ok
}

/// Sets up a host, drives `open_ops` operations of the pool open-loop
/// at [`OPEN_RATE`], then the rest of the first `slots` pool epochs
/// closed-loop.
fn host_rep(
    driver: &ServiceDriver,
    pool: &Pool,
    open_ops: usize,
    slots: usize,
) -> (ServiceHost, HostRep) {
    let (mut host, setup_s) = timed(|| warm_host(HOST_NODES, driver));
    let mut rep = HostRep {
        setup_s,
        ..HostRep::default()
    };
    let mut open_epoch = WARM_EPOCHS;
    let mut ingest_ms = Vec::with_capacity(open_ops);
    let mut query_ms = Vec::with_capacity(open_ops);
    let mut late_ms = Vec::with_capacity(open_ops);

    // Open loop: operation k is due k / OPEN_RATE after the start and
    // timed from then; the epoch boundary runs when the first operation
    // of the next epoch is due.
    let flat = pool.epochs[..slots]
        .iter()
        .enumerate()
        .flat_map(|(slot, ops)| ops.iter().map(move |op| (slot, op)));
    let interval = 1.0 / OPEN_RATE;
    let t0 = now() + 1e-3;
    let mut free = now();
    for (k, (slot, op)) in flat.take(open_ops).enumerate() {
        let due = t0 + k as f64 * interval;
        while now() < due {
            std::hint::spin_loop();
        }
        let issued = now();
        rep.failed += u64::from(!boundary(&mut host, &mut open_epoch, slot));
        rep.failed += u64::from(host.apply(op).is_err());
        let done = now();
        let l = due_latency(due, free, issued, done);
        free = done;
        let class = if is_query(op) {
            &mut query_ms
        } else {
            &mut ingest_ms
        };
        class.push(l.latency * 1e3);
        late_ms.push(l.generator_late * 1e3);
    }
    rep.attempted += open_ops as u64;
    rep.ingest = Summary::of(&ingest_ms);
    rep.query = Summary::of(&query_ms);
    rep.late = Summary::of(&late_ms);
    ingest_ms.append(&mut query_ms);
    rep.all = Summary::of(&ingest_ms);
    rep.tail_ms = stats::tail(&ingest_ms).map_or(f64::NAN, |t| t.value);
    drop((ingest_ms, query_ms, late_ms));

    // Closed loop over the rest of the slots.
    let start = now();
    let mut closed_ops = 0;
    let (mut first_slot, mut first_op) = (0, open_ops);
    while first_slot < slots && first_op >= pool.epochs[first_slot].len() {
        first_op -= pool.epochs[first_slot].len();
        first_slot += 1;
    }
    for (slot, ops) in pool.epochs[..slots].iter().enumerate().skip(first_slot) {
        let t = now();
        if Pool::epoch(slot) > open_epoch {
            rep.failed += u64::from(!boundary(&mut host, &mut open_epoch, slot));
            rep.boundary_ms.push((now() - t) * 1e3);
        }
        let skip = if slot == first_slot { first_op } else { 0 };
        for op in &ops[skip..] {
            rep.failed += u64::from(host.apply(op).is_err());
        }
        closed_ops += ops.len() - skip;
    }
    let t = now();
    rep.failed += u64::from(host.advance_to(epoch_end(open_epoch)).is_err());
    rep.boundary_ms.push((now() - t) * 1e3);
    let closed_s = now() - start;
    rep.capacity = closed_ops as f64 / closed_s;
    rep.op_s = (closed_s - rep.boundary_ms.iter().sum::<f64>() / 1e3) / closed_ops as f64;
    rep.attempted += closed_ops as u64;
    (host, rep)
}

/// `service_host`: [`REPS`] repetitions, each on a freshly set-up host
/// replaying the same operations: open loop at [`OPEN_RATE`] for half
/// its time, then a closed loop. The bounded metrics are medians over
/// the repetitions.
pub fn run_host(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    params(&mut report, HOST_NODES, seed);
    let driver = driver(HOST_NODES, seed);
    let rep_s = seconds / REPS as f64;
    let open_ops = (OPEN_RATE * rep_s / 2.0) as usize;
    let ops_per_epoch = driver
        .ops_for_epoch_len(SimDuration::from_secs(EPOCH_SECS), 0)
        .len();
    let open_epochs = open_ops.div_ceil(ops_per_epoch.max(1));
    let slots = open_epochs + (HOST_CLOSED_EPOCHS_PER_S * rep_s / 2.0).ceil() as usize;
    let traced_epochs = if trace { TRACED_EPOCHS } else { 0 };
    report.param("reps", REPS);
    report.param("open_rate_ops_per_s", OPEN_RATE);
    report.param("open_ops_per_rep", open_ops);
    report.param("epochs_per_rep", slots);
    report.param("checkpoint_every_epochs", 1);
    let (pool, gen_s) = timed(|| Pool::generate(&driver, (slots + traced_epochs) as u64));

    let mut reps = Vec::new();
    let mut host = None;
    let mut states = Vec::new();
    for _ in 0..REPS {
        drop(host.take());
        let (h, rep) = host_rep(&driver, &pool, open_ops, slots);
        states.push(h.service().map(score_bits));
        host = Some(h);
        reps.push(rep);
    }
    let mut host = host.expect("at least one repetition ran");
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    report.e2e(
        "setup_s",
        med(&setups) + gen_s,
        "s",
        format!("median of {REPS} host set-ups + {gen_s:.3} s op generation"),
    );
    let capacities: Vec<f64> = reps.iter().map(|r| r.capacity).collect();
    let capacity = med(&capacities);
    report.e2e(
        "throughput_per_s",
        capacity,
        "1/s",
        format!("closed-loop ops/s, median of {capacities:.0?}"),
    );
    let tails: Vec<f64> = reps.iter().map(|r| r.tail_ms).collect();
    let tail_pct = 100.0 * (open_ops - stats::TAIL_BEYOND) as f64 / open_ops as f64;
    report.e2e(
        "latency_tail_ms",
        med(&tails),
        "ms",
        format!("open-loop op from due time, p{tail_pct:.4} of n={open_ops}, median of {REPS}"),
    );
    // The printed summaries: medians over the repetitions.
    let across = |f: fn(&HostRep) -> f64| med(&reps.iter().map(f).collect::<Vec<f64>>());
    let note = format!("median of {REPS} repetitions of {open_ops} open-loop ops");
    report.detail("latency_p50_ms", across(|r| r.all.p50), "ms", note.clone());
    report.class_latency(
        "ingest",
        across(|r| r.ingest.p50),
        across(|r| r.ingest.p99),
        note.clone(),
    );
    report.class_latency(
        "query",
        across(|r| r.query.p50),
        across(|r| r.query.p99),
        note.clone(),
    );
    report.detail(
        "capacity_ops_per_s",
        capacity,
        "1/s",
        format!("median of {REPS}"),
    );
    let boundaries: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.boundary_ms.iter().copied())
        .collect();
    report.detail(
        "boundary_ms",
        med(&boundaries),
        "ms",
        format!("closed-loop boundary p50, n={}", boundaries.len()),
    );
    let late_p99 = across(|r| r.late.p99);
    report.detail("driver.late_ms.p99", late_p99, "ms", note);
    report.attempted = reps.iter().map(|r| r.attempted).sum();
    report.failed_ops = reps.iter().map(|r| r.failed).sum();
    report.check(
        "repetitions end bit-identical",
        states.iter().all(|s| s.is_some() && *s == states[0]),
    );

    // Output check: the streaming host == a bare service fed the same
    // operations in epoch batches.
    let mut shadow = TrustService::new(host_config(HOST_NODES).service).expect("valid config");
    let warm: Vec<Vec<ServiceOp>> = (0..WARM_EPOCHS)
        .map(|e| driver.ops_for_epoch_len(SimDuration::from_secs(EPOCH_SECS), e))
        .collect();
    for ops in warm.iter().chain(&pool.epochs[..slots]) {
        shadow
            .apply_all(ops)
            .expect("the shadow accepts the workload");
        shadow.finish_epoch().expect("the shadow commits");
    }
    let serving = host.service().expect("the host is up");
    report.check(
        "host scores == batch scores",
        score_bits(serving) == score_bits(&shadow),
    );
    report.check(
        "host samples == batch samples",
        serving.samples() == shadow.samples(),
    );

    let mut tracer = Tracer::new(trace);
    if trace {
        let traced = traced_host(
            &mut report,
            &mut tracer,
            &mut host,
            &mut shadow,
            warm.iter().chain(&pool.epochs[..slots]),
            &pool.epochs[slots..slots + traced_epochs],
            slots,
        );
        report.failed_ops += traced.failed;
        report.attempted += traced.ops;
        report.layer("driver.gen_ms", med(&pool.gen_ms), "ms");
        report.layer("driver.late_ms.p99", late_p99, "ms");
        // Boundaries grow with service age, so the overhead compares
        // per-operation time only: traced calls against the untraced
        // closed loop.
        let op_s: Vec<f64> = reps.iter().map(|r| r.op_s).collect();
        let expected = traced.ops as f64 * med(&op_s);
        report.layer("trace.overhead_ms", (traced.ops_s - expected) * 1e3, "ms");
        report.layer(
            "trace.overhead_pct",
            100.0 * (traced.ops_s - expected) / expected,
            "%",
        );
    }
    report.tracer = tracer;
    report
}

struct Traced {
    ops: u64,
    failed: u64,
    /// Wall time of the per-operation host calls, recording included
    /// (boundaries and shadows excluded).
    ops_s: f64,
}

/// The traced segment of `service_host`: every host call timed, and
/// each epoch replayed into shadows of the layers underneath.
fn traced_host<'a>(
    report: &mut Report,
    tracer: &mut Tracer,
    host: &mut ServiceHost,
    shadow: &mut TrustService,
    prior: impl Iterator<Item = &'a Vec<ServiceOp>>,
    epochs: &[Vec<ServiceOp>],
    first_slot: usize,
) -> Traced {
    let policy = DisclosurePolicy::ladder(host.config().service.disclosure_level);
    // A warm mechanism: every epoch before the segment, committed as
    // the service committed it.
    let mut mechanism = build_mechanism(host.config().service.mechanism, HOST_NODES);
    for ops in prior {
        mechanism.record_batch(&views(ops, &policy));
        mechanism.refresh();
    }
    let mut journal = EventJournal::new();
    let mut out = Traced {
        ops: 0,
        failed: 0,
        ops_s: 0.0,
    };
    // The host alone first, so that the shadows below cannot disturb
    // its timings.
    let mut boundaries = Vec::new();
    for (offset, ops) in epochs.iter().enumerate() {
        let epoch = Pool::epoch(first_slot + offset);
        let start = now();
        for op in ops {
            let t = now();
            let r = host.apply(op);
            let name = if is_query(op) {
                "host.apply.query"
            } else {
                "host.apply.ingest"
            };
            tracer.op(name, t, now(), false);
            out.failed += u64::from(r.is_err());
        }
        out.ops_s += now() - start;
        let boundary = tracer.span("host.boundary", |_| host.advance_to(epoch_end(epoch)));
        boundaries.push(tracer.last("host.boundary"));
        out.failed += u64::from(boundary.is_err());
        out.ops += ops.len() as u64;
    }
    // The same epochs replayed into a bare service, a journal and a
    // warm mechanism. Commit and checkpoint shadows belong to the
    // boundary whose work they repeat.
    let mut checkpoint_bytes = Vec::new();
    for (ops, &boundary) in epochs.iter().zip(&boundaries) {
        for op in ops {
            let t = now();
            let r = shadow.apply(op);
            let name = if is_query(op) {
                "service.query"
            } else {
                "service.ingest"
            };
            tracer.op(name, t, now(), true);
            out.failed += u64::from(r.is_err());
            let t = now();
            journal.append(&JournalRecord::Op(*op));
            tracer.op("journal.append", t, now(), true);
        }
        tracer
            .shadow_under(boundary, "service.commit", || shadow.finish_epoch())
            .expect("the shadow commits");
        let bytes = tracer
            .shadow_under(boundary, "service.checkpoint", || shadow.checkpoint())
            .expect("EigenTrust supports checkpoints");
        checkpoint_bytes.push(bytes.len() as f64);
        let batch = views(ops, &policy);
        tracer.shadow("reputation.record_batch", || mechanism.record_batch(&batch));
        tracer.shadow("reputation.refresh", || mechanism.refresh());
    }
    let replay_matches = (0..HOST_NODES).all(|i| {
        let node = tsn_simnet::NodeId::from_index(i);
        mechanism.score(node).to_bits() == shadow.score(node).to_bits()
    });
    report.check("mechanism replay == service commits", replay_matches);
    let ms = |v: Vec<f64>| med(&v) * 1e3;
    let ns = |v: &[f64]| med(v) * 1e9;
    report.layer(
        "host.apply_ns.ingest",
        ns(tracer.op_samples("host.apply.ingest")),
        "ns",
    );
    report.layer(
        "host.apply_ns.query",
        ns(tracer.op_samples("host.apply.query")),
        "ns",
    );
    report.layer(
        "host.boundary_ms",
        ms(tracer.durations("host.boundary")),
        "ms",
    );
    report.layer(
        "host.boundary_self_ms",
        ms(tracer.self_times_of("host.boundary")),
        "ms",
    );
    report.layer(
        "service.ingest_ns",
        ns(tracer.op_samples("service.ingest")),
        "ns",
    );
    report.layer(
        "service.query_ns",
        ns(tracer.op_samples("service.query")),
        "ns",
    );
    report.layer(
        "service.commit_ms",
        ms(tracer.durations("service.commit")),
        "ms",
    );
    report.layer(
        "service.checkpoint_ms",
        ms(tracer.durations("service.checkpoint")),
        "ms",
    );
    report.layer("service.checkpoint_bytes", med(&checkpoint_bytes), "bytes");
    report.layer(
        "journal.append_ns",
        ns(tracer.op_samples("journal.append")),
        "ns",
    );
    report.layer(
        "journal.bytes_per_op",
        journal.bytes_written() as f64 / journal.records() as f64,
        "bytes",
    );
    report.layer(
        "reputation.refresh_iterations",
        shadow.stats().refresh_iterations as f64,
        "count",
    );
    report.layer(
        "reputation.record_batch_ms",
        ms(tracer.durations("reputation.record_batch")),
        "ms",
    );
    report.layer(
        "reputation.refresh_ms",
        ms(tracer.durations("reputation.refresh")),
        "ms",
    );

    // Recovery: crash the host at its clock and restart it from its own
    // checkpoints and journal.
    let serving = host.service().expect("the host is up");
    let (before, at) = (score_bits(serving), serving.now());
    host.crash(at);
    let (recovered, s) = tracer.span("host.recovery", |_| timed(|| host.restart(at).is_ok()));
    report.layer("host.recovery_ms", s * 1e3, "ms");
    let after = host.service().map(score_bits);
    report.check(
        "restart recovers the committed state",
        recovered && after == Some(before),
    );
    out
}

const FAILOVER_NODES: usize = 2_000;
const REPLICAS: usize = 3;
/// A primary is killed every this many epochs, mid-epoch…
const KILL_EVERY_EPOCHS: u64 = 6;
/// …and stays down this long, so it restarts and catches up well
/// before the next kill.
const DOWNTIME_EPOCHS: u64 = 2;
/// Closed-loop epochs per second of `--seconds` (about 3.4 epochs/s on
/// the 2-core reference machine); fixed by `--seconds` alone, as for
/// the host.
const FAILOVER_EPOCHS_PER_S: f64 = 3.4;
/// Epochs of the traced segment.
const FAILOVER_TRACED_EPOCHS: usize = 12;

/// The kill schedule: the `j`-th kill hits replica `j % 2` at the
/// middle of epoch `WARM_EPOCHS + 3 + j * KILL_EVERY_EPOCHS`. Promotion
/// picks the lowest-indexed member among equally current followers, so
/// replicas 0 and 1 take turns as primary and every kill hits the
/// primary; the run checks that it did.
fn kills(horizon_epochs: u64) -> Vec<(u32, SimTime)> {
    (0..)
        .map(|j: u64| {
            let epoch = WARM_EPOCHS + 3 + j * KILL_EVERY_EPOCHS;
            let at = SimTime::from_secs(EPOCH_SECS * epoch + EPOCH_SECS / 2);
            ((j % 2) as u32, epoch, at)
        })
        .take_while(|&(_, epoch, _)| epoch < WARM_EPOCHS + horizon_epochs)
        .map(|(victim, _, at)| (victim, at))
        .collect()
}

fn replica_set(kills: &[(u32, SimTime)]) -> ReplicaSet {
    let mut set = ReplicaSet::new(ReplicaConfig {
        host: host_config(FAILOVER_NODES),
        replicas: REPLICAS,
    })
    .expect("the replica configuration is valid");
    let mut plan = FaultPlan::default();
    for &(victim, at) in kills {
        let downtime = SimDuration::from_secs(EPOCH_SECS * DOWNTIME_EPOCHS);
        plan.process
            .extend(FaultPlan::replica_crash(victim, at, downtime).process);
    }
    set.attach_faults(FaultInjector::new(plan, 0).expect("the kill plan is valid"));
    set
}

/// What the closed loop saw, call by call.
#[derive(Default)]
struct Calls {
    ops: u64,
    failed: u64,
    /// Every call's duration (kept per repetition, not absorbed).
    latency_ms: Vec<f64>,
    failover_ms: Vec<f64>,
    recovery_ms: Vec<f64>,
    boundary_ms: Vec<f64>,
    /// Calls that were plain applies.
    plain: u64,
    /// Wall time of the whole call loop, recording included.
    loop_s: f64,
    /// Time spent in failover, recovery and boundary calls.
    special_s: f64,
    /// Replica killed by each failover, in order.
    promoted_from: Vec<usize>,
}

/// Applies `ops` to `set` one call at a time, classifying each call:
/// the one that promoted a member (failover), the one in which a
/// crashed member came back (recovery), the one that crossed an epoch
/// boundary, or a plain apply.
fn drive_set(set: &mut ReplicaSet, ops: &[ServiceOp], calls: &mut Calls, tracer: &mut Tracer) {
    let begin = now();
    for op in ops {
        let failovers = set.failovers().len();
        let down: Vec<bool> = set
            .hosts()
            .iter()
            .map(|h| h.state() == HostState::Down)
            .collect();
        let epoch = set.primary_service().map_or(0, TrustService::epoch_index);
        let t = now();
        let r = set.apply(op);
        let done = now();
        calls.ops += 1;
        let ms = (done - t) * 1e3;
        calls.latency_ms.push(ms);
        if let Err(e) = r {
            calls.failed += 1;
            if let HostError::Rejected(e) = e {
                eprintln!("replica set rejected an op: {e}");
            }
        }
        let recovered = set
            .hosts()
            .iter()
            .zip(&down)
            .any(|(h, &was_down)| was_down && h.state() == HostState::Up);
        if set.failovers().len() > failovers {
            calls.failover_ms.push(ms);
            calls
                .promoted_from
                .extend(set.failovers()[failovers..].iter().map(|f| f.from));
            tracer.record("replica.failover", t, done, false);
        } else if recovered {
            calls.recovery_ms.push(ms);
            tracer.record("replica.recovery", t, done, false);
        } else if set.primary_service().map_or(0, TrustService::epoch_index) > epoch {
            calls.boundary_ms.push(ms);
            tracer.record("replica.boundary", t, done, false);
        } else {
            calls.plain += 1;
            tracer.op("replica.apply", t, done, false);
            continue;
        }
        calls.special_s += done - t;
    }
    calls.loop_s += now() - begin;
}

impl Calls {
    /// Mean wall time per plain apply call, loop overhead included.
    fn plain_op_s(&self) -> f64 {
        (self.loop_s - self.special_s) / self.plain as f64
    }

    /// Appends another loop's calls, all but the per-call durations.
    fn absorb(&mut self, other: Calls) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.failover_ms.extend(other.failover_ms);
        self.recovery_ms.extend(other.recovery_ms);
        self.boundary_ms.extend(other.boundary_ms);
        self.plain += other.plain;
        self.loop_s += other.loop_s;
        self.special_s += other.special_s;
        self.promoted_from.extend(other.promoted_from);
    }
}

/// One `service_failover` repetition.
struct FailoverRep {
    setup_s: f64,
    capacity: f64,
    tail_ms: f64,
    p50_ms: f64,
    /// Plain apply time per call, loop overhead included.
    plain_op_s: f64,
    calls: Calls,
    /// The primary's scores after the closed loop.
    state: Option<Vec<u64>>,
}

/// Sets up a replica set with the kill plan, drives the first `slots`
/// pool epochs closed-loop, then `traced` more epochs with `tracer`
/// on, then lets the clock run on (no operations) until the last killed
/// member is back. Checks the kills, recoveries and convergence.
fn failover_rep(
    driver: &ServiceDriver,
    pool: &Pool,
    kills: &[(u32, SimTime)],
    slots: usize,
    traced: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> FailoverRep {
    let (mut set, setup_s) = timed(|| {
        let mut set = replica_set(kills);
        for e in 0..WARM_EPOCHS {
            for op in driver.ops_for_epoch_len(SimDuration::from_secs(EPOCH_SECS), e) {
                set.apply(&op)
                    .expect("a fresh set acknowledges the warm-up");
            }
        }
        set
    });
    let mut calls = Calls {
        latency_ms: Vec::with_capacity(slots_ops(pool, slots)),
        ..Calls::default()
    };
    let start = now();
    for ops in &pool.epochs[..slots] {
        drive_set(&mut set, ops, &mut calls, tracer);
    }
    let closed_s = now() - start;
    let rep = FailoverRep {
        setup_s,
        capacity: calls.ops as f64 / closed_s,
        tail_ms: stats::tail(&calls.latency_ms).map_or(f64::NAN, |t| t.value),
        p50_ms: med(&calls.latency_ms),
        plain_op_s: calls.plain_op_s(),
        state: set.primary_service().map(score_bits),
        calls: Calls::default(),
    };
    calls.latency_ms = Vec::new();
    if traced > 0 {
        tracer.set_enabled(true);
        let mut seg = Calls::default();
        for ops in &pool.epochs[slots..slots + traced] {
            drive_set(&mut set, ops, &mut seg, tracer);
        }
        tracer.set_enabled(false);
        let expected = seg.plain as f64 * rep.plain_op_s;
        let overhead = seg.loop_s - seg.special_s - expected;
        report.layer("trace.overhead_ms", overhead * 1e3, "ms");
        report.layer("trace.overhead_pct", 100.0 * overhead / expected, "%");
        calls.absorb(seg);
    }

    // Let the clock run on until the last killed member is back.
    let mut last_end = epoch_end(Pool::epoch(slots + traced - 1));
    for _ in 0..=DOWNTIME_EPOCHS {
        let up = |set: &ReplicaSet| {
            set.hosts()
                .iter()
                .filter(|h| h.state() == HostState::Up)
                .count()
        };
        let before = up(&set);
        let t = now();
        calls.failed += u64::from(set.advance_to(last_end).is_err());
        if up(&set) > before {
            calls.recovery_ms.push((now() - t) * 1e3);
        }
        if up(&set) == REPLICAS {
            break;
        }
        last_end = last_end.saturating_add(SimDuration::from_secs(EPOCH_SECS));
    }
    // Every kill that fell inside the run hit the primary and promoted
    // once; every restarted member recovered; every member is back and
    // bit-identical to the primary.
    let fired: Vec<usize> = kills
        .iter()
        .filter(|&&(_, at)| at < last_end)
        .map(|&(victim, _)| victim as usize)
        .collect();
    report.check(
        format!(
            "{} kills each promoted once, from the killed primary",
            fired.len()
        ),
        calls.promoted_from == fired,
    );
    let downtime = SimDuration::from_secs(EPOCH_SECS * DOWNTIME_EPOCHS);
    let restarted = kills
        .iter()
        .filter(|&&(_, at)| at.saturating_add(downtime) < last_end)
        .count();
    report.check(
        "every restarted member recovered",
        calls.recovery_ms.len() == restarted,
    );
    let primary = set.primary_service().map(score_bits);
    let converged = set
        .hosts()
        .iter()
        .all(|h| h.state() == HostState::Up && h.service().map(score_bits) == primary);
    report.check("members up and converged", converged);
    let caught_up: u64 = set.failovers().iter().map(|f| f.caught_up).sum();
    report.layer("replica.caught_up", caught_up as f64, "count");
    report.layer("replica.failovers", set.failovers().len() as f64, "count");
    FailoverRep { calls, ..rep }
}

/// `service_failover`: [`REPS`] repetitions, each a closed loop against
/// a freshly set-up 3-replica set whose primary is killed every
/// [`KILL_EVERY_EPOCHS`] epochs. The bounded metrics are medians over
/// the repetitions.
pub fn run_failover(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    params(&mut report, FAILOVER_NODES, seed);
    let driver = driver(FAILOVER_NODES, seed);
    let slots = (FAILOVER_EPOCHS_PER_S * seconds / REPS as f64).ceil() as usize;
    let traced = if trace { FAILOVER_TRACED_EPOCHS } else { 0 };
    let kills = kills((slots + traced) as u64);
    report.param("replicas", REPLICAS);
    report.param("kill_every_epochs", KILL_EVERY_EPOCHS);
    report.param("downtime_epochs", DOWNTIME_EPOCHS);
    report.param("reps", REPS);
    report.param("epochs_per_rep", slots);
    let (pool, gen_s) = timed(|| Pool::generate(&driver, (slots + traced) as u64));

    let mut tracer = Tracer::new(false);
    let mut reps = Vec::new();
    for r in 0..REPS {
        let last = r + 1 == REPS;
        let extra = if last { traced } else { 0 };
        // Only the last repetition's layer counts are kept.
        let mut scratch = Report::default();
        let sink = if last { &mut report } else { &mut scratch };
        reps.push(failover_rep(
            &driver,
            &pool,
            &kills,
            slots,
            extra,
            &mut tracer,
            sink,
        ));
        report.checks.append(&mut scratch.checks);
    }
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    report.e2e(
        "setup_s",
        med(&setups) + gen_s,
        "s",
        format!("median of {REPS} set-ups + {gen_s:.3} s op generation"),
    );
    let capacities: Vec<f64> = reps.iter().map(|r| r.capacity).collect();
    let capacity = med(&capacities);
    report.e2e(
        "throughput_per_s",
        capacity,
        "1/s",
        format!("closed-loop ops/s, median of {capacities:.0?}"),
    );
    let tails: Vec<f64> = reps.iter().map(|r| r.tail_ms).collect();
    let n = slots_ops(&pool, slots);
    let tail_pct = 100.0 * (n - stats::TAIL_BEYOND) as f64 / n as f64;
    report.e2e(
        "latency_tail_ms",
        med(&tails),
        "ms",
        format!("closed-loop apply call, p{tail_pct:.4} of n={n}, median of {REPS}"),
    );
    report.check(
        "repetitions agree",
        reps.iter()
            .all(|r| r.state.is_some() && r.state == reps[0].state),
    );
    let reps_p50: Vec<f64> = reps.iter().map(|r| r.p50_ms).collect();
    let mut calls = Calls::default();
    for r in reps {
        calls.absorb(r.calls);
    }
    report.detail(
        "latency_p50_ms",
        med(&reps_p50),
        "ms",
        format!("closed-loop apply call, median of {REPS} repetitions"),
    );
    report.detail(
        "capacity_ops_per_s",
        capacity,
        "1/s",
        format!("median of {REPS}"),
    );
    report.detail(
        "failover_ms",
        med(&calls.failover_ms),
        "ms",
        format!("p50, n={}", calls.failover_ms.len()),
    );
    report.detail(
        "recovery_ms",
        med(&calls.recovery_ms),
        "ms",
        format!("p50, n={}", calls.recovery_ms.len()),
    );
    if trace {
        report.layer(
            "replica.apply_ns",
            med(tracer.op_samples("replica.apply")) * 1e9,
            "ns",
        );
        report.layer(
            "replica.boundary_ms",
            med(&tracer.durations("replica.boundary")) * 1e3,
            "ms",
        );
        report.layer("driver.gen_ms", med(&pool.gen_ms), "ms");
    }
    report.attempted = calls.ops;
    report.failed_ops = calls.failed;
    report.tracer = tracer;
    report
}

/// Operations in the first `slots` pool epochs.
fn slots_ops(pool: &Pool, slots: usize) -> usize {
    pool.epochs[..slots].iter().map(Vec::len).sum()
}
