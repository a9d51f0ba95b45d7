//! Deterministic open-loop workload generator for the service.
//!
//! The driver turns `(seed, epoch)` into a timeline of [`ServiceOp`]s:
//! exponential inter-arrival interactions per node, a disclosure and
//! query mix riding on top, malicious providers with degraded quality.
//! Determinism follows the sharded scenario engine's discipline — every
//! `(epoch, node)` pair draws from its own [`SimRng::stream`], and the
//! per-node op lists are merged in a fixed key order — so the timeline
//! is a pure function of the configuration, independent of how (or how
//! often) it is generated. That purity is what the
//! streaming-equals-batch and checkpoint-equals-uninterrupted tests
//! pin.

use crate::event::{ServiceEvent, ServiceOp};
use crate::host::{ApplyOutcome, HostError, ServiceHost};
use crate::replica::ReplicaSet;
use crate::service::{Staleness, TrustService};
use tsn_reputation::InteractionOutcome;
use tsn_simnet::{
    MembershipConfig, MembershipRuntime, NodeId, SimDuration, SimRng, SimTime, StreamDomain,
    MEMBERSHIP_SEED_SALT,
};

/// Stream-label domain for per-node provider quality, disjoint from the
/// per-`(epoch, node)` op streams (those use `epoch << 32 | node`, which
/// stays far below this bit). Registered as
/// [`StreamDomain::ServiceQuality`].
const QUALITY_STREAM_DOMAIN: u64 = StreamDomain::ServiceQuality.tag();

/// Stream-label domain for retry jitter, disjoint from both the op
/// streams and the quality stream. Registered as
/// [`StreamDomain::ServiceRetry`].
const RETRY_STREAM_DOMAIN: u64 = StreamDomain::ServiceRetry.tag();

/// Upper bound on the expected interactions per epoch, `nodes ×
/// arrival_rate`. An epoch's timeline is generated in memory, so a rate
/// past this bound would exhaust memory instead of failing validation.
/// It admits [`tsn_simnet::MAX_NODES`] at the default rate of 2.0 twice
/// over.
const MAX_EPOCH_INTERACTIONS: f64 = 16_777_216.0;

// Client-side retry discipline for operations a `ServiceHost` bounces
// with `HostError::Unavailable`: bounded attempts, exponential backoff,
// deterministic jitter.

/// Total attempts per operation, the first try included.
const MAX_ATTEMPTS: u32 = 5;
/// Backoff before the first retry; doubles per attempt.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(100);
/// Backoff ceiling.
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(10);
/// Jitter fraction: each backoff is scaled by a deterministic draw from
/// `[1 - JITTER, 1]`.
const JITTER: f64 = 0.5;

/// The backoff before retry number `attempt + 1` of operation `op_id`:
/// `BASE_BACKOFF * 2^attempt`, capped at [`MAX_BACKOFF`], scaled by the
/// jitter draw. The draw comes from its own [`SimRng::stream`] keyed by
/// `(seed, op id, attempt)`, so a retried timeline replays bit-for-bit
/// — the point of jitter (decorrelating retry storms) survives without
/// giving up determinism.
fn retry_backoff(seed: u64, op_id: u64, attempt: u32) -> SimDuration {
    let doubled = BASE_BACKOFF
        .as_micros()
        .saturating_mul(1u64 << attempt.min(20));
    let capped = doubled.min(MAX_BACKOFF.as_micros());
    let label = RETRY_STREAM_DOMAIN | (op_id << 8) | u64::from(attempt & 0xff);
    let mut rng = SimRng::stream(seed, label);
    let scale = 1.0 - JITTER + JITTER * rng.gen_f64();
    SimDuration::from_micros((capped as f64 * scale) as u64)
}

/// Configuration of a [`ServiceDriver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Population size (must match the driven service).
    pub nodes: usize,
    /// Expected interactions per node per epoch (open-loop Poisson).
    pub arrival_rate: f64,
    /// Probability that an interaction also emits a disclosure event
    /// about the provider.
    pub disclosure_rate: f64,
    /// Probability that an interaction is followed by a trust query
    /// from the consumer (every other such query reads exposure
    /// instead).
    pub query_rate: f64,
    /// Fraction of nodes (the tail of the id space) acting maliciously:
    /// low-quality service, careless disclosures.
    pub malicious_fraction: f64,
    /// Root seed; the whole timeline is a pure function of it.
    pub seed: u64,
    /// Peer-sampling membership overlay: when set, each node's
    /// interaction partner is sampled from its bounded partial view
    /// (evolved one shuffle per epoch) instead of the global
    /// population. A node whose view is empty that epoch initiates
    /// nothing — the deterministic-skip semantics. `None` keeps the
    /// legacy global draw bit-identical.
    pub membership: Option<MembershipConfig>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            nodes: 100,
            arrival_rate: 2.0,
            disclosure_rate: 0.2,
            query_rate: 0.5,
            malicious_fraction: 0.1,
            seed: 42,
            membership: None,
        }
    }
}

impl DriverConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("driver needs at least 2 nodes (interactions need a partner)".into());
        }
        if !self.arrival_rate.is_finite() || self.arrival_rate <= 0.0 {
            return Err(format!(
                "arrival_rate must be positive, got {}",
                self.arrival_rate
            ));
        }
        let per_epoch = self.nodes as f64 * self.arrival_rate;
        if per_epoch > MAX_EPOCH_INTERACTIONS {
            return Err(format!(
                "arrival_rate {:e} at {} nodes expects {per_epoch:e} interactions per \
                 epoch, above the bound of {MAX_EPOCH_INTERACTIONS:e}",
                self.arrival_rate, self.nodes
            ));
        }
        for (name, v) in [
            ("disclosure_rate", self.disclosure_rate),
            ("query_rate", self.query_rate),
            ("malicious_fraction", self.malicious_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if let Some(m) = &self.membership {
            m.validate()?;
            if m.relays >= self.nodes {
                return Err("membership needs more nodes than relays".into());
            }
        }
        Ok(())
    }

    /// Whether `node` is in the malicious tail of the id space.
    pub fn is_malicious(&self, node: NodeId) -> bool {
        let honest = self.nodes - (self.nodes as f64 * self.malicious_fraction) as usize;
        node.index() >= honest
    }
}

/// What came out of one [`ServiceDriver::drive_host`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostDriveReport {
    /// Operations the host acknowledged (fresh or retried).
    pub applied: u64,
    /// Retries scheduled after an `Unavailable` bounce.
    pub retries: u64,
    /// Operations abandoned: attempts exhausted, or still pending when
    /// the run ended.
    pub abandoned: u64,
    /// Queries answered from degraded (recovery-window) state.
    pub degraded_answers: u64,
}

/// What the fault-tolerant drive loop needs from its target: a lone
/// [`ServiceHost`] and a whole [`ReplicaSet`] present the same client
/// surface — apply-or-bounce plus a clock — so the retry discipline is
/// written once.
trait OpSink {
    /// The population the target serves.
    fn nodes(&self) -> usize;
    /// The target's epoch length.
    fn epoch_len(&self) -> SimDuration;
    /// The epoch the next drive starts from.
    fn start_epoch(&self) -> u64;
    /// One application attempt.
    fn apply_op(&mut self, op: &ServiceOp) -> Result<ApplyOutcome, HostError>;
    /// Clock advance (epoch commits ride on this).
    fn advance(&mut self, at: SimTime) -> Result<(), String>;
}

impl OpSink for ServiceHost {
    fn nodes(&self) -> usize {
        self.config().service.nodes
    }
    fn epoch_len(&self) -> SimDuration {
        self.config().service.epoch
    }
    fn start_epoch(&self) -> u64 {
        self.service().map_or(0, |s| s.epoch_index())
    }
    fn apply_op(&mut self, op: &ServiceOp) -> Result<ApplyOutcome, HostError> {
        self.apply(op)
    }
    fn advance(&mut self, at: SimTime) -> Result<(), String> {
        self.advance_to(at)
    }
}

impl OpSink for ReplicaSet {
    fn nodes(&self) -> usize {
        self.config().host.service.nodes
    }
    fn epoch_len(&self) -> SimDuration {
        self.config().host.service.epoch
    }
    fn start_epoch(&self) -> u64 {
        // The primary sequences everything, so its committed epoch is
        // the set's.
        self.primary_service().map_or(0, |s| s.epoch_index())
    }
    fn apply_op(&mut self, op: &ServiceOp) -> Result<ApplyOutcome, HostError> {
        self.apply(op)
    }
    fn advance(&mut self, at: SimTime) -> Result<(), String> {
        self.advance_to(at)
    }
}

/// Deterministic workload generator (see the module docs).
#[derive(Debug, Clone)]
pub struct ServiceDriver {
    config: DriverConfig,
}

impl ServiceDriver {
    /// Creates a driver.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error.
    pub fn new(config: DriverConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(ServiceDriver { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// `node`'s service quality as a provider — a pure function of
    /// `(seed, node)`, so every epoch sees the same provider behaviour.
    pub fn provider_quality(&self, node: NodeId) -> f64 {
        let mut rng = SimRng::stream(self.config.seed, QUALITY_STREAM_DOMAIN | u64::from(node.0));
        let base = if self.config.is_malicious(node) {
            0.1
        } else {
            0.9
        };
        // Small stable per-node spread, clamped into [0, 1].
        (base + 0.1 * (rng.gen_f64() - 0.5)).clamp(0.0, 1.0)
    }

    /// The overlay's view state as of `epoch`, or `None` without an
    /// overlay: a fresh runtime advanced `epoch + 1` shuffle rounds
    /// (everyone alive, everyone reachable — workload generation
    /// models the healthy overlay; faults live at the host layer).
    /// Pure in `(config, epoch)`, like every other timeline input.
    fn membership_at(&self, epoch: u64) -> Option<MembershipRuntime> {
        let config = self.config.membership?;
        let mut runtime = MembershipRuntime::new(
            self.config.nodes,
            config,
            self.config.seed ^ MEMBERSHIP_SEED_SALT,
        )
        // tsn-lint: allow(no-unwrap, "DriverConfig::validate checked the overlay config and the relay/population ratio at construction")
        .expect("membership config validated at driver construction");
        for _ in 0..=epoch {
            runtime.shuffle_round(|_| true, |_, _| true);
        }
        Some(runtime)
    }

    /// Generates epoch `epoch` of the timeline for a service whose
    /// epoch boundaries are given by `epoch_end`. Ops come back sorted
    /// by `(time, node, seq)` — the fixed merge order that makes the
    /// result independent of generation order. Returns an empty
    /// timeline for an epoch whose start has saturated to the horizon.
    pub fn ops_for_epoch(&self, service: &TrustService, epoch: u64) -> Vec<ServiceOp> {
        self.ops_for_epoch_len(service.config().epoch, epoch)
    }

    /// [`ServiceDriver::ops_for_epoch`] for callers that do not hold a
    /// live service — e.g. driving a [`ServiceHost`] whose service is
    /// mid-crash. `epoch_len` is the epoch length the timeline is laid
    /// out on.
    pub fn ops_for_epoch_len(&self, epoch_len: SimDuration, epoch: u64) -> Vec<ServiceOp> {
        let epoch_us = epoch_len.as_micros();
        let Some(start_us) = epoch_us.checked_mul(epoch) else {
            return Vec::new(); // at the horizon: nothing left to schedule
        };
        // The overlay's per-epoch view snapshot, re-derived from
        // scratch: `epoch + 1` shuffles over a fully-live population is
        // a pure function of `(seed, epoch)`, which keeps the whole
        // timeline one too — checkpoint/restore and re-generation
        // cannot drift. (Relay *faults* live at the host layer: ops
        // addressed at a downed node bounce and retry there.)
        let membership = self.membership_at(epoch);
        // Keyed ops: (at_us, node, seq) is the merge key.
        let mut keyed: Vec<(u64, u32, u32, ServiceOp)> = Vec::new();
        for node_idx in 0..self.config.nodes {
            let node = NodeId::from_index(node_idx);
            let mut rng = SimRng::stream(self.config.seed, (epoch << 32) | node_idx as u64);
            let mut seq: u32 = 0;
            // Open-loop Poisson arrivals inside the unit epoch.
            let mut t = rng.gen_exp(self.config.arrival_rate);
            while t < 1.0 {
                // Map the unit offset into micros, clamped inside the
                // epoch so the event commits with its own epoch.
                let offset = ((t * epoch_us as f64) as u64).min(epoch_us - 1);
                let at_us = start_us.saturating_add(offset);
                let at = SimTime::from_micros(at_us);
                // Pick a partner: from the node's partial view under
                // the overlay (views never contain self), else
                // uniformly from the population, skipping self.
                let partner = match membership.as_ref() {
                    Some(m) => match m.view(node).sample(&mut rng) {
                        Some(p) => p,
                        None => {
                            // Empty view: this node is isolated this
                            // epoch — deterministic skip (no draws
                            // consumed, so later arrivals of other
                            // nodes are unaffected).
                            t += rng.gen_exp(self.config.arrival_rate);
                            continue;
                        }
                    },
                    None => {
                        let other = rng.gen_range(0..self.config.nodes - 1);
                        let idx = if other >= node_idx { other + 1 } else { other };
                        NodeId::from_index(idx)
                    }
                };
                let quality = self.provider_quality(partner);
                let outcome = if rng.gen_bool(quality) {
                    InteractionOutcome::Success {
                        quality: (quality + 0.5 * rng.gen_f64()).min(1.0),
                    }
                } else {
                    InteractionOutcome::Failure
                };
                keyed.push((
                    at_us,
                    node.0,
                    seq,
                    ServiceOp::Ingest(ServiceEvent::Interaction {
                        rater: node,
                        ratee: partner,
                        outcome,
                        at,
                    }),
                ));
                seq += 1;
                if rng.gen_bool(self.config.disclosure_rate) {
                    let honest = !self.config.is_malicious(partner);
                    let respected = rng.gen_bool(if honest { 0.95 } else { 0.4 });
                    keyed.push((
                        at_us,
                        node.0,
                        seq,
                        ServiceOp::Ingest(ServiceEvent::Disclosure {
                            node: partner,
                            respected,
                            at,
                        }),
                    ));
                    seq += 1;
                }
                if rng.gen_bool(self.config.query_rate) {
                    // Alternate the query kind deterministically.
                    let op = if seq.is_multiple_of(2) {
                        ServiceOp::QueryTrust { node: partner, at }
                    } else {
                        ServiceOp::QueryExposure { node: partner, at }
                    };
                    keyed.push((at_us, node.0, seq, op));
                    seq += 1;
                }
                t += rng.gen_exp(self.config.arrival_rate);
            }
        }
        // The fixed-order merge: sort by key, strip the key.
        keyed.sort_unstable_by_key(|&(at, node, seq, _)| (at, node, seq));
        keyed.into_iter().map(|(_, _, _, op)| op).collect()
    }

    /// Drives `service` for `epochs` epochs from its current position:
    /// generates each epoch's timeline, applies it, and closes the
    /// epoch so its events commit. If the service clock already sits
    /// inside the open epoch (a query advanced it), ops scheduled
    /// before the clock are skipped — the clock is monotone, and a
    /// deterministic skip keeps "checkpoint, restore, continue"
    /// equal to "never checkpointed" (both sides see the same clock,
    /// so both skip the same ops).
    ///
    /// # Errors
    ///
    /// Propagates the first failing operation's error.
    pub fn drive(&self, service: &mut TrustService, epochs: u64) -> Result<(), String> {
        if self.config.nodes != service.config().nodes {
            return Err(format!(
                "driver is sized for {} nodes, service for {}",
                self.config.nodes,
                service.config().nodes
            ));
        }
        for _ in 0..epochs {
            let epoch = service.epoch_index();
            let ops = self.ops_for_epoch(service, epoch);
            let now = service.now();
            for op in &ops {
                if op.at() >= now {
                    service.apply(op)?;
                }
            }
            service.finish_epoch()?;
        }
        Ok(())
    }

    /// Drives a [`ServiceHost`] for `epochs` epochs with the client
    /// half of fault tolerance: fresh ops that bounce with
    /// [`HostError::Unavailable`] are re-stamped and retried (bounded
    /// attempts, exponential backoff, deterministic jitter). Retries due
    /// at or before a fresh op's time are flushed first, so the applied
    /// order is a pure function of the configuration — a faulted run
    /// replays bit-for-bit. Retries still pending when the run ends are
    /// abandoned (and counted).
    ///
    /// On a fault-free host this applies exactly the [`drive`] timeline,
    /// so the final service state is bit-identical to an undriven
    /// [`TrustService`] fed the same epochs.
    ///
    /// # Errors
    ///
    /// Propagates hard rejections ([`HostError::Rejected`]) — the
    /// workload itself never produces one, so a rejection means the
    /// host and driver disagree about the configuration.
    ///
    /// [`drive`]: ServiceDriver::drive
    pub fn drive_host(
        &self,
        host: &mut ServiceHost,
        epochs: u64,
    ) -> Result<HostDriveReport, String> {
        self.drive_target(host, epochs)
    }

    /// [`ServiceDriver::drive_host`] against a whole [`ReplicaSet`]:
    /// the same client-side retry discipline, with the sequencer's
    /// failover underneath — an op bounced by a dying primary is
    /// re-sent and lands on whichever member got promoted. On a
    /// fault-free set this applies exactly the [`drive`] timeline, so
    /// every member ends bit-identical to an undriven
    /// [`TrustService`] fed the same epochs.
    ///
    /// # Errors
    ///
    /// Propagates hard rejections, including divergence diagnoses.
    ///
    /// [`drive`]: ServiceDriver::drive
    pub fn drive_replicas(
        &self,
        set: &mut ReplicaSet,
        epochs: u64,
    ) -> Result<HostDriveReport, String> {
        self.drive_target(set, epochs)
    }

    /// The shared fault-tolerant drive loop (see [`drive_host`]).
    ///
    /// [`drive_host`]: ServiceDriver::drive_host
    fn drive_target<T: OpSink>(
        &self,
        host: &mut T,
        epochs: u64,
    ) -> Result<HostDriveReport, String> {
        let host_nodes = host.nodes();
        if self.config.nodes != host_nodes {
            return Err(format!(
                "driver is sized for {} nodes, host for {host_nodes}",
                self.config.nodes
            ));
        }
        let epoch_len = host.epoch_len();
        let start_epoch = host.start_epoch();
        let mut report = HostDriveReport::default();
        // Pending retries ordered by (due, op id); ids are global so the
        // order is total.
        let mut pending: Vec<(SimTime, u64, u32, ServiceOp)> = Vec::new();
        let mut next_id: u64 = 0;
        for e in 0..epochs {
            let epoch = start_epoch + e;
            for op in self.ops_for_epoch_len(epoch_len, epoch) {
                self.flush_due_retries(host, &mut pending, &mut report, op.at())?;
                let id = next_id;
                next_id += 1;
                self.submit(host, &mut pending, &mut report, (id, 0, op))?;
            }
            let Some(end_us) = epoch_len.as_micros().checked_mul(epoch + 1) else {
                break; // at the horizon: nothing left to drive
            };
            let end = SimTime::from_micros(end_us);
            self.flush_due_retries(host, &mut pending, &mut report, end)?;
            host.advance(end)?;
        }
        // Whatever is still queued never got acknowledged in-run.
        report.abandoned += pending.len() as u64;
        Ok(report)
    }

    /// Applies every pending retry due at or before `cutoff`, in
    /// `(due, id)` order. A retry that bounces again re-queues itself
    /// (with a later due time) and is picked up in the same flush if it
    /// still lands inside the cutoff.
    fn flush_due_retries<T: OpSink>(
        &self,
        host: &mut T,
        pending: &mut Vec<(SimTime, u64, u32, ServiceOp)>,
        report: &mut HostDriveReport,
        cutoff: SimTime,
    ) -> Result<(), String> {
        while let Some(&(due, _, _, _)) = pending.first() {
            if due > cutoff {
                return Ok(());
            }
            let (due, id, attempt, op) = pending.remove(0);
            let restamped = op.with_time(due);
            self.submit(host, pending, report, (id, attempt, restamped))?;
        }
        Ok(())
    }

    /// One attempt of one op: apply, or schedule the next retry.
    /// `attempt` is the `(op id, attempt index, stamped op)` triple.
    fn submit<T: OpSink>(
        &self,
        host: &mut T,
        pending: &mut Vec<(SimTime, u64, u32, ServiceOp)>,
        report: &mut HostDriveReport,
        attempt: (u64, u32, ServiceOp),
    ) -> Result<(), String> {
        let (id, attempt, op) = attempt;
        match host.apply_op(&op) {
            Ok(outcome) => {
                report.applied += 1;
                let degraded = matches!(
                    outcome,
                    ApplyOutcome::Trust(r) if r.mode == Staleness::Degraded
                ) || matches!(
                    outcome,
                    ApplyOutcome::Exposure(r) if r.mode == Staleness::Degraded
                );
                if degraded {
                    report.degraded_answers += 1;
                }
                Ok(())
            }
            Err(HostError::Unavailable { retry_at, .. }) => {
                if attempt + 1 >= MAX_ATTEMPTS {
                    report.abandoned += 1;
                    return Ok(());
                }
                let backoff = retry_backoff(self.config.seed, id, attempt);
                let due = retry_at.max(op.at()).saturating_add(backoff);
                let key = (due, id);
                let pos = pending
                    .binary_search_by_key(&key, |&(d, i, _, _)| (d, i))
                    .unwrap_or_else(|p| p);
                pending.insert(pos, (due, id, attempt + 1, op));
                report.retries += 1;
                Ok(())
            }
            Err(HostError::Rejected(e)) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use tsn_simnet::SimDuration;

    fn service(nodes: usize) -> TrustService {
        TrustService::new(ServiceConfig {
            nodes,
            epoch: SimDuration::from_secs(60),
            ..ServiceConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn validation_names_the_field() {
        let bad = DriverConfig {
            nodes: 1,
            ..DriverConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("nodes"));
        let bad = DriverConfig {
            arrival_rate: 0.0,
            ..DriverConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("arrival_rate"));
        let bad = DriverConfig {
            arrival_rate: 1e300,
            ..DriverConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("arrival_rate"));
        // The interactions bound admits the largest population at the
        // default rate, and the benchmark's 10k-node host at rate 6.
        for (nodes, arrival_rate) in [(tsn_simnet::MAX_NODES, 2.0), (10_000, 6.0)] {
            let config = DriverConfig {
                nodes,
                arrival_rate,
                ..DriverConfig::default()
            };
            assert!(config.validate().is_ok(), "{nodes} x {arrival_rate}");
        }
        let bad = DriverConfig {
            query_rate: 1.5,
            ..DriverConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("query_rate"));
    }

    #[test]
    fn timeline_is_deterministic_and_sorted() {
        let driver = ServiceDriver::new(DriverConfig::default()).unwrap();
        let svc = service(100);
        let a = driver.ops_for_epoch(&svc, 3);
        let b = driver.ops_for_epoch(&svc, 3);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same (seed, epoch) must give the same timeline");
        assert!(
            a.windows(2).all(|w| w[0].at() <= w[1].at()),
            "timeline must be time-sorted"
        );
        let other_epoch = driver.ops_for_epoch(&svc, 4);
        assert_ne!(a, other_epoch, "different epochs draw different streams");
    }

    #[test]
    fn seeds_change_the_timeline_but_not_its_shape() {
        let svc = service(100);
        let a = ServiceDriver::new(DriverConfig::default())
            .unwrap()
            .ops_for_epoch(&svc, 0);
        let b = ServiceDriver::new(DriverConfig {
            seed: 43,
            ..DriverConfig::default()
        })
        .unwrap()
        .ops_for_epoch(&svc, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn interactions_never_self_rate() {
        let driver = ServiceDriver::new(DriverConfig {
            nodes: 3,
            arrival_rate: 5.0,
            ..DriverConfig::default()
        })
        .unwrap();
        let svc = service(3);
        for epoch in 0..10 {
            for op in driver.ops_for_epoch(&svc, epoch) {
                if let ServiceOp::Ingest(ServiceEvent::Interaction { rater, ratee, .. }) = op {
                    assert_ne!(rater, ratee);
                }
            }
        }
    }

    #[test]
    fn membership_timeline_is_pure_and_view_constrained() {
        let config = DriverConfig {
            nodes: 30,
            arrival_rate: 3.0,
            membership: Some(MembershipConfig::default()),
            ..DriverConfig::default()
        };
        let driver = ServiceDriver::new(config).unwrap();
        let svc = service(30);
        let a = driver.ops_for_epoch(&svc, 2);
        let b = driver.ops_for_epoch(&svc, 2);
        assert!(!a.is_empty(), "healthy overlay generates work");
        assert_eq!(a, b, "overlay timeline is a pure function of (seed, epoch)");
        // Every interaction's partner must sit in the rater's view of
        // that epoch (the sampled snapshot is re-derivable).
        let views = driver.membership_at(2).expect("overlay attached");
        for op in &a {
            if let ServiceOp::Ingest(ServiceEvent::Interaction { rater, ratee, .. }) = op {
                assert_ne!(rater, ratee, "views never contain self");
                assert!(
                    views.view(*rater).contains(*ratee),
                    "partner {ratee} must be in {rater}'s view"
                );
            }
        }
        // And the overlay changes the timeline vs the global draw.
        let global = ServiceDriver::new(DriverConfig {
            membership: None,
            ..config
        })
        .unwrap()
        .ops_for_epoch(&svc, 2);
        assert_ne!(a, global);
    }

    #[test]
    fn membership_driver_still_drives_the_service() {
        let driver = ServiceDriver::new(DriverConfig {
            nodes: 30,
            arrival_rate: 3.0,
            membership: Some(MembershipConfig::default()),
            ..DriverConfig::default()
        })
        .unwrap();
        let mut svc = service(30);
        driver.drive(&mut svc, 4).unwrap();
        assert_eq!(svc.epoch_index(), 4);
        assert!(svc.stats().ingested > 0, "view-sampled work still lands");
    }

    #[test]
    fn malicious_tail_has_low_quality() {
        let driver = ServiceDriver::new(DriverConfig {
            nodes: 10,
            malicious_fraction: 0.2,
            ..DriverConfig::default()
        })
        .unwrap();
        assert!(driver.config().is_malicious(NodeId(9)));
        assert!(driver.config().is_malicious(NodeId(8)));
        assert!(!driver.config().is_malicious(NodeId(7)));
        assert!(driver.provider_quality(NodeId(9)) < 0.2);
        assert!(driver.provider_quality(NodeId(0)) > 0.8);
        assert_eq!(
            driver.provider_quality(NodeId(3)),
            driver.provider_quality(NodeId(3)),
            "quality is a pure function of (seed, node)"
        );
    }

    #[test]
    fn driving_commits_epochs_and_separates_populations() {
        let driver = ServiceDriver::new(DriverConfig {
            nodes: 50,
            arrival_rate: 4.0,
            malicious_fraction: 0.2,
            ..DriverConfig::default()
        })
        .unwrap();
        let mut svc = service(50);
        driver.drive(&mut svc, 5).unwrap();
        assert_eq!(svc.samples().len(), 5);
        assert_eq!(svc.epoch_index(), 5);
        assert!(svc.stats().ingested > 0);
        assert!(svc.stats().queries > 0);
        let scores = svc.scores();
        let honest: f64 = scores[..40].iter().sum::<f64>() / 40.0;
        let malicious: f64 = scores[40..].iter().sum::<f64>() / 10.0;
        assert!(
            honest > malicious,
            "honest mean {honest} must beat malicious mean {malicious}"
        );
    }

    #[test]
    fn driver_rejects_mismatched_population() {
        let driver = ServiceDriver::new(DriverConfig {
            nodes: 10,
            ..DriverConfig::default()
        })
        .unwrap();
        let mut svc = service(20);
        let err = driver.drive(&mut svc, 1).unwrap_err();
        assert!(err.contains("sized for 10"), "{err}");
    }

    #[test]
    fn horizon_epoch_generates_no_ops() {
        let driver = ServiceDriver::new(DriverConfig::default()).unwrap();
        let svc = service(100);
        assert!(driver.ops_for_epoch(&svc, u64::MAX).is_empty());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        assert_eq!(
            retry_backoff(42, 7, 0),
            retry_backoff(42, 7, 0),
            "same (seed, op, attempt) must draw the same jitter"
        );
        assert_ne!(
            retry_backoff(42, 7, 0),
            retry_backoff(42, 8, 0),
            "different ops must decorrelate"
        );
        let base = BASE_BACKOFF.as_micros();
        let b0 = retry_backoff(42, 7, 0).as_micros();
        assert!(b0 >= base / 2 && b0 <= base, "jitter scales into [0.5, 1]");
        for attempt in 0..12 {
            assert!(retry_backoff(42, 7, attempt) <= MAX_BACKOFF);
        }
        // Deep attempts sit at the (jittered) ceiling, not overflow.
        assert!(retry_backoff(42, 7, 63).as_micros() >= MAX_BACKOFF.as_micros() / 2);
    }

    #[test]
    fn faultless_drive_host_matches_plain_drive_bit_for_bit() {
        let config = DriverConfig {
            nodes: 40,
            arrival_rate: 3.0,
            ..DriverConfig::default()
        };
        let driver = ServiceDriver::new(config).unwrap();
        let mut bare = service(40);
        driver.drive(&mut bare, 4).unwrap();
        let mut host = crate::ServiceHost::new(crate::HostConfig {
            service: bare.config().clone(),
            ..crate::HostConfig::default()
        })
        .unwrap();
        let report = driver.drive_host(&mut host, 4).unwrap();
        assert_eq!(report.retries, 0);
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.degraded_answers, 0);
        let hosted = host.service().unwrap();
        assert_eq!(bare.now(), hosted.now());
        assert_eq!(bare.stats(), hosted.stats());
        assert_eq!(bare.samples(), hosted.samples());
        assert_eq!(
            bare.scores()
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            hosted
                .scores()
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(report.applied, bare.stats().ingested + bare.stats().queries);
    }

    #[test]
    fn drive_host_retries_through_a_scheduled_crash() {
        use tsn_simnet::{FaultInjector, FaultPlan};
        let config = DriverConfig {
            nodes: 30,
            arrival_rate: 2.0,
            ..DriverConfig::default()
        };
        let driver = ServiceDriver::new(config).unwrap();
        let mut host = crate::ServiceHost::new(crate::HostConfig {
            service: crate::ServiceConfig {
                nodes: 30,
                epoch: SimDuration::from_secs(60),
                ..crate::ServiceConfig::default()
            },
            recovery_grace: SimDuration::from_secs(5),
            ..crate::HostConfig::default()
        })
        .unwrap();
        // Crash mid-epoch-1, down for 20 s.
        host.attach_faults(
            FaultInjector::new(
                FaultPlan::service_crash(SimTime::from_secs(90), SimDuration::from_secs(20)),
                9,
            )
            .unwrap(),
        );
        let host_config = host.config().clone();
        let rerun_driver = driver.clone();
        let run = move || {
            let mut h = crate::ServiceHost::new(host_config.clone()).unwrap();
            h.attach_faults(
                FaultInjector::new(
                    FaultPlan::service_crash(SimTime::from_secs(90), SimDuration::from_secs(20)),
                    9,
                )
                .unwrap(),
            );
            let report = rerun_driver.drive_host(&mut h, 3).unwrap();
            (report, h)
        };
        let report = driver.drive_host(&mut host, 3).unwrap();
        assert_eq!(host.stats().crashes, 1);
        assert_eq!(host.stats().recoveries, 1);
        assert!(report.retries > 0, "downtime ops must be retried");
        assert!(report.applied > 0);
        assert!(
            report.degraded_answers > 0,
            "grace-window queries answer degraded"
        );
        // Nothing acknowledged was lost: the recovered service kept
        // serving and its clock reached the driven horizon.
        let svc = host.service().unwrap();
        assert_eq!(svc.now(), SimTime::from_secs(180));
        // The whole faulted run replays bit-for-bit.
        let (report2, host2) = run();
        assert_eq!(report, report2);
        let svc2 = host2.service().unwrap();
        assert_eq!(svc.stats(), svc2.stats());
        assert_eq!(
            svc.scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            svc2.scores()
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>()
        );
    }
}
