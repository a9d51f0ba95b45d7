//! The common interface of all reputation mechanisms.

use crate::gathering::ReportView;
use tsn_simnet::NodeId;

/// The outcome of one interaction, as experienced by the consumer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InteractionOutcome {
    /// The provider delivered satisfactorily; `quality` in `[0, 1]` is the
    /// experienced quality (1 = perfect).
    Success {
        /// Experienced quality of the service.
        quality: f64,
    },
    /// The provider failed, cheated or served corrupted content.
    Failure,
}

impl InteractionOutcome {
    /// Scalar value of the outcome in `[0, 1]` (failures are 0).
    pub fn value(self) -> f64 {
        match self {
            InteractionOutcome::Success { quality } => quality.clamp(0.0, 1.0),
            InteractionOutcome::Failure => 0.0,
        }
    }

    /// Whether the interaction succeeded.
    pub fn is_success(self) -> bool {
        matches!(self, InteractionOutcome::Success { .. })
    }
}

/// Which mechanism a configuration selects; used by `tsn-core` configs
/// and experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// No reputation at all (baseline: random partner choice).
    None,
    /// Bayesian Beta reputation.
    Beta,
    /// EigenTrust (Kamvar et al., WWW 2003).
    EigenTrust,
    /// PowerTrust (Zhou & Hwang, TPDS 2007).
    PowerTrust,
    /// TrustMe-style anonymous trust-holders (Singh & Liu, P2P 2003).
    TrustMe,
}

impl MechanismKind {
    /// All kinds, for sweeps.
    pub const ALL: [MechanismKind; 5] = [
        MechanismKind::None,
        MechanismKind::Beta,
        MechanismKind::EigenTrust,
        MechanismKind::PowerTrust,
        MechanismKind::TrustMe,
    ];

    /// Human-readable name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            MechanismKind::None => "none",
            MechanismKind::Beta => "beta",
            MechanismKind::EigenTrust => "eigentrust",
            MechanismKind::PowerTrust => "powertrust",
            MechanismKind::TrustMe => "trustme",
        }
    }

    /// Whether this kind implements state snapshots
    /// ([`ReputationMechanism::snapshot_state`] /
    /// [`ReputationMechanism::restore_state`]), i.e. can live inside a
    /// service checkpoint. Kept in sync with the implementations by a
    /// test in `builder.rs`.
    pub fn supports_snapshots(self) -> bool {
        matches!(
            self,
            MechanismKind::None | MechanismKind::Beta | MechanismKind::EigenTrust
        )
    }

    /// The snapshot-capable kind names, comma-separated — for error
    /// messages that should tell the caller their options.
    pub fn snapshot_capable_names() -> String {
        let names: Vec<&str> = MechanismKind::ALL
            .iter()
            .filter(|k| k.supports_snapshots())
            .map(|k| k.name())
            .collect();
        names.join(", ")
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A reputation mechanism: consumes (possibly anonymized) feedback report
/// views and produces global scores in `[0, 1]`.
///
/// Implementations must tolerate missing report fields — an anonymized
/// view may hide the rater identity or the outcome detail; mechanisms
/// degrade gracefully (that degradation *is* the reputation/privacy
/// trade-off the paper studies).
///
/// Mechanisms are `Send + Sync`: the sharded scenario engine reads
/// scores (`&self`) from several worker threads at once while all
/// mutation (`record`, `refresh`) stays on the merge barrier's single
/// thread. Implementations hold plain owned data, so this costs nothing.
pub trait ReputationMechanism: std::fmt::Debug + Send + Sync {
    /// Identifies the mechanism in reports.
    fn kind(&self) -> MechanismKind;

    /// Ensures the mechanism tracks at least `n` nodes.
    fn resize(&mut self, n: usize);

    /// Ingests one feedback report view.
    fn record(&mut self, report: &ReportView);

    /// Ingests a batch of report views, in order. Equivalent to calling
    /// [`ReputationMechanism::record`] for each view (bit-identical
    /// scores), but mechanisms backed by sorted sparse rows can exploit
    /// run locality — consecutive reports from one rater about one ratee
    /// (the ballot-stuffing shape, and the shape shard outboxes drain
    /// in) hit the same cell without re-searching the row.
    fn record_batch(&mut self, reports: &[ReportView]) {
        for report in reports {
            self.record(report);
        }
    }

    /// Recomputes global scores (may be a no-op for incremental
    /// mechanisms). Returns the number of internal iterations performed,
    /// for efficiency accounting.
    fn refresh(&mut self) -> usize;

    /// Global score of `node` in `[0, 1]`. Nodes never rated return the
    /// mechanism's prior.
    fn score(&self, node: NodeId) -> f64;

    /// Number of tracked nodes.
    fn len(&self) -> usize;

    /// Whether no nodes are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All scores, indexed by node.
    fn scores(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.score(NodeId::from_index(i)))
            .collect()
    }

    /// Nodes sorted by descending score (ties by ascending id, so the
    /// ranking is deterministic).
    fn ranking(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..self.len()).map(NodeId::from_index).collect();
        nodes.sort_by(|&a, &b| {
            self.score(b)
                .partial_cmp(&self.score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        nodes
    }

    /// Messages this mechanism would send per recorded report in a real
    /// deployment (overhead accounting; 0 for purely local mechanisms).
    fn overhead_per_report(&self) -> usize {
        0
    }

    /// Serializes the mechanism's evolving state (accumulated evidence,
    /// cached score vectors) into a self-contained byte blob, or `None`
    /// if the mechanism does not support checkpointing.
    ///
    /// Configuration is *not* part of the snapshot: the contract is that
    /// [`ReputationMechanism::restore_state`] is called on an instance
    /// constructed with identical parameters (the checkpoint envelope —
    /// e.g. the `tsn-service` checkpoint — records those parameters and
    /// rebuilds the instance before restoring). Within that contract the
    /// round trip is bit-identical: every `f64` travels as its IEEE-754
    /// bit pattern, so a restored mechanism scores exactly like the
    /// snapshotted one, down to the last bit.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`ReputationMechanism::snapshot_state`]
    /// onto an identically configured instance.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch for unsupported mechanisms,
    /// truncated/corrupt input, or a snapshot taken at a different
    /// population size.
    fn restore_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!(
            "mechanism '{}' does not support state restore",
            self.kind()
        ))
    }
}

impl ReputationMechanism for Box<dyn ReputationMechanism> {
    fn kind(&self) -> MechanismKind {
        (**self).kind()
    }
    fn resize(&mut self, n: usize) {
        (**self).resize(n);
    }
    fn record(&mut self, report: &ReportView) {
        (**self).record(report);
    }
    fn record_batch(&mut self, reports: &[ReportView]) {
        (**self).record_batch(reports);
    }
    fn refresh(&mut self) -> usize {
        (**self).refresh()
    }
    fn score(&self, node: NodeId) -> f64 {
        (**self).score(node)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn overhead_per_report(&self) -> usize {
        (**self).overhead_per_report()
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        (**self).snapshot_state()
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore_state(bytes)
    }
}

/// A trivial mechanism that scores everyone with the same prior; the
/// `MechanismKind::None` baseline.
#[derive(Debug, Clone)]
pub struct NoReputation {
    n: usize,
    prior: f64,
}

impl NoReputation {
    /// Creates the baseline with a 0.5 prior.
    pub fn new(n: usize) -> Self {
        NoReputation { n, prior: 0.5 }
    }
}

impl ReputationMechanism for NoReputation {
    fn kind(&self) -> MechanismKind {
        MechanismKind::None
    }

    fn resize(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    fn record(&mut self, _report: &ReportView) {}

    fn refresh(&mut self) -> usize {
        0
    }

    fn score(&self, _node: NodeId) -> f64 {
        self.prior
    }

    fn len(&self) -> usize {
        self.n
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // Stateless beyond the population size; the snapshot still
        // exists so service checkpoints work with the baseline.
        let mut w = tsn_simnet::ByteWriter::new();
        w.put_u64(self.n as u64);
        Some(w.finish())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = tsn_simnet::ByteReader::new(bytes);
        let n = r.take_u64()? as usize;
        if n != self.n {
            return Err(format!(
                "NoReputation snapshot is for {n} nodes, instance has {}",
                self.n
            ));
        }
        Ok(())
    }
}

/// Constructs a boxed mechanism of the given kind with default parameters
/// for an `n`-node population.
pub fn build_mechanism(kind: MechanismKind, n: usize) -> Box<dyn ReputationMechanism> {
    match kind {
        MechanismKind::None => Box::new(NoReputation::new(n)),
        MechanismKind::Beta => Box::new(crate::beta::BetaReputation::new(n)),
        MechanismKind::EigenTrust => Box::new(crate::eigentrust::EigenTrust::new(n, Vec::new())),
        MechanismKind::PowerTrust => Box::new(crate::powertrust::PowerTrust::new(n)),
        MechanismKind::TrustMe => Box::new(crate::trustme::TrustMe::new(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathering::{DisclosurePolicy, FeedbackReport};
    use tsn_simnet::SimTime;

    #[test]
    fn supports_snapshots_matches_the_implementations() {
        for kind in MechanismKind::ALL {
            let mechanism = build_mechanism(kind, 8);
            assert_eq!(
                mechanism.snapshot_state().is_some(),
                kind.supports_snapshots(),
                "MechanismKind::supports_snapshots out of sync for {kind}"
            );
        }
        let names = MechanismKind::snapshot_capable_names();
        assert_eq!(names, "none, beta, eigentrust");
    }

    #[test]
    fn outcome_values() {
        assert_eq!(InteractionOutcome::Failure.value(), 0.0);
        assert_eq!(InteractionOutcome::Success { quality: 0.8 }.value(), 0.8);
        assert_eq!(
            InteractionOutcome::Success { quality: 7.0 }.value(),
            1.0,
            "clamped"
        );
        assert!(InteractionOutcome::Success { quality: 0.1 }.is_success());
        assert!(!InteractionOutcome::Failure.is_success());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(MechanismKind::EigenTrust.to_string(), "eigentrust");
        assert_eq!(MechanismKind::ALL.len(), 5);
    }

    #[test]
    fn no_reputation_scores_prior() {
        let mut m = NoReputation::new(3);
        let report = FeedbackReport {
            rater: NodeId(0),
            ratee: NodeId(1),
            outcome: InteractionOutcome::Failure,
            topic: None,
            at: SimTime::ZERO,
        };
        m.record(&DisclosurePolicy::full().view(&report));
        m.refresh();
        assert_eq!(m.score(NodeId(1)), 0.5);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn ranking_is_deterministic_under_ties() {
        let m = NoReputation::new(4);
        assert_eq!(
            m.ranking(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn build_mechanism_matches_kind() {
        for kind in MechanismKind::ALL {
            let m = build_mechanism(kind, 10);
            assert_eq!(m.kind(), kind);
            assert_eq!(m.len(), 10);
        }
    }

    #[test]
    fn resize_only_grows() {
        let mut m = NoReputation::new(5);
        m.resize(3);
        assert_eq!(m.len(), 5);
        m.resize(8);
        assert_eq!(m.len(), 8);
    }
}
