//! TrustMe-style anonymous trust management (Singh & Liu — P2P 2003),
//! the paper's ref \[20\].
//!
//! TrustMe decouples *who stores a trust value* from *whom it is about*:
//! each peer's reputation lives at `k` randomly assigned, mutually unknown
//! **trust-holder** peers, and all protocol traffic is anonymized, so the
//! system never learns who rated whom. The price is simpler aggregation —
//! trust-holders can only average the (anonymous) reports they receive —
//! and per-report message overhead for the holder indirection.
//!
//! We model exactly that: rater identity is discarded *by construction*
//! (even when the disclosure policy would allow it), reports are sharded
//! over `k` holders, and the queried score is the holder-average with a
//! Laplace-smoothed prior. The mechanism is thus natively
//! privacy-preserving but less consistent with ground truth than
//! EigenTrust under lying minorities — the trade-off the paper places on
//! the privacy–reputation axis.

use crate::gathering::ReportView;
use crate::mechanism::{MechanismKind, ReputationMechanism};
use tsn_simnet::NodeId;

/// Number of trust-holder peers per subject (replication factor).
const HOLDERS: usize = 3;
/// Smoothing pseudo-count toward the 0.5 prior.
const SMOOTHING: f64 = 2.0;

/// Per-subject state sharded across simulated trust-holders.
#[derive(Debug, Clone, Default)]
struct HolderShard {
    sum: f64,
    count: u64,
}

/// The TrustMe mechanism.
#[derive(Debug, Clone)]
pub struct TrustMe {
    /// `shards[subject][holder]`.
    shards: Vec<Vec<HolderShard>>,
    /// Round-robin cursor so reports spread deterministically over holders.
    cursor: Vec<usize>,
}

impl TrustMe {
    /// Creates an instance for `n` nodes.
    pub fn new(n: usize) -> Self {
        TrustMe {
            shards: (0..n)
                .map(|_| vec![HolderShard::default(); HOLDERS])
                .collect(),
            cursor: vec![0; n],
        }
    }
}

impl ReputationMechanism for TrustMe {
    fn kind(&self) -> MechanismKind {
        MechanismKind::TrustMe
    }

    fn resize(&mut self, n: usize) {
        while self.shards.len() < n {
            self.shards.push(vec![HolderShard::default(); HOLDERS]);
            self.cursor.push(0);
        }
    }

    fn record(&mut self, report: &ReportView) {
        let subject = report.ratee.index();
        debug_assert!(subject < self.shards.len(), "ratee out of range");
        // Anonymity by construction: the rater identity, even if disclosed,
        // never reaches a trust-holder — so no self-report filtering is
        // possible either (a known TrustMe weakness we model faithfully).
        let holder = self.cursor[subject];
        self.cursor[subject] = (holder + 1) % HOLDERS;
        let shard = &mut self.shards[subject][holder];
        shard.sum += report.value();
        shard.count += 1;
    }

    fn refresh(&mut self) -> usize {
        0 // averaging is incremental
    }

    fn score(&self, node: NodeId) -> f64 {
        if node.index() >= self.shards.len() {
            return 0.5;
        }
        // Query all holders; average with smoothing toward the prior.
        let (sum, count) = self.shards[node.index()]
            .iter()
            .fold((0.0, 0u64), |(s, c), shard| {
                (s + shard.sum, c + shard.count)
            });
        let k = SMOOTHING;
        (sum + 0.5 * k) / (count as f64 + k)
    }

    fn len(&self) -> usize {
        self.shards.len()
    }

    fn overhead_per_report(&self) -> usize {
        // One anonymized submission per holder plus the certificate
        // exchange before the transaction (modelled as one message).
        HOLDERS + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathering::{DisclosurePolicy, FeedbackReport};
    use crate::mechanism::InteractionOutcome;
    use tsn_simnet::SimTime;

    fn view(ratee: u32, good: bool) -> ReportView {
        DisclosurePolicy::full().view(&FeedbackReport {
            rater: NodeId(0),
            ratee: NodeId(ratee),
            outcome: if good {
                InteractionOutcome::Success { quality: 1.0 }
            } else {
                InteractionOutcome::Failure
            },
            topic: None,
            at: SimTime::ZERO,
        })
    }

    #[test]
    fn prior_is_half() {
        let m = TrustMe::new(2);
        assert_eq!(m.score(NodeId(0)), 0.5);
    }

    #[test]
    fn averaging_with_smoothing() {
        let mut m = TrustMe::new(2);
        for _ in 0..4 {
            m.record(&view(1, true));
        }
        // (4 + 1) / (4 + 2) = 5/6
        assert!((m.score(NodeId(1)) - 5.0 / 6.0).abs() < 1e-12);
        let stored: u64 = m.shards[1].iter().map(|s| s.count).sum();
        assert_eq!(stored, 4);
    }

    #[test]
    fn reports_shard_round_robin() {
        let mut m = TrustMe::new(1);
        for _ in 0..7 {
            m.record(&view(0, true));
        }
        let counts: Vec<u64> = m.shards[0].iter().map(|s| s.count).collect();
        assert_eq!(counts, vec![3, 2, 2]);
    }

    #[test]
    fn bad_reports_lower_score() {
        let mut m = TrustMe::new(2);
        for _ in 0..10 {
            m.record(&view(1, false));
        }
        assert!(m.score(NodeId(1)) < 0.15);
    }

    #[test]
    fn rater_identity_is_discarded_by_construction() {
        // Self-promotion works against TrustMe (anonymity prevents
        // filtering) — we assert the modelled weakness explicitly.
        let mut m = TrustMe::new(2);
        let self_report = DisclosurePolicy::full().view(&FeedbackReport {
            rater: NodeId(1),
            ratee: NodeId(1),
            outcome: InteractionOutcome::Success { quality: 1.0 },
            topic: None,
            at: SimTime::ZERO,
        });
        m.record(&self_report);
        assert!(
            m.score(NodeId(1)) > 0.5,
            "anonymous self-report is accepted"
        );
    }

    #[test]
    fn overhead_scales_with_holders() {
        let m = TrustMe::new(1);
        assert_eq!(m.overhead_per_report(), HOLDERS + 1);
    }

    #[test]
    fn resize_grows() {
        let mut m = TrustMe::new(1);
        m.resize(3);
        assert_eq!(m.len(), 3);
        m.record(&view(2, true));
        assert!(m.score(NodeId(2)) > 0.5);
    }
}
