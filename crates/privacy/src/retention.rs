//! Retention and obligation compliance.
//!
//! A privacy policy's *retention time* and *obligations* (paper §2.3)
//! only matter if someone checks them. [`RetentionTracker`] follows every
//! granted copy of personal data through its lifetime: when it must be
//! deleted (per the owner's retention period) and whether the recipient
//! actually deleted it. The resulting compliance rate feeds the OECD
//! *accountability* and *use limitation* principles with measured — not
//! assumed — values.

use crate::policy::{DataCategory, PrivacyPolicy};
use tsn_simnet::{NodeId, SimTime};

/// One live copy of personal data held by a recipient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeldCopy {
    /// Whose data.
    pub owner: NodeId,
    /// Who holds it.
    pub holder: NodeId,
    /// What category.
    pub category: DataCategory,
    /// When it must be gone (owner's retention period).
    pub expires_at: SimTime,
}

/// Tracks granted copies and deletion compliance.
#[derive(Debug, Clone, Default)]
pub struct RetentionTracker {
    live: Vec<HeldCopy>,
    deleted_on_time: u64,
    deleted_late: u64,
    expired_unhandled: u64,
}

impl RetentionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a grant under the owner's `policy`.
    pub fn grant(
        &mut self,
        owner: NodeId,
        holder: NodeId,
        policy: &PrivacyPolicy,
        now: SimTime,
    ) -> HeldCopy {
        let copy = HeldCopy {
            owner,
            holder,
            category: policy.category,
            expires_at: now.saturating_add(policy.retention),
        };
        self.live.push(copy);
        copy
    }

    /// Number of copies currently held (live, not yet deleted).
    pub fn live_copies(&self) -> usize {
        self.live.len()
    }

    /// The holder deletes every copy of `owner`'s data it holds.
    /// Deletions after expiry count as *late* (non-compliant).
    pub fn delete(&mut self, holder: NodeId, owner: NodeId, now: SimTime) -> usize {
        let mut removed = 0;
        self.live.retain(|c| {
            if c.holder == holder && c.owner == owner {
                removed += 1;
                if now <= c.expires_at {
                    self.deleted_on_time += 1;
                } else {
                    self.deleted_late += 1;
                }
                false
            } else {
                true
            }
        });
        removed
    }

    /// Sweeps expired copies: a compliant deployment calls this as the
    /// clock advances (holders honouring `DeleteAfterRetention` delete
    /// automatically — `holder_honours(copy)` decides per copy). Returns
    /// `(honoured, violated)` counts.
    pub fn sweep_expired(
        &mut self,
        now: SimTime,
        mut holder_honours: impl FnMut(&HeldCopy) -> bool,
    ) -> (u64, u64) {
        let mut honoured = 0;
        let mut violated = 0;
        self.live.retain(|c| {
            if c.expires_at < now {
                if holder_honours(c) {
                    honoured += 1;
                } else {
                    violated += 1;
                }
                false
            } else {
                true
            }
        });
        self.deleted_on_time += honoured;
        self.expired_unhandled += violated;
        (honoured, violated)
    }

    /// Fraction of resolved copies that were handled compliantly
    /// (deleted on time). 1.0 when nothing has resolved yet.
    pub fn compliance_rate(&self) -> f64 {
        let resolved = self.deleted_on_time + self.deleted_late + self.expired_unhandled;
        if resolved == 0 {
            1.0
        } else {
            self.deleted_on_time as f64 / resolved as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_simnet::SimDuration;

    fn policy_with_retention(secs: u64) -> PrivacyPolicy {
        PrivacyPolicy::builder(DataCategory::Content)
            .retention(SimDuration::from_secs(secs))
            .build()
            .unwrap()
    }

    #[test]
    fn grants_track_expiry_from_policy() {
        let mut t = RetentionTracker::new();
        let copy = t.grant(
            NodeId(0),
            NodeId(1),
            &policy_with_retention(100),
            SimTime::from_secs(50),
        );
        assert_eq!(copy.expires_at, SimTime::from_secs(150));
        assert_eq!(t.live_copies(), 1);
    }

    #[test]
    fn timely_deletion_is_compliant() {
        let mut t = RetentionTracker::new();
        t.grant(
            NodeId(0),
            NodeId(1),
            &policy_with_retention(100),
            SimTime::ZERO,
        );
        let removed = t.delete(NodeId(1), NodeId(0), SimTime::from_secs(80));
        assert_eq!(removed, 1);
        assert_eq!(t.compliance_rate(), 1.0);
        assert_eq!(t.deleted_late + t.expired_unhandled, 0);
        assert_eq!(t.live_copies(), 0);
    }

    #[test]
    fn late_deletion_is_a_violation() {
        let mut t = RetentionTracker::new();
        t.grant(
            NodeId(0),
            NodeId(1),
            &policy_with_retention(100),
            SimTime::ZERO,
        );
        t.delete(NodeId(1), NodeId(0), SimTime::from_secs(200));
        assert_eq!(t.compliance_rate(), 0.0);
        assert_eq!(t.deleted_late, 1);
    }

    #[test]
    fn sweep_distinguishes_honouring_holders() {
        let mut t = RetentionTracker::new();
        let p = policy_with_retention(10);
        t.grant(NodeId(0), NodeId(1), &p, SimTime::ZERO); // holder 1 honours
        t.grant(NodeId(0), NodeId(2), &p, SimTime::ZERO); // holder 2 does not
        let (honoured, violated) =
            t.sweep_expired(SimTime::from_secs(60), |c| c.holder == NodeId(1));
        assert_eq!((honoured, violated), (1, 1));
        assert_eq!(t.compliance_rate(), 0.5);
        assert_eq!(t.live_copies(), 0);
    }

    #[test]
    fn sweep_leaves_unexpired_copies() {
        let mut t = RetentionTracker::new();
        t.grant(
            NodeId(0),
            NodeId(1),
            &policy_with_retention(1000),
            SimTime::ZERO,
        );
        let (honoured, violated) = t.sweep_expired(SimTime::from_secs(10), |_| true);
        assert_eq!((honoured, violated), (0, 0));
        assert_eq!(t.live_copies(), 1);
        assert_eq!(t.compliance_rate(), 1.0, "nothing resolved yet");
    }

    #[test]
    fn delete_only_touches_matching_pairs() {
        let mut t = RetentionTracker::new();
        let p = policy_with_retention(100);
        t.grant(NodeId(0), NodeId(1), &p, SimTime::ZERO);
        t.grant(NodeId(5), NodeId(1), &p, SimTime::ZERO);
        t.grant(NodeId(0), NodeId(2), &p, SimTime::ZERO);
        assert_eq!(t.delete(NodeId(1), NodeId(0), SimTime::from_secs(1)), 1);
        assert_eq!(t.live_copies(), 2);
    }

    #[test]
    fn mixed_history_compliance_rate() {
        let mut t = RetentionTracker::new();
        let p = policy_with_retention(10);
        for holder in 1..=4u32 {
            t.grant(NodeId(0), NodeId(holder), &p, SimTime::ZERO);
        }
        t.delete(NodeId(1), NodeId(0), SimTime::from_secs(5)); // on time
        t.delete(NodeId(2), NodeId(0), SimTime::from_secs(50)); // late
        t.sweep_expired(SimTime::from_secs(60), |c| c.holder == NodeId(3));
        // holder 3 honoured, holder 4 violated.
        assert_eq!(t.deleted_on_time, 2);
        assert_eq!(t.deleted_late + t.expired_unhandled, 2);
        assert_eq!(t.compliance_rate(), 0.5);
    }
}
