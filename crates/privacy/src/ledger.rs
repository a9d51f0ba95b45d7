//! The disclosure ledger: accounting for every personal-data flow.
//!
//! The paper's privacy facet is *measured*, not assumed: "privacy concerns
//! the respect of individual PPs". The ledger records every disclosure
//! (and every breach), so per-user and system-wide respect rates are exact
//! counts. Footnote 2 of the paper insists breaches by malicious users
//! and breaches by the system itself "should not be treated in the same
//! manner" — [`BreachCause`] keeps them apart.
//!
//! # Performance
//!
//! Aggregate queries ([`DisclosureLedger::respect_rate`],
//! [`DisclosureLedger::respect_rate_for`], [`DisclosureLedger::breach_count`],
//! [`DisclosureLedger::total_exposure`])
//! are answered from running counters maintained on every `record_*` call,
//! so they are O(1) instead of a scan of the full record log — the
//! scenario loop queries them per user per round. The counters are exact:
//! integer counts, and exposure sums accumulated in append order (the same
//! order a scan would use), so the answers are bit-identical to the old
//! scanning implementation. The raw record log can additionally be capped
//! with [`DisclosureLedger::with_raw_record_cap`]; counters always cover
//! the full history even when old raw records have been evicted.

use crate::policy::{DataCategory, Purpose};
use std::collections::VecDeque;
use tsn_simnet::{NodeId, SimTime};

/// Who is to blame for a breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreachCause {
    /// A malicious *user* leaked data they were granted.
    MaliciousUser,
    /// The *system* violated a policy (bug, misconfiguration, over-sharing
    /// by the reputation pipeline).
    System,
}

/// One recorded data flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisclosureRecord {
    /// When it happened.
    pub at: SimTime,
    /// Whose data flowed.
    pub owner: NodeId,
    /// Who received it.
    pub recipient: NodeId,
    /// What category of data.
    pub category: DataCategory,
    /// Declared purpose of the flow.
    pub purpose: Purpose,
    /// Whether the flow complied with the owner's policy. Non-compliant
    /// flows are *breaches*.
    pub compliant: bool,
    /// Cause, for breaches.
    pub breach_cause: Option<BreachCause>,
    /// Whether the data was anonymized before flowing.
    pub anonymized: bool,
}

impl DisclosureRecord {
    /// Sensitivity-weighted exposure contribution of this record.
    fn exposure(&self) -> f64 {
        self.category.sensitivity() * if self.anonymized { 0.25 } else { 1.0 }
    }
}

/// Running aggregates for one owner's data.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct OwnerStats {
    total: u64,
    compliant: u64,
}

/// Append-only ledger of disclosures, with per-owner aggregation.
///
/// ```
/// use tsn_privacy::{BreachCause, DataCategory, DisclosureLedger, Purpose};
/// use tsn_simnet::{NodeId, SimTime};
///
/// let mut ledger = DisclosureLedger::new();
/// ledger.record_disclosure(SimTime::ZERO, NodeId(0), NodeId(1), DataCategory::Content, Purpose::Social, false);
/// ledger.record_breach(SimTime::ZERO, NodeId(0), NodeId(2), DataCategory::Content, Purpose::Social, BreachCause::MaliciousUser);
/// assert_eq!(ledger.respect_rate(), 0.5);
/// assert_eq!(ledger.breach_count(Some(BreachCause::System)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DisclosureLedger {
    /// Raw audit trail. A ring (`VecDeque`), not a `Vec`: with a
    /// retention cap every insert beyond the cap evicts the oldest
    /// record, and `Vec::drain(..1)` would memmove the whole window —
    /// O(cap) per insert, which turned mega-scale scenario rounds
    /// quadratic. `pop_front` keeps eviction O(1).
    records: VecDeque<DisclosureRecord>,
    /// Optional cap on *raw* record retention; `None` keeps everything.
    raw_record_cap: Option<usize>,
    /// Per-owner running aggregates, indexed by `owner.index()`.
    owners: Vec<OwnerStats>,
    /// Running totals over the full history (never evicted).
    total: u64,
    compliant: u64,
    user_breaches: u64,
    system_breaches: u64,
    total_exposure: f64,
}

impl DisclosureLedger {
    /// Creates an empty ledger that retains every raw record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty ledger that keeps at most `cap` raw records
    /// (oldest evicted first). Aggregate queries still cover the full
    /// history; only [`DisclosureLedger::records`] and friends see the
    /// truncated window. `None` disables the cap.
    pub fn with_raw_record_cap(cap: Option<usize>) -> Self {
        DisclosureLedger {
            raw_record_cap: cap,
            ..Self::default()
        }
    }

    /// The configured raw-record retention cap, if any.
    pub fn raw_record_cap(&self) -> Option<usize> {
        self.raw_record_cap
    }

    fn owner_stats_mut(&mut self, owner: NodeId) -> &mut OwnerStats {
        let i = owner.index();
        if i >= self.owners.len() {
            self.owners.resize(i + 1, OwnerStats::default());
        }
        &mut self.owners[i]
    }

    fn push(&mut self, record: DisclosureRecord) {
        self.total += 1;
        if record.compliant {
            self.compliant += 1;
        }
        match record.breach_cause {
            Some(BreachCause::MaliciousUser) => self.user_breaches += 1,
            Some(BreachCause::System) => self.system_breaches += 1,
            None => {}
        }
        self.total_exposure += record.exposure();
        let stats = self.owner_stats_mut(record.owner);
        stats.total += 1;
        stats.compliant += u64::from(record.compliant);

        self.records.push_back(record);
        if let Some(cap) = self.raw_record_cap {
            while self.records.len() > cap {
                self.records.pop_front();
            }
        }
    }

    /// Records a compliant disclosure.
    pub fn record_disclosure(
        &mut self,
        at: SimTime,
        owner: NodeId,
        recipient: NodeId,
        category: DataCategory,
        purpose: Purpose,
        anonymized: bool,
    ) {
        self.push(DisclosureRecord {
            at,
            owner,
            recipient,
            category,
            purpose,
            compliant: true,
            breach_cause: None,
            anonymized,
        });
    }

    /// Records a breach.
    pub fn record_breach(
        &mut self,
        at: SimTime,
        owner: NodeId,
        recipient: NodeId,
        category: DataCategory,
        purpose: Purpose,
        cause: BreachCause,
    ) {
        self.push(DisclosureRecord {
            at,
            owner,
            recipient,
            category,
            purpose,
            compliant: false,
            breach_cause: Some(cause),
            anonymized: false,
        });
    }

    /// All retained raw records, in order. With a raw-record cap this is
    /// the most recent window; aggregates still cover the full history.
    pub fn records(&self) -> &VecDeque<DisclosureRecord> {
        &self.records
    }

    /// Total number of records over the full history (including any raw
    /// records evicted by the retention cap).
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether the ledger has never recorded anything.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of breaches, optionally filtered by cause.
    pub fn breach_count(&self, cause: Option<BreachCause>) -> usize {
        (match cause {
            None => self.user_breaches + self.system_breaches,
            Some(BreachCause::MaliciousUser) => self.user_breaches,
            Some(BreachCause::System) => self.system_breaches,
        }) as usize
    }

    /// System-wide policy-respect rate: compliant / total. An empty
    /// ledger counts as fully respected (no flow, no violation).
    pub fn respect_rate(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.compliant as f64 / self.total as f64
    }

    /// Policy-respect rate for one owner's data.
    pub fn respect_rate_for(&self, owner: NodeId) -> f64 {
        match self.owners.get(owner.index()) {
            Some(stats) if stats.total > 0 => stats.compliant as f64 / stats.total as f64,
            _ => 1.0,
        }
    }

    /// Total sensitivity-weighted exposure across all owners.
    pub fn total_exposure(&self) -> f64 {
        self.total_exposure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_ledger_is_fully_respected() {
        let l = DisclosureLedger::new();
        assert_eq!(l.respect_rate(), 1.0);
        assert_eq!(l.respect_rate_for(NodeId(0)), 1.0);
        assert!(l.is_empty());
        assert_eq!(l.total_exposure(), 0.0);
    }

    #[test]
    fn respect_rate_counts_breaches() {
        let mut l = DisclosureLedger::new();
        l.record_disclosure(
            t(1),
            NodeId(0),
            NodeId(1),
            DataCategory::Content,
            Purpose::Social,
            false,
        );
        l.record_disclosure(
            t(2),
            NodeId(0),
            NodeId(2),
            DataCategory::Content,
            Purpose::Social,
            false,
        );
        l.record_breach(
            t(3),
            NodeId(0),
            NodeId(3),
            DataCategory::Content,
            Purpose::Commercial,
            BreachCause::System,
        );
        assert!((l.respect_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(l.breach_count(None), 1);
        assert_eq!(l.breach_count(Some(BreachCause::System)), 1);
        assert_eq!(l.breach_count(Some(BreachCause::MaliciousUser)), 0);
    }

    #[test]
    fn per_owner_rates_are_independent() {
        let mut l = DisclosureLedger::new();
        l.record_disclosure(
            t(1),
            NodeId(0),
            NodeId(9),
            DataCategory::Profile,
            Purpose::Social,
            false,
        );
        l.record_breach(
            t(2),
            NodeId(1),
            NodeId(9),
            DataCategory::Profile,
            Purpose::Social,
            BreachCause::MaliciousUser,
        );
        assert_eq!(l.respect_rate_for(NodeId(0)), 1.0);
        assert_eq!(l.respect_rate_for(NodeId(1)), 0.0);
        assert_eq!(l.respect_rate_for(NodeId(7)), 1.0, "no data, no violation");
    }

    #[test]
    fn exposure_weights_sensitivity_and_anonymization() {
        let mut l = DisclosureLedger::new();
        l.record_disclosure(
            t(1),
            NodeId(0),
            NodeId(1),
            DataCategory::Location,
            Purpose::Social,
            false,
        );
        l.record_disclosure(
            t(2),
            NodeId(0),
            NodeId(1),
            DataCategory::Location,
            Purpose::Social,
            true,
        );
        assert!((l.total_exposure() - (1.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn aggregates_match_a_scan_of_the_records() {
        // The counters must agree with recomputing every query from the
        // raw log — the pre-optimization implementation.
        let mut l = DisclosureLedger::new();
        let categories = [
            DataCategory::Content,
            DataCategory::Profile,
            DataCategory::Location,
        ];
        for i in 0..50u64 {
            let owner = NodeId((i % 7) as u32);
            let recipient = NodeId(((i + 1) % 7) as u32);
            let category = categories[(i % 3) as usize];
            match i % 5 {
                0 => l.record_breach(
                    t(i),
                    owner,
                    recipient,
                    category,
                    Purpose::Social,
                    BreachCause::MaliciousUser,
                ),
                1 => l.record_breach(
                    t(i),
                    owner,
                    recipient,
                    category,
                    Purpose::Reputation,
                    BreachCause::System,
                ),
                _ => l.record_disclosure(
                    t(i),
                    owner,
                    recipient,
                    category,
                    Purpose::Social,
                    i % 2 == 0,
                ),
            }
        }
        let records: Vec<DisclosureRecord> = l.records().iter().copied().collect();
        let scan_compliant = records.iter().filter(|r| r.compliant).count();
        assert_eq!(
            l.respect_rate(),
            scan_compliant as f64 / records.len() as f64
        );
        for owner in (0..7).map(NodeId) {
            let mine: Vec<_> = records.iter().filter(|r| r.owner == owner).collect();
            let scan_rate = mine.iter().filter(|r| r.compliant).count() as f64 / mine.len() as f64;
            assert_eq!(l.respect_rate_for(owner), scan_rate, "owner {owner:?}");
        }
        let scan_exposure: f64 = records.iter().map(|r| r.exposure()).sum();
        assert_eq!(l.total_exposure(), scan_exposure);
        let scan_user = records
            .iter()
            .filter(|r| r.breach_cause == Some(BreachCause::MaliciousUser))
            .count();
        assert_eq!(l.breach_count(Some(BreachCause::MaliciousUser)), scan_user);
    }

    #[test]
    fn raw_record_cap_keeps_aggregates_exact() {
        let mut capped = DisclosureLedger::with_raw_record_cap(Some(4));
        let mut full = DisclosureLedger::new();
        for s in 0..20 {
            for l in [&mut capped, &mut full] {
                if s % 3 == 0 {
                    l.record_breach(
                        t(s),
                        NodeId(0),
                        NodeId(1),
                        DataCategory::Content,
                        Purpose::Social,
                        BreachCause::System,
                    );
                } else {
                    l.record_disclosure(
                        t(s),
                        NodeId(0),
                        NodeId(1),
                        DataCategory::Content,
                        Purpose::Social,
                        false,
                    );
                }
            }
        }
        assert_eq!(capped.records().len(), 4, "raw window capped");
        assert_eq!(capped.len(), 20, "history length preserved");
        assert_eq!(capped.respect_rate(), full.respect_rate());
        assert_eq!(
            capped.respect_rate_for(NodeId(0)),
            full.respect_rate_for(NodeId(0))
        );
        assert_eq!(capped.breach_count(None), full.breach_count(None));
        assert_eq!(capped.total_exposure(), full.total_exposure());
        assert_eq!(capped.raw_record_cap(), Some(4));
    }
}
