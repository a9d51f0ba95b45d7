//! Node churn: joins, leaves, crashes and whitewashing.
//!
//! The reputation literature the paper builds on (Marti & Garcia-Molina's
//! taxonomy, EigenTrust's threat models) treats churn and *whitewashing* —
//! re-joining under a fresh identity to shed a bad reputation — as
//! first-class adversarial behaviours. [`ChurnProcess`] generates the
//! lifecycle schedule; [`NodeLifecycle`] tracks the identity mapping so
//! higher layers can ask "is this node a whitewashed reincarnation?".

use crate::rng::SimRng;
use crate::time::SimDuration;
use crate::NodeId;
use std::collections::BTreeMap;

/// Parameters of the churn process.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Mean session length (time a node stays online). Exponentially
    /// distributed, the standard M/M churn assumption.
    pub mean_session: SimDuration,
    /// Mean offline time before re-joining.
    pub mean_downtime: SimDuration,
    /// Probability that a re-join is a *whitewash*: the node returns under
    /// a brand-new identity, discarding its history.
    pub whitewash_probability: f64,
    /// Fraction of departures that are crashes (no goodbye protocol);
    /// the rest are graceful leaves. Only affects what higher layers see.
    pub crash_fraction: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            mean_session: SimDuration::from_secs(3_600),
            mean_downtime: SimDuration::from_secs(600),
            whitewash_probability: 0.0,
            crash_fraction: 0.2,
        }
    }
}

impl ChurnConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.mean_session == SimDuration::ZERO {
            return Err("mean_session must be positive".into());
        }
        if self.mean_downtime == SimDuration::ZERO {
            return Err("mean_downtime must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.whitewash_probability) {
            return Err("whitewash_probability must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.crash_fraction) {
            return Err("crash_fraction must be in [0,1]".into());
        }
        Ok(())
    }
}

/// A lifecycle transition produced by the churn process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Node goes offline gracefully.
    Leave(NodeId),
    /// Node goes offline abruptly.
    Crash(NodeId),
    /// Node comes back online under the same identity.
    Rejoin(NodeId),
    /// Node comes back online under a fresh identity: `(old, new)`.
    Whitewash(NodeId, NodeId),
}

impl ChurnEvent {
    /// The identity that is online after this event, if any.
    pub fn online_identity(&self) -> Option<NodeId> {
        match *self {
            ChurnEvent::Leave(_) | ChurnEvent::Crash(_) => None,
            ChurnEvent::Rejoin(n) => Some(n),
            ChurnEvent::Whitewash(_, n) => Some(n),
        }
    }
}

/// Tracks which identities exist and the whitewash genealogy.
#[derive(Debug, Clone, Default)]
pub struct NodeLifecycle {
    /// For each whitewashed identity, the identity it replaced.
    predecessor: BTreeMap<NodeId, NodeId>,
    online: BTreeMap<NodeId, bool>,
}

impl NodeLifecycle {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fresh identity (initially online).
    pub fn register(&mut self, node: NodeId) {
        self.online.insert(node, true);
    }

    /// Applies a churn event to the tracker.
    pub fn apply(&mut self, event: ChurnEvent) {
        match event {
            ChurnEvent::Leave(n) | ChurnEvent::Crash(n) => {
                self.online.insert(n, false);
            }
            ChurnEvent::Rejoin(n) => {
                self.online.insert(n, true);
            }
            ChurnEvent::Whitewash(old, new) => {
                self.online.insert(old, false);
                self.online.insert(new, true);
                self.predecessor.insert(new, old);
            }
        }
    }

    /// Whether the identity is currently online.
    pub fn is_online(&self, node: NodeId) -> bool {
        self.online.get(&node).copied().unwrap_or(false)
    }

    /// The identity this node whitewashed from, if any.
    pub fn whitewashed_from(&self, node: NodeId) -> Option<NodeId> {
        self.predecessor.get(&node).copied()
    }

    /// Follows the whitewash chain back to the original identity.
    pub fn root_identity(&self, node: NodeId) -> NodeId {
        let mut cur = node;
        while let Some(&prev) = self.predecessor.get(&cur) {
            cur = prev;
        }
        cur
    }

    /// Number of identities ever registered.
    pub fn identity_count(&self) -> usize {
        self.online.len()
    }

    /// Number of identities currently online.
    pub fn online_count(&self) -> usize {
        self.online.values().filter(|&&o| o).count()
    }
}

/// Generates the churn schedule for one node population.
///
/// Usage: call [`ChurnProcess::next_transition`] for a node to obtain the
/// (delay, event) of its next lifecycle change; the caller schedules it on
/// the simulator clock. Fresh whitewash identities are allocated through
/// the callback so the caller controls id assignment.
#[derive(Debug)]
pub struct ChurnProcess {
    config: ChurnConfig,
    rng: SimRng,
}

impl ChurnProcess {
    /// Creates the process.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; validate first with
    /// [`ChurnConfig::validate`] to handle errors gracefully.
    pub fn new(config: ChurnConfig, rng: SimRng) -> Self {
        if let Err(e) = config.validate() {
            // tsn-lint: allow(no-unwrap, "documented contract: new() panics on a config that validate() rejects; fallible callers validate first")
            panic!("invalid churn config: {e}");
        }
        ChurnProcess { config, rng }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Samples how long an online node stays up before departing, and
    /// whether the departure is a crash or a graceful leave.
    pub fn next_departure(&mut self, node: NodeId) -> (SimDuration, ChurnEvent) {
        let session = self.sample_exp(self.config.mean_session);
        let event = if self.rng.gen_bool(self.config.crash_fraction) {
            ChurnEvent::Crash(node)
        } else {
            ChurnEvent::Leave(node)
        };
        (session, event)
    }

    /// Samples how long an offline node stays down and how it returns.
    ///
    /// `alloc_identity` is invoked only when the return is a whitewash, and
    /// must hand out a fresh, never-used identity.
    pub fn next_return(
        &mut self,
        node: NodeId,
        alloc_identity: impl FnOnce() -> NodeId,
    ) -> (SimDuration, ChurnEvent) {
        let downtime = self.sample_exp(self.config.mean_downtime);
        let event = if self.rng.gen_bool(self.config.whitewash_probability) {
            ChurnEvent::Whitewash(node, alloc_identity())
        } else {
            ChurnEvent::Rejoin(node)
        };
        (downtime, event)
    }

    /// Convenience: full next transition given the node's current state.
    pub fn next_transition(
        &mut self,
        node: NodeId,
        currently_online: bool,
        alloc_identity: impl FnOnce() -> NodeId,
    ) -> (SimDuration, ChurnEvent) {
        if currently_online {
            self.next_departure(node)
        } else {
            self.next_return(node, alloc_identity)
        }
    }

    fn sample_exp(&mut self, mean: SimDuration) -> SimDuration {
        let mean_s = mean.as_secs_f64();
        SimDuration::from_secs_f64(self.rng.gen_exp(1.0 / mean_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            mean_session: SimDuration::from_secs(100),
            mean_downtime: SimDuration::from_secs(25),
            whitewash_probability: 0.3,
            crash_fraction: 0.5,
        }
    }

    #[test]
    fn validate_catches_bad_parameters() {
        let mut c = cfg();
        c.whitewash_probability = 1.5;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.mean_session = SimDuration::ZERO;
        assert!(c.validate().is_err());
        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn session_lengths_match_mean() {
        let mut p = ChurnProcess::new(cfg(), SimRng::seed_from_u64(0));
        let n = 5_000;
        let total: f64 = (0..n)
            .map(|_| p.next_departure(NodeId(0)).0.as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 100.0).abs() < 5.0, "mean session {mean}");
    }

    #[test]
    fn crash_fraction_matches() {
        let mut p = ChurnProcess::new(cfg(), SimRng::seed_from_u64(1));
        let crashes = (0..10_000)
            .filter(|_| matches!(p.next_departure(NodeId(0)).1, ChurnEvent::Crash(_)))
            .count();
        let rate = crashes as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.03, "crash rate {rate}");
    }

    #[test]
    fn whitewash_rate_matches_and_allocates_fresh_ids() {
        let mut p = ChurnProcess::new(cfg(), SimRng::seed_from_u64(2));
        let mut next_id = 100u32;
        let mut whitewashes = 0;
        for _ in 0..10_000 {
            let (_, ev) = p.next_return(NodeId(0), || {
                let id = NodeId(next_id);
                next_id += 1;
                id
            });
            if let ChurnEvent::Whitewash(old, new) = ev {
                assert_eq!(old, NodeId(0));
                assert!(new.0 >= 100);
                whitewashes += 1;
            }
        }
        let rate = whitewashes as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "whitewash rate {rate}");
    }

    #[test]
    fn lifecycle_tracks_online_state() {
        let mut lc = NodeLifecycle::new();
        lc.register(NodeId(1));
        assert!(lc.is_online(NodeId(1)));
        lc.apply(ChurnEvent::Crash(NodeId(1)));
        assert!(!lc.is_online(NodeId(1)));
        lc.apply(ChurnEvent::Rejoin(NodeId(1)));
        assert!(lc.is_online(NodeId(1)));
        assert_eq!(lc.online_count(), 1);
    }

    #[test]
    fn lifecycle_tracks_whitewash_genealogy() {
        let mut lc = NodeLifecycle::new();
        lc.register(NodeId(1));
        lc.apply(ChurnEvent::Leave(NodeId(1)));
        lc.apply(ChurnEvent::Whitewash(NodeId(1), NodeId(2)));
        lc.apply(ChurnEvent::Leave(NodeId(2)));
        lc.apply(ChurnEvent::Whitewash(NodeId(2), NodeId(3)));
        assert_eq!(lc.whitewashed_from(NodeId(3)), Some(NodeId(2)));
        assert_eq!(lc.root_identity(NodeId(3)), NodeId(1));
        assert_eq!(lc.root_identity(NodeId(1)), NodeId(1));
        assert!(lc.is_online(NodeId(3)));
        assert!(!lc.is_online(NodeId(1)));
    }

    #[test]
    fn online_identity_of_events() {
        assert_eq!(ChurnEvent::Leave(NodeId(1)).online_identity(), None);
        assert_eq!(
            ChurnEvent::Rejoin(NodeId(1)).online_identity(),
            Some(NodeId(1))
        );
        assert_eq!(
            ChurnEvent::Whitewash(NodeId(1), NodeId(2)).online_identity(),
            Some(NodeId(2))
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut p1 = ChurnProcess::new(cfg(), SimRng::seed_from_u64(9));
        let mut p2 = ChurnProcess::new(cfg(), SimRng::seed_from_u64(9));
        for _ in 0..100 {
            assert_eq!(p1.next_departure(NodeId(5)), p2.next_departure(NodeId(5)));
        }
    }
}
