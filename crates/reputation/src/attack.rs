//! Adversary models — the behaviour vocabulary of Marti & Garcia-Molina's
//! taxonomy (paper ref \[15\]) used across every experiment.
//!
//! A [`Population`] assigns each node a behaviour class (honest,
//! malicious, selfish, traitor or colluder) and a ground-truth service
//! quality; it answers the two questions every reputation experiment
//! asks:
//!
//! * what *actually happens* when a consumer interacts with a provider
//!   ([`Population::interact_frozen`], with [`Population::note_served`]
//!   crediting the provider afterwards);
//! * what the rater *reports* about it ([`Population::feedback`]),
//!   including lies and collusion.

use crate::gathering::FeedbackReport;
use crate::mechanism::InteractionOutcome;
use tsn_simnet::{NodeId, SimRng, SimTime};

/// Success probability of adversarial providers.
const ADVERSARIAL_QUALITY: f64 = 0.1;
/// Probability a selfish node refuses service.
const SELFISH_REFUSAL: f64 = 0.6;

/// How a node behaves as a provider and as a rater.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BehaviorClass {
    /// Serves well; reports truthfully.
    Honest,
    /// Serves badly; lies in feedback (inverts outcomes) and praises
    /// fellow malicious nodes.
    Malicious,
    /// Free-rider: often refuses service, but reports truthfully.
    Selfish,
    /// Behaves honestly for its first `switch_after` interactions as a
    /// provider, then turns malicious (the classic traitor / milker).
    Traitor {
        /// Interactions served honestly before the betrayal.
        switch_after: u64,
    },
    /// Member of collusion ring `ring`: serves outsiders badly, praises
    /// ring members unconditionally, badmouths outsiders.
    Colluder {
        /// Ring identifier; members of the same ring collude.
        ring: u16,
    },
}

impl BehaviorClass {
    /// Whether the node's *service* is adversarial after `served`
    /// interactions as provider — the interaction-count trigger only.
    ///
    /// A stateless class cannot see the clock, so this does **not**
    /// apply the time-based traitor deadline
    /// (`PopulationConfig::traitor_switch_deadline`). Whenever a
    /// [`Population`] is available, ask [`Population::is_adversarial`]
    /// instead — judging a traitor by served count alone is exactly the
    /// stuck-traitor bug (never selected ⇒ never turns).
    fn is_adversarial_provider(self, served: u64) -> bool {
        match self {
            BehaviorClass::Honest | BehaviorClass::Selfish => false,
            BehaviorClass::Malicious | BehaviorClass::Colluder { .. } => true,
            BehaviorClass::Traitor { switch_after } => served >= switch_after,
        }
    }
}

/// Mix of behaviour classes for building a [`Population`]. Fractions must
/// sum to at most 1; the remainder is honest.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Fraction of plainly malicious nodes.
    pub malicious: f64,
    /// Fraction of selfish (free-riding) nodes.
    pub selfish: f64,
    /// Fraction of traitors.
    pub traitor: f64,
    /// Interactions a traitor serves honestly before switching.
    pub traitor_switch_after: u64,
    /// Wall-clock betrayal deadline: a traitor also turns once the
    /// population clock (see [`Population::advance_clock`]) reaches this
    /// time, even if it was never selected as a provider. Without it, a
    /// traitor that no consumer happens to pick keeps serving — and
    /// rating — honestly forever, which silently understates the threat
    /// in every sweep. `None` disables the time trigger (interaction
    /// count only).
    pub traitor_switch_deadline: Option<SimTime>,
    /// Fraction of colluders (split into rings of `ring_size`).
    pub colluder: f64,
    /// Colluder ring size.
    pub ring_size: usize,
    /// Mean service quality of honest providers.
    pub honest_quality: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            malicious: 0.0,
            selfish: 0.0,
            traitor: 0.0,
            traitor_switch_after: 20,
            traitor_switch_deadline: None,
            colluder: 0.0,
            ring_size: 5,
            honest_quality: 0.9,
        }
    }
}

impl PopulationConfig {
    /// A population with only a malicious fraction — the standard
    /// EigenTrust-style threat sweep.
    pub fn with_malicious(fraction: f64) -> Self {
        PopulationConfig {
            malicious: fraction,
            ..Default::default()
        }
    }

    /// Validates fractions and qualities.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let fractions = [self.malicious, self.selfish, self.traitor, self.colluder];
        for f in fractions {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("fraction {f} not in [0,1]"));
            }
        }
        let total: f64 = fractions.iter().sum();
        if total > 1.0 + 1e-9 {
            return Err(format!("fractions sum to {total} > 1"));
        }
        if !(0.0..=1.0).contains(&self.honest_quality) {
            return Err(format!(
                "honest_quality {} not in [0,1]",
                self.honest_quality
            ));
        }
        if self.ring_size == 0 {
            return Err("ring_size must be positive".into());
        }
        Ok(())
    }
}

/// A concrete node population: classes, ground-truth qualities, counters.
///
/// ```
/// use tsn_reputation::{NodeId, Population, PopulationConfig};
/// use tsn_simnet::SimRng;
///
/// let mut rng = SimRng::seed_from_u64(7);
/// let pop = Population::new(10, PopulationConfig::with_malicious(0.3), &mut rng);
/// let adversaries = (0..10).filter(|&i| pop.is_adversarial(NodeId(i))).count();
/// assert_eq!(adversaries, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Population {
    classes: Vec<BehaviorClass>,
    /// Ground-truth success quality of each node *as provider today*.
    base_quality: Vec<f64>,
    /// Interactions each node has served as provider.
    served: Vec<u64>,
    /// Population clock, advanced by the experiment loop; drives the
    /// time-based traitor betrayal trigger.
    now: SimTime,
    config: PopulationConfig,
}

impl Population {
    /// Builds a population of `n` nodes with deterministically shuffled
    /// class assignment.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(n: usize, config: PopulationConfig, rng: &mut SimRng) -> Self {
        if let Err(e) = config.validate() {
            // tsn-lint: allow(no-unwrap, "documented contract: new() panics on a config that validate() rejects; fallible callers validate first")
            panic!("invalid population config: {e}");
        }
        let count = |f: f64| (f * n as f64).round() as usize;
        let mut classes = Vec::with_capacity(n);
        let n_colluders = count(config.colluder);
        for i in 0..n_colluders {
            classes.push(BehaviorClass::Colluder {
                ring: (i / config.ring_size) as u16,
            });
        }
        for _ in 0..count(config.malicious) {
            classes.push(BehaviorClass::Malicious);
        }
        for _ in 0..count(config.selfish) {
            classes.push(BehaviorClass::Selfish);
        }
        for _ in 0..count(config.traitor) {
            classes.push(BehaviorClass::Traitor {
                switch_after: config.traitor_switch_after,
            });
        }
        while classes.len() < n {
            classes.push(BehaviorClass::Honest);
        }
        classes.truncate(n);
        rng.shuffle(&mut classes);
        let base_quality = classes
            .iter()
            .map(|c| match c {
                BehaviorClass::Honest | BehaviorClass::Traitor { .. } => {
                    // Per-node quality jitter around the honest mean.
                    (config.honest_quality + rng.gen_normal(0.0, 0.05)).clamp(0.0, 1.0)
                }
                BehaviorClass::Selfish => config.honest_quality * (1.0 - SELFISH_REFUSAL),
                _ => ADVERSARIAL_QUALITY,
            })
            .collect();
        Population {
            classes,
            base_quality,
            served: vec![0; n],
            now: SimTime::ZERO,
            config,
        }
    }

    /// Advances the population clock (monotonically; earlier times are
    /// ignored). Experiment loops call this once per round so the
    /// time-based traitor trigger fires even for traitors that are never
    /// selected as providers.
    pub fn advance_clock(&mut self, now: SimTime) {
        if now > self.now {
            self.now = now;
        }
    }

    /// Whether the traitor in slot `i` has turned — by having served
    /// enough interactions, or by the wall-clock deadline passing.
    fn traitor_turned(&self, i: usize, switch_after: u64) -> bool {
        self.served[i] >= switch_after
            || self
                .config
                .traitor_switch_deadline
                .is_some_and(|deadline| self.now >= deadline)
    }

    /// Current ground-truth quality of `node` as provider: the probability
    /// an interaction with it succeeds *right now* (traitors degrade after
    /// their switch point).
    pub fn true_quality(&self, node: NodeId) -> f64 {
        let i = node.index();
        match self.classes[i] {
            BehaviorClass::Traitor { switch_after } if self.traitor_turned(i, switch_after) => {
                ADVERSARIAL_QUALITY
            }
            _ => self.base_quality[i],
        }
    }

    /// Whether `node` is adversarial *as of now*.
    pub fn is_adversarial(&self, node: NodeId) -> bool {
        let i = node.index();
        match self.classes[i] {
            BehaviorClass::Traitor { switch_after } => self.traitor_turned(i, switch_after),
            class => class.is_adversarial_provider(self.served[i]),
        }
    }

    /// Simulates one interaction served by `provider` against *frozen*
    /// state: the provider's served counter is not advanced. The round
    /// engine interacts against a round-start snapshot and merges the
    /// counters afterwards with [`Population::note_served`], so outcomes
    /// cannot depend on which shard executes first.
    pub fn interact_frozen(&self, provider: NodeId, rng: &mut SimRng) -> InteractionOutcome {
        let q = self.true_quality(provider);
        if rng.gen_bool(q) {
            // Experienced quality jitters *below* the ceiling: the true
            // quality is the best the provider delivers, so the draw is
            // one-sided into [0, q]. (A symmetric draw clamped to
            // [0.1, 1.0] used to exceed q half the time and floor bad
            // providers at 0.1 — adversaries with true quality 0.1 had a
            // reported mean *above* their ceiling, skewing every threat
            // sweep.)
            let quality = (q - rng.gen_normal(0.0, 0.05).abs()).max(0.0);
            InteractionOutcome::Success { quality }
        } else {
            InteractionOutcome::Failure
        }
    }

    /// Credits `provider` with `count` served interactions. The merge
    /// half of [`Population::interact_frozen`].
    pub fn note_served(&mut self, provider: NodeId, count: u64) {
        self.served[provider.index()] += count;
    }

    /// Produces the feedback `rater` files about `ratee` after `actual`
    /// happened — applying the rater's lying strategy.
    pub fn feedback(
        &self,
        rater: NodeId,
        ratee: NodeId,
        actual: InteractionOutcome,
        at: SimTime,
        topic: Option<usize>,
    ) -> FeedbackReport {
        let rater_class = self.classes[rater.index()];
        let reported = match rater_class {
            BehaviorClass::Colluder { ring } => {
                match self.classes[ratee.index()] {
                    // Unconditional praise inside the ring.
                    BehaviorClass::Colluder { ring: r2 } if r2 == ring => {
                        InteractionOutcome::Success { quality: 1.0 }
                    }
                    // Badmouth everyone else.
                    _ => InteractionOutcome::Failure,
                }
            }
            // Traitors lie once turned — by served count *or* by the
            // clock (a traitor that is never selected as provider must
            // still betray; the served-count trigger alone would keep it
            // truthful forever).
            _ if self.is_adversarial(rater) => {
                // Invert the truth.
                match actual {
                    InteractionOutcome::Success { .. } => InteractionOutcome::Failure,
                    InteractionOutcome::Failure => InteractionOutcome::Success { quality: 1.0 },
                }
            }
            _ => actual,
        };
        FeedbackReport {
            rater,
            ratee,
            outcome: reported,
            topic,
            at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_match_fractions() {
        let config = PopulationConfig {
            malicious: 0.2,
            selfish: 0.1,
            colluder: 0.1,
            ring_size: 5,
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(0);
        let pop = Population::new(100, config, &mut rng);
        let count =
            |matches: fn(&BehaviorClass) -> bool| pop.classes.iter().filter(|c| matches(c)).count();
        assert_eq!(count(|c| matches!(c, BehaviorClass::Malicious)), 20);
        assert_eq!(count(|c| matches!(c, BehaviorClass::Selfish)), 10);
        assert_eq!(count(|c| matches!(c, BehaviorClass::Colluder { .. })), 10);
        assert_eq!(count(|c| matches!(c, BehaviorClass::Honest)), 60);
    }

    #[test]
    fn honest_nodes_mostly_succeed_malicious_mostly_fail() {
        let mut rng = SimRng::seed_from_u64(1);
        let pop = Population::new(10, PopulationConfig::with_malicious(0.5), &mut rng);
        let mut honest_ok = 0;
        let mut bad_ok = 0;
        let honest: Vec<NodeId> = (0..10)
            .map(NodeId::from_index)
            .filter(|&n| !pop.is_adversarial(n))
            .collect();
        let bad: Vec<NodeId> = (0..10)
            .map(NodeId::from_index)
            .filter(|&n| pop.is_adversarial(n))
            .collect();
        for _ in 0..200 {
            if pop.interact_frozen(honest[0], &mut rng).is_success() {
                honest_ok += 1;
            }
            if pop.interact_frozen(bad[0], &mut rng).is_success() {
                bad_ok += 1;
            }
        }
        assert!(honest_ok > 150, "honest ok {honest_ok}");
        assert!(bad_ok < 50, "bad ok {bad_ok}");
    }

    #[test]
    fn traitor_switches_after_threshold() {
        let config = PopulationConfig {
            traitor: 1.0,
            traitor_switch_after: 5,
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(2);
        let mut pop = Population::new(1, config, &mut rng);
        let t = NodeId(0);
        assert!(!pop.is_adversarial(t));
        let q_before = pop.true_quality(t);
        for _ in 0..5 {
            pop.interact_frozen(t, &mut rng);
            pop.note_served(t, 1);
        }
        assert!(pop.is_adversarial(t));
        assert!(pop.true_quality(t) < q_before);
    }

    #[test]
    fn never_selected_traitor_turns_by_deadline() {
        // The stuck-traitor regression: a traitor that is never selected
        // as provider (served stays 0) must still betray once the clock
        // passes the deadline — both in service quality and in feedback.
        let config = PopulationConfig {
            traitor: 1.0,
            traitor_switch_after: 5,
            traitor_switch_deadline: Some(SimTime::from_secs(100)),
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(11);
        let mut pop = Population::new(2, config, &mut rng);
        let t = NodeId(0);
        let actual = InteractionOutcome::Success { quality: 1.0 };
        assert!(!pop.is_adversarial(t), "honest before the deadline");
        assert_eq!(
            pop.feedback(t, NodeId(1), actual, SimTime::ZERO, None)
                .outcome,
            actual,
            "truthful before the deadline"
        );
        pop.advance_clock(SimTime::from_secs(100));
        assert!(pop.is_adversarial(t), "turned with served == 0");
        assert!(pop.true_quality(t) <= 0.2, "service quality collapses");
        assert_eq!(
            pop.feedback(t, NodeId(1), actual, SimTime::ZERO, None)
                .outcome,
            InteractionOutcome::Failure,
            "a turned traitor lies even though it never served"
        );
        // The clock is monotone: a stale timestamp cannot un-turn it.
        pop.advance_clock(SimTime::ZERO);
        assert!(pop.is_adversarial(t));
    }

    #[test]
    fn success_jitter_stays_below_true_quality() {
        // The jitter contract: experienced quality never exceeds the
        // provider's true quality ceiling and never goes negative — in
        // particular an adversarial provider (ceiling 0.1) must not
        // report a mean quality above 0.1.
        let mut rng = SimRng::seed_from_u64(12);
        let pop = Population::new(4, PopulationConfig::with_malicious(0.5), &mut rng);
        for i in 0..4u32 {
            let node = NodeId(i);
            let ceiling = pop.true_quality(node);
            for _ in 0..300 {
                if let InteractionOutcome::Success { quality } = pop.interact_frozen(node, &mut rng)
                {
                    assert!(
                        (0.0..=ceiling).contains(&quality),
                        "quality {quality} outside [0, {ceiling}]"
                    );
                }
            }
        }
    }

    #[test]
    fn malicious_raters_invert_feedback() {
        let mut rng = SimRng::seed_from_u64(3);
        let pop = Population::new(2, PopulationConfig::with_malicious(0.5), &mut rng);
        let (liar, honest): (NodeId, NodeId) = if pop.is_adversarial(NodeId(0)) {
            (NodeId(0), NodeId(1))
        } else {
            (NodeId(1), NodeId(0))
        };
        let actual = InteractionOutcome::Success { quality: 1.0 };
        let lie = pop.feedback(liar, honest, actual, SimTime::ZERO, None);
        assert_eq!(lie.outcome, InteractionOutcome::Failure);
        let truth = pop.feedback(honest, liar, actual, SimTime::ZERO, None);
        assert_eq!(truth.outcome, actual);
    }

    #[test]
    fn colluders_praise_ring_and_badmouth_outside() {
        let config = PopulationConfig {
            colluder: 0.5,
            ring_size: 2,
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(4);
        let pop = Population::new(8, config, &mut rng);
        let colluders: Vec<NodeId> = (0..8)
            .map(NodeId::from_index)
            .filter(|&n| matches!(pop.classes[n.index()], BehaviorClass::Colluder { .. }))
            .collect();
        let honest = (0..8)
            .map(NodeId::from_index)
            .find(|&n| matches!(pop.classes[n.index()], BehaviorClass::Honest))
            .unwrap();
        // Find two colluders in the same ring.
        let (a, b) = colluders
            .iter()
            .flat_map(|&a| colluders.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| {
                a != b
                    && matches!(
                        (pop.classes[a.index()], pop.classes[b.index()]),
                        (BehaviorClass::Colluder { ring: r1 }, BehaviorClass::Colluder { ring: r2 }) if r1 == r2
                    )
            })
            .expect("a ring of size 2 exists");
        let fail = InteractionOutcome::Failure;
        let praise = pop.feedback(a, b, fail, SimTime::ZERO, None);
        assert!(
            praise.outcome.is_success(),
            "ring members praise each other"
        );
        let smear = pop.feedback(
            a,
            honest,
            InteractionOutcome::Success { quality: 1.0 },
            SimTime::ZERO,
            None,
        );
        assert_eq!(
            smear.outcome,
            InteractionOutcome::Failure,
            "outsiders get badmouthed"
        );
    }

    #[test]
    fn selfish_nodes_report_truthfully_but_serve_poorly() {
        let config = PopulationConfig {
            selfish: 1.0,
            ..Default::default()
        };
        let mut rng = SimRng::seed_from_u64(5);
        let pop = Population::new(2, config, &mut rng);
        let actual = InteractionOutcome::Success { quality: 0.9 };
        let fb = pop.feedback(NodeId(0), NodeId(1), actual, SimTime::ZERO, None);
        assert_eq!(fb.outcome, actual);
        assert!(pop.true_quality(NodeId(0)) < 0.5);
        assert!(
            !pop.is_adversarial(NodeId(0)),
            "selfish ≠ adversarial provider"
        );
    }

    #[test]
    fn validation_rejects_oversubscription() {
        let config = PopulationConfig {
            malicious: 0.7,
            selfish: 0.5,
            ..Default::default()
        };
        assert!(config.validate().is_err());
        assert!(PopulationConfig::default().validate().is_ok());
    }

    #[test]
    fn true_qualities_and_adversarial_nodes_consistent() {
        let mut rng = SimRng::seed_from_u64(6);
        let pop = Population::new(50, PopulationConfig::with_malicious(0.4), &mut rng);
        let adversarial: Vec<NodeId> = (0..50)
            .map(NodeId::from_index)
            .filter(|&n| pop.is_adversarial(n))
            .collect();
        for &n in &adversarial {
            assert!(pop.true_quality(n) <= 0.2);
        }
        assert_eq!(adversarial.len(), 20);
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = SimRng::seed_from_u64(7);
            let pop = Population::new(30, PopulationConfig::with_malicious(0.3), &mut rng);
            (0..30)
                .map(|i| pop.true_quality(NodeId::from_index(i)))
                .collect::<Vec<f64>>()
        };
        assert_eq!(build(), build());
    }
}
