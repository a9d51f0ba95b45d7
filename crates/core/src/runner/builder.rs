//! Fluent, validated construction of scenarios.

use crate::config::{PolicyProfile, ScenarioConfig};
use crate::runner::{Observer, ValidationError};
use crate::scenario::{Scenario, ScenarioOutcome, ROUND_DURATION};
use tsn_reputation::{
    AnonymizationConfig, DisclosurePolicy, MechanismKind, PopulationConfig, SelectionPolicy,
};
use tsn_simnet::{DynamicsPlan, MembershipConfig, SimTime};

/// The five rungs of the paper's disclosure ladder, as a type.
///
/// Each rung adds one field to what a feedback report discloses (the
/// x-axis of Figure 2, right): `Minimal` shares only the score,
/// `Full` additionally reveals outcome detail, timestamp, topic and the
/// rater's identity. The enum replaces the seed API's raw `usize`
/// level, making out-of-range levels unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DisclosureLevel {
    /// Level 0 — anonymous score-only reports.
    Minimal,
    /// Level 1 — adds the outcome detail.
    Outcome,
    /// Level 2 — adds the timestamp.
    Timestamped,
    /// Level 3 — adds the content topic.
    Topical,
    /// Level 4 — adds the rater's identity (full disclosure).
    Full,
}

impl DisclosureLevel {
    /// All levels in ladder order, for sweeps.
    pub const ALL: [DisclosureLevel; 5] = [
        DisclosureLevel::Minimal,
        DisclosureLevel::Outcome,
        DisclosureLevel::Timestamped,
        DisclosureLevel::Topical,
        DisclosureLevel::Full,
    ];

    /// The ladder index (`0..=4`) this level denotes.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The level for a raw ladder index, if in range.
    pub fn from_index(index: usize) -> Option<DisclosureLevel> {
        Self::ALL.get(index).copied()
    }

    /// Label for tables and CLI flags (`"level0"` … `"level4"`).
    pub fn label(self) -> &'static str {
        match self {
            DisclosureLevel::Minimal => "level0",
            DisclosureLevel::Outcome => "level1",
            DisclosureLevel::Timestamped => "level2",
            DisclosureLevel::Topical => "level3",
            DisclosureLevel::Full => "level4",
        }
    }

    /// The reputation-pipeline disclosure policy this level induces.
    pub fn policy(self) -> DisclosurePolicy {
        DisclosurePolicy::ladder(self.index())
    }

    /// Fraction of report fields this level exposes.
    pub fn exposure(self) -> f64 {
        self.policy().exposure()
    }
}

/// Fluent construction of [`ScenarioConfig`]s with typed knobs.
///
/// The builder is the single public path to a scenario configuration:
/// every knob has a dedicated setter, enum-valued knobs take enums
/// (e.g. [`DisclosureLevel`] instead of a raw `usize`), and
/// [`build`](ScenarioBuilder::build) runs full validation, returning a
/// [`ValidationError`] naming the offending field instead of silently
/// accepting a bad configuration.
///
/// ```
/// use tsn_core::runner::{DisclosureLevel, ScenarioBuilder};
/// use tsn_reputation::MechanismKind;
///
/// let outcome = ScenarioBuilder::small()
///     .mechanism(MechanismKind::Beta)
///     .disclosure(DisclosureLevel::Timestamped)
///     .seed(7)
///     .run()
///     .expect("valid configuration");
/// assert!((0.0..=1.0).contains(&outcome.global_trust));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    config: ScenarioConfig,
}

impl ScenarioBuilder {
    /// Starts from the default configuration (100 users, 30 rounds).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from the small, fast configuration used by tests and doc
    /// examples (40 users, 10 rounds).
    pub fn small() -> Self {
        ScenarioBuilder {
            config: ScenarioConfig::small(),
        }
    }

    /// Starts from the standard experiment-scale base shared by the
    /// figure-regeneration binaries: 100 users, 25 rounds, 25% malicious.
    pub fn experiment(seed: u64) -> Self {
        Self::new()
            .rounds(25)
            .population(PopulationConfig::with_malicious(0.25))
            .seed(seed)
    }

    /// Starts from an existing configuration (e.g. to derive variants).
    pub fn from_config(config: ScenarioConfig) -> Self {
        ScenarioBuilder { config }
    }

    /// Population size.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Rounds of the interaction loop.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.config.rounds = rounds;
        self
    }

    /// Interactions each user initiates per round.
    pub fn interactions_per_node(mut self, k: usize) -> Self {
        self.config.interactions_per_node = k;
        self
    }

    /// Reputation mechanism.
    pub fn mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.config.mechanism = mechanism;
        self
    }

    /// Required feedback-disclosure level (typed ladder rung).
    pub fn disclosure(mut self, level: DisclosureLevel) -> Self {
        self.config.disclosure_level = level.index();
        self
    }

    /// Extra anonymization layer on the reputation mechanism.
    pub fn anonymization(mut self, anonymization: AnonymizationConfig) -> Self {
        self.config.anonymization = Some(anonymization);
        self
    }

    /// Partner-selection policy.
    pub fn selection(mut self, selection: SelectionPolicy) -> Self {
        self.config.selection = selection;
        self
    }

    /// Privacy-policy strictness profile of the population.
    pub fn policy_profile(mut self, profile: PolicyProfile) -> Self {
        self.config.policy_profile = profile;
        self
    }

    /// Full behaviour mix of the population.
    pub fn population(mut self, population: PopulationConfig) -> Self {
        self.config.population = population;
        self
    }

    /// Shorthand: a population with the given malicious fraction.
    pub fn malicious_fraction(self, fraction: f64) -> Self {
        self.population(PopulationConfig::with_malicious(fraction))
    }

    /// Mean privacy concern of users.
    pub fn privacy_concern(mut self, mean: f64) -> Self {
        self.config.privacy_concern_mean = mean;
        self
    }

    /// Whether users adapt their disclosure to their current trust (the
    /// Section-3 closed loop).
    pub fn adaptive_disclosure(mut self, adaptive: bool) -> Self {
        self.config.adaptive_disclosure = adaptive;
        self
    }

    /// Rounds between mechanism refreshes.
    pub fn refresh_every(mut self, rounds: usize) -> Self {
        self.config.refresh_every = rounds;
        self
    }

    /// Pre-trusted seed peers for EigenTrust.
    pub fn pretrusted(mut self, count: usize) -> Self {
        self.config.pretrusted = count;
        self
    }

    /// Watts–Strogatz graph parameters: mean degree (even) and rewiring
    /// probability.
    pub fn graph(mut self, degree: usize, beta: f64) -> Self {
        self.config.graph_degree = degree;
        self.config.graph_beta = beta;
        self
    }

    /// Probability a malicious recipient leaks granted data.
    pub fn leak_probability(mut self, p: f64) -> Self {
        self.config.leak_probability = p;
        self
    }

    /// Availability churn: per-round offline probability (the legacy
    /// i.i.d. model; see [`ScenarioBuilder::dynamics`] for sessions,
    /// whitewashing and partitions).
    pub fn churn(mut self, offline: f64) -> Self {
        self.config.churn_offline = offline;
        self
    }

    /// Attaches a full dynamics plan: session-based churn, whitewash
    /// re-joins (fresh identities with reset reputation) and scheduled
    /// partitions that confine partner selection group-wise while
    /// active. Mutually exclusive with [`ScenarioBuilder::churn`].
    ///
    /// Plan times are virtual: one scenario round spans
    /// [`ROUND_DURATION`] (one hour).
    pub fn dynamics(mut self, plan: DynamicsPlan) -> Self {
        self.config.dynamics = Some(plan);
        self
    }

    /// Attaches the peer-sampling membership overlay: bounded partial
    /// views refreshed by one deterministic push-pull shuffle per
    /// round, bootstrapped through the first `relays` nodes. Partner
    /// candidates then come from each consumer's local view instead of
    /// the global graph neighborhood. Leaving it off keeps the legacy
    /// global selection bit-identical.
    pub fn membership(mut self, config: MembershipConfig) -> Self {
        self.config.membership = Some(config);
        self
    }

    /// Preset: the membership overlay with its default parameters
    /// (view size 16, shuffle length 8, 3 relays).
    pub fn with_peer_sampling(self) -> Self {
        self.membership(MembershipConfig::default())
    }

    /// Preset: a flash crowd — 75 % of users start offline and flood in
    /// during the first round, then churn with ~8-round sessions.
    pub fn flash_crowd(self) -> Self {
        self.dynamics(DynamicsPlan::flash_crowd(
            ROUND_DURATION.mul_f64(8.0),
            ROUND_DURATION.mul_f64(0.5),
        ))
    }

    /// Preset: a clean two-way split active during rounds
    /// `start_round..end_round` (healing at the start of `end_round`).
    /// While split, users only interact within their own half.
    pub fn split_then_heal(self, start_round: usize, end_round: usize) -> Self {
        let at = |round: usize| SimTime::ZERO + ROUND_DURATION.mul_f64(round as f64);
        self.dynamics(DynamicsPlan::split_then_heal(
            at(start_round),
            at(end_round),
        ))
    }

    /// Preset: a whitewash economy — ~3-round sessions, 80 % of
    /// re-joins under a fresh identity that sheds its reputation.
    pub fn whitewash_attack(self) -> Self {
        self.dynamics(DynamicsPlan::whitewash_attack(
            ROUND_DURATION.mul_f64(3.0),
            ROUND_DURATION,
        ))
    }

    /// Weight of the consumer role in overall satisfaction.
    pub fn consumer_role_weight(mut self, weight: f64) -> Self {
        self.config.consumer_role_weight = weight;
        self
    }

    /// Ballot-stuffing amplification factor (1 disables the attack).
    pub fn ballot_stuffing(mut self, factor: usize) -> Self {
        self.config.ballot_stuffing_factor = factor;
        self
    }

    /// Preset: a mega-scale run — 20 rounds and a bounded raw ledger
    /// audit trail (aggregate privacy measurements still cover the full
    /// history), which keeps a 100k–1M node scenario inside memory. At
    /// these node counts the round engine spreads each round over every
    /// core on its own (see
    /// [`SHARD_AUTO_NODES`](crate::scenario::SHARD_AUTO_NODES)); that is
    /// execution only and changes no outcome bit.
    pub fn mega(nodes: usize) -> Self {
        Self::new()
            .nodes(nodes)
            .rounds(20)
            .ledger_raw_record_cap(Some(200_000))
    }

    /// Caps the raw disclosure-ledger records kept in memory (oldest
    /// evicted first); aggregate privacy measurements still cover the
    /// full history. `None` (the default) keeps every record.
    pub fn ledger_raw_record_cap(mut self, cap: Option<usize>) -> Self {
        self.config.ledger_raw_record_cap = cap;
        self
    }

    /// Random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The configuration as accumulated so far, without validation.
    /// Used by [`SweepGrid`](crate::runner::SweepGrid), which validates
    /// at execution time.
    pub(crate) fn into_config_unchecked(self) -> ScenarioConfig {
        self.config
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] naming the first invalid knob.
    pub fn build(self) -> Result<ScenarioConfig, ValidationError> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Validates and assembles a ready-to-run [`Scenario`].
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] naming the first invalid knob.
    pub fn build_scenario(self) -> Result<Scenario, ValidationError> {
        Scenario::new(self.build()?)
    }

    /// Builds and runs the scenario to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] naming the first invalid knob.
    pub fn run(self) -> Result<ScenarioOutcome, ValidationError> {
        Ok(self.build_scenario()?.run())
    }

    /// Builds and runs the scenario with per-round [`Observer`] hooks.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] naming the first invalid knob.
    pub fn run_observed(
        self,
        observers: &mut [&mut dyn Observer],
    ) -> Result<ScenarioOutcome, ValidationError> {
        Ok(self.build_scenario()?.run_observed(observers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_map_to_ladder_indices() {
        for (i, level) in DisclosureLevel::ALL.into_iter().enumerate() {
            assert_eq!(level.index(), i);
            assert_eq!(DisclosureLevel::from_index(i), Some(level));
            assert_eq!(level.policy(), DisclosurePolicy::ladder(i));
        }
        assert_eq!(DisclosureLevel::from_index(5), None);
        assert_eq!(DisclosureLevel::Minimal.label(), "level0");
        assert_eq!(DisclosureLevel::Full.label(), "level4");
    }

    #[test]
    fn exposure_is_monotone() {
        let exposures: Vec<f64> = DisclosureLevel::ALL.iter().map(|l| l.exposure()).collect();
        assert!(exposures.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn builder_produces_the_config_it_was_given() {
        let config = ScenarioBuilder::new()
            .nodes(48)
            .rounds(12)
            .mechanism(MechanismKind::PowerTrust)
            .disclosure(DisclosureLevel::Topical)
            .policy_profile(PolicyProfile::Strict)
            .malicious_fraction(0.3)
            .churn(0.1)
            .adaptive_disclosure(true)
            .graph(6, 0.2)
            .seed(99)
            .build()
            .expect("valid");
        assert_eq!(config.nodes, 48);
        assert_eq!(config.rounds, 12);
        assert_eq!(config.mechanism, MechanismKind::PowerTrust);
        assert_eq!(config.disclosure_level, 3);
        assert_eq!(config.policy_profile, PolicyProfile::Strict);
        assert_eq!(config.churn_offline, 0.1);
        assert!(config.adaptive_disclosure);
        assert_eq!(config.graph_degree, 6);
        assert_eq!(config.seed, 99);
    }

    #[test]
    fn builder_rejects_bad_knobs_with_the_field_name() {
        let err = ScenarioBuilder::new().nodes(2).build().unwrap_err();
        assert_eq!(err.field, "nodes");
        let err = ScenarioBuilder::new().churn(1.5).build().unwrap_err();
        assert_eq!(err.field, "churn_offline");
        let err = ScenarioBuilder::new().graph(7, 0.1).build().unwrap_err();
        assert_eq!(err.field, "graph_degree");
        let err = ScenarioBuilder::new()
            .leak_probability(-0.2)
            .build()
            .unwrap_err();
        assert_eq!(err.field, "leak_probability");
        let err = ScenarioBuilder::new()
            .malicious_fraction(2.0)
            .build()
            .unwrap_err();
        assert_eq!(err.field, "population");
    }

    #[test]
    fn presets_are_valid() {
        assert!(ScenarioBuilder::new().build().is_ok());
        assert!(ScenarioBuilder::small().build().is_ok());
        let exp = ScenarioBuilder::experiment(7).build().unwrap();
        assert_eq!(exp.rounds, 25);
        assert_eq!(exp.seed, 7);
    }

    #[test]
    fn dynamics_presets_build_valid_plans() {
        for builder in [
            ScenarioBuilder::small().flash_crowd(),
            ScenarioBuilder::small().split_then_heal(2, 6),
            ScenarioBuilder::small().whitewash_attack(),
        ] {
            let config = builder.build().expect("preset is valid");
            assert!(config.dynamics.is_some());
        }
        let split = ScenarioBuilder::small()
            .split_then_heal(2, 6)
            .build()
            .unwrap();
        let window = &split.dynamics.unwrap().partitions[0];
        assert_eq!(window.start, SimTime::from_secs(2 * 3600));
        assert_eq!(window.end, SimTime::from_secs(6 * 3600));
    }

    #[test]
    fn dynamics_and_coin_flip_churn_are_mutually_exclusive() {
        let err = ScenarioBuilder::small()
            .churn(0.2)
            .whitewash_attack()
            .build()
            .unwrap_err();
        assert_eq!(err.field, "dynamics");
        // An invalid plan is rejected with the field name too.
        let err = ScenarioBuilder::small()
            .dynamics(DynamicsPlan {
                initial_offline: 0.5,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field, "dynamics");
    }

    #[test]
    fn run_executes_end_to_end() {
        let outcome = ScenarioBuilder::small().seed(3).run().expect("valid");
        assert_eq!(outcome.samples.len(), 10);
        assert!((0.0..=1.0).contains(&outcome.global_trust));
    }
}
