//! The end-to-end decentralized social-network scenario.
//!
//! This is the system the paper argues for, assembled from every
//! substrate: users on a small-world social graph publish and request
//! content under *privacy policies*, a *reputation mechanism* scores
//! providers from (policy-filtered) feedback, and every participant's
//! *satisfaction* is tracked long-run. The scenario measures the three
//! facets and the resulting trust — and, when `adaptive_disclosure` is
//! on, closes the Section-3 loop "the less a user trusts towards the
//! system, the less she discloses information".
//!
//! Privacy-relevant flows modelled per interaction:
//!
//! 1. **Content access** — the consumer requests the provider's content;
//!    the PriServ-style [`Enforcer`] checks the provider's policy
//!    (friends-only, minimal trust level…). Grants are logged in the
//!    [`DisclosureLedger`]; a malicious *consumer* then leaks the granted
//!    data with `leak_probability` (breach cause: `MaliciousUser`).
//! 2. **Feedback reporting** — the system *requires* the configured
//!    disclosure level for a report to be accepted; users whose
//!    willingness has eroded below it opt out of feedback entirely,
//!    while anonymous levels leave lying raters free to ballot-stuff.
//! 3. **Behaviour metadata** — the system observes every request at its
//!    collection level; collection beyond what a user's own policy
//!    tolerates is a *system-caused* breach (cause: `System`), kept
//!    apart from user-caused leaks — the paper's footnote-2 distinction.

use crate::config::ScenarioConfig;
use crate::facets::FacetScores;
use crate::runner::{Observer, ValidationError};
use crate::trust::TrustMetric;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tsn_graph::{generators, Graph, InterestProfile, InterestSpace};
use tsn_privacy::enforcement::RequestContext;
use tsn_privacy::oecd::OecdAudit;
use tsn_privacy::policy::DataCategory;
use tsn_privacy::{
    AccessDecision, AccessRequest, BreachCause, DisclosureLedger, Enforcer, Operation,
    PrivacyFacetInputs, PrivacyPolicy, Purpose, SystemPrivacyProfile,
};
use tsn_reputation::{
    accuracy, Anonymized, DisclosurePolicy, FeedbackReport, MechanismKind, Population, PowerReport,
    ReportView, ReputationMechanism, SelectionScratch,
};
use tsn_satisfaction::{
    AdequacyModel, ConsumerIntentions, GlobalSatisfaction, InteractionAspects, ProviderIntentions,
    SatisfactionTracker,
};
use tsn_simnet::{
    DynamicsEvent, DynamicsRuntime, GroupMap, MembershipRuntime, NodeId, PartialView, SimDuration,
    SimRng, SimTime, StreamDomain, MEMBERSHIP_SEED_SALT,
};

/// Virtual time one scenario round spans (the interaction loop models
/// hourly activity waves).
pub const ROUND_DURATION: SimDuration = SimDuration::from_secs(3600);

/// Node count at or above which [`Scenario::run`] spreads the
/// interaction phase over threads: four contiguous shards per available
/// core, claimed by one worker per core. Below it the round runs as one
/// shard inline on the calling thread. Execution only — the outcome is
/// a function of `(config, seed)` alone, on either side of the
/// threshold and on any machine; only wall-clock time varies.
pub const SHARD_AUTO_NODES: usize = 10_000;

/// Stream-domain tag of the per-round offline coin flips, keeping them
/// disjoint from the `(round << 32) | node` interaction streams.
/// Registered as [`StreamDomain::ScenarioOffline`].
const OFFLINE_STREAM_DOMAIN: u64 = StreamDomain::ScenarioOffline.tag();

/// The RNG stream a consumer's interactions draw from: one independent
/// stream per `(round, node)`, derived statelessly from the config seed
/// ([`StreamDomain::Interaction`]).
/// This is what makes the draw sequence — and therefore the whole
/// outcome — independent of the shard count and of shard execution
/// order.
fn interaction_stream(seed: u64, round: usize, node: usize) -> SimRng {
    StreamDomain::Interaction.stream(seed, ((round as u64) << 32) | node as u64)
}

/// Per-round measurements (the time series behind Figure 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSample {
    /// Round index.
    pub round: usize,
    /// Mean long-run satisfaction across users.
    pub mean_satisfaction: f64,
    /// Mean per-user trust estimate.
    pub mean_trust: f64,
    /// Ledger respect rate so far.
    pub respect_rate: f64,
    /// Mechanism consistency with ground truth (Spearman mapped to
    /// `[0, 1]`).
    pub consistency: f64,
    /// Mean effective disclosure exposure users are willing to provide.
    pub mean_willingness: f64,
    /// Interaction success rate this round.
    pub success_rate: f64,
    /// Feedback reports filed this round.
    pub reports_filed: u64,
    /// Fraction of users online this round (1.0 without churn).
    pub availability: f64,
    /// Partition health this round: the probability a random user pair
    /// shares a group — 1.0 outside any partition window.
    pub partition_health: f64,
    /// Consumers skipped this round because no eligible partner
    /// existed (dead/partitioned graph neighborhood, or — with the
    /// membership overlay — an empty/dead partial view). Always 0 in
    /// a healthy static run.
    pub isolated: u64,
}

/// Everything a scenario run produces.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The measured global facets.
    pub facets: FacetScores,
    /// Global trust toward the system (default metric).
    pub global_trust: f64,
    /// Per-user trust toward the system.
    pub per_user_trust: Vec<f64>,
    /// Per-user long-run satisfaction.
    pub per_user_satisfaction: Vec<f64>,
    /// Per-user policy-respect rate over their own data.
    pub per_user_respect: Vec<f64>,
    /// Mechanism power detail.
    pub power: PowerReport,
    /// Satisfaction aggregate detail.
    pub satisfaction: GlobalSatisfaction,
    /// Policy-respect rate measured by the ledger.
    pub respect_rate: f64,
    /// Breaches caused by malicious users.
    pub user_breaches: usize,
    /// Breaches caused by the system (over-sharing).
    pub system_breaches: usize,
    /// OECD audit overall score.
    pub oecd_score: f64,
    /// Mean effective disclosure exposure at the end of the run.
    pub mean_willingness: f64,
    /// Fraction of content requests denied by privacy enforcement.
    pub denial_rate: f64,
    /// Total interactions attempted.
    pub interactions: u64,
    /// Total protocol messages.
    pub messages: u64,
    /// Whitewash re-joins that occurred during the run (0 unless a
    /// dynamics plan with whitewashing was configured).
    pub whitewashes: u64,
    /// Per-round time series.
    pub samples: Vec<RoundSample>,
}

impl RoundSample {
    /// The recognized series names, in the order of the struct fields.
    pub const SERIES_NAMES: [&'static str; 10] = [
        "satisfaction",
        "trust",
        "respect",
        "consistency",
        "willingness",
        "success",
        "reports",
        "availability",
        "partition_health",
        "isolated",
    ];

    /// Extracts one named measurement, or `None` for an unknown name.
    pub fn field(&self, name: &str) -> Option<f64> {
        match name {
            "satisfaction" => Some(self.mean_satisfaction),
            "trust" => Some(self.mean_trust),
            "respect" => Some(self.respect_rate),
            "consistency" => Some(self.consistency),
            "willingness" => Some(self.mean_willingness),
            "success" => Some(self.success_rate),
            "reports" => Some(self.reports_filed as f64),
            "availability" => Some(self.availability),
            "partition_health" => Some(self.partition_health),
            "isolated" => Some(self.isolated as f64),
            _ => None,
        }
    }
}

impl ScenarioOutcome {
    /// Extracts a named series from the samples (for correlation
    /// analysis). Recognized names are [`RoundSample::SERIES_NAMES`];
    /// an unknown name returns `None` instead of panicking.
    pub fn series(&self, name: &str) -> Option<Vec<f64>> {
        if !RoundSample::SERIES_NAMES.contains(&name) {
            return None;
        }
        Some(
            self.samples
                .iter()
                // tsn-lint: allow(no-unwrap, "name membership in SERIES_NAMES is checked at function entry; every sample carries every series")
                .map(|s| s.field(name).expect("name checked against SERIES_NAMES"))
                .collect(),
        )
    }
}

struct UserState {
    intentions: ConsumerIntentions,
    provider_intentions: ProviderIntentions,
    satisfaction: SatisfactionTracker,
    provider_satisfaction: SatisfactionTracker,
    load_this_round: u32,
    /// Disclosure ladder level the user is willing to feed the
    /// reputation system.
    willingness_level: usize,
    /// Whether a privacy breach hit this user's data in the current round.
    breached_this_round: bool,
}

/// Reusable buffers for the round loop. Owned by the [`Scenario`] so the
/// steady-state hot path performs no per-round or per-interaction
/// allocation; every buffer is cleared (never assumed empty) before use,
/// so contents never leak between rounds or runs.
#[derive(Debug, Default)]
struct ScenarioScratch {
    /// Per-user offline flag for the current round.
    offline: Vec<bool>,
    /// Per-user trust of the current round.
    trust: Vec<f64>,
    /// Ground-truth qualities for the power measurement.
    truth: Vec<f64>,
    /// Adversarial flags for the power measurement.
    adversarial: Vec<bool>,
    /// Report views staged for `record_batch` while draining a shard
    /// outbox at the merge barrier.
    views: Vec<ReportView>,
}

/// Per-round counters a shard accumulates locally; summed at the merge
/// barrier (integer sums, so the total is independent of merge order —
/// though the order is fixed anyway).
#[derive(Debug, Default, Clone, Copy)]
struct ShardCounters {
    requests: u64,
    denials: u64,
    interactions: u64,
    messages: u64,
    round_ok: u64,
    round_tried: u64,
    round_reports: u64,
    round_isolated: u64,
}

/// A deferred disclosure-ledger entry. Shards cannot touch the shared
/// ledger mid-phase; they stage events in interaction order and the
/// merge barrier applies them shard-by-shard — which, with contiguous
/// shards, is exactly global consumer order for any shard count.
#[derive(Debug, Clone, Copy)]
enum LedgerEvent {
    Disclosure {
        owner: NodeId,
        recipient: NodeId,
        category: DataCategory,
        purpose: Purpose,
        anonymized: bool,
    },
    Breach {
        owner: NodeId,
        recipient: NodeId,
        category: DataCategory,
        purpose: Purpose,
        cause: BreachCause,
    },
}

/// Everything a shard defers to the merge barrier.
#[derive(Debug, Default)]
struct ShardOutbox {
    /// Feedback filed by this shard's consumers, in consumer order,
    /// with the ballot-stuffing copy count.
    reports: Vec<(FeedbackReport, u32)>,
    /// Ledger events in interaction order.
    ledger: Vec<LedgerEvent>,
    /// One provider per *granted* interaction: the merge credits one
    /// served interaction and one unit of round load each.
    touches: Vec<NodeId>,
    counters: ShardCounters,
}

impl ShardOutbox {
    fn clear(&mut self) {
        self.reports.clear();
        self.ledger.clear();
        self.touches.clear();
        self.counters = ShardCounters::default();
    }
}

/// One contiguous node shard: its range plus owned scratch and outbox,
/// persistent across rounds so the steady-state phase allocates nothing.
#[derive(Debug, Default)]
struct ShardState {
    /// First node (inclusive) this shard owns.
    start: usize,
    /// Past-the-end node of this shard's range.
    end: usize,
    /// Online neighbour candidates of the current consumer.
    candidates: Vec<NodeId>,
    /// Partner-selection scratch.
    selection: SelectionScratch,
    outbox: ShardOutbox,
}

/// One claimable unit of the interaction phase: a shard's contiguous
/// user slice plus its scratch/outbox. Workers take it (once) from a
/// `Mutex<Option<…>>` slot after winning the index off the cursor.
type ShardUnit<'a> = (&'a mut [UserState], &'a mut ShardState);

/// The read-only world a shard worker sees during the interaction
/// phase: a frozen round-start snapshot. All mutation goes through the
/// worker's own user slice and its outbox.
struct ShardCtx<'a> {
    config: &'a ScenarioConfig,
    graph: &'a Graph,
    population: &'a Population,
    mechanism: &'a dyn ReputationMechanism,
    enforcer: &'a Enforcer,
    adequacy: &'a AdequacyModel,
    offline: &'a [bool],
    policy_exposure_cap: &'a [f64],
    policies: &'a [PrivacyPolicy],
    /// Active partition group map, if a window is open this round
    /// (plain data extracted from the dynamics runtime, which itself is
    /// not `Sync` — it owns transport trait objects the phase never
    /// touches).
    partition: Option<&'a GroupMap>,
    /// Slot → current-identity map under whitewashing, `None` without a
    /// dynamics plan.
    identities: Option<&'a [NodeId]>,
    /// Slot-indexed partial views of the membership overlay — the
    /// round's frozen snapshot (shuffled on the control thread before
    /// the phase starts), `None` when the overlay is off.
    views: Option<&'a [PartialView]>,
    system_policy: DisclosurePolicy,
    system_exposure: f64,
    round: usize,
    now: SimTime,
}

impl ShardCtx<'_> {
    fn identity(&self, slot: NodeId) -> NodeId {
        self.identities.map_or(slot, |ids| ids[slot.index()])
    }
}

/// Executes one shard's interaction/feedback phase against the frozen
/// round snapshot. `users` is the shard's own contiguous slice
/// (`state.start ..state.end`); everything cross-shard lands in the
/// outbox. Randomness comes from per-`(round, node)` streams;
/// reputation scores, served counters and ledger state are the
/// round-start snapshot; and a consumer's `privacy_respected` reflects
/// only its own flow this round (the round-barrier semantics of
/// DESIGN.md §10).
fn run_shard(ctx: &ShardCtx<'_>, users: &mut [UserState], state: &mut ShardState) {
    let ShardState {
        start,
        candidates,
        selection,
        outbox,
        ..
    } = state;
    let start = *start;
    outbox.clear();
    for u in users.iter_mut() {
        u.breached_this_round = false;
        u.load_this_round = 0;
    }
    for (local, user) in users.iter_mut().enumerate() {
        let consumer_idx = start + local;
        if ctx.offline[consumer_idx] {
            continue;
        }
        let consumer = NodeId::from_index(consumer_idx);
        let mut rng = interaction_stream(ctx.config.seed, ctx.round, consumer_idx);
        for _ in 0..ctx.config.interactions_per_node {
            candidates.clear();
            let eligible = |p: &NodeId| {
                !ctx.offline[p.index()] && ctx.partition.is_none_or(|m| m.same_group(consumer, *p))
            };
            match ctx.views {
                // Peer sampling on: partners come from the consumer's
                // bounded partial view, not the global graph
                // neighborhood.
                Some(views) => {
                    candidates.extend(views[consumer_idx].peers().filter(|p| eligible(p)))
                }
                None => candidates.extend(
                    ctx.graph
                        .neighbors(consumer)
                        .iter()
                        .copied()
                        .filter(eligible),
                ),
            }
            let Some(provider) = ctx.config.selection.select_with(
                candidates,
                |c| ctx.mechanism.score(ctx.identity(c)),
                &mut rng,
                selection,
            ) else {
                // No eligible partner. The candidate set is fixed for
                // the round (offline flags, partition and view all
                // are), so count the consumer isolated once and skip
                // its remaining attempts; no randomness is consumed.
                outbox.counters.round_isolated += 1;
                break;
            };
            outbox.counters.requests += 1;
            outbox.counters.messages += 1; // content request

            // --- Flow 1: content access under the provider's PP.
            let request = AccessRequest {
                requester: consumer,
                owner: provider,
                operation: Operation::Read,
                purpose: Purpose::Social,
            };
            let request_ctx = RequestContext {
                social_distance: Some(1), // candidates are neighbours
                requester_trust: ctx.mechanism.score(ctx.identity(consumer)),
            };
            let decision =
                ctx.enforcer
                    .decide(&request, &ctx.policies[provider.index()], &request_ctx);

            let outcome_quality;
            if decision.is_granted() {
                let anonymized = decision == AccessDecision::GrantAnonymized;
                outbox.ledger.push(LedgerEvent::Disclosure {
                    owner: provider,
                    recipient: consumer,
                    category: DataCategory::Content,
                    purpose: Purpose::Social,
                    anonymized,
                });
                let outcome = ctx.population.interact_frozen(provider, &mut rng);
                outbox.touches.push(provider);
                outbox.counters.interactions += 1;
                outbox.counters.messages += 1; // content response
                outbox.counters.round_tried += 1;
                if outcome.is_success() {
                    outbox.counters.round_ok += 1;
                }
                outcome_quality = outcome.value();

                // Malicious consumers leak what they were granted.
                if ctx.population.is_adversarial(consumer)
                    && rng.gen_bool(ctx.config.leak_probability)
                {
                    outbox.ledger.push(LedgerEvent::Breach {
                        owner: provider,
                        recipient: consumer,
                        category: DataCategory::Content,
                        purpose: Purpose::Social,
                        cause: BreachCause::MaliciousUser,
                    });
                }

                // --- Flow 2: feedback. The system *requires* the
                // configured disclosure level to accept a report; users
                // unwilling to meet it opt out ("the less a user trusts
                // towards the system, the less she discloses
                // information"). Adversaries always comply — influence
                // is their goal. The report is staged and reaches the
                // mechanism at the merge barrier.
                let willing = user.willingness_level;
                let adversarial_rater = ctx.population.is_adversarial(consumer);
                if adversarial_rater || willing >= ctx.config.disclosure_level {
                    let mut report = ctx
                        .population
                        .feedback(consumer, provider, outcome, ctx.now, None);
                    report.rater = ctx.identity(report.rater);
                    report.ratee = ctx.identity(report.ratee);
                    // Ballot stuffing: without a disclosed rater
                    // identity, nothing rate-limits a lying rater, so
                    // false reports arrive amplified; every extra
                    // disclosed field improves duplicate detection, and
                    // identity eliminates the attack entirely.
                    let copies = if !ctx.system_policy.rater_identity && adversarial_rater {
                        ctx.config
                            .ballot_stuffing_factor
                            .saturating_sub(ctx.config.disclosure_level)
                            .max(1)
                    } else {
                        1
                    };
                    outbox.reports.push((report, copies as u32));
                    outbox.counters.round_reports += copies as u64;
                    outbox.counters.messages +=
                        (ctx.mechanism.overhead_per_report() * copies) as u64;
                }
            } else {
                outbox.counters.denials += 1;
                outbox.counters.round_tried += 1;
                outcome_quality = 0.0; // the consumer got nothing
            }

            // Behaviour metadata: the system observes the request at its
            // configured collection level whether or not it was granted
            // or feedback was filed. Collection beyond what the user's
            // own policy tolerates is a *system-caused* breach (the
            // paper's footnote-2 category).
            if ctx.system_exposure > ctx.policy_exposure_cap[consumer_idx] + 1e-9 {
                outbox.ledger.push(LedgerEvent::Breach {
                    owner: consumer,
                    recipient: provider,
                    category: DataCategory::Behavior,
                    purpose: Purpose::Reputation,
                    cause: BreachCause::System,
                });
                user.breached_this_round = true;
            } else {
                outbox.ledger.push(LedgerEvent::Disclosure {
                    owner: consumer,
                    recipient: provider,
                    category: DataCategory::Behavior,
                    purpose: Purpose::Reputation,
                    anonymized: ctx.config.disclosure_level <= 1,
                });
            }

            let aspects = InteractionAspects {
                provider,
                outcome_quality,
                privacy_respected: !user.breached_this_round,
            };
            let adequacy = ctx.adequacy.adequacy(&user.intentions, &aspects);
            user.satisfaction.observe(adequacy);
        }
    }
}

/// The assembled scenario, ready to run.
pub struct Scenario {
    config: ScenarioConfig,
    graph: Graph,
    population: Population,
    mechanism: Box<dyn ReputationMechanism>,
    users: Vec<UserState>,
    ledger: DisclosureLedger,
    enforcer: Enforcer,
    adequacy: AdequacyModel,
    metric: TrustMetric,
    /// Max exposure each user's own policy tolerates in the feedback
    /// pipeline.
    policy_exposure_cap: Vec<f64>,
    /// Exposure of each disclosure-ladder level, precomputed once (the
    /// round loop looks these up per user per round).
    ladder_exposure: [f64; DisclosurePolicy::LADDER_LEVELS],
    /// Round-loop scratch buffers.
    scratch: ScenarioScratch,
    /// Per-user privacy policies, read-only during rounds. Kept outside
    /// `UserState` so shard workers can read any *provider's* policy
    /// while holding their own contiguous `&mut` user slice.
    policies: Vec<PrivacyPolicy>,
    /// Shard ranges, scratch and outboxes of the round engine; empty
    /// until the first round, persistent afterwards.
    shard_state: Vec<ShardState>,
    /// Dynamics executor (session churn, whitewashing, partitions),
    /// present iff `config.dynamics` is. Runs detached — the abstract
    /// scenario has no transport.
    net_dynamics: Option<DynamicsRuntime>,
    /// Peer-sampling overlay (bounded partial views + shuffling),
    /// present iff `config.membership` is. When on, partner candidates
    /// come from each consumer's local view instead of the global
    /// graph neighborhood.
    membership: Option<MembershipRuntime>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("nodes", &self.config.nodes)
            .field("mechanism", &self.config.mechanism)
            .field("disclosure_level", &self.config.disclosure_level)
            .finish()
    }
}

impl Scenario {
    /// Builds the scenario from a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] when the configuration is invalid.
    pub fn new(config: ScenarioConfig) -> Result<Self, ValidationError> {
        config.validate()?;
        let mut rng = SimRng::seed_from_u64(config.seed);
        let mut graph_rng = rng.fork(1);
        let graph = generators::watts_strogatz(
            config.nodes,
            config.graph_degree,
            config.graph_beta,
            &mut graph_rng,
        )
        .map_err(|e| ValidationError::new("graph_degree", e.to_string()))?;
        let mut pop_rng = rng.fork(2);
        // Default the traitor betrayal deadline to the switch-after
        // horizon in round time: a traitor then turns after
        // `switch_after` rounds even if no consumer ever selects it (the
        // stuck-traitor fix). An explicit deadline in the config wins.
        let mut pop_config = config.population.clone();
        if pop_config.traitor > 0.0 && pop_config.traitor_switch_deadline.is_none() {
            pop_config.traitor_switch_deadline = Some(
                SimTime::ZERO + ROUND_DURATION.mul_f64(pop_config.traitor_switch_after as f64),
            );
        }
        let population = Population::new(config.nodes, pop_config, &mut pop_rng);

        let base: Box<dyn ReputationMechanism> =
            if config.mechanism == MechanismKind::EigenTrust && config.pretrusted > 0 {
                let pretrusted: Vec<NodeId> = (0..config.nodes)
                    .map(NodeId::from_index)
                    .filter(|&n| !population.is_adversarial(n))
                    .take(config.pretrusted)
                    .collect();
                Box::new(tsn_reputation::EigenTrust::new(config.nodes, pretrusted))
            } else {
                tsn_reputation::mechanism::build_mechanism(config.mechanism, config.nodes)
            };
        let mechanism: Box<dyn ReputationMechanism> = match config.anonymization {
            Some(anon) => Box::new(Anonymized::new(base, anon, rng.fork(3))),
            None => base,
        };

        let mut user_rng = rng.fork(4);
        let space = InterestSpace::new(8);
        let profiles: Vec<InterestProfile> = (0..config.nodes)
            .map(|_| space.sample_profile(2.0, &mut user_rng))
            .collect();
        let strict_cut =
            (config.policy_profile.strict_fraction() * config.nodes as f64).round() as usize;
        let mut strict_flags: Vec<bool> = (0..config.nodes).map(|i| i < strict_cut).collect();
        user_rng.shuffle(&mut strict_flags);

        let mut users = Vec::with_capacity(config.nodes);
        let mut policies = Vec::with_capacity(config.nodes);
        let mut policy_exposure_cap = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let me = NodeId::from_index(i);
            let my_topic = profiles[i].dominant_topic();
            // Preferred providers: neighbours sharing the dominant topic
            // (falling back to all neighbours when none does).
            let mut preferred: Vec<NodeId> = graph
                .neighbors(me)
                .iter()
                .copied()
                .filter(|n| profiles[n.index()].dominant_topic() == my_topic)
                .collect();
            if preferred.is_empty() {
                preferred = graph.neighbors(me).to_vec();
            }
            let concern =
                (config.privacy_concern_mean + user_rng.gen_normal(0.0, 0.2)).clamp(0.0, 1.0);
            let intentions = ConsumerIntentions::new(preferred, 0.6, concern)
                // tsn-lint: allow(no-unwrap, "interest share and concern are clamped into range on the lines above")
                .expect("intention parameters are in range");
            let strict = strict_flags[i];
            policies.push(if strict {
                PrivacyPolicy::strict(DataCategory::Content)
            } else {
                PrivacyPolicy::permissive(DataCategory::Content)
            });
            // Strict users tolerate at most ladder level 2 (no topic, no
            // identity) of *behaviour-metadata collection*; permissive
            // users accept everything. Collection beyond the cap is a
            // system-caused breach.
            let cap_level = if strict { 2 } else { 4 };
            policy_exposure_cap.push(DisclosurePolicy::ladder(cap_level).exposure());
            // Provider capacity per round varies per user (ref [17]:
            // providers intend to treat a bounded load).
            let capacity = user_rng.gen_range(3..9u32);
            users.push(UserState {
                intentions,
                provider_intentions: ProviderIntentions::new(capacity)
                    // tsn-lint: allow(no-unwrap, "capacity is drawn from gen_range(3..9), always positive")
                    .expect("capacity is positive"),
                satisfaction: SatisfactionTracker::default(),
                provider_satisfaction: SatisfactionTracker::default(),
                load_this_round: 0,
                // Users initially comply with the system's required
                // feedback-disclosure level; distrust erodes this
                // willingness when `adaptive_disclosure` is on.
                willingness_level: config.disclosure_level,
                breached_this_round: false,
            });
        }

        let mut ladder_exposure = [0.0; DisclosurePolicy::LADDER_LEVELS];
        for (level, slot) in ladder_exposure.iter_mut().enumerate() {
            *slot = DisclosurePolicy::ladder(level).exposure();
        }

        // Seeded straight from the config seed, independent of the
        // construction stream `rng`, so attaching a plan (even a static
        // or regions-only one) leaves every construction draw intact.
        let net_dynamics = match &config.dynamics {
            Some(plan) => Some(
                DynamicsRuntime::new(
                    plan.clone(),
                    config.nodes,
                    SimRng::seed_from_u64(config.seed ^ 0x5D71_4A3C_9E2B_8F01),
                )
                .map_err(|m| ValidationError::new("dynamics", m))?,
            ),
            None => None,
        };

        // Same seeding idiom as dynamics: derived straight from the
        // config seed (never forked off `rng`).
        let membership = match &config.membership {
            Some(cfg) => Some(
                MembershipRuntime::new(config.nodes, *cfg, config.seed ^ MEMBERSHIP_SEED_SALT)
                    .map_err(|m| ValidationError::new("membership", m))?,
            ),
            None => None,
        };

        Ok(Scenario {
            ledger: DisclosureLedger::with_raw_record_cap(config.ledger_raw_record_cap),
            config,
            graph,
            population,
            mechanism,
            users,
            enforcer: Enforcer::new(),
            adequacy: AdequacyModel::default(),
            metric: TrustMetric::default(),
            policy_exposure_cap,
            ladder_exposure,
            scratch: ScenarioScratch::default(),
            policies,
            shard_state: Vec::new(),
            net_dynamics,
            membership,
        })
    }

    /// The configuration of this scenario.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    fn oecd_profile(&self) -> SystemPrivacyProfile {
        SystemPrivacyProfile {
            collection_fraction: self.config.disclosure_policy().exposure(),
            purposes_declared: true,
            purpose_respect_rate: self.ledger.respect_rate(),
            data_quality_controls: true,
            safeguards_active: self.config.anonymization.is_some()
                || self.config.disclosure_level <= 1,
            policies_published: true,
            user_controls: true,
            breaches_attributed: true,
        }
    }

    fn mean_willingness(&self) -> f64 {
        self.users
            .iter()
            .map(|u| self.ladder_exposure[u.willingness_level])
            .sum::<f64>()
            / self.users.len() as f64
    }

    /// Computes per-user trust into `self.scratch.trust` (the round loop
    /// needs it every round; reusing the buffer keeps the loop
    /// allocation-free).
    fn per_user_trust_into(&mut self, reputation_facet: f64, oecd: f64) {
        let trust = &mut self.scratch.trust;
        let ledger = &self.ledger;
        let metric = &self.metric;
        let ladder_exposure = &self.ladder_exposure;
        let w_c = self.config.consumer_role_weight;
        trust.clear();
        trust.extend(self.users.iter().enumerate().map(|(i, u)| {
            let me = NodeId::from_index(i);
            let inputs = PrivacyFacetInputs {
                exposure: ladder_exposure[u.willingness_level],
                respect_rate: ledger.respect_rate_for(me),
                oecd_score: oecd,
            };
            let facets = FacetScores {
                privacy: inputs.facet().facet,
                reputation: reputation_facet,
                satisfaction: w_c * u.satisfaction.satisfaction()
                    + (1.0 - w_c) * u.provider_satisfaction.satisfaction(),
            };
            metric.trust(&facets)
        }));
    }

    fn measure_power(&mut self, iterations: usize) -> PowerReport {
        let n = self.config.nodes;
        let ScenarioScratch {
            truth, adversarial, ..
        } = &mut self.scratch;
        adversarial.clear();
        adversarial.extend((0..n).map(|i| self.population.is_adversarial(NodeId::from_index(i))));
        truth.clear();
        truth.extend((0..n).map(|i| self.population.true_quality(NodeId::from_index(i))));
        // Ground truth is slot-indexed; the mechanism sees the slot's
        // *current identity*, so whitewashed adversaries are judged as
        // the same adversary even though the mechanism sees a newcomer.
        match self.net_dynamics.as_ref() {
            Some(d) => accuracy::evaluate_identities(
                self.mechanism.as_ref(),
                d.identities(),
                truth,
                adversarial,
                iterations,
            ),
            None => accuracy::evaluate(self.mechanism.as_ref(), truth, adversarial, iterations),
        }
    }

    /// Runs the configured number of rounds and returns the outcome.
    pub fn run(&mut self) -> ScenarioOutcome {
        self.run_observed(&mut [])
    }

    /// Runs the scenario, invoking every [`Observer`] at start, after
    /// each round and at completion. Observers only watch: the outcome
    /// is identical to [`Scenario::run`].
    ///
    /// The shard plan is derived from the node count (see
    /// [`SHARD_AUTO_NODES`]); it decides only how the work is spread
    /// over threads, never the outcome.
    pub fn run_observed(&mut self, observers: &mut [&mut dyn Observer]) -> ScenarioOutcome {
        let shards = self.auto_shards();
        self.run_rounds(shards, observers)
    }

    /// Runs with exactly `shards` contiguous node shards (clamped to
    /// `1..=nodes`) instead of the derived plan. The outcome is
    /// independent of the shard count; this entry point exists so tests
    /// and benches can pin exactly that (`run_sharded(1)`,
    /// `run_sharded(2)` and `run_sharded(8)` equal [`Scenario::run`]
    /// bit-for-bit).
    pub fn run_sharded(&mut self, shards: usize) -> ScenarioOutcome {
        self.run_rounds(shards, &mut [])
    }

    /// The shard plan [`Scenario::run`] uses: one inline shard below
    /// [`SHARD_AUTO_NODES`], otherwise four shards per available core.
    fn auto_shards(&self) -> usize {
        if self.config.nodes < SHARD_AUTO_NODES {
            return 1;
        }
        // A few shards per worker keeps the atomic-cursor stealing
        // effective when ranges cost unevenly (adversary clusters).
        4 * std::thread::available_parallelism().map_or(1, |c| c.get())
    }

    /// Dynamics pre-round step: advances the
    /// session/partition runtime to `now`, fills `scratch.offline` from
    /// the session state, restarts whitewashed users' willingness at the
    /// system level, counts the whitewashes and grows the mechanism to
    /// the identity space. Returns `false` when no plan is attached (the
    /// caller fills the offline flags itself).
    fn dynamics_pre_round(&mut self, now: SimTime, whitewashes: &mut u64) -> bool {
        let n = self.config.nodes;
        let Some(dynamics) = self.net_dynamics.as_mut() else {
            return false;
        };
        dynamics.clear_events();
        dynamics.advance_detached(now);
        for slot in 0..n {
            self.scratch
                .offline
                .push(!dynamics.online(NodeId::from_index(slot)));
        }
        for &(_, event) in dynamics.events() {
            if let DynamicsEvent::Whitewash { slot, .. } = event {
                *whitewashes += 1;
                // The fresh identity re-enters compliant: its
                // willingness restarts at the system's required
                // level (it has no history of distrust to act on).
                self.users[slot.index()].willingness_level = self.config.disclosure_level;
            }
        }
        // Make sure the mechanism tracks every identity ever
        // allocated (whitewashed ones score at the prior).
        self.mechanism.resize(dynamics.identity_count());
        true
    }

    /// Membership pre-round step: one view shuffle against this round's
    /// offline flags and any active partition. Runs on the control
    /// thread before the interaction phase, so the per-round view
    /// snapshot is identical for any shard count. No-op when the
    /// overlay is off.
    fn membership_pre_round(&mut self) {
        let Some(membership) = self.membership.as_mut() else {
            return;
        };
        let offline = &self.scratch.offline;
        let partition = self
            .net_dynamics
            .as_ref()
            .and_then(|d| d.active_group_map());
        membership.shuffle_round(
            |node| !offline[node.index()],
            |a, b| partition.is_none_or(|m| m.same_group(a, b)),
        );
    }

    /// The shared round tail: provider-role adequacy, a possible
    /// mechanism refresh, the round sample and the adaptive-disclosure
    /// update (the Section-3 loop). Pure state math — no randomness.
    fn finish_round(
        &mut self,
        round: usize,
        tally: RoundTally,
        refresh_iterations: &mut usize,
        observers: &mut [&mut dyn Observer],
        samples: &mut Vec<RoundSample>,
    ) {
        let n = self.config.nodes;
        // Provider-role adequacy: did the system keep each provider's
        // load within intentions? Offline providers observe nothing.
        {
            let offline = &self.scratch.offline;
            for (i, u) in self.users.iter_mut().enumerate() {
                if !offline[i] {
                    let adequacy = u.provider_intentions.load_adequacy(u.load_this_round);
                    u.provider_satisfaction.observe(adequacy);
                }
            }
        }

        if (round + 1).is_multiple_of(self.config.refresh_every) {
            *refresh_iterations += self.mechanism.refresh();
        }

        // --- Round sample + adaptive disclosure (the Section-3 loop).
        let power_now = self.measure_power(*refresh_iterations);
        let oecd = OecdAudit::evaluate(&self.oecd_profile()).overall();
        self.per_user_trust_into(power_now.power(&Default::default()), oecd);
        let trust_now = &self.scratch.trust;
        let mean_trust = trust_now.iter().sum::<f64>() / trust_now.len() as f64;
        if self.config.adaptive_disclosure {
            for (i, u) in self.users.iter_mut().enumerate() {
                if trust_now[i] < 0.4 && u.willingness_level > 0 {
                    u.willingness_level -= 1;
                } else if trust_now[i] > 0.7 && u.willingness_level < self.config.disclosure_level {
                    u.willingness_level += 1;
                }
            }
        }
        let sample = RoundSample {
            round,
            mean_satisfaction: self
                .users
                .iter()
                .map(|u| u.satisfaction.satisfaction())
                .sum::<f64>()
                / n as f64,
            mean_trust,
            respect_rate: self.ledger.respect_rate(),
            consistency: power_now.consistency,
            mean_willingness: self.mean_willingness(),
            success_rate: if tally.tried == 0 {
                0.0
            } else {
                tally.ok as f64 / tally.tried as f64
            },
            reports_filed: tally.reports,
            availability: tally.availability,
            partition_health: tally.partition_health,
            isolated: tally.isolated,
        };
        for observer in observers.iter_mut() {
            observer.on_round(&sample);
        }
        samples.push(sample);
    }

    /// The shared end-of-run assembly: a final refresh and power
    /// measurement, global facets and the per-user vectors.
    fn assemble_outcome(
        &mut self,
        totals: RunTotals,
        samples: Vec<RoundSample>,
        observers: &mut [&mut dyn Observer],
    ) -> ScenarioOutcome {
        let n = self.config.nodes;
        let refresh_iterations = totals.refresh_iterations + self.mechanism.refresh();
        let power = self.measure_power(refresh_iterations);
        let oecd = OecdAudit::evaluate(&self.oecd_profile()).overall();

        let w_c = self.config.consumer_role_weight;
        let satisfaction_values: Vec<f64> = self
            .users
            .iter()
            .map(|u| {
                w_c * u.satisfaction.satisfaction()
                    + (1.0 - w_c) * u.provider_satisfaction.satisfaction()
            })
            .collect();
        let satisfaction =
            // tsn-lint: allow(no-unwrap, "the population is non-empty (config validation rejects n == 0), so the aggregate exists")
            GlobalSatisfaction::from_values(&satisfaction_values).expect("population is non-empty");

        let privacy_inputs = PrivacyFacetInputs {
            exposure: self
                .mean_willingness()
                .min(self.config.disclosure_policy().exposure()),
            respect_rate: self.ledger.respect_rate(),
            oecd_score: oecd,
        };
        let facets = FacetScores {
            privacy: privacy_inputs.facet().facet,
            reputation: power.power(&Default::default()),
            satisfaction: satisfaction.fairness_discounted(),
        };
        let global_trust = self.metric.trust(&facets);
        self.per_user_trust_into(facets.reputation, oecd);
        let per_user_trust = self.scratch.trust.clone();
        let per_user_respect: Vec<f64> = (0..n)
            .map(|i| self.ledger.respect_rate_for(NodeId::from_index(i)))
            .collect();

        let outcome = ScenarioOutcome {
            facets,
            global_trust,
            per_user_trust,
            per_user_satisfaction: satisfaction_values,
            per_user_respect,
            power,
            satisfaction,
            respect_rate: self.ledger.respect_rate(),
            user_breaches: self.ledger.breach_count(Some(BreachCause::MaliciousUser)),
            system_breaches: self.ledger.breach_count(Some(BreachCause::System)),
            oecd_score: oecd,
            mean_willingness: self.mean_willingness(),
            denial_rate: if totals.requests == 0 {
                0.0
            } else {
                totals.denials as f64 / totals.requests as f64
            },
            interactions: totals.interactions,
            messages: totals.messages,
            whitewashes: totals.whitewashes,
            samples,
        };
        for observer in observers.iter_mut() {
            observer.on_finish(&outcome);
        }
        outcome
    }
}

/// Per-round measurement inputs [`Scenario::finish_round`] folds into a
/// [`RoundSample`].
struct RoundTally {
    ok: u64,
    tried: u64,
    reports: u64,
    availability: f64,
    partition_health: f64,
    isolated: u64,
}

/// Whole-run accumulators the round loop hands to
/// [`Scenario::assemble_outcome`].
struct RunTotals {
    interactions: u64,
    messages: u64,
    denials: u64,
    requests: u64,
    refresh_iterations: usize,
    whitewashes: u64,
}

// ---------------------------------------------------------------------
// The round engine (DESIGN.md §10).
//
// Nodes are partitioned into contiguous shards. Every round:
//
//   1. *Pre-round* (control thread): population clock, dynamics/offline
//      flags, view shuffle.
//   2. *Interaction phase*: shards run against the frozen round-start
//      snapshot — scores, served counters and ledger state do not move.
//      One shard runs inline; several are claimed by workers off an
//      atomic cursor (the SweepRunner idiom). Randomness comes from
//      per-(round, node) streams, so draws are independent of shard
//      count and order.
//   3. *Merge barrier* (control thread, fixed shard order): outboxes
//      drain into the ledger, the population's served counters,
//      provider loads and the mechanism. Contiguous shards in ascending
//      order make the merged event sequence exactly global consumer
//      order — for any shard count, which is why k = 1, 2, 8 are
//      bit-identical.
//   4. *Round tail* (control thread): provider adequacy, refresh,
//      measurement, adaptive disclosure.
//
// Feedback filed in a round reaches the mechanism at the barrier, and a
// leak marks the victim's satisfaction from the next round on: that is
// the synchronous round model every outcome is defined by.
impl Scenario {
    /// (Re)builds the shard plan: `shards` contiguous ranges of
    /// near-equal size covering `0..nodes`.
    fn init_shard_state(&mut self, shards: usize) {
        let n = self.config.nodes;
        let matches_plan =
            self.shard_state.len() == shards && self.shard_state.last().is_some_and(|s| s.end == n);
        if matches_plan {
            return;
        }
        self.shard_state = (0..shards)
            .map(|i| ShardState {
                start: i * n / shards,
                end: (i + 1) * n / shards,
                ..Default::default()
            })
            .collect();
    }

    /// The round loop over `shards` contiguous shards (clamped to
    /// `1..=nodes`), on at most one worker per available core; with one
    /// worker the shards run inline on the calling thread.
    fn run_rounds(
        &mut self,
        shards: usize,
        observers: &mut [&mut dyn Observer],
    ) -> ScenarioOutcome {
        let n = self.config.nodes;
        let shards = shards.clamp(1, n);
        self.init_shard_state(shards);
        for observer in observers.iter_mut() {
            observer.on_start(&self.config);
        }
        let mut samples = Vec::with_capacity(self.config.rounds);
        let mut totals = RunTotals {
            interactions: 0,
            messages: 0,
            denials: 0,
            requests: 0,
            refresh_iterations: 0,
            whitewashes: 0,
        };
        let mut now = SimTime::ZERO;
        let system_policy = self.config.disclosure_policy();
        let system_exposure = self.ladder_exposure[self.config.disclosure_level];
        let workers = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
            .min(shards);

        for round in 0..self.config.rounds {
            self.population.advance_clock(now);
            // Offline flags: session state under a dynamics plan, one
            // dedicated per-round stream for i.i.d. coin flips.
            self.scratch.offline.clear();
            if !self.dynamics_pre_round(now, &mut totals.whitewashes) {
                if self.config.churn_offline > 0.0 {
                    let mut stream =
                        SimRng::stream(self.config.seed, OFFLINE_STREAM_DOMAIN | round as u64);
                    for _ in 0..n {
                        self.scratch
                            .offline
                            .push(stream.gen_bool(self.config.churn_offline));
                    }
                } else {
                    self.scratch.offline.resize(n, false);
                }
            }
            let round_availability =
                1.0 - self.scratch.offline.iter().filter(|&&o| o).count() as f64 / n as f64;
            let round_partition_health = self
                .net_dynamics
                .as_ref()
                .map_or(1.0, |d| d.partition_health());
            // View shuffle before the phase snapshot freezes — shards
            // then read identical views for any shard count.
            self.membership_pre_round();

            // --- Interaction phase: one shard inline, or workers
            // stealing shards off a cursor.
            {
                let ctx = ShardCtx {
                    config: &self.config,
                    graph: &self.graph,
                    population: &self.population,
                    mechanism: self.mechanism.as_ref(),
                    enforcer: &self.enforcer,
                    adequacy: &self.adequacy,
                    offline: &self.scratch.offline,
                    policy_exposure_cap: &self.policy_exposure_cap,
                    policies: &self.policies,
                    partition: self
                        .net_dynamics
                        .as_ref()
                        .and_then(|d| d.active_group_map()),
                    identities: self.net_dynamics.as_ref().map(|d| d.identities()),
                    views: self.membership.as_ref().map(|m| m.views()),
                    system_policy,
                    system_exposure,
                    round,
                    now,
                };
                let mut rest: &mut [UserState] = &mut self.users;
                let units = self.shard_state.iter_mut().map(|state| {
                    let (own, tail) =
                        std::mem::take(&mut rest).split_at_mut(state.end - state.start);
                    rest = tail;
                    (own, state)
                });
                if workers == 1 {
                    for (users, state) in units {
                        run_shard(&ctx, users, state);
                    }
                } else {
                    let units: Vec<Mutex<Option<ShardUnit<'_>>>> =
                        units.map(|unit| Mutex::new(Some(unit))).collect();
                    let cursor = AtomicUsize::new(0);
                    std::thread::scope(|scope| {
                        for _ in 0..workers {
                            scope.spawn(|| loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= units.len() {
                                    break;
                                }
                                let (users, state) = units[i]
                                    .lock()
                                    // tsn-lint: allow(no-unwrap, "lock poisoning implies a prior shard-worker panic; crashing here re-surfaces it")
                                    .expect("unpoisoned")
                                    .take()
                                    // tsn-lint: allow(no-unwrap, "the atomic cursor hands each shard to exactly one worker, so every slot is filled")
                                    .expect("each shard is claimed exactly once");
                                run_shard(&ctx, users, state);
                            });
                        }
                    });
                }
            }

            // --- Merge barrier, in ascending shard order.
            let tally = self.merge_shards(now, system_policy, &mut totals);
            let tally = RoundTally {
                availability: round_availability,
                partition_health: round_partition_health,
                ..tally
            };
            self.finish_round(
                round,
                tally,
                &mut totals.refresh_iterations,
                observers,
                &mut samples,
            );
            now += ROUND_DURATION;
        }

        self.assemble_outcome(totals, samples, observers)
    }

    /// Drains every shard outbox into the shared state, in shard order:
    /// ledger events, served/load credits, then the staged feedback
    /// through one `record_batch` per shard.
    fn merge_shards(
        &mut self,
        now: SimTime,
        system_policy: DisclosurePolicy,
        totals: &mut RunTotals,
    ) -> RoundTally {
        let Scenario {
            shard_state,
            ledger,
            population,
            users,
            mechanism,
            scratch,
            ..
        } = self;
        let mut ok = 0u64;
        let mut tried = 0u64;
        let mut reports_filed = 0u64;
        let mut isolated = 0u64;
        for state in shard_state.iter_mut() {
            let outbox = &mut state.outbox;
            let c = outbox.counters;
            totals.requests += c.requests;
            totals.denials += c.denials;
            totals.interactions += c.interactions;
            totals.messages += c.messages;
            ok += c.round_ok;
            tried += c.round_tried;
            reports_filed += c.round_reports;
            isolated += c.round_isolated;

            for event in outbox.ledger.drain(..) {
                match event {
                    LedgerEvent::Disclosure {
                        owner,
                        recipient,
                        category,
                        purpose,
                        anonymized,
                    } => ledger
                        .record_disclosure(now, owner, recipient, category, purpose, anonymized),
                    LedgerEvent::Breach {
                        owner,
                        recipient,
                        category,
                        purpose,
                        cause,
                    } => ledger.record_breach(now, owner, recipient, category, purpose, cause),
                }
            }
            for &provider in &outbox.touches {
                population.note_served(provider, 1);
                users[provider.index()].load_this_round += 1;
            }
            scratch.views.clear();
            for &(ref report, copies) in &outbox.reports {
                let view = system_policy.view(report);
                for _ in 0..copies {
                    scratch.views.push(view);
                }
            }
            mechanism.record_batch(&scratch.views);
        }
        RoundTally {
            ok,
            tried,
            reports: reports_filed,
            availability: 1.0,
            partition_health: 1.0,
            isolated,
        }
    }
}

/// Builds and runs a scenario in one call.
///
/// # Errors
///
/// Returns a [`ValidationError`] when the configuration is invalid.
pub fn run_scenario(config: ScenarioConfig) -> Result<ScenarioOutcome, ValidationError> {
    Ok(Scenario::new(config)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyProfile;
    use tsn_reputation::PopulationConfig;

    fn small(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            ..ScenarioConfig::small()
        }
    }

    #[test]
    fn outcome_fields_are_bounded() {
        let o = run_scenario(small(1)).unwrap();
        for (name, v) in o.facets.iter() {
            assert!((0.0..=1.0).contains(&v), "{name} = {v}");
        }
        assert!((0.0..=1.0).contains(&o.global_trust));
        assert!((0.0..=1.0).contains(&o.respect_rate));
        assert!((0.0..=1.0).contains(&o.denial_rate));
        assert_eq!(o.per_user_trust.len(), 40);
        assert!(o.per_user_trust.iter().all(|t| (0.0..=1.0).contains(t)));
        assert_eq!(o.samples.len(), 10);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run_scenario(small(7)).unwrap();
        let b = run_scenario(small(7)).unwrap();
        assert_eq!(a.global_trust, b.global_trust);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.per_user_trust, b.per_user_trust);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_scenario(small(1)).unwrap();
        let b = run_scenario(small(2)).unwrap();
        assert_ne!(a.global_trust, b.global_trust);
    }

    #[test]
    fn full_disclosure_exposes_more_than_minimal() {
        let mut lo = small(3);
        lo.disclosure_level = 0;
        let mut hi = small(3);
        hi.disclosure_level = 4;
        let lo_out = run_scenario(lo).unwrap();
        let hi_out = run_scenario(hi).unwrap();
        assert!(
            lo_out.facets.privacy > hi_out.facets.privacy,
            "less disclosure → better privacy facet: {} vs {}",
            lo_out.facets.privacy,
            hi_out.facets.privacy
        );
    }

    #[test]
    fn disclosure_raises_reputation_power() {
        // The antagonistic coupling of Figure 2: averaged over seeds.
        let mean_rep = |level: usize| {
            (0..4)
                .map(|s| {
                    let mut c = small(20 + s);
                    c.disclosure_level = level;
                    c.population = PopulationConfig::with_malicious(0.3);
                    c.rounds = 15;
                    run_scenario(c).unwrap().facets.reputation
                })
                .sum::<f64>()
                / 4.0
        };
        let low = mean_rep(0);
        let high = mean_rep(4);
        assert!(high > low, "more shared info → more power: {high} vs {low}");
    }

    #[test]
    fn system_breaches_occur_only_when_oversharing() {
        let mut strict_low = small(5);
        strict_low.policy_profile = PolicyProfile::Strict;
        strict_low.disclosure_level = 2;
        let o = run_scenario(strict_low).unwrap();
        assert_eq!(o.system_breaches, 0, "level 2 within strict cap");

        let mut strict_high = small(5);
        strict_high.policy_profile = PolicyProfile::Strict;
        strict_high.disclosure_level = 4;
        let o = run_scenario(strict_high).unwrap();
        assert!(
            o.system_breaches > 0,
            "level 4 over-shares for strict users"
        );
    }

    #[test]
    fn malicious_population_causes_user_breaches() {
        let mut c = small(6);
        c.population = PopulationConfig::with_malicious(0.4);
        c.leak_probability = 0.5;
        let o = run_scenario(c).unwrap();
        assert!(o.user_breaches > 0);

        let mut honest = small(6);
        honest.population = PopulationConfig::with_malicious(0.0);
        honest.leak_probability = 0.5;
        let o = run_scenario(honest).unwrap();
        assert_eq!(o.user_breaches, 0, "no adversaries, no leaks");
    }

    #[test]
    fn strict_policies_cause_denials() {
        let mut strict = small(8);
        strict.policy_profile = PolicyProfile::Strict;
        let o = run_scenario(strict).unwrap();
        assert!(o.denial_rate > 0.0);

        let mut permissive = small(8);
        permissive.policy_profile = PolicyProfile::Permissive;
        let o2 = run_scenario(permissive).unwrap();
        assert!(o2.denial_rate < o.denial_rate);
    }

    #[test]
    fn adaptive_disclosure_reacts_to_low_trust() {
        // A hostile, over-sharing system should push adaptive users to
        // retract disclosure relative to the open-loop run.
        let hostile = |adaptive: bool, seed: u64| {
            let mut c = small(seed);
            c.population = PopulationConfig::with_malicious(0.5);
            c.disclosure_level = 4;
            c.leak_probability = 0.8;
            c.adaptive_disclosure = adaptive;
            c.rounds = 20;
            run_scenario(c).unwrap().mean_willingness
        };
        let adaptive = (0..3).map(|s| hostile(true, 30 + s)).sum::<f64>() / 3.0;
        let open_loop = (0..3).map(|s| hostile(false, 30 + s)).sum::<f64>() / 3.0;
        assert!(
            adaptive < open_loop,
            "distrusting users retract disclosure: {adaptive} vs {open_loop}"
        );
    }

    #[test]
    fn series_extraction() {
        let o = run_scenario(small(9)).unwrap();
        for name in RoundSample::SERIES_NAMES {
            assert_eq!(o.series(name).expect("known name").len(), o.samples.len());
        }
    }

    #[test]
    fn unknown_series_is_none_not_panic() {
        let o = run_scenario(small(9)).unwrap();
        assert_eq!(o.series("nope"), None);
        assert_eq!(o.samples[0].field("nope"), None);
    }

    #[test]
    fn invalid_config_rejected() {
        let cases = [
            ScenarioConfig {
                disclosure_level: 9,
                ..Default::default()
            },
            ScenarioConfig {
                churn_offline: 1.5,
                ..Default::default()
            },
            ScenarioConfig {
                consumer_role_weight: -0.1,
                ..Default::default()
            },
        ];
        for c in cases {
            assert!(Scenario::new(c).is_err());
        }
    }

    #[test]
    fn churn_reduces_interactions_but_stays_sound() {
        let mut stable = small(40);
        stable.rounds = 12;
        let stable_out = run_scenario(stable).unwrap();
        let mut churny = small(40);
        churny.rounds = 12;
        churny.churn_offline = 0.4;
        let churny_out = run_scenario(churny).unwrap();
        assert!(churny_out.interactions < stable_out.interactions);
        assert!(churny_out.facets.validate().is_ok());
        assert!((0.0..=1.0).contains(&churny_out.global_trust));
    }

    #[test]
    fn full_churn_is_a_degenerate_but_safe_run() {
        let mut c = small(41);
        c.churn_offline = 1.0;
        let o = run_scenario(c).unwrap();
        assert_eq!(o.interactions, 0);
        assert_eq!(o.denial_rate, 0.0);
        assert!(o.facets.validate().is_ok());
    }

    #[test]
    fn greedy_selection_overloads_providers() {
        // Best-only selection concentrates load on top-scored providers,
        // hurting provider-role satisfaction relative to random spread.
        let provider_side = |selection: tsn_reputation::SelectionPolicy, seed: u64| {
            let mut c = small(seed);
            c.rounds = 15;
            c.interactions_per_node = 4;
            c.consumer_role_weight = 0.0; // isolate the provider role
            c.selection = selection;
            run_scenario(c).unwrap().facets.satisfaction
        };
        let spread = (0..3)
            .map(|s| provider_side(tsn_reputation::SelectionPolicy::Random, 60 + s))
            .sum::<f64>()
            / 3.0;
        let greedy = (0..3)
            .map(|s| provider_side(tsn_reputation::SelectionPolicy::Best, 60 + s))
            .sum::<f64>()
            / 3.0;
        assert!(
            greedy < spread,
            "greedy selection must overload winners: {greedy} vs {spread}"
        );
    }
}
