//! Cross-crate integration: the full pipeline from substrates to trust.

use tsn::core::runner::{DisclosureLevel, ScenarioBuilder};
use tsn::core::{Optimizer, PolicyProfile, ScenarioOutcome, TrustMetric};
use tsn::graph::{generators, metrics};
use tsn::reputation::{AnonymizationConfig, MechanismKind, SelectionPolicy};
use tsn::simnet::SimRng;

fn small(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::small().seed(seed)
}

#[test]
fn graph_and_scenario_compose() {
    // The graph provides structure; the scenario uses it (indirectly).
    // Smoke the full chain.
    let mut rng = SimRng::seed_from_u64(2);
    let g = generators::barabasi_albert(200, 3, &mut rng).unwrap();
    assert!(g.is_connected());
    assert!(metrics::average_path_length(&g, 30, &mut rng).unwrap() < 4.0);

    let outcome = small(3).run().unwrap();
    assert!(outcome.interactions > 0);
    assert!(outcome.messages > outcome.interactions);
}

#[test]
fn scenario_outcome_is_fully_reproducible() {
    let a = small(11).run().unwrap();
    let b = small(11).run().unwrap();
    assert_eq!(a.global_trust, b.global_trust);
    assert_eq!(a.per_user_trust, b.per_user_trust);
    assert_eq!(a.user_breaches, b.user_breaches);
    assert_eq!(a.system_breaches, b.system_breaches);
    assert_eq!(a.samples.len(), b.samples.len());
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        assert_eq!(sa, sb);
    }
}

#[test]
fn scenario_measures_mechanism_quality() {
    let scenario = small(4)
        .mechanism(MechanismKind::Beta)
        .malicious_fraction(0.3)
        .run()
        .unwrap();
    assert!(scenario.facets.reputation > 0.5);
    assert!(
        scenario.power.consistency > 0.6,
        "consistency {}",
        scenario.power.consistency
    );
}

/// Mean per-round success rate of one run.
fn mean_success(outcome: &ScenarioOutcome) -> f64 {
    outcome.samples.iter().map(|s| s.success_rate).sum::<f64>() / outcome.samples.len() as f64
}

/// The attack economy of the reputation tests: 60 users, 25 rounds,
/// permissive policies so that only reputation decides who is served.
fn under_attack(malicious: f64, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(60)
        .rounds(25)
        .malicious_fraction(malicious)
        .policy_profile(PolicyProfile::Permissive)
        .seed(seed)
}

#[test]
fn reputation_beats_no_reputation_under_attack() {
    // Averaged over seeds so one lucky random-selection run cannot
    // decide the comparison.
    let mean = |mechanism: MechanismKind, selection: SelectionPolicy| {
        (0..3)
            .map(|seed| {
                let outcome = under_attack(0.4, 100 + seed)
                    .mechanism(mechanism)
                    .selection(selection)
                    .run()
                    .unwrap();
                mean_success(&outcome)
            })
            .sum::<f64>()
            / 3.0
    };
    let with = mean(
        MechanismKind::EigenTrust,
        SelectionPolicy::Proportional { sharpness: 2.0 },
    );
    let without = mean(MechanismKind::None, SelectionPolicy::Random);
    assert!(with > without + 0.03, "eigentrust {with} vs none {without}");
    // Without adversaries the economy mostly succeeds.
    let honest = under_attack(0.0, 1).mechanism(MechanismKind::Beta);
    let honest = mean_success(&honest.run().unwrap());
    assert!(honest > 0.8, "all-honest success {honest}");
}

#[test]
fn anonymization_lowers_consistency() {
    let beta = under_attack(0.3, 4).mechanism(MechanismKind::Beta);
    let clean = beta.clone().run().unwrap().power.consistency;
    let anonymized = beta
        .anonymization(AnonymizationConfig {
            strip_probability: 1.0,
            flip_probability: 0.3,
        })
        .run()
        .unwrap()
        .power
        .consistency;
    assert!(
        clean > anonymized,
        "clean {clean} vs anonymized {anonymized}"
    );
}

#[test]
fn optimizer_finds_trust_improving_settings() {
    let base = ScenarioBuilder::new()
        .nodes(24)
        .rounds(6)
        .graph(4, 0.1)
        .build()
        .unwrap();
    let mut optimizer = Optimizer::new(base.clone(), TrustMetric::default()).unwrap();
    optimizer.seeds_per_point = 1;
    let sweep = optimizer.sweep();
    let best = optimizer.best(&sweep, None);
    // The optimum must be at least as good as the base point itself.
    let base_point = optimizer.evaluate(
        base.mechanism,
        DisclosureLevel::from_index(base.disclosure_level).unwrap(),
        base.policy_profile,
        base.selection,
    );
    assert!(best.best.trust >= base_point.trust - 1e-9);
}

#[test]
fn facade_prelude_reexports_work() {
    use tsn::prelude::*;
    let outcome = ScenarioBuilder::small().run().unwrap();
    let metric = TrustMetric::default();
    let recomputed = metric.trust(&outcome.facets);
    assert!((recomputed - outcome.global_trust).abs() < 1e-12);
}

#[test]
fn churn_module_composes_with_lifecycle() {
    use tsn::simnet::{ChurnConfig, ChurnEvent, ChurnProcess, NodeLifecycle, SimDuration};
    let config = ChurnConfig {
        mean_session: SimDuration::from_secs(100),
        mean_downtime: SimDuration::from_secs(50),
        whitewash_probability: 1.0,
        crash_fraction: 0.0,
    };
    let mut process = ChurnProcess::new(config, SimRng::seed_from_u64(5));
    let mut lifecycle = NodeLifecycle::new();
    let mut next_id = 10u32;
    lifecycle.register(tsn::simnet::NodeId(0));

    let (_, departure) = process.next_departure(tsn::simnet::NodeId(0));
    lifecycle.apply(departure);
    assert!(!lifecycle.is_online(tsn::simnet::NodeId(0)));

    let (_, ret) = process.next_return(tsn::simnet::NodeId(0), || {
        let id = tsn::simnet::NodeId(next_id);
        next_id += 1;
        id
    });
    lifecycle.apply(ret);
    match ret {
        ChurnEvent::Whitewash(old, new) => {
            assert_eq!(lifecycle.root_identity(new), old);
            assert!(lifecycle.is_online(new));
        }
        other => panic!("whitewash_probability = 1.0 must whitewash, got {other:?}"),
    }
}
