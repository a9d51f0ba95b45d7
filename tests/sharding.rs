//! Determinism contract of the round engine (DESIGN.md §10).
//!
//! A scenario's outcome must be a function of `(config, seed)` only —
//! never of the shard count, the worker count, scheduling, or which
//! side of [`SHARD_AUTO_NODES`] the node count falls on. These tests
//! pin:
//!
//! * `run()` and 1, 2, 3 and 8 forced shards produce bit-identical
//!   outcomes (`tests/properties.rs` sweeps the same equality over
//!   random configs);
//! * degenerate shard counts are clamped, not fatal;
//! * at the auto threshold, the multi-shard plan equals one shard;
//! * sweeps stay deterministic under the parallel sweep runner.

use tsn_core::runner::{ScenarioBuilder, SweepGrid, SweepRunner};
use tsn_core::scenario::{ScenarioOutcome, SHARD_AUTO_NODES};
use tsn_reputation::{MechanismKind, PopulationConfig, SelectionPolicy};

mod common;
use common::fingerprint;

/// A small but adversarial base: malicious raters (ballot stuffing),
/// traitors (clock betrayal), coin-flip churn and adaptive disclosure —
/// every code path the shard phase defers to the merge barrier.
fn base() -> ScenarioBuilder {
    ScenarioBuilder::small()
        .seed(7101)
        .population(PopulationConfig {
            malicious: 0.2,
            traitor: 0.1,
            traitor_switch_after: 3,
            ..Default::default()
        })
        .churn(0.2)
        .adaptive_disclosure(true)
}

#[test]
fn one_two_and_eight_shards_are_bit_identical() {
    let reference = fingerprint(&base().run().expect("valid config"));
    for shards in [1usize, 2, 3, 8] {
        let outcome = base()
            .build_scenario()
            .expect("valid config")
            .run_sharded(shards);
        assert_eq!(
            reference,
            fingerprint(&outcome),
            "{shards} shards diverged from run()"
        );
    }
}

#[test]
fn sharded_engine_is_deterministic_with_dynamics() {
    let build = || {
        ScenarioBuilder::small()
            .seed(7102)
            .malicious_fraction(0.25)
            .whitewash_attack()
            .build_scenario()
            .expect("valid config")
    };
    let a = build().run_sharded(1);
    let b = build().run_sharded(4);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert!(a.whitewashes > 0, "the whitewash preset actually churns");
}

#[test]
fn sharded_runs_are_reproducible() {
    let run = || {
        base()
            .build_scenario()
            .expect("valid config")
            .run_sharded(3)
    };
    let (a, b) = (run(), run());
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn sharded_outcome_is_structurally_sound() {
    let o = base()
        .build_scenario()
        .expect("valid config")
        .run_sharded(4);
    assert!(o.facets.validate().is_ok());
    assert!((0.0..=1.0).contains(&o.global_trust));
    assert!(o.interactions > 0);
    assert_eq!(o.samples.len(), 10);
    assert!(o.per_user_trust.iter().all(|t| (0.0..=1.0).contains(t)));
}

#[test]
fn sweep_over_sharded_cells_is_runner_invariant() {
    // The sweep interplay: cells must produce the same report under the
    // serial and the parallel sweep runner (cells are deterministic, so
    // the only difference threads could make is a bug).
    let grid = SweepGrid::over(base().nodes(32).rounds(4).graph(4, 0.1))
        .mechanisms([MechanismKind::Beta, MechanismKind::EigenTrust])
        .seeds([1, 2]);
    let serial = SweepRunner::serial().run(&grid).expect("valid grid");
    let parallel = SweepRunner::with_threads(4).run(&grid).expect("valid grid");
    assert_eq!(serial, parallel);
}

#[test]
fn forced_sharding_clamps_degenerate_counts() {
    // More shards than nodes, or zero, must not panic or change results.
    let tiny = ScenarioBuilder::small().seed(7103);
    let a = tiny.clone().build_scenario().expect("valid").run_sharded(1);
    let b = tiny
        .clone()
        .build_scenario()
        .expect("valid")
        .run_sharded(10_000);
    let c = tiny.build_scenario().expect("valid").run_sharded(0);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(fingerprint(&a), fingerprint(&c));
}

#[test]
fn never_selected_traitor_still_turns_in_a_scenario() {
    // End-to-end regression for the stuck-traitor fix: with Best
    // selection consumers converge on top-scored providers, so a
    // traitor may never serve — only the time deadline (defaulted to
    // `switch_after` rounds by the scenario) can turn it. Compare the
    // same seed with the deadline inside vs far beyond the horizon:
    // once it passes, 30% of providers serve at adversarial quality and
    // lie as raters, so late-round success must drop.
    let run = |switch_after: u64| {
        ScenarioBuilder::small()
            .seed(7104)
            .population(PopulationConfig {
                traitor: 0.3,
                traitor_switch_after: switch_after,
                ..Default::default()
            })
            .selection(SelectionPolicy::Best)
            .rounds(8)
            .run()
            .expect("valid config")
    };
    let late_success = |o: &ScenarioOutcome| {
        o.samples[4..].iter().map(|s| s.success_rate).sum::<f64>() / (o.samples.len() - 4) as f64
    };
    let betrayed = run(2); // deadline at round 2
    let loyal = run(1_000); // deadline beyond the run
    assert!(
        late_success(&betrayed) < late_success(&loyal),
        "betrayal must show up after the deadline: {} vs {}",
        late_success(&betrayed),
        late_success(&loyal)
    );
}

#[test]
fn mega_preset_is_valid_and_auto_sharded() {
    let preset = ScenarioBuilder::mega(SHARD_AUTO_NODES).rounds(2);
    let config = preset.clone().build().expect("mega preset is valid");
    assert!(
        config.ledger_raw_record_cap.is_some(),
        "bounded audit trail"
    );
    // At the threshold `run()` spreads the round over several shards;
    // the outcome must equal the one-shard run bit-for-bit.
    let auto = preset.clone().run().expect("valid config");
    let one = preset
        .build_scenario()
        .expect("valid config")
        .run_sharded(1);
    assert_eq!(fingerprint(&auto), fingerprint(&one));
}
