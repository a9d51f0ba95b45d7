//! **A2 — churn and whitewashing sensitivity** (ablation): whitewashers
//! shed their bad reputation by re-joining under fresh identities; churn
//! takes nodes offline mid-run. Both erode mechanism power — and
//! whitewashing is exactly the attack that *requires* persistent
//! identities, i.e. the privacy-reputation tension in its sharpest form.
//!
//! Both sweeps run on the scenario round engine. Whitewashing is session
//! churn in which every re-join takes a fresh identity: the mechanism
//! sees a new node with a prior score, while ground truth knows it is
//! the same peer. The churn sweep uses the i.i.d. per-round offline coin.
//!
//! Run: `cargo run --release -p tsn-bench --bin exp_churn`

use tsn_bench::{emit, mean};
use tsn_core::report::{ExperimentRow, ExperimentTable};
use tsn_core::runner::ScenarioBuilder;
use tsn_core::scenario::{ScenarioOutcome, ROUND_DURATION};
use tsn_core::PolicyProfile;
use tsn_reputation::MechanismKind;
use tsn_simnet::{ChurnConfig, DynamicsPlan};

/// The A2 economy: 80 users, one interaction each per round, 30 %
/// adversaries, permissive privacy policies.
fn economy(mechanism: MechanismKind, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(80)
        .rounds(30)
        .interactions_per_node(1)
        .malicious_fraction(0.3)
        .policy_profile(PolicyProfile::Permissive)
        .mechanism(mechanism)
        .seed(seed)
}

/// Sessions of `rounds` rounds on average, a quarter-round downtime, and
/// every re-join under a fresh identity.
fn whitewash_every(rounds: f64) -> DynamicsPlan {
    DynamicsPlan {
        churn: Some(ChurnConfig {
            mean_session: ROUND_DURATION.mul_f64(rounds),
            mean_downtime: ROUND_DURATION.mul_f64(0.25),
            whitewash_probability: 1.0,
            crash_fraction: 0.0,
        }),
        ..Default::default()
    }
}

fn success_rate(outcome: &ScenarioOutcome) -> f64 {
    mean(outcome.samples.iter().map(|r| r.success_rate))
}

fn main() {
    let seeds = 3;
    let mechanisms = [
        MechanismKind::Beta,
        MechanismKind::EigenTrust,
        MechanismKind::PowerTrust,
    ];

    // --- Whitewashing sweep.
    let periods: [(&str, Option<f64>); 4] = [
        ("never", None),
        ("every10", Some(10.0)),
        ("every5", Some(5.0)),
        ("every2", Some(2.0)),
    ];
    let mut t1 = ExperimentTable::new(
        "A2a",
        "success rate vs whitewash frequency (30% adversaries)",
        periods.iter().map(|(l, _)| *l),
    );
    let mut t2 = ExperimentTable::new(
        "A2b",
        "mechanism reliability (adversary detection) vs whitewash frequency",
        periods.iter().map(|(l, _)| *l),
    );
    let mut never_vs_fast = Vec::new();
    for &mechanism in &mechanisms {
        let mut s_cells = Vec::new();
        let mut r_cells = Vec::new();
        for &(_, every) in &periods {
            let outcomes: Vec<ScenarioOutcome> = (0..seeds)
                .map(|s| {
                    let builder = economy(mechanism, 5000 + s);
                    match every {
                        Some(rounds) => builder.dynamics(whitewash_every(rounds)),
                        None => builder,
                    }
                    .run()
                    .expect("valid configuration")
                })
                .collect();
            s_cells.push(mean(outcomes.iter().map(success_rate)));
            r_cells.push(mean(outcomes.iter().map(|o| o.power.reliability)));
        }
        never_vs_fast.push((s_cells[0], s_cells[3], r_cells[0], r_cells[3]));
        t1.push(ExperimentRow::new(mechanism.name(), s_cells));
        t2.push(ExperimentRow::new(mechanism.name(), r_cells));
    }
    emit(&t1);
    emit(&t2);

    // --- Churn sweep (no whitewashing): offline fraction.
    let offline = [0.0, 0.2, 0.4];
    let mut t3 = ExperimentTable::new(
        "A2c",
        "success rate vs offline fraction per round",
        offline.iter().map(|f| format!("{:.0}%", f * 100.0)),
    );
    for &mechanism in &mechanisms {
        let cells: Vec<f64> = offline
            .iter()
            .map(|&frac| {
                mean((0..seeds).map(|s| {
                    let outcome = economy(mechanism, 6000 + s)
                        .churn(frac)
                        .run()
                        .expect("valid configuration");
                    success_rate(&outcome)
                }))
            })
            .collect();
        t3.push(ExperimentRow::new(mechanism.name(), cells));
    }
    emit(&t3);

    // Reproduction shape: whitewashing must help adversaries — success
    // drops as whitewashing accelerates (the reliability column is
    // reported for context: a fresh identity carries no evidence, so
    // detection has less to go on).
    let mut ok = true;
    for (i, &mechanism) in mechanisms.iter().enumerate() {
        let (s_never, s_fast, r_never, r_fast) = never_vs_fast[i];
        let pass = s_fast < s_never - 0.02;
        println!(
            "check {}: success {:.3}->{:.3} (reliability {:.3}->{:.3}) -> {}",
            mechanism.name(),
            s_never,
            s_fast,
            r_never,
            r_fast,
            if pass { "PASS" } else { "FAIL" }
        );
        ok &= pass;
    }
    println!("\nA2 reproduction: {}", if ok { "PASS" } else { "FAIL" });
}
