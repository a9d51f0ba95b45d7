//! Helpers shared by the integration tests.

use std::fmt::Write as _;
use tsn_core::facets::FacetScores;
use tsn_core::json::format_f64;
use tsn_core::scenario::{RoundSample, ScenarioOutcome};
use tsn_reputation::PowerReport;
use tsn_satisfaction::GlobalSatisfaction;

/// Serializes every field of an outcome in bit-exact text form.
/// `format_f64` emits the shortest string that round-trips, so two
/// outcomes serialize identically iff every float and counter is
/// bit-identical. The structs are destructured exhaustively: a field
/// added to any of them fails to compile here until it is covered.
pub fn fingerprint(o: &ScenarioOutcome) -> String {
    let ScenarioOutcome {
        facets,
        global_trust,
        per_user_trust,
        per_user_satisfaction,
        per_user_respect,
        power,
        satisfaction,
        respect_rate,
        user_breaches,
        system_breaches,
        oecd_score,
        mean_willingness,
        denial_rate,
        interactions,
        messages,
        whitewashes,
        samples,
    } = o;
    let FacetScores {
        privacy,
        reputation,
        satisfaction: satisfaction_facet,
    } = facets;
    let PowerReport {
        consistency,
        rmse,
        reliability,
        efficiency,
        iterations,
        overhead_per_report,
    } = power;
    let GlobalSatisfaction {
        mean,
        min,
        jain_index,
        gini,
        population,
    } = satisfaction;
    let f = |v: f64| format_f64(v);
    let vec = |vs: &[f64]| {
        vs.iter()
            .map(|&v| format_f64(v))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "facets privacy={} reputation={} satisfaction={}",
        f(*privacy),
        f(*reputation),
        f(*satisfaction_facet)
    );
    let _ = writeln!(s, "global_trust {}", f(*global_trust));
    let _ = writeln!(s, "per_user_trust {}", vec(per_user_trust));
    let _ = writeln!(s, "per_user_satisfaction {}", vec(per_user_satisfaction));
    let _ = writeln!(s, "per_user_respect {}", vec(per_user_respect));
    let _ = writeln!(
        s,
        "power consistency={} rmse={} reliability={} efficiency={} iterations={} overhead={}",
        f(*consistency),
        f(*rmse),
        f(*reliability),
        f(*efficiency),
        iterations,
        overhead_per_report
    );
    let _ = writeln!(
        s,
        "satisfaction mean={} min={} jain={} gini={} population={}",
        f(*mean),
        f(*min),
        f(*jain_index),
        f(*gini),
        population
    );
    let _ = writeln!(
        s,
        "ledger respect_rate={} user_breaches={} system_breaches={}",
        f(*respect_rate),
        user_breaches,
        system_breaches
    );
    let _ = writeln!(
        s,
        "misc oecd={} willingness={} denial={} interactions={} messages={} whitewashes={}",
        f(*oecd_score),
        f(*mean_willingness),
        f(*denial_rate),
        interactions,
        messages,
        whitewashes
    );
    for sample in samples {
        let RoundSample {
            round,
            mean_satisfaction,
            mean_trust,
            respect_rate,
            consistency,
            mean_willingness,
            success_rate,
            reports_filed,
            availability,
            partition_health,
            isolated,
        } = sample;
        let _ = writeln!(
            s,
            "round {} sat={} trust={} respect={} consistency={} willingness={} success={} \
             reports={} availability={} partition_health={} isolated={}",
            round,
            f(*mean_satisfaction),
            f(*mean_trust),
            f(*respect_rate),
            f(*consistency),
            f(*mean_willingness),
            f(*success_rate),
            reports_filed,
            f(*availability),
            f(*partition_health),
            isolated
        );
    }
    s
}
