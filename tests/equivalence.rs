//! Bit-identical equivalence fixtures for the optimized hot paths.
//!
//! The scenario loop, the EigenTrust/PowerTrust local-trust storage and
//! the disclosure ledger were rewritten for performance (scratch
//! buffers, incremental CSR, running counters). Those rewrites must not
//! change a single bit of any outcome: this suite pins a grid of
//! (config, seed) fixtures to golden files capturing every field of the
//! `ScenarioOutcome` (the shared `common::fingerprint`, shortest
//! round-trip form, so the comparison is exact) plus a full
//! `SweepReport` CSV.
//!
//! The scenario goldens pin the round engine's synchronous round
//! semantics (DESIGN.md §10). To regenerate after an *intentional*
//! semantic change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test equivalence
//! ```
//!
//! and justify the diff in the PR.

use tsn_core::config::PolicyProfile;
use tsn_core::json::format_f64;
use tsn_core::runner::{DisclosureLevel, ScenarioBuilder, SweepGrid, SweepRunner};
use tsn_core::scenario::Scenario;
use tsn_graph::generators;
use tsn_protocol::{GossipConfig, GossipNetwork};
use tsn_reputation::{AnonymizationConfig, MechanismKind, SelectionPolicy};
use tsn_simnet::{
    latency::ConstantLatency, BernoulliLoss, Network, NetworkConfig, NoLoss, NodeId, SimDuration,
    SimRng,
};

use std::fmt::Write as _;
use std::path::PathBuf;

mod common;
use common::fingerprint;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned fixture grid: every mechanism, several disclosure levels,
/// every selection-policy variant, churn, adaptation and anonymization.
fn fixtures() -> Vec<(&'static str, ScenarioBuilder)> {
    vec![
        ("eigentrust_full", ScenarioBuilder::small().seed(101)),
        (
            "eigentrust_adaptive_churn",
            ScenarioBuilder::small()
                .seed(102)
                .disclosure(DisclosureLevel::Timestamped)
                .adaptive_disclosure(true)
                .churn(0.3)
                .malicious_fraction(0.3),
        ),
        (
            "powertrust_mixed",
            ScenarioBuilder::small()
                .seed(103)
                .mechanism(MechanismKind::PowerTrust)
                .disclosure(DisclosureLevel::Topical)
                .malicious_fraction(0.3),
        ),
        (
            "beta_minimal_random",
            ScenarioBuilder::small()
                .seed(104)
                .mechanism(MechanismKind::Beta)
                .disclosure(DisclosureLevel::Minimal)
                .selection(SelectionPolicy::Random),
        ),
        (
            "trustme_best_strict",
            ScenarioBuilder::small()
                .seed(105)
                .mechanism(MechanismKind::TrustMe)
                .selection(SelectionPolicy::Best)
                .policy_profile(PolicyProfile::Strict),
        ),
        (
            "none_threshold",
            ScenarioBuilder::small()
                .seed(106)
                .mechanism(MechanismKind::None)
                .selection(SelectionPolicy::Threshold { threshold: 0.5 }),
        ),
        (
            "eigentrust_anonymized",
            ScenarioBuilder::small()
                .seed(107)
                .anonymization(AnonymizationConfig::default()),
        ),
    ]
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; run with GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name}: outcome is not bit-identical to the pre-refactor golden"
    );
}

#[test]
fn scenario_outcomes_match_pre_refactor_goldens() {
    for (name, builder) in fixtures() {
        let outcome = builder.run().expect("fixture config is valid");
        check_golden(name, &fingerprint(&outcome));
    }
}

#[test]
fn sweep_report_matches_pre_refactor_golden() {
    let grid = SweepGrid::over(ScenarioBuilder::small().nodes(24).rounds(4).graph(4, 0.1))
        .mechanisms([
            MechanismKind::None,
            MechanismKind::Beta,
            MechanismKind::EigenTrust,
        ])
        .disclosures([DisclosureLevel::Minimal, DisclosureLevel::Full])
        .seeds([1, 2]);
    let report = SweepRunner::parallel().run(&grid).expect("valid grid");
    check_golden("sweep_report", &report.to_csv());
}

#[test]
fn repeated_runs_are_bit_identical() {
    for (name, builder) in fixtures() {
        let a = builder.clone().run().expect("valid");
        let b = builder.run().expect("valid");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: two runs of the same config diverged"
        );
    }
}

/// A deterministic gossip instance for the message-path goldens:
/// 100 nodes on a Watts-Strogatz overlay, one observation per node.
fn gossip_instance(n: usize, loss: f64, seed: u64) -> GossipNetwork {
    let mut rng = SimRng::seed_from_u64(seed);
    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).expect("valid overlay");
    let config = NetworkConfig {
        latency: Box::new(ConstantLatency(SimDuration::from_millis(10))),
        loss: if loss > 0.0 {
            Box::new(BernoulliLoss::new(loss))
        } else {
            Box::new(NoLoss)
        },
    };
    let mut network = Network::new(config, rng.fork(1));
    for _ in 0..n {
        network.add_node();
    }
    let mut gossip = GossipNetwork::new(graph, network, GossipConfig::default(), rng.fork(2));
    let mut obs_rng = SimRng::seed_from_u64(seed ^ 0xA5A5);
    for _ in 0..n * 10 {
        let observer = NodeId(obs_rng.gen_range(0..n as u32));
        let subject = obs_rng.gen_range(0..n);
        let value = if subject.is_multiple_of(2) { 0.9 } else { 0.2 };
        gossip.observe(observer, subject, value);
    }
    gossip
}

/// Bit-exact text form of a gossip run: report errors, wire costs and
/// the conserved push-sum mass, plus a sample of local estimates.
fn gossip_fingerprint(gossip: &GossipNetwork, n: usize) -> String {
    let report = gossip.report();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "report mean_error={} max_error={}",
        format_f64(report.mean_error),
        format_f64(report.max_error)
    );
    let _ = writeln!(
        s,
        "costs messages={} bytes={} rounds={}",
        report.costs.messages, report.costs.bytes, report.costs.rounds
    );
    let _ = writeln!(s, "total_weight {}", format_f64(gossip.total_weight()));
    for i in (0..n).step_by(17) {
        let _ = writeln!(
            s,
            "estimate node={i} s0={} s1={}",
            format_f64(gossip.estimate(NodeId::from_index(i), 0)),
            format_f64(gossip.estimate(NodeId::from_index(i), 1)),
        );
    }
    s
}

#[test]
fn gossip_outcomes_match_pre_refactor_goldens() {
    let n = 100;
    for (name, loss) in [("gossip_clean", 0.0), ("gossip_lossy", 0.3)] {
        let mut gossip = gossip_instance(n, loss, 20100);
        gossip.run(20);
        check_golden(name, &gossip_fingerprint(&gossip, n));
    }
}

#[test]
fn gossip_steady_state_recycles_every_field_buffer() {
    // The message path draws outgoing field buffers from the network's
    // BufferPool and returns them on consumption (delivery, loss,
    // dead-letter). At most one sent plus one delivered message can be
    // alive per node at any instant, so a pool pre-warmed to that hard
    // bound must serve 1k rounds without creating a single new buffer.
    let n = 50;
    for loss in [0.0, 0.2] {
        let mut gossip = gossip_instance(n, loss, 777);
        let pool = gossip.network_mut().pool_mut();
        let prewarmed: Vec<Vec<f64>> = (0..2 * n + 2)
            .map(|_| {
                let mut buf = pool.acquire();
                buf.reserve(1 + 2 * n);
                buf
            })
            .collect();
        for buf in prewarmed {
            pool.release(buf);
        }
        let baseline = pool.fresh_allocations();
        gossip.run(1000);
        let pool = gossip.network_mut().pool();
        assert_eq!(
            baseline,
            pool.fresh_allocations(),
            "loss={loss}: 1k rounds over a pre-warmed pool must allocate \
             zero new buffers"
        );
        assert!(pool.reuses() > 1000, "the pool is actually being exercised");
    }

    // Without pre-warming, allocations track the random working-set
    // high-water mark — bounded by the same 2n+2, never by round count.
    let mut gossip = gossip_instance(n, 0.0, 777);
    gossip.run(1000);
    let fresh = gossip.network_mut().pool().fresh_allocations();
    assert!(
        fresh <= 2 * n as u64 + 2,
        "cold-start allocations stay within the working-set bound: {fresh}"
    );
}

#[test]
fn scenario_reuse_is_bit_identical_to_fresh() {
    // A `Scenario`'s scratch buffers must not leak state between
    // constructions: running a freshly built scenario twice from two
    // `Scenario::new` calls is the contract the sweep runner relies on.
    let config = ScenarioBuilder::small().seed(108).build().expect("valid");
    let a = Scenario::new(config.clone()).expect("valid").run();
    let b = Scenario::new(config).expect("valid").run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
