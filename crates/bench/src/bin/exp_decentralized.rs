//! **A4 — the price of full decentralization** (extension experiment):
//! the paper's objective is fully decentralized deployment; this
//! experiment measures what realizing the reputation facet *as a
//! protocol* costs, compared to the centralized oracle, under increasing
//! message loss.
//!
//! * gossip (push-sum): no aggregator at all; loss leaks mass → bias;
//! * score managers (DHT replicas): loss and crashes cost answers;
//! * the oracle: zero messages, zero error — the centralized upper bound.
//!
//! Run: `cargo run --release -p tsn-bench --bin exp_decentralized`

use tsn_bench::{emit, mean};
use tsn_core::report::{ExperimentRow, ExperimentTable};
use tsn_graph::generators;
use tsn_protocol::{GossipConfig, GossipNetwork, ManagerConfig, ManagerNetwork};
use tsn_simnet::{
    latency::ConstantLatency, BernoulliLoss, Network, NetworkConfig, NoLoss, NodeId, SimDuration,
    SimRng,
};

const N: usize = 60;
const ROUNDS: usize = 40;

fn network(n: usize, loss: f64, seed: u64) -> Network {
    let config = NetworkConfig {
        latency: Box::new(ConstantLatency(SimDuration::from_millis(10))),
        loss: if loss > 0.0 {
            Box::new(BernoulliLoss::new(loss))
        } else {
            Box::new(NoLoss)
        },
    };
    let mut net = Network::new(config, SimRng::seed_from_u64(seed));
    for _ in 0..n {
        net.add_node();
    }
    net
}

/// Deterministic workload: per-subject ground truth value, observations
/// spread over observers.
fn observations(seed: u64) -> Vec<(NodeId, usize, f64)> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..N * 12)
        .map(|_| {
            let observer = NodeId(rng.gen_range(0..N as u32));
            let subject = rng.gen_range(0..N);
            let truth = if subject.is_multiple_of(3) { 0.2 } else { 0.9 };
            let value = (truth + rng.gen_normal(0.0, 0.05)).clamp(0.0, 1.0);
            (observer, subject, value)
        })
        .collect()
}

fn run_gossip(loss: f64, seed: u64) -> (f64, u64, u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let graph = generators::watts_strogatz(N, 6, 0.1, &mut rng).expect("valid parameters");
    let mut gossip = GossipNetwork::new(
        graph,
        network(N, loss, seed ^ 0xAAAA),
        GossipConfig::default(),
        rng.fork(1),
    );
    for (observer, subject, value) in observations(seed ^ 0x55) {
        gossip.observe(observer, subject, value);
    }
    gossip.run(ROUNDS);
    let report = gossip.report();
    (report.mean_error, report.costs.messages, report.costs.bytes)
}

fn run_managers(loss: f64, seed: u64) -> (f64, f64, u64, u64) {
    let mut managers =
        ManagerNetwork::new(network(N, loss, seed ^ 0xBBBB), ManagerConfig::default());
    for (observer, subject, value) in observations(seed ^ 0x55) {
        managers.submit_report(observer, NodeId::from_index(subject), value);
    }
    managers.run(3);
    for requester in 0..N as u32 {
        for subject in 0..N as u32 {
            if requester != subject && (requester + subject) % 7 == 0 {
                managers.submit_query(NodeId(requester), NodeId(subject));
            }
        }
    }
    managers.run(4);
    let report = managers.report();
    (
        report.mean_error,
        report.answer_rate,
        report.costs.messages,
        report.costs.bytes,
    )
}

fn main() {
    let losses = [0.0, 0.1, 0.3, 0.5];
    let seeds = 3;

    let mut error_table = ExperimentTable::new(
        "A4a",
        "mean |estimate − oracle| vs message-loss rate",
        losses.iter().map(|l| format!("loss={l:.1}")),
    );
    let mut cost_table = ExperimentTable::new(
        "A4b",
        "protocol cost (messages, KiB) at loss=0",
        ["messages", "KiB"],
    );

    let mut gossip_err = Vec::new();
    let mut manager_err = Vec::new();
    for &loss in &losses {
        gossip_err.push(mean((0..seeds).map(|s| run_gossip(loss, 800 + s).0)));
        manager_err.push(mean((0..seeds).map(|s| run_managers(loss, 900 + s).0)));
    }
    error_table.push(ExperimentRow::new("gossip(push-sum)", gossip_err.clone()));
    error_table.push(ExperimentRow::new("score-managers", manager_err.clone()));
    error_table.push(ExperimentRow::new(
        "centralized-oracle",
        vec![0.0; losses.len()],
    ));
    emit(&error_table);

    let (_, g_msgs, g_bytes) = run_gossip(0.0, 800);
    let (_, answer_rate, m_msgs, m_bytes) = run_managers(0.0, 900);
    cost_table.push(ExperimentRow::new(
        "gossip(push-sum)",
        vec![g_msgs as f64, g_bytes as f64 / 1024.0],
    ));
    cost_table.push(ExperimentRow::new(
        "score-managers",
        vec![m_msgs as f64, m_bytes as f64 / 1024.0],
    ));
    cost_table.push(ExperimentRow::new("centralized-oracle", vec![0.0, 0.0]));
    emit(&cost_table);

    // Answer-rate degradation for the manager protocol.
    let mut rate_table = ExperimentTable::new(
        "A4c",
        "score-manager query answer rate vs loss",
        losses.iter().map(|l| format!("loss={l:.1}")),
    );
    rate_table.push(ExperimentRow::new(
        "answer_rate",
        losses
            .iter()
            .map(|&l| mean((0..seeds).map(|s| run_managers(l, 900 + s).1)))
            .collect(),
    ));
    emit(&rate_table);

    // Reproduction shape: decentralization works (low error at zero
    // loss), degrades smoothly with loss, and costs real messages.
    let clean_ok = gossip_err[0] < 0.05 && manager_err[0] < 0.02;
    let degrades = gossip_err[3] > gossip_err[0];
    let costly = g_msgs > 0 && m_msgs > 0;
    println!(
        "check clean-network accuracy (gossip {:.4}, managers {:.4}): {}",
        gossip_err[0],
        manager_err[0],
        pass(clean_ok)
    );
    println!(
        "check loss degrades gossip ({:.4} -> {:.4}): {}",
        gossip_err[0],
        gossip_err[3],
        pass(degrades)
    );
    println!(
        "check decentralization costs messages ({g_msgs} / {m_msgs}): {}",
        pass(costly)
    );
    println!("note: manager answer rate at loss=0 is {answer_rate:.3}");
    println!(
        "\nA4 reproduction: {}",
        pass(clean_ok && degrades && costly)
    );
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}
