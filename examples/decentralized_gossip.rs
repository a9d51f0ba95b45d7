//! Fully decentralized reputation: no aggregator, only gossip.
//!
//! The paper's goal is "the deployment of fully decentralized
//! architectures". This example scores providers with *zero* central
//! state: every node holds only its own experiences and a push-sum
//! gossip exchange converges all nodes to the global verdict.
//!
//! Run with:
//! ```text
//! cargo run --release --example decentralized_gossip
//! ```

use tsn::graph::generators;
use tsn::protocol::{GossipConfig, GossipNetwork};
use tsn::simnet::{
    latency::WanLatency, BernoulliLoss, Network, NetworkConfig, NodeId, SimDuration, SimRng,
};

fn main() {
    let n = 50;
    let mut rng = SimRng::seed_from_u64(42);

    // A WAN-ish network: 20ms base latency with a heavy tail, 5% loss.
    let config = NetworkConfig {
        latency: Box::new(WanLatency {
            base: SimDuration::from_millis(20),
            tail_mean: SimDuration::from_millis(15),
        }),
        loss: Box::new(BernoulliLoss::new(0.05)),
    };
    let mut network = Network::new(config, rng.fork(1));
    for _ in 0..n {
        network.add_node();
    }

    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).expect("valid parameters");
    let mut gossip = GossipNetwork::new(
        graph,
        network,
        GossipConfig {
            round_length: SimDuration::from_millis(150),
        },
        rng.fork(2),
    );

    // Local experiences only: each node observed a few interactions.
    // Nodes 0..10 are bad providers; the rest are good.
    for _ in 0..n * 8 {
        let observer = NodeId(rng.gen_range(0..n as u32));
        let subject = rng.gen_range(0..n);
        let quality = if subject < 10 { 0.15 } else { 0.9 };
        let value = (quality + rng.gen_normal(0.0, 0.05)).clamp(0.0, 1.0);
        gossip.observe(observer, subject, value);
    }

    println!("round  mean|err|   max|err|   messages");
    for checkpoint in [0usize, 5, 10, 20, 40] {
        while gossip.report().costs.rounds < checkpoint as u64 {
            gossip.round();
        }
        let r = gossip.report();
        println!(
            "{checkpoint:>5}  {:>9.4}  {:>9.4}  {:>9}",
            r.mean_error, r.max_error, r.costs.messages
        );
    }

    // Every node can now score any provider locally.
    let probe = NodeId(17);
    println!("\nnode {probe}'s local verdicts (no server was involved):");
    println!(
        "  provider 3 (bad):   {:.3} (oracle {:.3})",
        gossip.estimate(probe, 3),
        gossip.oracle(3)
    );
    println!(
        "  provider 30 (good): {:.3} (oracle {:.3})",
        gossip.estimate(probe, 30),
        gossip.oracle(30)
    );
    let separates = gossip.estimate(probe, 30) > gossip.estimate(probe, 3);
    println!("  good outranks bad locally: {separates}");
}
