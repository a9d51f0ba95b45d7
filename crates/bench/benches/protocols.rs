//! Bench: decentralized-protocol round throughput.
//!
//! Run: `cargo bench -p tsn-bench --bench protocols`

use tsn_bench::harness::{Bench, BenchSuite};
use tsn_graph::generators;
use tsn_protocol::{GossipConfig, GossipNetwork, ManagerConfig, ManagerNetwork};
use tsn_simnet::{
    ChurnConfig, DynamicsPlan, Network, NetworkConfig, NodeId, SimDuration, SimRng, SimTime,
};

fn gossip_instance(n: usize) -> GossipNetwork {
    let mut rng = SimRng::seed_from_u64(1);
    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).unwrap();
    let mut network = Network::new(NetworkConfig::default(), rng.fork(1));
    for _ in 0..n {
        network.add_node();
    }
    let mut gossip = GossipNetwork::new(graph, network, GossipConfig::default(), rng.fork(2));
    for i in 0..n {
        gossip.observe(NodeId::from_index(i), (i * 7) % n, 0.8);
    }
    gossip
}

/// Session churn at protocol timescale: ~8-round sessions, ~3-round
/// downtimes, a fifth of the re-joins whitewashing.
fn churn_plan() -> DynamicsPlan {
    DynamicsPlan {
        churn: Some(ChurnConfig {
            mean_session: SimDuration::from_millis(800),
            mean_downtime: SimDuration::from_millis(300),
            whitewash_probability: 0.2,
            crash_fraction: 0.5,
        }),
        ..Default::default()
    }
}

fn main() {
    let mut suite = BenchSuite::new(
        "protocols",
        "gossip:nodes=50,100,200,1000 rounds=20; gossip_churn/partitioned:nodes=100,200 \
         rounds=20; manager:nodes=50,100; samples=10",
    );
    let bench = Bench::new("gossip_20_rounds").samples(10);
    for n in [50usize, 100, 200, 1000] {
        suite.record(bench.run(&format!("{n}_nodes"), || {
            let mut gossip = gossip_instance(n);
            gossip.run(20);
            gossip.report().mean_error
        }));
    }

    // Dynamics lanes: the same gossip workload under session churn and
    // under a mid-run split-then-heal — the cost of executing the
    // dynamics layer (heap-scheduled transitions, set_alive sweeps,
    // loss-model swaps) rides on top of the clean-gossip baseline.
    let bench = Bench::new("gossip_churn").samples(10);
    for n in [100usize, 200] {
        suite.record(bench.run(&format!("{n}_nodes"), || {
            let mut gossip = gossip_instance(n);
            gossip
                .attach_dynamics(churn_plan(), SimRng::seed_from_u64(3))
                .expect("valid plan");
            gossip.run(20);
            gossip.report().mean_error
        }));
    }

    let bench = Bench::new("gossip_partitioned").samples(10);
    for n in [100usize, 200] {
        suite.record(bench.run(&format!("{n}_nodes"), || {
            let mut gossip = gossip_instance(n);
            // Split for rounds 0..10, healed for rounds 10..20.
            gossip
                .attach_dynamics(
                    DynamicsPlan::split_then_heal(SimTime::ZERO, SimTime::from_millis(1_050)),
                    SimRng::seed_from_u64(4),
                )
                .expect("valid plan");
            gossip.run(20);
            gossip.report().mean_error
        }));
    }

    let bench = Bench::new("manager_report_query_cycle").samples(10);
    for n in [50usize, 100] {
        suite.record(bench.run(&format!("{n}_nodes"), || {
            let mut network = Network::new(NetworkConfig::default(), SimRng::seed_from_u64(2));
            for _ in 0..n {
                network.add_node();
            }
            let mut managers = ManagerNetwork::new(network, ManagerConfig::default());
            for i in 0..n as u32 {
                managers.submit_report(NodeId(i), NodeId((i + 1) % n as u32), 0.7);
            }
            managers.run(2);
            for i in 0..n as u32 {
                managers.submit_query(NodeId(i), NodeId((i + 2) % n as u32));
            }
            managers.run(3);
            managers.report().answer_rate
        }));
    }

    suite.finish();
}
