//! Push-sum gossip aggregation of reputation evidence.
//!
//! Every node starts with only its *own* observations (value sum and
//! count per subject) and a push-sum weight of 1. Each round every node
//! halves its state, keeps one half and sends the other to a random
//! neighbour. All three quantities are *mass-conserved* (absent
//! message loss), so each node's ratio `state / weight` converges to the
//! network-wide average — from which the global Beta-style score of every
//! subject is computed locally, with no aggregator anywhere.
//!
//! Under message loss, mass leaks and estimates bias toward the prior —
//! the measurable accuracy price of full decentralization that the A4
//! experiment quantifies.
//!
//! The implementation is built for scale: per-node state lives in one
//! flat `n × 2n` matrix (every node is a subject) whose row layout
//! mirrors the wire format, so incoming halves are absorbed from
//! *borrowed* envelope fields in a single contiguous add pass (no
//! decode copies) and outgoing halves are a halve-in-place plus
//! `extend_from_slice` into a pooled buffer — steady-state rounds
//! allocate nothing (`tests/equivalence.rs` pins both the bit-identical
//! outcomes and the zero-growth pool behaviour).

use crate::host::{ProtocolCosts, RoundDriver};
use tsn_graph::Graph;
use tsn_simnet::{
    DynamicsEvent, DynamicsPlan, DynamicsRuntime, Envelope, Network, NodeId, Payload, SimDuration,
    SimRng, Tag,
};

/// The push-sum message tag.
const PUSHSUM: Tag = Tag::new("pushsum");

/// Gossip parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Length of one gossip round.
    pub round_length: SimDuration,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            round_length: SimDuration::from_millis(100),
        }
    }
}

/// A snapshot of one node's estimate quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipReport {
    /// Max absolute error of local score estimates vs the oracle.
    pub max_error: f64,
    /// Mean absolute error.
    pub mean_error: f64,
    /// Protocol costs so far.
    pub costs: ProtocolCosts,
}

/// The gossip protocol instance.
#[derive(Debug)]
pub struct GossipNetwork {
    driver: RoundDriver,
    graph: Graph,
    rng: SimRng,
    /// Push-sum weight per node.
    weight: Vec<f64>,
    /// Per-node running (half-able) state, row-major with stride `2n`
    /// (every node is a subject): a node's row is `[sums… | counts…]` —
    /// exactly the wire layout of a push-sum message after its weight field,
    /// so absorbing and emitting are single contiguous slice passes.
    state: Vec<f64>,
    /// Ground-truth totals (for oracle comparison): (sum, count).
    truth: Vec<(f64, f64)>,
}

impl GossipNetwork {
    /// Builds the protocol over `graph` with a fresh network; every node
    /// of `graph` is a subject.
    ///
    /// # Panics
    ///
    /// Panics if `graph` and `network` disagree on the node count.
    pub fn new(graph: Graph, network: Network, config: GossipConfig, rng: SimRng) -> Self {
        let n = graph.node_count();
        assert_eq!(
            n,
            network.node_count(),
            "graph and network must agree on node count"
        );
        GossipNetwork {
            driver: RoundDriver::new(network, config.round_length),
            graph,
            rng,
            weight: vec![1.0; n],
            state: vec![0.0; n * 2 * n],
            truth: vec![(0.0, 0.0); n],
        }
    }

    /// Records a local observation at `observer` about `subject`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or `value` is not in `[0, 1]`.
    pub fn observe(&mut self, observer: NodeId, subject: usize, value: f64) {
        assert!((0.0..=1.0).contains(&value), "value must be in [0,1]");
        let subjects = self.graph.node_count();
        assert!(subject < subjects, "subject out of range");
        let row = observer.index() * 2 * subjects;
        self.state[row + subject] += value;
        self.state[row + subjects + subject] += 1.0;
        self.truth[subject].0 += value;
        self.truth[subject].1 += 1.0;
    }

    /// Attaches a dynamics plan: churn transitions, partition swaps and
    /// regional latency execute on the driver's clock between rounds.
    ///
    /// The protocol tolerates every transition: crashed nodes freeze
    /// (their mass leaks only through pushes addressed at them), revived
    /// nodes resume from their frozen state, and a *whitewashed* slot
    /// re-enters with reset push-sum state (weight 1, no observations) —
    /// the fresh identity inherits nothing. The mass the old identity
    /// already pushed into the network stays there, so whitewashing
    /// perturbs (never poisons) the aggregate.
    ///
    /// # Errors
    ///
    /// Returns the plan's validation error, if any.
    pub fn attach_dynamics(&mut self, plan: DynamicsPlan, rng: SimRng) -> Result<(), String> {
        let runtime = DynamicsRuntime::new(plan, self.graph.node_count(), rng)?;
        self.driver.attach_dynamics(runtime);
        Ok(())
    }

    /// The attached dynamics runtime, if any.
    pub fn dynamics(&self) -> Option<&DynamicsRuntime> {
        self.driver.dynamics()
    }

    /// Executes one push-sum round.
    pub fn round(&mut self) {
        let GossipNetwork {
            driver,
            graph,
            rng,
            weight,
            state,
            ..
        } = self;
        let subjects = graph.node_count();
        let stride = 2 * subjects;
        driver.round(|node, inbox, _, out| {
            let i = node.index();
            let row = &mut state[i * stride..(i + 1) * stride];
            // Absorb incoming halves straight from the borrowed fields:
            // the wire layout after the weight matches the state row,
            // so each envelope is one contiguous fused-add pass.
            for envelope in inbox {
                let Some((w, halves)) = decode(envelope, subjects) else {
                    out.mark_malformed();
                    continue;
                };
                weight[i] += w;
                for (dst, src) in row.iter_mut().zip(halves) {
                    *dst += *src;
                }
            }
            // Halve and push to one random neighbour. Nodes do not know
            // who crashed: the draw covers every neighbour, and a push
            // to a dead peer dead-letters — a bounded mass leak that the
            // crash tests quantify.
            let Some(&target) = rng.choose(graph.neighbors(node)) else {
                return;
            };
            weight[i] /= 2.0;
            for value in row.iter_mut() {
                *value /= 2.0;
            }
            let mut fields = out.fields();
            fields.reserve(1 + stride);
            fields.push(weight[i]);
            fields.extend_from_slice(row);
            out.send_record(target, PUSHSUM, fields);
        });
        // A whitewashed slot is a fresh identity: it restarts from the
        // push-sum initial state instead of inheriting its predecessor's
        // accumulated evidence. Events are borrowed (the driver clears
        // them next round) — no per-round allocation.
        if let Some(dynamics) = self.driver.dynamics() {
            for &(_, event) in dynamics.events() {
                if let DynamicsEvent::Whitewash { slot, .. } = event {
                    let i = slot.index();
                    self.weight[i] = 1.0;
                    self.state[i * stride..(i + 1) * stride].fill(0.0);
                }
            }
        }
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// `node`'s current local estimate of `subject`'s global Beta score.
    pub fn estimate(&self, node: NodeId, subject: usize) -> f64 {
        let i = node.index();
        let w = self.weight[i];
        if w <= 0.0 {
            return 0.5;
        }
        let subjects = self.graph.node_count();
        let n = subjects as f64;
        let row = i * 2 * subjects;
        // Push-sum estimate of the network totals.
        let est_sum = self.state[row + subject] / w * n;
        let est_count = self.state[row + subjects + subject] / w * n;
        (est_sum + 1.0) / (est_count + 2.0)
    }

    /// The oracle: the score a centralized aggregator would compute.
    pub fn oracle(&self, subject: usize) -> f64 {
        let (sum, count) = self.truth[subject];
        (sum + 1.0) / (count + 2.0)
    }

    /// Estimate quality across every alive node and subject.
    pub fn report(&self) -> GossipReport {
        let mut max_error: f64 = 0.0;
        let mut total = 0.0;
        let mut samples = 0u64;
        let n = self.graph.node_count();
        for i in 0..n {
            let node = NodeId::from_index(i);
            if !self.driver.network().is_alive(node) {
                continue;
            }
            for subject in 0..n {
                let err = (self.estimate(node, subject) - self.oracle(subject)).abs();
                max_error = max_error.max(err);
                total += err;
                samples += 1;
            }
        }
        GossipReport {
            max_error,
            mean_error: if samples == 0 {
                0.0
            } else {
                total / samples as f64
            },
            costs: self.driver.costs(),
        }
    }

    /// Total push-sum mass (weight) across nodes — conserved while no
    /// message is lost or in flight.
    pub fn total_weight(&self) -> f64 {
        self.weight.iter().sum()
    }

    /// Mutable network access (to inject crashes between rounds).
    pub fn network_mut(&mut self) -> &mut Network {
        self.driver.network_mut()
    }
}

/// Borrows the weight and the `[sums… | counts…]` halves out of a
/// push-sum envelope — no copies; absorption reads the wire buffer in
/// place.
fn decode(envelope: &Envelope, subjects: usize) -> Option<(f64, &[f64])> {
    match &envelope.payload {
        Payload::Record { tag, fields } if *tag == PUSHSUM && fields.len() == 1 + 2 * subjects => {
            Some((fields[0], &fields[1..]))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_graph::generators;
    use tsn_simnet::{latency::ConstantLatency, BernoulliLoss, NetworkConfig, NoLoss};

    fn build(n: usize, loss: f64, seed: u64) -> GossipNetwork {
        let mut rng = SimRng::seed_from_u64(seed);
        let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).unwrap();
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
        GossipNetwork::new(graph, network, GossipConfig::default(), rng.fork(2))
    }

    fn seed_observations(g: &mut GossipNetwork, n: usize, seed: u64) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..n * 10 {
            let observer = NodeId(rng.gen_range(0..n as u32));
            let subject = rng.gen_range(0..n);
            // Even subjects are good (0.9), odd are bad (0.2).
            let value = if subject.is_multiple_of(2) { 0.9 } else { 0.2 };
            g.observe(observer, subject, value);
        }
    }

    #[test]
    fn estimates_converge_to_oracle() {
        let n = 30;
        let mut g = build(n, 0.0, 1);
        seed_observations(&mut g, n, 2);
        let before = g.report();
        g.run(40);
        let after = g.report();
        assert!(
            after.mean_error < before.mean_error / 3.0,
            "{before:?} -> {after:?}"
        );
        assert!(
            after.mean_error < 0.05,
            "converged error {:.4}",
            after.mean_error
        );
        assert_eq!(after.costs.malformed, 0, "clean network parses everything");
    }

    #[test]
    fn converged_estimates_rank_subjects_correctly() {
        let n = 20;
        let mut g = build(n, 0.0, 3);
        seed_observations(&mut g, n, 4);
        g.run(50);
        // Every node's local estimate separates good from bad subjects.
        for i in 0..n {
            let node = NodeId::from_index(i);
            let good = g.estimate(node, 0);
            let bad = g.estimate(node, 1);
            assert!(good > bad, "node {i}: good {good} vs bad {bad}");
        }
    }

    #[test]
    fn mass_is_conserved_without_loss() {
        let n = 16;
        let mut g = build(n, 0.0, 5);
        seed_observations(&mut g, n, 6);
        let start = g.total_weight();
        g.run(10);
        // In-flight mass + held mass = constant; after a quiet round all
        // mass is back at nodes (one extra round to drain).
        g.run(1);
        let in_flight = g.driver.network().in_flight_len();
        // held weight is start minus whatever is still on the wire.
        assert!(g.total_weight() <= start + 1e-9);
        assert!(in_flight > 0 || (start - g.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn message_loss_degrades_accuracy() {
        let n = 24;
        let mut clean = build(n, 0.0, 7);
        let mut lossy = build(n, 0.4, 7);
        seed_observations(&mut clean, n, 8);
        seed_observations(&mut lossy, n, 8);
        clean.run(40);
        lossy.run(40);
        assert!(
            lossy.report().mean_error > clean.report().mean_error,
            "loss must hurt: {:?} vs {:?}",
            lossy.report().mean_error,
            clean.report().mean_error
        );
    }

    #[test]
    fn crashed_nodes_freeze_but_do_not_poison() {
        let n = 20;
        let mut g = build(n, 0.0, 9);
        seed_observations(&mut g, n, 10);
        g.run(10);
        for dead in 0..5u32 {
            g.network_mut().set_alive(NodeId(dead), false);
        }
        g.run(30);
        let report = g.report();
        // Alive nodes still converge reasonably (mass sent to dead nodes
        // dead-letters, a bounded leak).
        assert!(report.mean_error < 0.15, "error {:.4}", report.mean_error);
    }

    #[test]
    fn pushes_at_crashed_neighbors_dead_letter() {
        let n = 30;
        let mut g = build(n, 0.0, 21);
        seed_observations(&mut g, n, 22);
        // Crash a fifth of the network before any traffic flows, so
        // every dead-letter is attributable to target selection.
        for dead in 0..6u32 {
            g.network_mut().set_alive(NodeId(dead), false);
        }
        g.run(20);
        assert!(
            g.driver.network().stats().dead_letter.value() > 0,
            "the neighbour draw hits crashed peers"
        );
    }

    #[test]
    fn gossip_survives_session_churn() {
        use tsn_simnet::ChurnConfig;
        let n = 30;
        let mut g = build(n, 0.0, 31);
        seed_observations(&mut g, n, 32);
        let plan = DynamicsPlan {
            churn: Some(ChurnConfig {
                // Rounds are 100ms: ~8-round sessions, ~3-round downtimes.
                mean_session: SimDuration::from_millis(800),
                mean_downtime: SimDuration::from_millis(300),
                whitewash_probability: 0.0,
                crash_fraction: 0.5,
            }),
            ..Default::default()
        };
        g.attach_dynamics(plan, SimRng::seed_from_u64(33)).unwrap();
        g.run(60);
        let report = g.report();
        assert!(report.mean_error.is_finite());
        assert!(
            report.mean_error < 0.2,
            "alive nodes still converge through churn: {}",
            report.mean_error
        );
        let dynamics = g.dynamics().expect("attached");
        assert!(dynamics.availability() > 0.0);
        // Weight never goes negative or NaN under kill/revive cycles.
        assert!(g.weight.iter().all(|w| w.is_finite() && *w >= 0.0));
    }

    #[test]
    fn whitewashed_slots_reset_their_push_sum_state() {
        let n = 20;
        let mut g = build(n, 0.0, 41);
        seed_observations(&mut g, n, 42);
        g.run(5);
        let plan = DynamicsPlan::whitewash_attack(
            SimDuration::from_millis(400),
            SimDuration::from_millis(200),
        );
        // Attach mid-run: the plan's schedule starts at time zero, so
        // overdue transitions fire on the next round.
        g.attach_dynamics(plan, SimRng::seed_from_u64(43)).unwrap();
        let mut whitewashed = Vec::new();
        let mut previous: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        for _ in 0..40 {
            g.round();
            // The reset runs last in round(), so a slot whitewashed this
            // round must sit exactly at the fresh-identity initial state:
            // weight 1, empty evidence — nothing inherited.
            let current = g.dynamics().expect("attached").identities().to_vec();
            for slot in 0..n {
                if current[slot] != previous[slot] {
                    whitewashed.push(slot);
                    assert_eq!(g.weight[slot], 1.0, "slot {slot} weight reset");
                    let row = &g.state[slot * 2 * n..(slot + 1) * 2 * n];
                    assert!(
                        row.iter().all(|&v| v == 0.0),
                        "slot {slot} state reset, got {row:?}"
                    );
                }
            }
            previous = current;
        }
        assert!(!whitewashed.is_empty(), "80% whitewash over 40 rounds");
        let report = g.report();
        assert!(
            report.mean_error.is_finite() && report.max_error.is_finite(),
            "whitewashing perturbs but never poisons: {report:?}"
        );
    }

    #[test]
    fn costs_grow_linearly_in_rounds() {
        let n = 10;
        let mut g = build(n, 0.0, 11);
        g.run(5);
        let c5 = g.report().costs;
        g.run(5);
        let c10 = g.report().costs;
        assert_eq!(c5.messages, 5 * n as u64);
        assert_eq!(c10.messages, 10 * n as u64);
        assert!(c10.bytes > c5.bytes);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let n = 12;
            let mut g = build(n, 0.1, 13);
            seed_observations(&mut g, n, 14);
            g.run(20);
            g.report().mean_error
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn malformed_envelopes_are_counted_not_absorbed() {
        let n = 10;
        let mut g = build(n, 0.0, 17);
        seed_observations(&mut g, n, 18);
        // Inject junk addressed to node 0: wrong tag, wrong arity, and a
        // non-record payload.
        let junk_fields = vec![0.25; 1 + 2 * n];
        let network = g.network_mut();
        network.send(
            NodeId(1),
            NodeId(0),
            Payload::record("not-pushsum", junk_fields),
        );
        network.send(NodeId(1), NodeId(0), Payload::record("pushsum", vec![1.0]));
        network.send(NodeId(1), NodeId(0), Payload::from("junk"));
        let weight_before = g.total_weight();
        g.run(2);
        let report = g.report();
        assert_eq!(report.costs.malformed, 3, "every junk envelope counted");
        assert!(
            g.total_weight() <= weight_before + 1e-9,
            "junk mass is never absorbed"
        );
    }

    #[test]
    #[should_panic(expected = "value must be in [0,1]")]
    fn rejects_out_of_range_observation() {
        let mut g = build(10, 0.0, 15);
        g.observe(NodeId(0), 0, 1.5);
    }
}
