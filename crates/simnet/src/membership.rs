//! The peer-sampling membership layer: bounded partial views refreshed
//! by deterministic view shuffling.
//!
//! The source paper's central object is a peer-sampling service built
//! on *view shuffling*: every node holds a small bounded view of
//! `(peer, age)` entries and periodically swaps a half-view with a
//! partner; the paper's headline result is that this shuffling yields
//! provably uniform samples of the live population. This module is
//! that service as a simulation substrate:
//!
//! * [`PartialView`] — one node's bounded, aged entry list;
//! * [`MembershipConfig`] — view size and the shuffle family's
//!   exchange-length / healing / swap parameters;
//! * [`MembershipRuntime`] — the per-population overlay: bootstrap
//!   through relay nodes, one deterministic push-pull shuffle sweep per
//!   call to [`MembershipRuntime::shuffle_round`].
//!
//! ## The shuffle step
//!
//! Per round, every live node (ascending slot order — the determinism
//! contract) does one push-pull exchange:
//!
//! 1. ages every entry in its view;
//! 2. picks the *oldest* live entry as partner, pruning dead entries
//!    encountered on the way (the crash-healing path);
//! 3. sends a fresh self-entry plus up to `shuffle_len - 1` random
//!    entries; the partner replies symmetrically;
//! 4. both sides merge: received entries that duplicate an existing
//!    peer keep the younger age; overflow beyond `view_size` evicts
//!    first up to `healing` oldest entries, then up to `swap` of the
//!    entries just sent, then random entries.
//!
//! This is the peer-sampling framework's `(tail, push-pull, H, S)`
//! instantiation — the family the paper's uniformity analysis covers.
//!
//! ## Bootstrap and relays
//!
//! The first [`MembershipConfig::relays`] slots of the population are
//! *relay* (bootstrap) nodes: real entities that churn, crash and die
//! like everyone else (a [`DynamicsPlan`](crate::DynamicsPlan) can
//! target them — see the
//! [`DynamicsPlan::relay_outage`](crate::DynamicsPlan::relay_outage)
//! preset). Initial views are handed out by a relay: each node starts
//! with its relay plus a sample of previously joined peers. A node
//! whose view decays to nothing re-bootstraps through a live relay;
//! with every relay down it stays *isolated* until a relay recovers —
//! which is exactly the failure mode the `relay_outage` scenarios
//! measure.
//!
//! ## Determinism
//!
//! All randomness draws from per-round streams
//! ([`StreamDomain::MembershipShuffle`]) under a dedicated seed, so an
//! overlay attached to an existing experiment never perturbs the
//! experiment's own draw sequences, and a `(seed, config)` pair replays
//! the overlay bit-for-bit.

use crate::rng::SimRng;
use crate::streams::StreamDomain;
use crate::NodeId;

/// Salt XORed into an experiment's seed to derive the membership
/// overlay's own seed family. Mirrors the dynamics-runtime idiom: the
/// overlay is seeded *beside* the main stream, never forked from it,
/// so attaching it leaves every pre-existing draw sequence untouched.
pub const MEMBERSHIP_SEED_SALT: u64 = 0x3F29_8C5B_D410_66A7;

/// One entry of a [`PartialView`]: a peer descriptor with its age in
/// shuffle rounds since the entry was (re)freshed at its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEntry {
    /// The peer (population slot) this entry describes.
    pub peer: NodeId,
    /// Rounds since this entry was created fresh (age 0) by its peer.
    pub age: u32,
}

/// A bounded, aged partial view — one node's entire knowledge of the
/// population.
///
/// Invariants (property-tested): no entry for the owner itself, no
/// duplicate peers, never more than `capacity` entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialView {
    entries: Vec<ViewEntry>,
    capacity: usize,
}

impl PartialView {
    /// An empty view bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        PartialView {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// The bound on the number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view holds no entries (the isolated state).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[ViewEntry] {
        &self.entries
    }

    /// The peers currently in view.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.peer)
    }

    /// Whether `peer` is in view.
    pub fn contains(&self, peer: NodeId) -> bool {
        self.entries.iter().any(|e| e.peer == peer)
    }

    /// Ages every entry by one round (saturating).
    pub fn age_all(&mut self) {
        for e in &mut self.entries {
            e.age = e.age.saturating_add(1);
        }
    }

    /// The oldest entry's peer (first of the maxima — deterministic).
    pub fn oldest(&self) -> Option<NodeId> {
        let mut best: Option<&ViewEntry> = None;
        for e in &self.entries {
            if best.is_none_or(|b| e.age > b.age) {
                best = Some(e);
            }
        }
        best.map(|e| e.peer)
    }

    /// Removes `peer`'s entry; returns whether one existed.
    pub fn remove(&mut self, peer: NodeId) -> bool {
        match self.entries.iter().position(|e| e.peer == peer) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Inserts a fresh (age 0) entry for `peer` if it is absent and
    /// the view has room; returns whether the entry was added.
    pub fn insert_fresh(&mut self, peer: NodeId) -> bool {
        if self.entries.len() >= self.capacity || self.contains(peer) {
            return false;
        }
        self.entries.push(ViewEntry { peer, age: 0 });
        true
    }

    /// A uniformly random peer from the view.
    pub fn sample(&self, rng: &mut SimRng) -> Option<NodeId> {
        rng.choose(&self.entries).map(|e| e.peer)
    }
}

/// Upper bound on [`MembershipConfig::view_size`]. Every node's view is
/// allocated at full capacity up front, so an unbounded size would fail
/// the allocation instead of validation; peer-sampling views stay in the
/// tens (the default is 16).
const MAX_VIEW_SIZE: usize = 1024;

/// Configuration of the membership overlay.
///
/// Defaults follow the peer-sampling literature's healthy mid-range:
/// views of 16, half-view exchanges, one healing slot, full swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipConfig {
    /// View capacity per node (the paper's `c`).
    pub view_size: usize,
    /// Entries exchanged per shuffle, fresh self-entry included (the
    /// half-view length; must not exceed `view_size`).
    pub shuffle_len: usize,
    /// Healing parameter `H`: on overflow, up to this many *oldest*
    /// entries are evicted first (crash tolerance).
    pub healing: usize,
    /// Swap parameter `S`: after healing, up to this many of the
    /// entries *just sent* are evicted (keeps views from converging
    /// onto each other).
    pub swap: usize,
    /// Number of relay / bootstrap nodes: the first `relays` slots of
    /// the population. Real entities — they shuffle, churn and crash
    /// like everyone else.
    pub relays: usize,
    /// Entries a relay hands out on (re)bootstrap: the relay itself
    /// plus up to `relay_fanout - 1` peers sampled from the relay's
    /// own view.
    pub relay_fanout: usize,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            view_size: 16,
            shuffle_len: 8,
            healing: 1,
            swap: 7,
            relays: 3,
            relay_fanout: 8,
        }
    }
}

impl MembershipConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.view_size == 0 || self.view_size > MAX_VIEW_SIZE {
            return Err(format!(
                "membership view_size must be in [1, {MAX_VIEW_SIZE}], got {}",
                self.view_size
            ));
        }
        if self.shuffle_len == 0 || self.shuffle_len > self.view_size {
            return Err("membership shuffle_len must be in [1, view_size]".into());
        }
        if self.healing + self.swap > self.view_size {
            return Err("membership healing + swap must not exceed view_size".into());
        }
        if self.relays == 0 {
            return Err("membership needs at least 1 relay".into());
        }
        if self.relay_fanout == 0 || self.relay_fanout > self.view_size {
            return Err("membership relay_fanout must be in [1, view_size]".into());
        }
        Ok(())
    }
}

/// Counters of overlay activity since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Shuffle rounds executed.
    pub rounds: u64,
    /// Push-pull exchanges completed.
    pub exchanges: u64,
    /// Dead entries pruned during partner search.
    pub pruned: u64,
    /// Re-bootstraps served by a live relay.
    pub rebootstraps: u64,
    /// Node-rounds spent isolated (empty view, no reachable relay).
    pub isolated: u64,
}

/// The per-population peer-sampling overlay: one [`PartialView`] per
/// slot plus the deterministic shuffle protocol.
#[derive(Debug, Clone)]
pub struct MembershipRuntime {
    config: MembershipConfig,
    seed: u64,
    views: Vec<PartialView>,
    round: u64,
    stats: ShuffleStats,
    // Exchange scratch, reused across pairs to keep the sweep
    // allocation-free after warm-up.
    send_a: Vec<ViewEntry>,
    send_b: Vec<ViewEntry>,
}

impl MembershipRuntime {
    /// Builds the overlay for an `n`-slot population and bootstraps
    /// every initial view through the relays. `seed` is the overlay's
    /// own seed — derive it as `experiment_seed ^ MEMBERSHIP_SEED_SALT`
    /// so the overlay never perturbs the experiment's draw sequences.
    ///
    /// # Errors
    ///
    /// Returns the config's validation error, or an error when the
    /// population is smaller than the relay set.
    pub fn new(n: usize, config: MembershipConfig, seed: u64) -> Result<Self, String> {
        config.validate()?;
        if n < config.relays + 1 {
            return Err(format!(
                "membership needs more nodes ({n}) than relays ({})",
                config.relays
            ));
        }
        let mut views = vec![PartialView::new(config.view_size); n];
        // Bootstrap: each node asks relay `slot % relays`, which hands
        // out itself plus a sample of already-joined peers (the state a
        // real relay accumulates as the population trickles in).
        for (slot, view) in views.iter_mut().enumerate() {
            let mut rng = StreamDomain::MembershipBootstrap.stream(seed, slot as u64);
            let relay = NodeId::from_index(slot % config.relays);
            if relay.index() != slot {
                view.insert_fresh(relay);
            }
            let mut budget = 4 * config.relay_fanout;
            while view.len() < config.relay_fanout && budget > 0 {
                budget -= 1;
                let peer = NodeId::from_index(rng.gen_range(0..n));
                if peer.index() != slot {
                    view.insert_fresh(peer);
                }
            }
        }
        Ok(MembershipRuntime {
            config,
            seed,
            views,
            round: 0,
            stats: ShuffleStats::default(),
            send_a: Vec::new(),
            send_b: Vec::new(),
        })
    }

    /// The overlay configuration.
    pub fn config(&self) -> &MembershipConfig {
        &self.config
    }

    /// The relay (bootstrap) slots: the first `relays` node ids.
    pub fn relays(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.config.relays).map(NodeId::from_index)
    }

    /// One node's view.
    pub fn view(&self, node: NodeId) -> &PartialView {
        &self.views[node.index()]
    }

    /// All views, slot-indexed — the frozen per-round snapshot the
    /// sharded scenario path reads.
    pub fn views(&self) -> &[PartialView] {
        &self.views
    }

    /// Activity counters since construction.
    pub fn stats(&self) -> ShuffleStats {
        self.stats
    }

    /// Shuffle rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Executes one deterministic shuffle sweep: every node for which
    /// `alive` holds, in ascending slot order, runs the push-pull
    /// exchange described in the [module docs](self). `reachable(a, b)`
    /// gates partner and relay contact (partitions, regional cuts);
    /// pass `|_, _| true` on an unpartitioned substrate.
    ///
    /// Draws come from this round's
    /// [`StreamDomain::MembershipShuffle`] stream only, so overlay
    /// state after `k` rounds is a pure function of
    /// `(seed, config, alive/reachable history)`.
    pub fn shuffle_round(
        &mut self,
        alive: impl Fn(NodeId) -> bool,
        reachable: impl Fn(NodeId, NodeId) -> bool,
    ) {
        let mut rng = StreamDomain::MembershipShuffle.stream(self.seed, self.round);
        self.round += 1;
        self.stats.rounds += 1;
        for slot in 0..self.views.len() {
            let initiator = NodeId::from_index(slot);
            if !alive(initiator) {
                continue;
            }
            self.views[slot].age_all();
            let partner = match self.find_partner(slot, &alive, &reachable) {
                Some(p) => p,
                None => match self.rebootstrap(slot, &mut rng, &alive, &reachable) {
                    Some(p) => p,
                    None => {
                        self.stats.isolated += 1;
                        continue;
                    }
                },
            };
            self.exchange(slot, partner.index(), &mut rng);
            self.stats.exchanges += 1;
        }
    }

    /// The oldest live, reachable peer in `slot`'s view; dead entries
    /// found on the way are pruned (healing). Unreachable-but-alive
    /// entries are kept — the partition will heal.
    fn find_partner(
        &mut self,
        slot: usize,
        alive: &impl Fn(NodeId) -> bool,
        reachable: &impl Fn(NodeId, NodeId) -> bool,
    ) -> Option<NodeId> {
        let me = NodeId::from_index(slot);
        loop {
            let oldest = self.views[slot].oldest()?;
            if !alive(oldest) {
                self.views[slot].remove(oldest);
                self.stats.pruned += 1;
                continue;
            }
            if reachable(me, oldest) {
                return Some(oldest);
            }
            // Reachability is transient; fall through the ages until a
            // contactable peer turns up, without evicting anyone.
            let mut best: Option<&ViewEntry> = None;
            for e in self.views[slot].entries() {
                if alive(e.peer) && reachable(me, e.peer) {
                    let better = match best {
                        Some(b) => e.age > b.age,
                        None => true,
                    };
                    if better {
                        best = Some(e);
                    }
                }
            }
            return best.map(|e| e.peer);
        }
    }

    /// Refills an empty (or fully unreachable) view through a live,
    /// reachable relay: the relay itself plus a sample of the relay's
    /// view. Returns the relay as the round's partner.
    fn rebootstrap(
        &mut self,
        slot: usize,
        rng: &mut SimRng,
        alive: &impl Fn(NodeId) -> bool,
        reachable: &impl Fn(NodeId, NodeId) -> bool,
    ) -> Option<NodeId> {
        let me = NodeId::from_index(slot);
        let relay = (0..self.config.relays)
            .map(NodeId::from_index)
            .find(|&r| r != me && alive(r) && reachable(me, r))?;
        // Sample up to fanout-1 handout peers from the relay's view
        // before touching our own (split-borrow via index ordering).
        let handouts: Vec<NodeId> = {
            let relay_view = &self.views[relay.index()];
            let mut picked = Vec::new();
            let mut budget = 2 * self.config.relay_fanout;
            while picked.len() + 1 < self.config.relay_fanout && budget > 0 {
                budget -= 1;
                match relay_view.sample(rng) {
                    Some(p) if p != me && !picked.contains(&p) => picked.push(p),
                    Some(_) => {}
                    None => break,
                }
            }
            picked
        };
        let view = &mut self.views[slot];
        view.insert_fresh(relay);
        for p in handouts {
            view.insert_fresh(p);
        }
        self.stats.rebootstraps += 1;
        Some(relay)
    }

    /// One push-pull exchange between live nodes `a` and `b`.
    fn exchange(&mut self, a: usize, b: usize, rng: &mut SimRng) {
        let shuffle_len = self.config.shuffle_len;
        let mut send_a = std::mem::take(&mut self.send_a);
        let mut send_b = std::mem::take(&mut self.send_b);
        fill_buffer(
            &mut send_a,
            &self.views[a],
            NodeId::from_index(a),
            shuffle_len,
            rng,
        );
        fill_buffer(
            &mut send_b,
            &self.views[b],
            NodeId::from_index(b),
            shuffle_len,
            rng,
        );
        self.merge(b, &send_a, &send_b, rng);
        self.merge(a, &send_b, &send_a, rng);
        send_a.clear();
        send_b.clear();
        self.send_a = send_a;
        self.send_b = send_b;
    }

    /// Merges `received` into `slot`'s view, evicting per the
    /// framework's healing / swap / random discipline. `sent` is what
    /// `slot` pushed out this exchange (the swap candidates).
    fn merge(&mut self, slot: usize, received: &[ViewEntry], sent: &[ViewEntry], rng: &mut SimRng) {
        let me = NodeId::from_index(slot);
        let cap = self.config.view_size;
        let view = &mut self.views[slot];
        for e in received {
            if e.peer == me {
                continue;
            }
            match view.entries.iter_mut().find(|have| have.peer == e.peer) {
                Some(have) => have.age = have.age.min(e.age),
                None => view.entries.push(*e),
            }
        }
        // Healing: evict the oldest first.
        let mut healing_left = self.config.healing;
        while view.entries.len() > cap && healing_left > 0 {
            healing_left -= 1;
            if let Some(oldest) = view.oldest() {
                view.remove(oldest);
            }
        }
        // Swap: evict what we just sent.
        let mut swap_left = self.config.swap;
        let mut sent_cursor = 0;
        while view.entries.len() > cap && swap_left > 0 && sent_cursor < sent.len() {
            let candidate = sent[sent_cursor].peer;
            sent_cursor += 1;
            if view.remove(candidate) {
                swap_left -= 1;
            }
        }
        // Random: trim the remainder.
        while view.entries.len() > cap {
            let index = rng.gen_range(0..view.entries.len());
            view.entries.remove(index);
        }
    }
}

/// Builds an exchange buffer: a fresh self-entry plus up to
/// `shuffle_len - 1` distinct random entries of `view`.
fn fill_buffer(
    buffer: &mut Vec<ViewEntry>,
    view: &PartialView,
    owner: NodeId,
    shuffle_len: usize,
    rng: &mut SimRng,
) {
    buffer.clear();
    buffer.push(ViewEntry {
        peer: owner,
        age: 0,
    });
    let want = (shuffle_len - 1).min(view.len());
    let mut budget = 4 * shuffle_len.max(1);
    while buffer.len() - 1 < want && budget > 0 {
        budget -= 1;
        if let Some(e) = rng.choose(view.entries()) {
            if !buffer.iter().any(|b| b.peer == e.peer) {
                buffer.push(*e);
            }
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay(n: usize, seed: u64) -> MembershipRuntime {
        MembershipRuntime::new(n, MembershipConfig::default(), seed).expect("valid")
    }

    fn everyone_up(runtime: &mut MembershipRuntime, rounds: usize) {
        for _ in 0..rounds {
            runtime.shuffle_round(|_| true, |_, _| true);
        }
    }

    fn assert_invariants(runtime: &MembershipRuntime) {
        for (slot, view) in runtime.views().iter().enumerate() {
            assert!(view.len() <= view.capacity(), "slot {slot} over capacity");
            assert!(
                !view.contains(NodeId::from_index(slot)),
                "slot {slot} holds a self-entry"
            );
            let mut peers: Vec<u32> = view.peers().map(|p| p.0).collect();
            peers.sort_unstable();
            let before = peers.len();
            peers.dedup();
            assert_eq!(before, peers.len(), "slot {slot} holds duplicates");
        }
    }

    #[test]
    fn config_validation_names_bad_fields() {
        let defaults = MembershipConfig::default();
        let config = MembershipConfig {
            view_size: 0,
            ..defaults
        };
        assert!(config.validate().unwrap_err().contains("view_size"));
        let config = MembershipConfig {
            view_size: MAX_VIEW_SIZE + 1,
            ..defaults
        };
        assert!(config.validate().unwrap_err().contains("view_size"));
        let config = MembershipConfig {
            shuffle_len: defaults.view_size + 1,
            ..defaults
        };
        assert!(config.validate().unwrap_err().contains("shuffle_len"));
        let config = MembershipConfig {
            healing: 10,
            swap: 10,
            ..defaults
        };
        assert!(config.validate().unwrap_err().contains("healing"));
        let config = MembershipConfig {
            relays: 0,
            ..defaults
        };
        assert!(config.validate().unwrap_err().contains("relay"));
        assert!(MembershipConfig::default().validate().is_ok());
    }

    #[test]
    fn bootstrap_seeds_every_view_through_relays() {
        let runtime = overlay(64, 7);
        assert_invariants(&runtime);
        for (slot, view) in runtime.views().iter().enumerate() {
            assert!(!view.is_empty(), "slot {slot} starts with an empty view");
            if slot >= runtime.config().relays {
                let relay = NodeId::from_index(slot % runtime.config().relays);
                assert!(view.contains(relay), "slot {slot} misses its relay");
            }
        }
    }

    #[test]
    fn invariants_hold_across_many_rounds() {
        let mut runtime = overlay(48, 11);
        for round in 0..40 {
            runtime.shuffle_round(|_| true, |_, _| true);
            assert_invariants(&runtime);
            let max_age = runtime
                .views()
                .iter()
                .flat_map(|v| v.entries().iter().map(|e| e.age))
                .max()
                .unwrap_or(0);
            // An entry ages at its holder and can age once more after
            // traveling to a later-sweeping node in the same round —
            // so growth is bounded by two per round, never unbounded.
            assert!(
                u64::from(max_age) <= 2 * (round + 1),
                "round {round}: age {max_age} outgrew the sweep bound"
            );
        }
    }

    #[test]
    fn shuffling_is_deterministic_given_seed() {
        let run = |seed| {
            let mut runtime = overlay(32, seed);
            everyone_up(&mut runtime, 20);
            runtime.views().to_vec()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds explore different views");
    }

    #[test]
    fn dead_entries_are_pruned_and_views_heal() {
        let mut runtime = overlay(32, 13);
        everyone_up(&mut runtime, 10);
        // Kill the top half; survivors' views must shed them.
        let alive = |n: NodeId| n.index() < 16;
        for _ in 0..30 {
            runtime.shuffle_round(alive, |_, _| true);
        }
        for slot in 0..16 {
            for peer in runtime.views()[slot].peers() {
                assert!(alive(peer), "slot {slot} still references dead peer {peer}");
            }
        }
        assert!(runtime.stats().pruned > 0);
    }

    #[test]
    fn empty_view_rebootstraps_through_a_live_relay() {
        let mut runtime = overlay(16, 17);
        // Empty one node's view by hand.
        runtime.views[9] = PartialView::new(runtime.config().view_size);
        runtime.shuffle_round(|_| true, |_, _| true);
        assert!(!runtime.views()[9].is_empty(), "rebootstrap refilled it");
        assert!(runtime.stats().rebootstraps >= 1);
    }

    #[test]
    fn all_relays_dead_leaves_empty_views_isolated() {
        let mut runtime = overlay(16, 19);
        runtime.views[9] = PartialView::new(runtime.config().view_size);
        // Only node 9 is up: no relay to re-bootstrap through, and no
        // live peer whose outbound exchange could refill it.
        runtime.shuffle_round(|n| n.index() == 9, |_, _| true);
        assert!(
            runtime.views()[9].is_empty(),
            "no relay reachable, no recovery"
        );
        assert_eq!(runtime.stats().isolated, 1);
        // A recovered relay ends the isolation (through its own
        // outbound exchange or by serving a re-bootstrap).
        runtime.shuffle_round(|n| n.index() == 9 || n.index() == 0, |_, _| true);
        assert!(!runtime.views()[9].is_empty());
    }

    #[test]
    fn partition_gates_partner_choice_without_eviction() {
        let mut runtime = overlay(32, 23);
        everyone_up(&mut runtime, 8);
        // Split even/odd; exchanges must stay within a side.
        let same_side = |a: NodeId, b: NodeId| a.index() % 2 == b.index() % 2;
        let snapshot: Vec<usize> = runtime.views().iter().map(|v| v.len()).collect();
        runtime.shuffle_round(|_| true, same_side);
        // Unreachable peers were not evicted (the partition heals).
        for (slot, view) in runtime.views().iter().enumerate() {
            assert!(
                view.len() + 2 >= snapshot[slot].min(view.capacity()),
                "slot {slot} lost entries to a transient partition"
            );
        }
    }

    #[test]
    fn population_must_exceed_relay_set() {
        assert!(MembershipRuntime::new(3, MembershipConfig::default(), 1).is_err());
    }
}
