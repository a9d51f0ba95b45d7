//! EigenTrust (Kamvar, Schlosser, Garcia-Molina — WWW 2003), the paper's
//! reference \[13\].
//!
//! Each peer `i` accumulates a local trust value `s_ij` for every partner
//! `j` (satisfactory minus unsatisfactory transactions). Normalized local
//! trust `c_ij = max(s_ij, 0) / Σ_j max(s_ij, 0)` forms a stochastic
//! matrix; the global trust vector is the stationary distribution of a
//! random walk that teleports to *pre-trusted peers* with probability
//! `alpha`:
//!
//! ```text
//! t ← (1 − α) Cᵀ t + α p
//! ```
//!
//! **Anonymized degradation.** When the disclosure policy hides rater
//! identities, `C` cannot be built; such reports fall into a per-ratee
//! anonymous pool and the final score blends the eigenvector with the
//! pool average, weighted by the share of identified reports. Hiding
//! identities therefore smoothly reduces EigenTrust toward a plain mean —
//! precisely the reputation-power loss the paper's Figure 2 plots.
//!
//! **Performance.** The local-trust matrix is a `LocalMatrix`: a
//! CSR-style adjacency `record()` updates in place, iterated in
//! deterministic (rater, ratee) order. `power_iterate` reuses the row
//! storage and ping-pongs two resident `t`/`next` buffers, so a refresh
//! allocates nothing — the former `HashMap` version rebuilt row storage
//! and allocated a fresh `next` vector per iteration, and its random
//! iteration order made low-order float bits vary between runs.

use crate::gathering::ReportView;
use crate::local_matrix::{LocalMatrix, UpsertMemo};
use crate::mechanism::{MechanismKind, ReputationMechanism};
use crate::walk::WalkMatrix;
use tsn_simnet::NodeId;

/// Teleport probability toward pre-trusted peers (the paper's `a`).
const ALPHA: f64 = 0.15;
/// Convergence threshold on the L1 change between iterations.
const EPSILON: f64 = 1e-9;
/// Iteration cap per [`ReputationMechanism::refresh`].
const MAX_ITERATIONS: usize = 200;

/// One (rater, ratee) cell: `s_ij` (satisfactory − unsatisfactory) feeds
/// the C matrix; the value mean feeds the trust-weighted opinion
/// aggregation.
#[derive(Debug, Clone, Copy, Default)]
struct LocalCell {
    s: f64,
    value_sum: f64,
    count: u64,
}

/// The EigenTrust mechanism.
#[derive(Debug, Clone)]
pub struct EigenTrust {
    /// Pre-trusted peers. Empty means "uniform prior over all peers",
    /// which is the paper's fallback when no pre-trust exists.
    pretrusted: Vec<NodeId>,
    n: usize,
    /// Sparse local trust, updated in place by `record`.
    local: LocalMatrix<LocalCell>,
    /// Per-ratee anonymous pool: (sum of values, count).
    anon: Vec<(f64, u64)>,
    /// Count of identified vs anonymous reports, for blending.
    identified_reports: u64,
    anonymous_reports: u64,
    /// Cached global trust vector (a distribution over nodes).
    global: Vec<f64>,
    /// Cached trust-weighted opinion per node: (weighted value sum, weight).
    opinion: Vec<(f64, f64)>,
    dirty: bool,
    last_iterations: usize,
    /// Teleport distribution (recomputed only when the population grows).
    prior: Vec<f64>,
    /// The shared power-iteration engine (flat normalized matrix +
    /// ping-pong buffers, all resident across refreshes).
    walk: WalkMatrix,
    /// Flat (rater, ratee, value mean) image of the rated cells,
    /// captured during the walk rebuild for the opinion pass.
    opinion_src: Vec<(u32, u32, f64)>,
}

impl EigenTrust {
    /// Creates an instance for `n` nodes whose walk teleports to the
    /// `pretrusted` peers (uniformly to all peers when it is empty).
    pub fn new(n: usize, pretrusted: Vec<NodeId>) -> Self {
        let prior = Self::compute_prior(&pretrusted, n);
        EigenTrust {
            pretrusted,
            n,
            local: LocalMatrix::new(n),
            anon: vec![(0.0, 0); n],
            identified_reports: 0,
            anonymous_reports: 0,
            global: vec![1.0 / n.max(1) as f64; n],
            opinion: vec![(0.0, 0.0); n],
            dirty: true,
            last_iterations: 0,
            prior,
            walk: WalkMatrix::default(),
            opinion_src: Vec::new(),
        }
    }

    /// The raw global trust distribution (sums to 1). Prefer
    /// [`ReputationMechanism::score`] for `\[0, 1\]`-comparable values.
    pub fn global_trust(&mut self) -> &[f64] {
        if self.dirty {
            self.power_iterate();
        }
        &self.global
    }

    /// Iterations used by the most recent refresh.
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    fn compute_prior(pretrusted: &[NodeId], n: usize) -> Vec<f64> {
        if pretrusted.is_empty() {
            vec![1.0 / n.max(1) as f64; n]
        } else {
            let mut p = vec![0.0; n];
            let share = 1.0 / pretrusted.len() as f64;
            for &node in pretrusted {
                if node.index() < n {
                    p[node.index()] += share;
                }
            }
            p
        }
    }

    fn power_iterate(&mut self) {
        let n = self.n;
        if n == 0 {
            self.dirty = false;
            self.last_iterations = 0;
            return;
        }
        // Row-normalize the positive local trust (`c_ij = max(s,0) /
        // Σ max(s,0)`) into the walk engine; raters with no positive
        // trust are dangling — their mass teleports to the prior. The
        // same traversal flattens each rated cell's value mean for the
        // opinion pass below.
        let opinion_src = &mut self.opinion_src;
        opinion_src.clear();
        self.walk.rebuild(
            n,
            &self.local,
            |cell| cell.s,
            |i, j, cell| {
                if cell.count > 0 {
                    opinion_src.push((i, j, cell.value_sum / cell.count as f64));
                }
            },
        );
        let iterations = self
            .walk
            .stationary(&self.prior, ALPHA, EPSILON, MAX_ITERATIONS);
        self.global.clear();
        self.global.extend_from_slice(self.walk.solution());
        // Cache the trust-weighted opinion aggregation for O(1) scoring,
        // over the flat (rater, ratee) image in deterministic order.
        self.opinion.clear();
        self.opinion.resize(n, (0.0, 0.0));
        for &(i, j, mean) in &self.opinion_src {
            // Floor on rater weight so fresh raters are heard faintly.
            let w = self.global[i as usize].max(1e-6);
            let slot = &mut self.opinion[j as usize];
            slot.0 += w * mean;
            slot.1 += w;
        }
        self.dirty = false;
        self.last_iterations = iterations;
    }

    fn blend_weight(&self) -> f64 {
        let total = self.identified_reports + self.anonymous_reports;
        if total == 0 {
            1.0
        } else {
            self.identified_reports as f64 / total as f64
        }
    }

    fn record_memo(&mut self, report: &ReportView, memo: &mut UpsertMemo) {
        let ratee = report.ratee.0;
        debug_assert!((ratee as usize) < self.n, "ratee out of range");
        match report.rater {
            Some(rater) if rater != report.ratee => {
                // s_ij += value for success, −1 for failure (paper: sat − unsat).
                let delta = if report.success { report.value() } else { -1.0 };
                let cell = self.local.upsert_memo(rater.0, ratee, memo);
                cell.s += delta;
                cell.value_sum += report.value();
                cell.count += 1;
                self.identified_reports += 1;
            }
            Some(_) => { /* self-rating is ignored */ }
            None => {
                let entry = &mut self.anon[ratee as usize];
                entry.0 += report.value();
                entry.1 += 1;
                self.anonymous_reports += 1;
            }
        }
        self.dirty = true;
    }
}

impl ReputationMechanism for EigenTrust {
    fn kind(&self) -> MechanismKind {
        MechanismKind::EigenTrust
    }

    fn resize(&mut self, n: usize) {
        if n > self.n {
            self.n = n;
            self.local.resize(n);
            self.anon.resize(n, (0.0, 0));
            self.opinion.resize(n, (0.0, 0.0));
            self.global = vec![1.0 / n as f64; n];
            self.prior = Self::compute_prior(&self.pretrusted, n);
            self.dirty = true;
        }
    }

    fn record(&mut self, report: &ReportView) {
        self.record_memo(report, &mut UpsertMemo::default());
    }

    fn record_batch(&mut self, reports: &[ReportView]) {
        // One memo across the batch: runs of identical (rater, ratee)
        // keys — ballot-stuffed copies, shard outboxes in rater order —
        // reuse the found cell instead of re-searching the row. The
        // per-cell float adds are issued in the same order as looped
        // `record` calls, so scores stay bit-identical.
        let mut memo = UpsertMemo::default();
        for report in reports {
            self.record_memo(report, &mut memo);
        }
    }

    fn refresh(&mut self) -> usize {
        self.power_iterate();
        self.last_iterations
    }

    fn score(&self, node: NodeId) -> f64 {
        if node.index() >= self.n {
            return 0.5;
        }
        // EigenTrust aggregation step: the system's opinion about j is the
        // global-trust-weighted mean of local opinions — colluders with no
        // trust mass cannot move the score, while the value stays a
        // `[0, 1]` quality estimate. (Cached by `power_iterate`.)
        let (weighted, weight) = self.opinion[node.index()];
        let identified = if weight > 0.0 { weighted / weight } else { 0.5 };
        let w = self.blend_weight();
        let (sum, count) = self.anon[node.index()];
        let anon_mean = if count > 0 { sum / count as f64 } else { 0.5 };
        w * identified + (1.0 - w) * anon_mean
    }

    fn len(&self) -> usize {
        self.n
    }

    fn overhead_per_report(&self) -> usize {
        // Distributed EigenTrust: report to the ratee's score managers
        // (CAN-based DHT, typically a handful of replicas).
        3
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // Layout: n, then the sparse local rows (len + ratee/s/value_sum/
        // count per cell, ascending ratee), the anonymous pools, the
        // identified/anonymous counters, and the score caches (`global`,
        // `opinion`, `dirty`, `last_iterations`). The caches matter:
        // `score` reads them without refreshing, so a restore that
        // dropped them would answer queries differently than the
        // snapshotted instance until the next refresh. `prior` is
        // derived from `pretrusted` and `walk`/`opinion_src` are
        // rebuilt wholesale by `power_iterate`, so none of them travel.
        let mut w = tsn_simnet::ByteWriter::new();
        w.put_u64(self.n as u64);
        for i in 0..self.n {
            let row = self.local.row(i);
            w.put_u64(row.len() as u64);
            for &(j, cell) in row {
                w.put_u32(j);
                w.put_f64(cell.s);
                w.put_f64(cell.value_sum);
                w.put_u64(cell.count);
            }
        }
        for &(sum, count) in &self.anon {
            w.put_f64(sum);
            w.put_u64(count);
        }
        w.put_u64(self.identified_reports);
        w.put_u64(self.anonymous_reports);
        for &g in &self.global {
            w.put_f64(g);
        }
        for &(weighted, weight) in &self.opinion {
            w.put_f64(weighted);
            w.put_f64(weight);
        }
        w.put_u8(self.dirty as u8);
        w.put_u64(self.last_iterations as u64);
        Some(w.finish())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = tsn_simnet::ByteReader::new(bytes);
        let n = r.take_u64()? as usize;
        if n != self.n {
            return Err(format!(
                "EigenTrust snapshot is for {n} nodes, instance has {}",
                self.n
            ));
        }
        let mut local: LocalMatrix<LocalCell> = LocalMatrix::new(n);
        let mut memo = UpsertMemo::default();
        for i in 0..n {
            let len = r.take_seq_len(28)?;
            for _ in 0..len {
                let j = r.take_u32()?;
                if j as usize >= n {
                    return Err(format!("snapshot cell ratee {j} out of range (n = {n})"));
                }
                let cell = local.upsert_memo(i as u32, j, &mut memo);
                cell.s = r.take_f64()?;
                cell.value_sum = r.take_f64()?;
                cell.count = r.take_u64()?;
            }
        }
        for slot in self.anon.iter_mut() {
            *slot = (r.take_f64()?, r.take_u64()?);
        }
        self.identified_reports = r.take_u64()?;
        self.anonymous_reports = r.take_u64()?;
        for g in self.global.iter_mut() {
            *g = r.take_f64()?;
        }
        for slot in self.opinion.iter_mut() {
            *slot = (r.take_f64()?, r.take_f64()?);
        }
        self.dirty = r.take_u8()? != 0;
        self.last_iterations = r.take_u64()? as usize;
        self.local = local;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathering::{DisclosurePolicy, FeedbackReport};
    use crate::mechanism::InteractionOutcome;
    use tsn_simnet::{SimRng, SimTime};

    fn feed(m: &mut EigenTrust, rater: u32, ratee: u32, good: bool, policy: &DisclosurePolicy) {
        let report = FeedbackReport {
            rater: NodeId(rater),
            ratee: NodeId(ratee),
            outcome: if good {
                InteractionOutcome::Success { quality: 1.0 }
            } else {
                InteractionOutcome::Failure
            },
            topic: None,
            at: SimTime::ZERO,
        };
        m.record(&policy.view(&report));
    }

    #[test]
    fn good_nodes_outrank_bad_nodes() {
        let mut m = EigenTrust::new(4, Vec::new());
        let full = DisclosurePolicy::full();
        // 0 and 1 praise each other and node 2; everyone reports node 3 bad.
        for _ in 0..5 {
            feed(&mut m, 0, 1, true, &full);
            feed(&mut m, 1, 0, true, &full);
            feed(&mut m, 0, 2, true, &full);
            feed(&mut m, 1, 3, false, &full);
            feed(&mut m, 0, 3, false, &full);
        }
        m.refresh();
        assert!(m.score(NodeId(0)) > m.score(NodeId(3)));
        assert!(m.score(NodeId(1)) > m.score(NodeId(3)));
        assert!(m.score(NodeId(2)) > m.score(NodeId(3)));
    }

    #[test]
    fn global_trust_is_a_distribution() {
        let mut m = EigenTrust::new(5, Vec::new());
        let full = DisclosurePolicy::full();
        for r in 0..5u32 {
            for e in 0..5u32 {
                if r != e {
                    feed(&mut m, r, e, e % 2 == 0, &full);
                }
            }
        }
        let t = m.global_trust();
        let sum: f64 = t.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "eigenvector sums to 1, got {sum}");
        assert!(t.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn pretrusted_peers_get_teleport_mass() {
        let mut m = EigenTrust::new(3, vec![NodeId(0)]);
        // No reports at all: stationary distribution = prior = all mass on 0.
        m.refresh();
        let t = m.global_trust();
        assert!(
            t[0] > t[1] && t[0] > t[2],
            "teleport mass concentrates on the seed: {t:?}"
        );
    }

    #[test]
    fn pretrusted_weighting_discounts_colluders() {
        // Colluders 2 and 3 praise each other massively; the pretrusted
        // seed 0 rates 1 well and 3 badly. With identity-aware weighting,
        // 1 must outrank 3 despite 3 receiving more praise volume.
        let mut m = EigenTrust::new(4, vec![NodeId(0)]);
        let full = DisclosurePolicy::full();
        for _ in 0..3 {
            feed(&mut m, 0, 1, true, &full);
            feed(&mut m, 0, 3, false, &full);
        }
        for _ in 0..20 {
            feed(&mut m, 2, 3, true, &full);
            feed(&mut m, 3, 2, true, &full);
        }
        m.refresh();
        assert!(
            m.score(NodeId(1)) > m.score(NodeId(3)),
            "seed-endorsed node must outrank collusion ring: {} vs {}",
            m.score(NodeId(1)),
            m.score(NodeId(3))
        );
    }

    #[test]
    fn self_ratings_are_ignored() {
        let mut m = EigenTrust::new(3, Vec::new());
        let full = DisclosurePolicy::full();
        for _ in 0..10 {
            feed(&mut m, 2, 2, true, &full);
        }
        m.refresh();
        // Node 2 gained nothing: uniform prior persists.
        let s: Vec<f64> = (0..3).map(|i| m.score(NodeId(i))).collect();
        assert!(
            (s[0] - s[2]).abs() < 1e-9,
            "self-praise must not help: {s:?}"
        );
    }

    #[test]
    fn anonymous_reports_still_inform_scores() {
        let mut m = EigenTrust::new(3, Vec::new());
        let anon = DisclosurePolicy::minimal();
        for _ in 0..10 {
            feed(&mut m, 0, 1, true, &anon);
            feed(&mut m, 0, 2, false, &anon);
        }
        m.refresh();
        assert!(
            m.score(NodeId(1)) > m.score(NodeId(2)),
            "anonymous pool should still separate good from bad"
        );
    }

    #[test]
    fn anonymization_degrades_separation() {
        // With identities, collusion-resistant eigenvector scoring gives a
        // crisper separation than the anonymous mean under mixed feedback.
        let run = |policy: DisclosurePolicy| {
            let mut m = EigenTrust::new(4, Vec::new());
            for _ in 0..10 {
                feed(&mut m, 0, 1, true, &policy);
                feed(&mut m, 1, 0, true, &policy);
                feed(&mut m, 2, 3, true, &policy); // liar boosts liar
                feed(&mut m, 0, 3, false, &policy);
                feed(&mut m, 1, 3, false, &policy);
            }
            m.refresh();
            m.score(NodeId(0)) - m.score(NodeId(3))
        };
        let with_ids = run(DisclosurePolicy::full());
        let without_ids = run(DisclosurePolicy::minimal());
        assert!(
            with_ids > without_ids,
            "identity-aware separation {with_ids} should beat anonymous {without_ids}"
        );
    }

    #[test]
    fn refresh_reports_iterations_and_converges() {
        let mut m = EigenTrust::new(10, Vec::new());
        let full = DisclosurePolicy::full();
        for r in 0..10u32 {
            feed(&mut m, r, (r + 1) % 10, true, &full);
        }
        let iters = m.refresh();
        assert!(iters > 0 && iters <= 200);
        assert_eq!(iters, m.last_iterations());
    }

    #[test]
    fn empty_mechanism_scores_prior() {
        let mut m = EigenTrust::new(3, Vec::new());
        m.refresh();
        // Uniform eigenvector: max-normalized score = 1 for everyone.
        let s = m.score(NodeId(0));
        assert!(s > 0.0 && s <= 1.0);
        assert_eq!(m.score(NodeId(99)), 0.5, "out-of-range nodes get the prior");
    }

    #[test]
    fn resize_grows_tracking() {
        let mut m = EigenTrust::new(2, Vec::new());
        m.resize(5);
        assert_eq!(m.len(), 5);
        let full = DisclosurePolicy::full();
        feed(&mut m, 4, 3, true, &full);
        m.refresh();
        assert!(m.score(NodeId(3)) > 0.0);
    }

    /// Random but seed-reproducible report stream over `n` nodes.
    fn random_feed(m: &mut EigenTrust, n: u32, count: usize, seed: u64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let full = DisclosurePolicy::full();
        for _ in 0..count {
            let rater = rng.gen_range(0..n);
            let mut ratee = rng.gen_range(0..n);
            if ratee == rater {
                ratee = (ratee + 1) % n;
            }
            feed(m, rater, ratee, rng.gen_bool(0.7), &full);
        }
    }

    #[test]
    fn two_instances_are_bit_identical() {
        // The HashMap-backed implementation could differ in low-order
        // float bits between instances (random iteration order); the CSR
        // storage accumulates in a fixed order, so equality is exact.
        let mut a = EigenTrust::new(30, Vec::new());
        let mut b = EigenTrust::new(30, Vec::new());
        random_feed(&mut a, 30, 600, 9);
        random_feed(&mut b, 30, 600, 9);
        a.refresh();
        b.refresh();
        assert_eq!(a.global_trust(), b.global_trust());
        for i in 0..30 {
            assert_eq!(
                a.score(NodeId(i)).to_bits(),
                b.score(NodeId(i)).to_bits(),
                "node {i}"
            );
        }
    }

    #[test]
    fn snapshot_restore_round_trip_is_bit_identical() {
        let mut a = EigenTrust::new(25, Vec::new());
        random_feed(&mut a, 25, 500, 3);
        a.refresh();
        // Leave the instance mid-stream (dirty, unrefreshed tail) so the
        // snapshot covers cache + pending state, not just a clean point.
        random_feed(&mut a, 25, 100, 4);
        let snap = a.snapshot_state().expect("eigentrust supports snapshots");

        let mut b = EigenTrust::new(25, Vec::new());
        b.restore_state(&snap).expect("round trip");
        for i in 0..25 {
            assert_eq!(
                a.score(NodeId(i)).to_bits(),
                b.score(NodeId(i)).to_bits(),
                "restored scores must match before any refresh (node {i})"
            );
        }

        // Continuing both instances identically stays bit-identical.
        random_feed(&mut a, 25, 200, 5);
        random_feed(&mut b, 25, 200, 5);
        a.refresh();
        b.refresh();
        assert_eq!(a.global_trust(), b.global_trust());
        for i in 0..25 {
            assert_eq!(a.score(NodeId(i)).to_bits(), b.score(NodeId(i)).to_bits());
        }
    }

    #[test]
    fn snapshot_restore_rejects_bad_input() {
        let mut a = EigenTrust::new(8, Vec::new());
        random_feed(&mut a, 8, 50, 6);
        let snap = a.snapshot_state().unwrap();
        let mut wrong_size = EigenTrust::new(4, Vec::new());
        assert!(
            wrong_size.restore_state(&snap).is_err(),
            "population mismatch"
        );
        let mut same = EigenTrust::new(8, Vec::new());
        assert!(
            same.restore_state(&snap[..snap.len() / 2]).is_err(),
            "truncated"
        );
    }

    #[test]
    fn incremental_refreshes_match_from_scratch() {
        // Interleaving record/refresh must leave the matrix in exactly
        // the state a single batch ingest would produce: the in-place row
        // updates and resident scratch buffers carry no state between
        // refreshes.
        let mut incremental = EigenTrust::new(20, Vec::new());
        let mut rng = SimRng::seed_from_u64(17);
        let full = DisclosurePolicy::full();
        let mut log: Vec<(u32, u32, bool)> = Vec::new();
        for step in 0..400 {
            let rater = rng.gen_range(0..20);
            let mut ratee = rng.gen_range(0..20);
            if ratee == rater {
                ratee = (ratee + 1) % 20;
            }
            let good = rng.gen_bool(0.6);
            log.push((rater, ratee, good));
            feed(&mut incremental, rater, ratee, good, &full);
            if step % 37 == 0 {
                incremental.refresh();
            }
        }
        incremental.refresh();

        let mut scratch = EigenTrust::new(20, Vec::new());
        for &(rater, ratee, good) in &log {
            feed(&mut scratch, rater, ratee, good, &full);
        }
        scratch.refresh();

        assert_eq!(incremental.global_trust(), scratch.global_trust());
        for i in 0..20 {
            assert_eq!(
                incremental.score(NodeId(i)).to_bits(),
                scratch.score(NodeId(i)).to_bits(),
                "node {i}"
            );
        }
    }
}
