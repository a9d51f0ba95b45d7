//! `mega_100k`: one 100k-node scenario of 20 rounds on the auto-sharded
//! engine, repeated with one seed.

use crate::report::{med, Digest, Report};
use crate::trace::{now, timed, Tracer};
use tsn_core::runner::{Observer, ScenarioBuilder};
use tsn_core::{RoundSample, ScenarioConfig, ScenarioOutcome};
use tsn_graph::generators;
use tsn_simnet::SimRng;

const NODES: usize = 100_000;
const ROUNDS: usize = 20;
/// Repetitions per second of `--seconds`: one repetition takes about
/// 4 s on the 2-core reference machine. The count is fixed by
/// `--seconds` alone, so every run measures the same rounds: every
/// fifth round refreshes the mechanism and takes about twice as long,
/// and with `r` repetitions the tail rank `20r - 10` falls inside those
/// `4r` slow rounds only for `r >= 3` (at `r = 5`, at their median).
const REPS_PER_SECOND: f64 = 0.25;
/// The digest check needs two repetitions.
const MIN_REPS: usize = 2;

/// Clock reads at run start and after each round.
#[derive(Default)]
pub struct RoundClock {
    /// Time of the `on_start` hook.
    pub start: f64,
    /// Time of each `on_round` hook.
    pub rounds: Vec<f64>,
}

impl Observer for RoundClock {
    fn on_start(&mut self, _config: &ScenarioConfig) {
        self.start = now();
    }
    fn on_round(&mut self, _sample: &RoundSample) {
        self.rounds.push(now());
    }
}

impl RoundClock {
    /// Per-round durations (seconds) from the hook deltas.
    pub fn deltas(&self) -> Vec<f64> {
        let mut last = self.start;
        self.rounds
            .iter()
            .map(|&t| {
                let d = t - last;
                last = t;
                d
            })
            .collect()
    }

    /// Records the run's spans: one per round and the outcome assembly
    /// from the last round until `end`.
    pub fn record(&self, tracer: &mut Tracer, end: f64) {
        let mut last = self.start;
        for &t in &self.rounds {
            tracer.record("scenario.round", last, t, false);
            last = t;
        }
        tracer.record("scenario.assembly", last, end, false);
    }
}

/// Exact work counts of one outcome: interactions, reports, messages,
/// isolated consumers.
pub fn counts(outcome: &ScenarioOutcome) -> [u64; 4] {
    [
        outcome.interactions,
        outcome.samples.iter().map(|s| s.reports_filed).sum(),
        outcome.messages,
        outcome.samples.iter().map(|s| s.isolated).sum(),
    ]
}

/// Whether every facet and headline rate is a finite value in `[0, 1]`.
pub fn in_bounds(outcome: &ScenarioOutcome) -> bool {
    let f = outcome.facets;
    [
        f.privacy,
        f.reputation,
        f.satisfaction,
        outcome.global_trust,
        outcome.respect_rate,
        outcome.denial_rate,
    ]
    .iter()
    .all(|v| (0.0..=1.0).contains(v))
}

fn digest(outcome: &ScenarioOutcome) -> u64 {
    let mut d = Digest::default();
    let f = outcome.facets;
    for v in [
        f.privacy,
        f.reputation,
        f.satisfaction,
        outcome.global_trust,
    ] {
        d.f64(v);
    }
    for v in outcome
        .per_user_trust
        .iter()
        .chain(&outcome.per_user_satisfaction)
        .chain(&outcome.per_user_respect)
    {
        d.f64(*v);
    }
    for w in counts(outcome) {
        d.word(w);
    }
    for s in &outcome.samples {
        d.f64(s.mean_trust);
        d.f64(s.consistency);
    }
    d.value()
}

/// Generates the graph `config`'s build drew, again and on its own, as
/// a shadow of the last `runner.build` span, so that the graph layer's
/// share of the build shows.
pub fn shadow_graph(tracer: &mut Tracer, config: &ScenarioConfig) {
    let parent = tracer.last("runner.build");
    tracer.shadow_under(parent, "graph.generate", || {
        let mut rng = SimRng::seed_from_u64(config.seed).fork(1);
        generators::watts_strogatz(
            config.nodes,
            config.graph_degree,
            config.graph_beta,
            &mut rng,
        )
        .expect("a validated configuration has valid graph parameters")
    });
}

/// Reports the per-layer metrics both scenario workloads share, from
/// the spans recorded so far.
pub fn scenario_layers(
    report: &mut Report,
    tracer: &Tracer,
    first_round_ms: f64,
    counts: [u64; 4],
    refresh_iterations: u64,
) {
    let ms = |name: &str| med(&tracer.durations(name)) * 1e3;
    report.layer("runner.build_ms", ms("runner.build"), "ms");
    report.layer("graph.generate_ms", ms("graph.generate"), "ms");
    report.layer("scenario.round_p50_ms", ms("scenario.round"), "ms");
    report.layer("scenario.first_round_ms", first_round_ms, "ms");
    report.layer("scenario.assembly_ms", ms("scenario.assembly"), "ms");
    for (name, v) in ["interactions", "reports", "messages", "isolated"]
        .iter()
        .zip(counts)
    {
        report.layer(&format!("scenario.{name}"), v as f64, "count");
    }
    report.layer(
        "reputation.refresh_iterations",
        refresh_iterations as f64,
        "count",
    );
}

/// The scenario every repetition runs.
fn builder(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::mega(NODES).rounds(ROUNDS).seed(seed)
}

/// One repetition: build, run, and the timings of both.
struct Rep {
    build_s: f64,
    run_s: f64,
    rounds: Vec<f64>,
    outcome: ScenarioOutcome,
}

fn rep(seed: u64, tracer: &mut Tracer) -> Rep {
    let mut clock = RoundClock::default();
    tracer.span("mega.rep", |tracer| {
        let (scenario, build_s) =
            tracer.span("runner.build", |_| timed(|| builder(seed).build_scenario()));
        if tracer.enabled() {
            let config = builder(seed).build().expect("the mega preset is valid");
            shadow_graph(tracer, &config);
        }
        let mut scenario = scenario.expect("the mega preset is valid");
        let (outcome, run_s) = tracer.span("scenario.run", |tracer| {
            let (outcome, run_s) = timed(|| scenario.run_observed(&mut [&mut clock]));
            clock.record(tracer, now());
            (outcome, run_s)
        });
        Rep {
            build_s,
            run_s,
            rounds: clock.deltas(),
            outcome,
        }
    })
}

/// Runs the workload: `seconds × REPS_PER_SECOND` repetitions, at least
/// [`MIN_REPS`].
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    report.param("nodes", NODES);
    report.param("rounds", ROUNDS);
    report.param("shards", "auto");
    let mut tracer = Tracer::new(false);
    let mut builds = Vec::new();
    let mut runs = Vec::new();
    let mut rounds_ms = Vec::new();
    let mut first_digest = None;
    let mut counts_first = [0u64; 4];
    let mut iterations = 0;
    let reps = ((seconds * REPS_PER_SECOND).ceil() as usize).max(MIN_REPS);
    report.param("reps", reps);
    for i in 1..=reps {
        let r = rep(seed, &mut tracer);
        report.attempted += ROUNDS as u64;
        builds.push(r.build_s);
        runs.push(r.run_s);
        rounds_ms.extend(r.rounds.iter().map(|s| s * 1e3));
        report.check(format!("rep {i} in bounds"), in_bounds(&r.outcome));
        let d = digest(&r.outcome);
        match first_digest {
            None => {
                first_digest = Some(d);
                counts_first = counts(&r.outcome);
                iterations = r.outcome.power.iterations;
            }
            Some(first) => report.check(format!("rep {i} digest"), d == first),
        }
    }
    let throughput = (NODES * ROUNDS) as f64 / med(&runs);
    let per_rep: Vec<String> = runs
        .iter()
        .map(|s| format!("{:.0}", (NODES * ROUNDS) as f64 / s))
        .collect();
    let note = format!(
        "node-rounds/s, median of repetitions [{}]",
        per_rep.join(", ")
    );
    report.e2e(
        "setup_s",
        med(&builds),
        "s",
        format!("build_scenario, n={}", builds.len()),
    );
    report.e2e("throughput_per_s", throughput, "1/s", note.clone());
    report.latency("round", &rounds_ms);
    report.detail("node_rounds_per_s", throughput, "1/s", note);

    if trace {
        tracer.set_enabled(true);
        let r = rep(seed, &mut tracer);
        report.check(
            "traced rep digest",
            Some(digest(&r.outcome)) == first_digest,
        );
        let iterations = iterations as u64;
        scenario_layers(
            &mut report,
            &tracer,
            r.rounds[0] * 1e3,
            counts_first,
            iterations,
        );
        let overhead = r.run_s - med(&runs);
        report.layer("trace.overhead_ms", overhead * 1e3, "ms");
        report.layer("trace.overhead_pct", 100.0 * overhead / med(&runs), "%");
    }
    report.tracer = tracer;
    report
}
