//! `paper_sweep`: the paper's experiment grid (every mechanism × every
//! disclosure level × 8 seeds, 100 users, 25 rounds), once static and
//! once with the peer-sampling overlay and a split-then-heal partition,
//! on `SweepRunner::with_threads(2)`.
//!
//! The grid runs one seed at a time: one unit is the static and the
//! overlay grid of one seed (50 cells), and its wall time is the
//! workload's latency sample. A pass is all 8 seeds.

use crate::mega::{counts, in_bounds, scenario_layers, shadow_graph, RoundClock};
use crate::report::{med, Report};
use crate::trace::{now, timed, Tracer};
use tsn_core::runner::{ScenarioBuilder, SweepCellResult, SweepGrid, SweepReport, SweepRunner};

const SEEDS: u64 = 8;
/// Passes over the 8 seed units per second of `--seconds`: a pass takes
/// about 1.4 s on the 2-core reference machine. Fixed by `--seconds`
/// alone, so every run measures the same cells.
const PASSES_PER_SECOND: f64 = 0.7;
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Sweep threads: two, or fewer on a machine with fewer.
pub fn threads() -> usize {
    THREADS.min(crate::available_parallelism())
}

/// The two variants of one seed's grid.
fn grids(seed: u64) -> [SweepGrid; 2] {
    let grid = |base: ScenarioBuilder| SweepGrid::over(base).all_mechanisms().all_disclosures();
    [
        grid(ScenarioBuilder::experiment(seed)),
        grid(
            ScenarioBuilder::experiment(seed)
                .with_peer_sampling()
                .split_then_heal(8, 16),
        ),
    ]
}

/// The 8 seeds of one run, derived from the workload seed.
fn seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS)
        .map(|i| seed.wrapping_mul(SEEDS).wrapping_add(i))
        .collect()
}

fn cell_in_bounds(c: &SweepCellResult) -> bool {
    let f = c.facets;
    [
        f.privacy,
        f.reputation,
        f.satisfaction,
        c.trust,
        c.respect_rate,
        c.denial_rate,
        c.oecd_score,
        c.mean_willingness,
    ]
    .iter()
    .all(|v| (0.0..=1.0).contains(v))
}

fn run_grid(runner: &SweepRunner, grid: &SweepGrid) -> SweepReport {
    runner.run(grid).expect("the experiment grid is valid")
}

/// Runs the workload: `seconds × PASSES_PER_SECOND` passes over the
/// seeds, at least one.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let threads = threads();
    let runner = SweepRunner::with_threads(threads);
    let seeds = seeds(seed);
    report.param("base", "experiment: 100 users, 25 rounds");
    report.param("cells", 2 * SEEDS as usize * grids(0)[0].len());
    report.param("seeds", format!("{seeds:?}"));
    report.param("sweep_threads", threads);

    // Set-up: build the grids and warm up on the first seed's unit.
    let mut setups = Vec::new();
    let mut units: Vec<[SweepGrid; 2]> = Vec::new();
    for _ in 0..SETUPS {
        let (built, s) = timed(|| {
            let built: Vec<[SweepGrid; 2]> = seeds.iter().map(|&s| grids(s)).collect();
            for g in &built[0] {
                run_grid(&runner, g);
            }
            built
        });
        setups.push(s);
        units = built;
    }
    report.e2e(
        "setup_s",
        med(&setups),
        "s",
        format!("grids + warm-up unit, median of {SETUPS}"),
    );

    let mut unit_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut cells = 0usize;
    let mut first_pass: Vec<[SweepReport; 2]> = Vec::new();
    let passes = ((seconds * PASSES_PER_SECOND).ceil() as usize).max(1);
    report.param("passes", passes);
    for _ in 0..passes {
        let mut pass = 0.0;
        for (u, pair) in units.iter().enumerate() {
            let (reports, s) = timed(|| [run_grid(&runner, &pair[0]), run_grid(&runner, &pair[1])]);
            unit_s.push(s);
            pass += s;
            for r in &reports {
                cells += r.cells.len();
                let ok = r.cells.iter().all(cell_in_bounds);
                report.check(format!("unit {u} cells in bounds"), ok);
            }
            if first_pass.len() < units.len() {
                first_pass.push(reports);
            } else {
                report.check(format!("unit {u} repeats"), reports == first_pass[u]);
            }
        }
        pass_s.push(pass);
    }
    report.attempted = cells as u64;
    let pass_cells = cells / passes;
    let throughput = pass_cells as f64 / med(&pass_s);
    let note = format!("cells/s, median of {passes} passes of {pass_cells} cells");
    report.e2e("throughput_per_s", throughput, "1/s", note.clone());
    let unit_ms: Vec<f64> = unit_s.iter().map(|s| s * 1e3).collect();
    report.latency("seed unit of 50 cells", &unit_ms);
    report.detail("cells_per_s", throughput, "1/s", note);

    let mut tracer = Tracer::new(trace);
    if trace {
        traced(
            &mut report,
            &mut tracer,
            &runner,
            &units,
            &first_pass,
            med(&unit_s),
        );
    }
    report.tracer = tracer;
    report
}

/// The traced pass: the runner at 1 and at `threads` threads on every
/// unit, then every cell on its own with round hooks.
fn traced(
    report: &mut Report,
    tracer: &mut Tracer,
    runner: &SweepRunner,
    units: &[[SweepGrid; 2]],
    first_pass: &[[SweepReport; 2]],
    untraced_unit_s: f64,
) {
    let serial = SweepRunner::serial();
    let (mut t_parallel, mut t_serial) = (0.0, 0.0);
    let mut traced_units = Vec::new();
    for (u, pair) in units.iter().enumerate() {
        let mut unit = 0.0;
        for (v, grid) in pair.iter().enumerate() {
            let (par, s) = tracer.span("runner.sweep", |_| timed(|| run_grid(runner, grid)));
            t_parallel += s;
            unit += s;
            let (ser, s) =
                tracer.shadow("runner.sweep_serial", || timed(|| run_grid(&serial, grid)));
            t_serial += s;
            report.check(format!("unit {u}/{v} serial == parallel"), ser == par);
            report.check(
                format!("unit {u}/{v} traced == untraced"),
                par == first_pass[u][v],
            );
        }
        traced_units.push(unit);
    }
    report.layer("runner.sweep_speedup", t_serial / t_parallel, "x");

    let mut cell_ms = [Vec::new(), Vec::new()];
    let mut totals = [0u64; 4];
    let mut iterations = 0u64;
    let mut first_rounds = Vec::new();
    for pair in units {
        for (v, grid) in pair.iter().enumerate() {
            for cell in grid.cells() {
                let config = grid.config_for(&cell);
                let (outcome, s) = tracer.span("scenario.cell", |tracer| {
                    timed(|| {
                        let built = tracer.span("runner.build", |_| {
                            ScenarioBuilder::from_config(config.clone()).build_scenario()
                        });
                        let mut scenario = built.expect("grid cells are valid");
                        let mut clock = RoundClock::default();
                        let outcome = tracer.span("scenario.run", |tracer| {
                            let outcome = scenario.run_observed(&mut [&mut clock]);
                            clock.record(tracer, now());
                            outcome
                        });
                        first_rounds.push(clock.deltas()[0]);
                        outcome
                    })
                });
                shadow_graph(tracer, &config);
                cell_ms[v].push(s * 1e3);
                report.check("observed cell in bounds", in_bounds(&outcome));
                for (t, c) in totals.iter_mut().zip(counts(&outcome)) {
                    *t += c;
                }
                iterations += outcome.power.iterations as u64;
            }
        }
    }
    scenario_layers(report, tracer, med(&first_rounds) * 1e3, totals, iterations);
    report.layer("scenario.cell_ms.static", med(&cell_ms[0]), "ms");
    report.layer("scenario.cell_ms.overlay", med(&cell_ms[1]), "ms");
    let overhead = med(&traced_units) - untraced_unit_s;
    report.layer("trace.overhead_ms", overhead * 1e3, "ms");
    report.layer(
        "trace.overhead_pct",
        100.0 * overhead / untraced_unit_s,
        "%",
    );
}
