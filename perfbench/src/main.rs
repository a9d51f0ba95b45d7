//! The repository's benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mega_100k|paper_sweep|service_host|service_failover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a fingerprint line, one line per metric, one line per failed
//! output check, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `perfbench/out/`. See README.md.

#![forbid(unsafe_code)]

mod mega;
mod report;
mod service;
mod stats;
mod sweep;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tsn_core::json::JsonValue;

/// The workloads, by the names `BENCHMARK.json` uses.
pub const WORKLOADS: [&str; 4] = [
    "mega_100k",
    "paper_sweep",
    "service_host",
    "service_failover",
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag {flag}")),
        };
        if slot.replace(value.clone()).is_some() {
            return Err(format!("flag {flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = seed
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("invalid --seed: {e}"))?;
    let seconds = match seconds {
        None => 10.0,
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| format!("invalid --seconds {s}: expected a positive number"))?,
    };
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("invalid --trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Hardware threads this process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Online processors as listed by `/proc/cpuinfo` (what `nproc --all`
/// reports), falling back to the available parallelism.
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// Peak resident set size (VmHWM) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's git revision when it is a git checkout.
fn git_revision(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => {
            if let Ok(rev) = std::fs::read_to_string(root.join(".git").join(r)) {
                return Some(rev.trim().to_string());
            }
            let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }
    }
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fingerprint(args: &Args, report: &Report, run_id: &str) -> JsonValue {
    let root = bench_dir().join("..");
    let engine_workers = match args.workload.as_str() {
        // The sharded engine runs at most one worker per hardware thread.
        "mega_100k" => available_parallelism(),
        "paper_sweep" => sweep::threads(),
        // Epoch commits are serial (commit_shards = 1).
        _ => 1,
    };
    let params = report
        .params
        .iter()
        .map(|(k, v)| (k.to_string(), JsonValue::str(v.as_str())));
    JsonValue::object([
        ("run_id", JsonValue::str(run_id)),
        ("workload", JsonValue::str(args.workload.as_str())),
        ("seed", JsonValue::U64(args.seed)),
        ("seconds", JsonValue::F64(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("nproc", JsonValue::from(nproc())),
        (
            "available_parallelism",
            JsonValue::from(available_parallelism()),
        ),
        ("engine_workers", JsonValue::from(engine_workers)),
        (
            "git_revision",
            JsonValue::str(git_revision(&root).unwrap_or_else(|| "unknown".into())),
        ),
        ("params", JsonValue::Object(params.collect())),
    ])
}

fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "mega_100k" => mega::run(args.seed, args.seconds, args.trace),
        "paper_sweep" => sweep::run(args.seed, args.seconds, args.trace),
        "service_host" => service::run_host(args.seed, args.seconds, args.trace),
        _ => service::run_failover(args.seed, args.seconds, args.trace),
    }
}

fn write_trace(
    args: &Args,
    report: &Report,
    run_id: &str,
    fp: JsonValue,
) -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, report.tracer.to_json(run_id, fp).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The final line's `metrics` object: every listed name, in list
/// order. A missing end-to-end metric or a non-finite value is an
/// error; a layer the workload does not exercise reads 0.
fn metrics_json(
    catalogue: &[(&str, &str)],
    measured: &[report::Metric],
    missing_is_zero: bool,
) -> (JsonValue, Vec<String>) {
    let mut errors = Vec::new();
    let fields = catalogue.iter().map(|&(name, unit)| {
        let found = measured.iter().find(|m| m.name == name);
        let value = match found {
            Some(m) if m.value.is_finite() => m.value,
            Some(_) => {
                errors.push(format!("metric {name} is not finite"));
                0.0
            }
            None if missing_is_zero => 0.0,
            None => {
                errors.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        (
            name,
            JsonValue::object([
                ("value", JsonValue::F64(value)),
                ("unit", JsonValue::str(unit)),
            ]),
        )
    });
    let obj = JsonValue::object(fields.collect::<Vec<_>>());
    (obj, errors)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run_id = format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    );
    let mut report = run(&args);
    match peak_rss_mb() {
        Some(mb) => report.e2e("peak_rss_mb", mb, "MB", "VmHWM".into()),
        None => report.check("VmHWM is readable", false),
    }
    let fp = fingerprint(&args, &report, &run_id);
    println!("fingerprint {fp}");
    if args.trace {
        match write_trace(&args, &report, &run_id, fp) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => report.check(format!("trace file written ({e})"), false),
        }
        let spans = report.tracer.spans().len();
        report.layer("trace.spans", spans as f64, "count");
    }
    for (kind, list) in [
        ("end_to_end", &report.end_to_end),
        ("workload", &report.detail),
        ("layer", &report.layers),
    ] {
        for m in list.iter() {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "{kind} {} {} = {} {}{note}",
                args.workload, m.name, m.value, m.unit
            );
        }
    }
    let (metrics, errors) = if args.trace {
        metrics_json(&PER_LAYER, &report.layers, true)
    } else {
        metrics_json(&END_TO_END, &report.end_to_end, false)
    };
    for e in errors {
        report.check(e, false);
    }
    for (name, ok) in &report.checks {
        if !ok {
            println!("CHECK FAILED {} {name}", args.workload);
        }
    }
    let attempted = report.attempted.max(1);
    let failed = report.failed();
    println!(
        "workload {} error_rate = {} 1 (failed {failed} of {attempted}; {} checks)",
        args.workload,
        failed as f64 / attempted as f64,
        report.checks.len()
    );
    let last = JsonValue::object([
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::U64(attempted)),
        ("failed", JsonValue::U64(failed)),
        ("metrics", metrics),
    ]);
    println!("{last}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload paper_sweep --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "paper_sweep".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines_by_name() {
        for (line, needle) in [
            ("--workload nope --seed 1", "unknown workload"),
            ("--workload mega_100k", "--seed is required"),
            ("--workload mega_100k --seed x", "invalid --seed"),
            ("--workload mega_100k --seed 1 --trace 2", "invalid --trace"),
            (
                "--workload mega_100k --seed 1 --seconds 0",
                "invalid --seconds",
            ),
            ("--workload mega_100k --seed 1 --seed 2", "given twice"),
            (
                "--workload mega_100k --seed 1 --bogus 2",
                "unknown flag --bogus",
            ),
            ("--workload mega_100k --seed", "needs a value"),
        ] {
            let err = parse_args(&argv(line)).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json exists");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    rest[..rest.find('"').expect("name closes")].to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("per_layer"), layers);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
    }

    /// Clock reads and every other source file pass the workspace's
    /// determinism linter under the bench scope, with justified pragmas.
    #[test]
    fn sources_are_lint_clean() {
        use tsn_lint::engine::lint_source;
        use tsn_lint::rules::FileScope;
        let src = bench_dir().join("src");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&src)
            .expect("src exists")
            .map(|e| e.expect("readable entry").path())
            .collect();
        files.sort();
        assert!(files.len() >= 6);
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable source");
            let name = format!(
                "perfbench/src/{}",
                file.file_name().expect("a file").to_string_lossy()
            );
            let findings = lint_source(FileScope::Bench, &name, &text);
            assert!(findings.is_empty(), "{name}: {findings:?}");
        }
    }
}
