//! Tier-1 self-test for `tsn-lint` (DESIGN.md §14).
//!
//! Two obligations, both load-bearing:
//!
//! 1. **The workspace is clean.** `lint_workspace` over this repository
//!    must report zero findings and zero unjustified pragmas — the same
//!    gate CI runs via `cargo run -p tsn-lint`.
//! 2. **Every rule actually fires.** For each of the eight shipped
//!    rules, a planted violation must produce exactly the expected
//!    finding; a rule that silently stops matching would otherwise rot
//!    unnoticed behind obligation 1.

use std::path::Path;

use tsn_lint::engine::{classify, lint_source, lint_sources, lint_workspace};
use tsn_lint::lexer::lex;
use tsn_lint::rules::{check_crate_root, check_lockfile, FileScope, Finding, RuleId};

fn rules_fired(findings: &[Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------------
// Obligation 1: the workspace itself is clean.
// ---------------------------------------------------------------------

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace lints");
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: {}: {}", f.path, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        report.is_clean(),
        "tsn-lint found violations in the workspace:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_scanned > 100, "the walk saw the whole tree");
    assert!(
        !report.packages.is_empty(),
        "Cargo.lock package inventory resolved"
    );
}

#[test]
fn workspace_pragmas_all_carry_justifications() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace lints");
    for p in &report.pragmas {
        assert!(
            !p.justification.trim().is_empty(),
            "{}:{}: pragma for {} has an empty justification",
            p.path,
            p.line,
            p.rule.name()
        );
        assert!(
            p.used,
            "{}:{}: stale pragma survived the walk",
            p.path, p.line
        );
    }
    assert_eq!(
        report.suppressed.len(),
        report.pragmas.len(),
        "every recorded pragma suppresses exactly one finding"
    );
}

// ---------------------------------------------------------------------
// Obligation 2: each rule fires on a planted violation.
// ---------------------------------------------------------------------

#[test]
fn rule_hash_iter_fires() {
    let src = r#"
use std::collections::HashMap;
pub fn tally(votes: &HashMap<u32, u32>) -> u32 {
    let mut total = 0;
    for (_, v) in votes.iter() {
        total += v;
    }
    total
}
"#;
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert!(
        rules_fired(&findings).contains(&RuleId::HashIter),
        "planted HashMap iteration not caught: {findings:?}"
    );
}

#[test]
fn rule_hash_iter_spares_test_scope() {
    let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32,u32>) { for k in m.keys() { let _ = k; } }\n";
    assert!(
        lint_source(FileScope::Test, "fixture.rs", src).is_empty(),
        "integration-test scope is exempt from hash-iter"
    );
}

#[test]
fn rule_wall_clock_fires() {
    let src = "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::WallClock]);
    assert_eq!(findings[0].line, 2);
}

#[test]
fn rule_wall_clock_fires_even_in_bench_scope() {
    // Bench code may use wall-clock time, but only behind a visible,
    // justified pragma — the bare call still fires.
    let src = "fn measure() { let _ = std::time::Instant::now(); }\n";
    let findings = lint_source(FileScope::Bench, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::WallClock]);
}

#[test]
fn rule_foreign_rng_fires() {
    let src = "pub fn roll() -> u64 {\n    let x = rand::thread_rng();\n    x\n}\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert!(
        rules_fired(&findings).contains(&RuleId::ForeignRng),
        "planted thread_rng not caught: {findings:?}"
    );
}

#[test]
fn rule_env_read_fires_in_library_code() {
    let src = "pub fn nodes() -> Option<String> {\n    std::env::var(\"NODES\").ok()\n}\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::EnvRead]);
    assert_eq!(findings[0].line, 2);
    let src = "pub fn argc() -> usize {\n    std::env::args_os().count()\n}\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::EnvRead]);
}

#[test]
fn rule_env_read_spares_bins() {
    let src = "fn main() {\n    let _args: Vec<String> = std::env::args().collect();\n    let _home = std::env::var_os(\"HOME\");\n}\n";
    assert!(
        lint_source(FileScope::Bin, "fixture.rs", src).is_empty(),
        "binaries may read the environment"
    );
}

#[test]
fn rule_env_read_honours_a_justified_pragma() {
    let src = "pub fn verbose() -> bool {\n    // tsn-lint: allow(env-read, \"fixture: logging toggle only\")\n    std::env::var_os(\"VERBOSE\").is_some()\n}\n";
    assert!(lint_source(FileScope::Library, "fixture.rs", src).is_empty());
}

#[test]
fn rule_no_unwrap_fires() {
    let src = "pub fn first(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::NoUnwrap]);
    assert_eq!(findings[0].line, 2);
}

#[test]
fn rule_no_unwrap_spares_cfg_test_modules() {
    let src = "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert!(
        lint_source(FileScope::Library, "fixture.rs", src).is_empty(),
        "#[cfg(test)] regions are exempt from no-unwrap"
    );
}

#[test]
fn rule_forbid_unsafe_fires() {
    let bad = lex("//! A crate.\npub fn f() {}\n");
    let finding = check_crate_root("crates/x/src/lib.rs", &bad).expect("missing attribute caught");
    assert_eq!(finding.rule, RuleId::ForbidUnsafe);

    let good = lex("//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n");
    assert!(check_crate_root("crates/x/src/lib.rs", &good).is_none());
}

#[test]
fn rule_workspace_purity_fires() {
    let members = vec!["tsn-core".to_string()];
    let lock = r#"
version = 3

[[package]]
name = "tsn-core"
version = "0.1.0"

[[package]]
name = "serde"
version = "1.0.200"
source = "registry+https://github.com/rust-lang/crates.io-index"
"#;
    let (findings, packages) = check_lockfile(lock, &members);
    assert_eq!(rules_fired(&findings), vec![RuleId::WorkspacePurity]);
    assert!(findings[0].message.contains("serde"));
    assert_eq!(packages.len(), 2, "inventory lists every resolved package");

    let clean = r#"
[[package]]
name = "tsn-core"
version = "0.1.0"
"#;
    let (findings, _) = check_lockfile(clean, &members);
    assert!(findings.is_empty());
}

// ---------------------------------------------------------------------
// orphan-pub: a fixture workspace per case, since callers live in other
// files.
// ---------------------------------------------------------------------

/// Every finding over a fixture workspace, as `(rule, path, line)`.
fn workspace_findings(files: &[(&str, &str)]) -> Vec<(RuleId, String, usize)> {
    lint_sources(files)
        .into_iter()
        .map(|f| (f.rule, f.path, f.line))
        .collect()
}

fn orphan(path: &str, line: usize) -> (RuleId, String, usize) {
    (RuleId::OrphanPub, path.to_string(), line)
}

const UTIL: &str = "crates/a/src/util.rs";

#[test]
fn rule_orphan_pub_flags_an_item_with_no_caller() {
    let src = "pub fn lonely() {}\npub(crate) fn internal() {}\npub mod nested {}\n";
    assert_eq!(workspace_findings(&[(UTIL, src)]), vec![orphan(UTIL, 1)]);
}

#[test]
fn rule_orphan_pub_ignores_callers_in_its_own_cfg_test() {
    let src = "pub fn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::helper(); }\n}\n";
    assert_eq!(workspace_findings(&[(UTIL, src)]), vec![orphan(UTIL, 1)]);
}

#[test]
fn rule_orphan_pub_ignores_pub_use_reexports() {
    let root = "#![forbid(unsafe_code)]\npub mod util;\npub use util::exported;\n";
    let files = [
        ("crates/a/src/lib.rs", root),
        (UTIL, "pub fn exported() {}\n"),
    ];
    assert_eq!(workspace_findings(&files), vec![orphan(UTIL, 1)]);
}

#[test]
fn rule_orphan_pub_flags_helpers_only_orphans_call() {
    let src = "pub fn outer() {\n    inner();\n}\npub fn inner() {}\n";
    let expected = vec![orphan(UTIL, 1), orphan(UTIL, 4)];
    assert_eq!(workspace_findings(&[(UTIL, src)]), expected);
}

#[test]
fn rule_orphan_pub_flags_methods_of_an_orphan_type() {
    // `new` is a live name (`Live::new` has a caller), but a method of a
    // type nothing names cannot be reached.
    let files = [
        (
            UTIL,
            "pub struct Ghost;\nimpl Ghost {\n    pub fn new() -> Self { Ghost }\n}\n",
        ),
        (
            "crates/b/src/live.rs",
            "pub struct Live;\nimpl Live {\n    pub fn new() -> Self { Live }\n}\n",
        ),
        ("tests/it.rs", "fn t() { let _ = b::live::Live::new(); }\n"),
    ];
    let expected = vec![orphan(UTIL, 1), orphan(UTIL, 3)];
    assert_eq!(workspace_findings(&files), expected);
}

#[test]
fn rule_orphan_pub_spares_callers_elsewhere() {
    let callers = [
        (
            "crates/a/src/other.rs",
            "fn user() { crate::util::shared(); }\n",
        ),
        ("tests/it.rs", "fn t() { a::util::shared(); }\n"),
        // Read for callers only: perfbench's wall-clock timing is not linted.
        (
            "perfbench/src/main.rs",
            "fn main() {\n    let _t = std::time::Instant::now();\n    a::util::shared();\n}\n",
        ),
    ];
    for caller in callers {
        let files = [(UTIL, "pub fn shared() {}\n"), caller];
        assert!(
            workspace_findings(&files).is_empty(),
            "{} not seen",
            caller.0
        );
    }
}

#[test]
fn rule_orphan_pub_misses_an_orphan_sharing_a_live_name() {
    // Matching is by name: the uncalled `twin` in `two.rs` stays hidden
    // behind the called one in `one.rs` (a documented false negative).
    let files = [
        ("crates/a/src/one.rs", "pub fn twin() {}\n"),
        ("crates/b/src/two.rs", "pub fn twin() {}\n"),
        ("tests/it.rs", "fn t() { a::one::twin(); }\n"),
    ];
    assert!(workspace_findings(&files).is_empty());
}

#[test]
fn rule_orphan_pub_honours_a_justified_pragma() {
    let src = "// tsn-lint: allow(orphan-pub, \"fixture: intended API\")\npub fn reserved() {}\n";
    assert!(workspace_findings(&[(UTIL, src)]).is_empty());
}

// ---------------------------------------------------------------------
// Pragma semantics: suppression needs a justification, and the
// justification must target the right rule.
// ---------------------------------------------------------------------

#[test]
fn justified_pragma_suppresses() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n    // tsn-lint: allow(no-unwrap, \"fixture: slice is non-empty by contract\")\n    *v.first().unwrap()\n}\n";
    assert!(lint_source(FileScope::Library, "fixture.rs", src).is_empty());
}

#[test]
fn pragma_without_justification_is_itself_a_violation() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n    // tsn-lint: allow(no-unwrap)\n    *v.first().unwrap()\n}\n";
    let fired = rules_fired(&lint_source(FileScope::Library, "fixture.rs", src));
    assert!(
        fired.contains(&RuleId::PragmaHygiene),
        "bare pragma accepted: {fired:?}"
    );
    assert!(
        fired.contains(&RuleId::NoUnwrap),
        "bare pragma must not suppress"
    );
}

#[test]
fn stale_pragma_is_flagged() {
    let src = "// tsn-lint: allow(no-unwrap, \"nothing here needs it\")\npub fn f() {}\n";
    let fired = rules_fired(&lint_source(FileScope::Library, "fixture.rs", src));
    assert_eq!(fired, vec![RuleId::PragmaHygiene]);
}

#[test]
fn wrong_rule_pragma_does_not_suppress() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n    // tsn-lint: allow(wall-clock, \"fixture: misdirected\")\n    *v.first().unwrap()\n}\n";
    let fired = rules_fired(&lint_source(FileScope::Library, "fixture.rs", src));
    assert!(fired.contains(&RuleId::NoUnwrap));
    assert!(
        fired.contains(&RuleId::PragmaHygiene),
        "misdirected pragma is stale"
    );
}

// ---------------------------------------------------------------------
// Lexer discipline: rules must only ever see the code channel.
// ---------------------------------------------------------------------

#[test]
fn violations_in_comments_and_strings_do_not_fire() {
    let src = concat!(
        "//! Discusses Instant::now() and .unwrap() at length.\n",
        "/* block comment: thread_rng() /* nested: SystemTime */ still comment */\n",
        "pub fn f() -> &'static str {\n",
        "    \"Instant::now() inside a string\"\n",
        "}\n",
        "pub fn g() -> &'static str {\n",
        "    r#\"raw string with .unwrap() and \"quotes\" inside\"#\n",
        "}\n",
    );
    assert!(
        lint_source(FileScope::Library, "fixture.rs", src).is_empty(),
        "literal/comment channel leaked into the rules"
    );
}

#[test]
fn line_comment_marker_inside_string_stays_code() {
    // `//` inside a string must not comment out the rest of the line —
    // the violation after it still fires.
    let src = "pub fn f() { let _ = (\"https://x\", std::time::Instant::now()); }\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::WallClock]);
}

// ---------------------------------------------------------------------
// Scope classification: the walk maps paths to the right rule sets.
// ---------------------------------------------------------------------

#[test]
fn classify_maps_paths_to_scopes() {
    assert_eq!(classify("crates/core/src/trust.rs"), FileScope::Library);
    assert_eq!(classify("crates/bench/src/harness.rs"), FileScope::Bench);
    assert_eq!(
        classify("crates/bench/benches/service.rs"),
        FileScope::Bench
    );
    assert_eq!(classify("tests/lint.rs"), FileScope::Test);
    assert_eq!(classify("examples/mega_scale.rs"), FileScope::Example);
    assert_eq!(classify("src/bin/tsn.rs"), FileScope::Bin);
}
