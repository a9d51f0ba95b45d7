//! Workspace discovery and rule orchestration.
//!
//! The engine walks the workspace's own sources (member `src/` and
//! `benches/` trees, the facade `src/`, root `tests/` and `examples/`),
//! lexes each file, applies the line rules under the file's scope,
//! honours justification pragmas, and layers on the three
//! workspace-level rules (crate-root `forbid-unsafe`, `orphan-pub` over
//! every file plus `perfbench/src`, `Cargo.lock` purity). Everything
//! is deterministic: files are visited in sorted order and findings are
//! reported in `(path, line, rule)` order.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, LexedFile};
use crate::orphan::orphan_pub;
use crate::pragma::{parse_line, Pragma};
use crate::rules::{
    check_crate_root, check_lockfile, run_file_rules, toml_str_value, FileScope, Finding,
    LockPackage, RuleId,
};

/// A pragma together with its resolved target line and usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaRecord {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line the pragma comment appears on.
    pub line: usize,
    /// The rule it suppresses.
    pub rule: RuleId,
    /// The written justification.
    pub justification: String,
    /// Whether it actually suppressed a finding this run.
    pub used: bool,
}

/// A finding that was suppressed by a justified pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// The suppressed finding.
    pub finding: Finding,
    /// The pragma's justification.
    pub justification: String,
}

/// The result of linting a workspace.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Workspace root the scan ran against.
    pub root: PathBuf,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Live violations (pragma-suppressed ones excluded).
    pub findings: Vec<Finding>,
    /// Findings suppressed by justified pragmas.
    pub suppressed: Vec<Suppressed>,
    /// Every justified pragma seen, with usage.
    pub pragmas: Vec<PragmaRecord>,
    /// Workspace member package names (from the member manifests).
    pub members: Vec<String>,
    /// The resolved `Cargo.lock` package list (the dependency audit
    /// surface — diffable PR-over-PR from the JSON report).
    pub packages: Vec<LockPackage>,
}

impl LintReport {
    /// True when the workspace is clean: no findings (a stale or
    /// malformed pragma is itself a `pragma-hygiene` finding).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml` and `Cargo.lock`).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let manifest = read_named(&root.join("Cargo.toml"))?;
    let member_dirs = parse_members(&manifest);
    let mut members = Vec::new();
    // The facade package lives at the root itself.
    if let Some(name) = package_name(&manifest) {
        members.push(name);
    }
    for dir in &member_dirs {
        let m = read_named(&root.join(dir).join("Cargo.toml"))?;
        if let Some(name) = package_name(&m) {
            members.push(name);
        }
    }
    members.sort();

    // ---- file inventory ------------------------------------------------
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in member_dirs.iter().map(|d| d.as_str()).chain(["."]) {
        for sub in ["src", "benches"] {
            let base = root.join(dir).join(sub);
            if base.is_dir() {
                collect_rs_files(&base, &mut files)?;
            }
        }
    }
    // perfbench is a separate package, read for callers only.
    for sub in ["tests", "examples", "perfbench/src"] {
        let base = root.join(sub);
        if base.is_dir() {
            collect_rs_files(&base, &mut files)?;
        }
    }
    files.sort();
    files.dedup();

    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        sources.push((relative_to(file, root), read_named(file)?));
    }
    let mut report = lint_files(&sources);
    report.root = root.to_path_buf();
    report.members = members;

    // ---- workspace-level: Cargo.lock purity ----------------------------
    let lock_text = read_named(&root.join("Cargo.lock"))?;
    let (lock_findings, packages) = check_lockfile(&lock_text, &report.members);
    report.findings.extend(lock_findings);
    report.packages = packages;

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report.suppressed.sort_by(|a, b| {
        (&a.finding.path, a.finding.line, a.finding.rule).cmp(&(
            &b.finding.path,
            b.finding.line,
            b.finding.rule,
        ))
    });
    Ok(report)
}

/// `fs::read_to_string` with the failing path in the error message —
/// "No such file or directory" alone is useless in CI logs.
fn read_named(path: &Path) -> io::Result<String> {
    fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Lints a single source snippet under a given scope — the fixture
/// entry point used by the self-tests (`tests/lint.rs`) to prove each
/// rule fires on a planted violation. Pragma semantics are identical
/// to the workspace walk.
pub fn lint_source(scope: FileScope, name: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut findings = run_file_rules(scope, name, &lexed, &raw_lines);
    pragma_pass(name, &lexed, &raw_lines, &mut findings);
    findings.sort_by_key(|a| (a.line, a.rule));
    findings
}

/// Lints in-memory sources as one workspace: each file's rules under
/// the scope its path implies ([`classify`]), plus `orphan-pub` across
/// all of them. Files under `perfbench/` are read for callers only.
/// The fixture entry point for the workspace-level rules.
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Finding> {
    let mut findings = lint_files(sources).findings;
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Runs every source-level rule over `(path, source)` pairs and applies
/// each linted file's pragmas. The report's root, members and packages
/// are left for the caller.
fn lint_files<P: AsRef<str>, S: AsRef<str>>(sources: &[(P, S)]) -> LintReport {
    let linted = |path: &str| !path.starts_with("perfbench/");
    let indexed = |path: &str| linted(path) && classify(path) == FileScope::Library;
    let lexed: Vec<LexedFile> = sources.iter().map(|(_, s)| lex(s.as_ref())).collect();
    let index: Vec<(&str, &LexedFile, bool)> = sources
        .iter()
        .zip(&lexed)
        .map(|((path, _), l)| (path.as_ref(), l, indexed(path.as_ref())))
        .collect();
    let orphans = orphan_pub(&index);

    let mut report = LintReport {
        root: PathBuf::new(),
        files_scanned: 0,
        findings: Vec::new(),
        suppressed: Vec::new(),
        pragmas: Vec::new(),
        members: Vec::new(),
        packages: Vec::new(),
    };
    for ((path, source), lexed) in sources.iter().zip(&lexed) {
        let (path, source) = (path.as_ref(), source.as_ref());
        if !linted(path) {
            continue;
        }
        report.files_scanned += 1;
        let raw_lines: Vec<&str> = source.lines().collect();
        let mut file_findings = run_file_rules(classify(path), path, lexed, &raw_lines);
        if is_crate_root(path) {
            file_findings.extend(check_crate_root(path, lexed));
        }
        file_findings.extend(orphans.iter().filter(|f| f.path == path).cloned());
        let (mut sup, mut recs) = pragma_pass(path, lexed, &raw_lines, &mut file_findings);
        report.suppressed.append(&mut sup);
        report.pragmas.append(&mut recs);
        report.findings.append(&mut file_findings);
    }
    report
}

/// The shared pragma pass: parses pragmas out of the comment channel,
/// reports malformed ones, suppresses matching findings, and flags
/// stale pragmas. `findings` is filtered in place; the suppressed
/// findings and the full pragma inventory are returned.
fn pragma_pass(
    path: &str,
    lexed: &LexedFile,
    raw_lines: &[&str],
    findings: &mut Vec<Finding>,
) -> (Vec<Suppressed>, Vec<PragmaRecord>) {
    let snippet_at = |line: usize| -> String {
        raw_lines
            .get(line - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let mut pragmas: Vec<(Pragma, Option<usize>, bool)> = Vec::new();
    for (idx, comment) in lexed.comment.iter().enumerate() {
        if comment.is_empty() {
            continue;
        }
        let (parsed, errors) = parse_line(comment, idx + 1);
        for e in errors {
            findings.push(Finding {
                rule: RuleId::PragmaHygiene,
                path: path.to_string(),
                line: e.line,
                message: e.message,
                snippet: snippet_at(e.line),
            });
        }
        for p in parsed {
            let target = pragma_target(lexed, idx);
            pragmas.push((p, target, false));
        }
    }

    let mut suppressed = Vec::new();
    findings.retain(|f| {
        if f.rule == RuleId::PragmaHygiene {
            return true;
        }
        let suppressor = pragmas
            .iter_mut()
            .find(|(p, target, _)| p.rule == f.rule && *target == Some(f.line));
        match suppressor {
            Some((p, _, used)) => {
                *used = true;
                suppressed.push(Suppressed {
                    finding: f.clone(),
                    justification: p.justification.clone(),
                });
                false
            }
            None => true,
        }
    });

    // A pragma that suppressed nothing is stale — the pattern it
    // excused is gone, so the excuse must go too.
    let mut records = Vec::new();
    for (p, _, used) in &pragmas {
        if !used {
            findings.push(Finding {
                rule: RuleId::PragmaHygiene,
                path: path.to_string(),
                line: p.line,
                message: format!(
                    "stale pragma: allow({}) suppresses nothing on its target line — \
                     remove it",
                    p.rule.name()
                ),
                snippet: snippet_at(p.line),
            });
        }
        records.push(PragmaRecord {
            path: path.to_string(),
            line: p.line,
            rule: p.rule,
            justification: p.justification.clone(),
            used: *used,
        });
    }
    (suppressed, records)
}

/// Resolves which line a pragma on line `idx + 1` suppresses: its own
/// line when it shares it with code, else the next line that has code.
fn pragma_target(lexed: &LexedFile, idx: usize) -> Option<usize> {
    if !lexed.code[idx].trim().is_empty() {
        return Some(idx + 1);
    }
    lexed
        .code
        .iter()
        .enumerate()
        .skip(idx + 1)
        .find(|(_, c)| !c.trim().is_empty())
        .map(|(i, _)| i + 1)
}

/// Recursively collects `.rs` files, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators.
fn relative_to(file: &Path, root: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scope classification by workspace-relative path (see [`FileScope`]).
pub fn classify(rel: &str) -> FileScope {
    if rel.starts_with("crates/bench/") {
        FileScope::Bench
    } else if rel.starts_with("tests/") {
        FileScope::Test
    } else if rel.starts_with("examples/") {
        FileScope::Example
    } else if rel.contains("/src/bin/")
        || rel.starts_with("src/bin/")
        || rel.ends_with("/src/main.rs")
    {
        FileScope::Bin
    } else {
        FileScope::Library
    }
}

/// Is this file a crate root (`src/lib.rs` of a member or the facade)?
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// Parses the `members = [ … ]` list out of the workspace manifest.
fn parse_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with("members") && line.contains('[') {
            in_members = !line.contains(']');
            if !in_members {
                collect_quoted(line, &mut members);
            }
            continue;
        }
        if in_members {
            if line.starts_with(']') {
                in_members = false;
            } else {
                collect_quoted(line, &mut members);
            }
        }
    }
    members
}

/// Pulls every `"quoted"` string out of a line.
fn collect_quoted(line: &str, out: &mut Vec<String>) {
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        out.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
}

/// The `name = "…"` under `[package]` in a manifest.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(name) = toml_str_value(line, "name") {
                return Some(name);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes() {
        assert_eq!(classify("crates/core/src/scenario.rs"), FileScope::Library);
        assert_eq!(classify("crates/bench/src/harness.rs"), FileScope::Bench);
        assert_eq!(
            classify("crates/bench/benches/service.rs"),
            FileScope::Bench
        );
        assert_eq!(classify("src/lib.rs"), FileScope::Library);
        assert_eq!(classify("src/bin/tsn-cli.rs"), FileScope::Bin);
        assert_eq!(classify("crates/lint/src/main.rs"), FileScope::Bin);
        assert_eq!(classify("tests/lint.rs"), FileScope::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileScope::Example);
    }

    #[test]
    fn trailing_pragma_suppresses_its_own_line() {
        let src = "fn f() {\n    x.unwrap(); // tsn-lint: allow(no-unwrap, \"checked\")\n}\n";
        let f = lint_source(FileScope::Library, "fx.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn standalone_pragma_suppresses_next_code_line() {
        let src = "fn f() {\n    // tsn-lint: allow(no-unwrap, \"checked\")\n    x.unwrap();\n}\n";
        let f = lint_source(FileScope::Library, "fx.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn stale_pragma_is_flagged() {
        let src =
            "fn f() {\n    // tsn-lint: allow(no-unwrap, \"nothing here\")\n    let x = 1;\n}\n";
        let f = lint_source(FileScope::Library, "fx.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::PragmaHygiene);
        assert!(f[0].message.contains("stale pragma"));
    }

    #[test]
    fn pragma_for_wrong_rule_does_not_suppress() {
        let src = "fn f() {\n    x.unwrap(); // tsn-lint: allow(wall-clock, \"wrong rule\")\n}\n";
        let f = lint_source(FileScope::Library, "fx.rs", src);
        // The unwrap stays live and the pragma is stale: two findings.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|f| f.rule == RuleId::NoUnwrap));
        assert!(f.iter().any(|f| f.rule == RuleId::PragmaHygiene));
    }

    #[test]
    fn parse_members_and_package_name() {
        let manifest = "[workspace]\nmembers = [\n    \"crates/a\",\n    \"crates/b\",\n]\n\n[package]\nname = \"root\"\n";
        assert_eq!(parse_members(manifest), vec!["crates/a", "crates/b"]);
        assert_eq!(package_name(manifest), Some("root".to_string()));
    }
}
