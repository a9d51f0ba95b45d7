//! # tsn-lint — determinism & soundness linter for the tsn workspace
//!
//! Every guarantee this reproduction makes — streaming == batch,
//! shard-count invariance, crash-recover-then-continue and replica
//! failover all bit-identical — rests on conventions that `rustc`
//! does not check: all randomness through seeded `SimRng` streams, no
//! iteration over hash collections, no wall-clock reads in replayed
//! code, no implied crash paths in library crates, no external
//! dependencies. This crate turns those conventions into
//! machine-enforceable rules (DESIGN.md §14): a small Rust lexer
//! ([`lexer`]) separates code from comments and literals, a rule set
//! ([`rules`]) matches violation patterns against the code channel,
//! and per-line justification pragmas ([`pragma`]) provide the audited
//! escape hatch.
//!
//! ## Running
//!
//! ```text
//! cargo run -p tsn-lint            # human-readable diagnostics
//! cargo run -p tsn-lint -- --json  # machine-readable report
//! ```
//!
//! The process exits `0` when the workspace is clean, `1` when any
//! finding is live, `2` on usage or I/O errors. `tests/lint.rs` keeps
//! the workspace clean in CI and self-tests every rule against planted
//! violations, so the rule set itself cannot silently rot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
mod orphan;
pub mod pragma;
pub mod report;
pub mod rules;

pub use engine::{lint_source, lint_sources, lint_workspace, LintReport, PragmaRecord, Suppressed};
pub use lexer::{lex, LexedFile};
pub use pragma::{parse_line, Pragma, PragmaError};
pub use report::{render_json, render_text};
pub use rules::{check_crate_root, check_lockfile, FileScope, Finding, LockPackage, RuleId};
