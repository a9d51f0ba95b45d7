//! The `tsn-cli` flag contract: every subcommand declares its flags, and
//! an unknown, repeated or valueless flag exits 1 with an error that
//! names the flag instead of silently falling back to a default.

use std::process::{Command, Output};

/// Runs `tsn-cli` with a whitespace-separated command line, inside the
/// test scratch directory (so checkpoint files land there).
fn cli(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsn-cli"))
        .args(line.split_whitespace())
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("tsn-cli runs")
}

/// Asserts the invocation exits 1 and its error names `flag`.
fn rejects(line: &str, flag: &str) {
    let out = cli(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{line}: must exit 1: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(flag),
        "{line}: error must name {flag}: {stderr}"
    );
}

/// Asserts the invocation succeeds and returns its stdout and stderr.
fn accepts(line: &str) -> (String, String) {
    let out = cli(line);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{line}: failed: {stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

#[test]
fn unknown_flag_is_an_error() {
    rejects("scenario --node 7 --rounds 2", "--node");
    // Flags are per subcommand: a `serve` flag means nothing to `sweep`.
    rejects("sweep --epochs 2", "--epochs");
    rejects("dynamics --json", "--json");
}

#[test]
fn duplicated_flag_is_an_error() {
    rejects("scenario --nodes 8 --nodes 9", "--nodes");
    rejects("serve --json --json", "--json");
}

#[test]
fn valueless_flag_is_an_error() {
    rejects("scenario --rounds 2 --nodes", "--nodes");
    // A value that looks like the next flag counts as missing.
    rejects("scenario --nodes --rounds 2", "--nodes");
    rejects("replay --checkpoint", "--checkpoint");
}

#[test]
fn counts_the_command_cannot_honour_are_errors() {
    rejects("sweep --nodes 12 --rounds 1 --threads 0", "--threads");
    rejects("scenario --nodes 12 --rounds 2 --progress 0", "--progress");
    rejects("serve --nodes 20 --epochs 1 --replicas 0", "--replicas");
    // Killing the primary needs a follower to promote.
    rejects(
        "serve --nodes 20 --epochs 1 --replicas 1 --kill-primary-at 30",
        "--kill-primary-at",
    );
}

#[test]
fn size_inputs_past_their_bounds_are_errors() {
    rejects("scenario --nodes 18446744073709551615 --rounds 1", "nodes");
    rejects(
        "scenario --nodes 10 --rounds 18446744073709551615",
        "rounds",
    );
    rejects("serve --nodes 18446744073709551615 --epochs 1", "nodes");
}

#[test]
fn rate_and_view_inputs_past_their_bounds_are_errors() {
    rejects(
        "serve --nodes 10 --epochs 1 --arrivals 1e300",
        "arrival_rate",
    );
    rejects(
        "scenario --nodes 10 --rounds 2 --view-size 18446744073709551615",
        "view_size",
    );
    rejects(
        "serve --nodes 10 --epochs 1 --view-size 18446744073709551615",
        "view_size",
    );
}

#[test]
fn kill_primary_alone_runs_two_replicas() {
    let (_, err) = accepts("serve --nodes 20 --epochs 2 --seed 3 --kill-primary-at 30");
    assert!(err.contains("replica set: 2 members"), "{err}");
}

#[test]
fn every_subcommand_accepts_its_flags() {
    let (out, _) = accepts("scenario --nodes 12 --rounds 2 --json");
    assert!(out.contains("\"global_trust\""), "{out}");
    let (out, _) = accepts("sweep --nodes 12 --rounds 1 --threads 1 --csv");
    // Header plus one row per cell of the 5 x 5 x 3 grid.
    assert_eq!(out.lines().count(), 1 + 75, "{out}");
    let (out, _) = accepts("dynamics --honest 0.8 --eta 0.2");
    assert!(out.contains("fixed point"), "{out}");
    let (out, _) = accepts("serve --nodes 20 --epochs 2 --seed 3 --checkpoint cli.tsnc");
    assert!(out.contains("2 epochs committed"), "{out}");
    let (_, err) = accepts("replay --checkpoint cli.tsnc --seed 3 --epochs 1 --verify");
    assert!(err.contains("bit-identical"), "{err}");
}
