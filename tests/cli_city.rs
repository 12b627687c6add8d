//! Misuse battery of the `hansim city` subcommand.
//!
//! The CLI face of the city layer's contract (byte identity across
//! worker counts lives in `cli_city_mp.rs`):
//!
//! 1. `--engine` is rejected with the typed `CliError::Invalid` message —
//!    the city always runs the round loop, so offering the flag would be
//!    a lie.
//! 2. `--shards` is gone: the city has one execution path, and the flag
//!    fails as an unknown flag.
//! 3. Misuse (zero feeders, malformed counts) fails through the typed
//!    error path with a non-zero exit and a one-line `error:` diagnostic
//!    — never a panic backtrace.

mod common;

use common::hansim;

#[test]
fn engine_flag_is_rejected_with_a_typed_error() {
    // The city has no engine choice to offer; the flag must fail loudly
    // through CliError::Invalid rather than being silently ignored.
    let out = hansim(&["city", "--engine", "event"]);
    assert!(
        !out.status.success(),
        "--engine must be rejected in city mode"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: bad value 'event' for --engine"),
        "expected the typed CliError::Invalid diagnostic, got: {stderr}"
    );
    assert!(
        stderr.contains("no --engine in city mode"),
        "the diagnostic must say why the flag does not apply: {stderr}"
    );
}

#[test]
fn zero_feeders_is_a_typed_scenario_error() {
    for args in [
        &["city", "--feeders", "0"][..],
        &["city", "--homes-per-feeder", "0"][..],
    ] {
        let out = hansim(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: city must contain at least one feeder"),
            "expected the EmptyCity diagnostic for {args:?}, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "misuse must not panic: {stderr}"
        );
    }
}

#[test]
fn shards_flag_is_rejected_as_unknown() {
    // The city has one execution path, so there is no shard count left
    // to set; the old flag fails through CliError::UnknownFlag.
    let out = hansim(&["city", "--feeders", "2", "--shards", "2"]);
    assert!(!out.status.success(), "--shards must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: unknown flag '--shards'"),
        "expected the typed unknown-flag diagnostic, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "misuse must not panic: {stderr}"
    );
}

#[test]
fn malformed_counts_fail_through_the_usage_path() {
    for (flag, value) in [
        ("--feeders", "many"),
        ("--homes-per-feeder", "-1"),
        ("--substation-fanin", "2.5"),
    ] {
        let out = hansim(&["city", flag, value]);
        assert!(!out.status.success(), "{flag} {value} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: bad value '{value}' for {flag}")),
            "expected a typed diagnostic for {flag} {value}, got: {stderr}"
        );
    }
}
