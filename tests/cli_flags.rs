//! The shared scenario-flag grammar of `hansim`, batch, `serve` and
//! `city` alike.
//!
//! Every mode reads its scenario flags through one parser, so each case
//! below runs once per mode and must fail (or succeed) the same way:
//!
//! 1. A malformed scenario flag gives the same typed diagnostic in every
//!    mode — `--minutes x`, a trailing `--seed` with no value,
//!    `--cp lossy:x`, and a `--minutes` whose microseconds overflow the
//!    u64 simulated clock.
//! 2. A flag that belongs to another mode fails as an unknown flag.
//! 3. `serve --rate high` is the same run as `serve --rate 30`.
//! 4. No misuse panics: every failure exits 1 with an `error:` line.

mod common;

use common::{hansim, hansim_cmd};

/// The argv prefix of each mode.
const MODES: [(&str, &[&str]); 3] = [("batch", &[]), ("serve", &["serve"]), ("city", &["city"])];

/// Runs `mode_args ++ args`, asserts a clean typed failure and returns
/// the `error:` line.
fn error_line(mode_args: &[&str], args: &[&str]) -> String {
    let argv: Vec<&str> = mode_args.iter().chain(args).copied().collect();
    let out = hansim(&argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{argv:?} must fail with exit 1, stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{argv:?} panicked: {stderr}");
    assert!(
        stderr.contains("usage: hansim"),
        "{argv:?}: usage follows the error: {stderr}"
    );
    stderr
        .lines()
        .next()
        .filter(|line| line.starts_with("error: "))
        .unwrap_or_else(|| panic!("{argv:?}: no error line in: {stderr}"))
        .to_string()
}

#[test]
fn malformed_scenario_flags_fail_identically_in_every_mode() {
    let cases: [(&[&str], &str); 5] = [
        (
            &["--minutes", "x"],
            "error: bad value 'x' for --minutes (expected a number)",
        ),
        (
            &["--devices", "4", "--seed"],
            "error: --seed requires a value",
        ),
        (
            &["--cp", "lossy:x"],
            "error: bad value 'lossy:x' for --cp (expected ideal|lossy:P|ge:PGB,PBG|packet)",
        ),
        (
            &["--workload", "weekly"],
            "error: bad value 'weekly' for --workload (expected poisson|daily)",
        ),
        (
            &["--rate", "fast"],
            "error: bad value 'fast' for --rate (expected low|moderate|high|N)",
        ),
    ];
    for (args, expected) in cases {
        for (mode, mode_args) in MODES {
            assert_eq!(error_line(mode_args, args), expected, "{mode} {args:?}");
        }
    }
}

#[test]
fn minutes_beyond_the_simulated_clock_are_rejected_in_every_mode() {
    // 307445734561 min is the last value whose microseconds fit in u64;
    // anything above would wrap the simulated clock.
    for minutes in ["307445734562", "18446744073709551615"] {
        for (mode, mode_args) in MODES {
            assert_eq!(
                error_line(mode_args, &["--minutes", minutes]),
                format!(
                    "error: bad value '{minutes}' for --minutes \
                     (expected at most 307445734561 minutes (the u64 µs simulated clock))"
                ),
                "{mode}"
            );
        }
    }
}

#[test]
fn serve_checkpoint_cadence_overflow_is_a_typed_error() {
    let line = error_line(
        &["serve"],
        &[
            "--replay",
            "unused.txt",
            "--checkpoint",
            "unused.ck",
            "--checkpoint-every",
            "18446744073709551615",
        ],
    );
    assert!(
        line.starts_with("error: bad value '18446744073709551615' for --checkpoint-every"),
        "{line}"
    );
}

#[test]
fn flags_of_another_mode_are_unknown() {
    let foreign: [(&[&str], &[&str]); 3] = [
        (&[], &["--listen", "--feeders", "--workers", "--manual"]),
        (&["serve"], &["--homes", "--csv", "--feeders", "--trace"]),
        (
            &["city"],
            &[
                "--homes",
                "--listen",
                "--strategy",
                "--stale-ttl",
                "--shards",
            ],
        ),
    ];
    for (mode_args, flags) in foreign {
        for flag in flags {
            assert_eq!(
                error_line(mode_args, &[flag, "2"]),
                format!("error: unknown flag '{flag}'"),
                "{mode_args:?}"
            );
        }
    }
}

#[test]
fn serve_accepts_named_rates() {
    let dir = std::env::temp_dir().join("hansim-cli-flags");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("telemetry.txt");
    std::fs::write(&script, "arrive:3@2; arrive:5@4; cap:10@6; done:3@8").expect("write script");
    let report = |rate: &str| {
        let out = hansim_cmd()
            .args(["serve", "--minutes", "20", "--devices", "8", "--rate", rate])
            .args(["--replay", script.to_str().expect("utf-8 path")])
            .output()
            .expect("replay run");
        assert!(out.status.success(), "serve --rate {rate} failed: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let named = report("high");
    assert!(named.starts_with("serve report: "), "{named}");
    assert_eq!(named, report("30"), "--rate high is --rate 30");
}
