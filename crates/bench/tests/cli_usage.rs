//! The CLI exit-code contract on bad input: a malformed command line is
//! a usage error (exit 2, usage text on stderr, no panic), and a
//! classification file that fails `analyze --check` is exit 1.

use std::process::{Command, Output};

const ANALYZE: &str = env!("CARGO_BIN_EXE_analyze");
const LINT: &str = env!("CARGO_BIN_EXE_lint");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");
const FIG12: &str = env!("CARGO_BIN_EXE_fig12_optimization_levels");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("binary runs")
}

#[test]
fn bad_invocations_are_usage_errors() {
    let cases: &[(&str, &[&str], &str)] = &[
        (ANALYZE, &["--threads", "0"], "--threads must be >= 1"),
        (ANALYZE, &["--threads", "x"], "--threads must be an integer"),
        (ANALYZE, &["--threads"], "--threads needs a value"),
        (ANALYZE, &["--scale", "bogus"], "unknown scale \"bogus\""),
        (
            ANALYZE,
            &["--blocks", "many"],
            "--blocks must be an integer",
        ),
        (
            ANALYZE,
            &["--search-budget", "x"],
            "--search-budget must be an integer",
        ),
        (ANALYZE, &["--layout"], "--layout needs a value"),
        (ANALYZE, &["--layout", "nope"], "unknown layout \"nope\""),
        (ANALYZE, &["--check"], "--check needs a value"),
        (ANALYZE, &["--class-out"], "--class-out needs a value"),
        (
            ANALYZE,
            &["--mutate", "shuffle"],
            "unknown mutation \"shuffle\"",
        ),
        (
            ANALYZE,
            &["--no-such-flag"],
            "unknown argument \"--no-such-flag\"",
        ),
        (LINT, &["--top", "x"], "--top must be an integer"),
        (LINT, &["--deny", "errors"], "unknown --deny \"errors\""),
        (LINT, &["--scale", "huge"], "unknown scale \"huge\""),
        (TRACE, &["replay", "--dir"], "--dir needs a value"),
        (
            TRACE,
            &["verify", "--threads", "0"],
            "--threads must be >= 1",
        ),
        (FIG12, &["--seed", "x"], "--seed must be an integer"),
    ];
    for &(bin, args, message) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(message),
            "{bin} {args:?}: want {message:?} in {stderr}"
        );
        assert!(
            stderr.contains("common experiment flags"),
            "{bin} {args:?}: usage text missing from {stderr}"
        );
    }
}

#[test]
fn failed_check_keeps_exit_1() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let broken = dir.join("cli_usage_broken.json");
    std::fs::write(&broken, "{\"version\":1,\"layouts\":[]}").expect("write temp file");
    for path in [broken, dir.join("cli_usage_missing.json")] {
        let out = run(ANALYZE, &["--check", path.to_str().expect("utf-8 path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", path.display());
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
