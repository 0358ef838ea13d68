//! The CLI exit-code contract on bad input: a malformed command line is
//! a usage error (exit 2, usage text on stderr, no panic), and a
//! classification file that fails `analyze --check` is exit 1.

use std::process::{Command, Output};

const ANALYZE: &str = env!("CARGO_BIN_EXE_analyze");
const LINT: &str = env!("CARGO_BIN_EXE_lint");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");
const FIG12: &str = env!("CARGO_BIN_EXE_fig12_optimization_levels");
const SEARCH: &str = env!("CARGO_BIN_EXE_search");
const BENCH_SIM: &str = env!("CARGO_BIN_EXE_bench_sim");
const DIAG: &str = env!("CARGO_BIN_EXE_diag");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("binary runs")
}

/// Malformed `lint --layout-file` inputs, written into the directory the
/// binaries run in so the table can name them by relative path.
const LAYOUT_FILES: [(&str, &str); 6] = [
    ("cli_usage_layout_not_json.json", "not a layout"),
    (
        "cli_usage_layout_no_name.json",
        r#"{"addr":[0],"size":[4]}"#,
    ),
    (
        "cli_usage_layout_no_size.json",
        r#"{"name":"x","addr":[0]}"#,
    ),
    (
        "cli_usage_layout_float_addr.json",
        r#"{"name":"x","addr":[1.5],"size":[4]}"#,
    ),
    (
        "cli_usage_layout_negative_size.json",
        r#"{"name":"x","addr":[0],"size":[-4]}"#,
    ),
    (
        "cli_usage_layout_lengths.json",
        r#"{"name":"x","addr":[0,8],"size":[4]}"#,
    ),
];

#[test]
fn bad_invocations_are_usage_errors() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, body) in LAYOUT_FILES {
        std::fs::write(dir.join(name), body).expect("write temp file");
    }
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
        (
            LINT,
            &["--layout-file", "cli_usage_layout_missing.json"],
            "--layout-file cli_usage_layout_missing.json: ",
        ),
        (
            LINT,
            &["--layout-file", "cli_usage_layout_not_json.json"],
            "not JSON",
        ),
        (
            LINT,
            &["--layout-file", "cli_usage_layout_no_name.json"],
            "missing \"name\"",
        ),
        (
            LINT,
            &["--layout-file", "cli_usage_layout_no_size.json"],
            "missing \"size\"",
        ),
        (
            LINT,
            &["--layout-file", "cli_usage_layout_float_addr.json"],
            "\"addr\" entries must be non-negative integers",
        ),
        (
            LINT,
            &["--layout-file", "cli_usage_layout_negative_size.json"],
            "\"size\" entries must be u32 integers",
        ),
        (
            LINT,
            &["--layout-file", "cli_usage_layout_lengths.json"],
            "\"addr\" has 2 entries but \"size\" has 1",
        ),
        (TRACE, &["replay", "--dir"], "--dir needs a value"),
        (
            TRACE,
            &["verify", "--threads", "0"],
            "--threads must be >= 1",
        ),
        (FIG12, &["--seed", "x"], "--seed must be an integer"),
        (SEARCH, &["--budget", "x"], "--budget must be an integer"),
        (SEARCH, &["--budget"], "--budget needs a value"),
        (
            SEARCH,
            &["--restarts", "-1"],
            "--restarts must be an integer",
        ),
        (
            SEARCH,
            &["--w-conflict", "0.5"],
            "--w-conflict must be an integer",
        ),
        (
            SEARCH,
            &["--w-distance", "far"],
            "--w-distance must be an integer",
        ),
        (SEARCH, &["--w-absint"], "--w-absint needs a value"),
        (SEARCH, &["--layout-out"], "--layout-out needs a value"),
        (
            BENCH_SIM,
            &["--gate-tolerance", "x"],
            "--gate-tolerance must be a number in (0, 1)",
        ),
        (
            BENCH_SIM,
            &["--gate-tolerance", "1.5"],
            "--gate-tolerance must be a number in (0, 1)",
        ),
        (
            BENCH_SIM,
            &["--gate-tolerance"],
            "--gate-tolerance needs a value",
        ),
        (
            BENCH_SIM,
            &["--gate-window", "ten"],
            "--gate-window must be an integer",
        ),
        (BENCH_SIM, &["--gate-window"], "--gate-window needs a value"),
        (BENCH_SIM, &["--out"], "--out needs a value"),
        (BENCH_SIM, &["--history"], "--history needs a value"),
        (DIAG, &["--compare"], "--compare needs two layout names"),
        (
            DIAG,
            &["--compare", "base"],
            "--compare needs two layout names",
        ),
        (
            DIAG,
            &["--compare", "base", "nope"],
            "unknown layout \"nope\"",
        ),
        (
            DIAG,
            &["--compare", "fast", "opts"],
            "unknown layout \"fast\"",
        ),
        (DIAG, &["--case"], "--case needs a value"),
        (
            DIAG,
            &["--scale", "tiny", "--bogus"],
            "unknown argument \"--bogus\"",
        ),
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
