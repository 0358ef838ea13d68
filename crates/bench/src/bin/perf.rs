//! Offline viewer for flight-recorder traces (`--trace-out` output).
//!
//! ```text
//! perf check    --in trace.json            # schema-validate, exit 0/1
//! perf top      --in trace.json [--n 15]   # hottest spans by total time
//! perf timeline --in trace.json [--width 72]  # ASCII per-track density
//! perf summary  --in trace.json            # stats + top + timeline
//! ```
//!
//! `check` is the CI gate: it exits non-zero on any trace-event schema
//! violation (missing phase, unbalanced `B`/`E`, backwards timestamps,
//! spans escaping their parents). The other subcommands render a quick
//! terminal view of the same file Perfetto/`chrome://tracing` would load.
//! A usage error or an unreadable `--in` file exits 2.

use std::process::ExitCode;

use oslay_observe::flight::{validate_chrome_trace, ChromeTrace};

struct Args {
    cmd: String,
    input: std::path::PathBuf,
    n: usize,
    width: usize,
}

fn usage() -> ! {
    eprintln!("usage: perf <check|top|timeline|summary> --in TRACE.json [--n N] [--width W]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv: std::collections::VecDeque<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.pop_front() else { usage() };
    if !matches!(cmd.as_str(), "check" | "top" | "timeline" | "summary") {
        usage();
    }
    let mut args = Args {
        cmd,
        input: std::path::PathBuf::new(),
        n: 15,
        width: 72,
    };
    let mut have_input = false;
    while let Some(arg) = argv.pop_front() {
        match arg.as_str() {
            "--in" => {
                args.input = argv.pop_front().unwrap_or_else(|| usage()).into();
                have_input = true;
            }
            "--n" => {
                args.n = argv
                    .pop_front()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--width" => {
                args.width = argv
                    .pop_front()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    if !have_input {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let text = match std::fs::read_to_string(&args.input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf: cannot read {}: {e}", args.input.display());
            return ExitCode::from(2);
        }
    };
    let stats = match validate_chrome_trace(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf: INVALID trace {}: {e}", args.input.display());
            return ExitCode::FAILURE;
        }
    };
    if args.cmd == "check" {
        println!(
            "OK {}: {} events ({} spans, {} counters) on {} tracks, max depth {}",
            args.input.display(),
            stats.events,
            stats.spans,
            stats.counters,
            stats.tracks,
            stats.max_depth
        );
        return ExitCode::SUCCESS;
    }
    let trace = match ChromeTrace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf: cannot parse {}: {e}", args.input.display());
            return ExitCode::FAILURE;
        }
    };
    match args.cmd.as_str() {
        "top" => print!("{}", trace.render_top(args.n)),
        "timeline" => print!("{}", trace.render_timeline(args.width)),
        "summary" => {
            println!(
                "{}: {} spans on {} tracks, {:.3} ms wall, max depth {}",
                args.input.display(),
                stats.spans,
                stats.tracks,
                trace.wall_us() / 1e3,
                stats.max_depth
            );
            println!();
            print!("{}", trace.render_top(args.n));
            println!();
            print!("{}", trace.render_timeline(args.width));
        }
        _ => unreachable!("subcommand validated in parse_args"),
    }
    ExitCode::SUCCESS
}
