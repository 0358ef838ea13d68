//! Command-line driver of the oslay benchmark.
//!
//! ```text
//! cargo run --release --manifest-path oslaybench/Cargo.toml -- \
//!     --workload paper_digest --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path oslaybench/Cargo.toml -- \
//!     --compare oslaybench/out/a.json oslaybench/out/b.json
//! ```
//!
//! A run prints a stamp line, one line per metric (name, value, unit),
//! and, as its last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The same record, with the stamp,
//! goes to `out/<workload>-seed<seed>-trace<0|1>.json` beside this
//! package; a traced run also writes its spans there as JSON lines.
//! `--compare` prints the per-metric change between two such records and
//! refuses (exit 2) when their machine fingerprints differ.

use std::path::Path;
use std::process::ExitCode;

use oslay_observe::JsonValue;
use oslaybench::{bench_dir, run, Settings, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: oslaybench --workload <paper_digest|design_sweep|absint_gate|trace_archive> \
[--seed N] [--seconds S] [--trace 0|1] [--study-seed N]\n       oslaybench --compare A.json B.json";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parsed command line.
enum Command {
    Run(Settings),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err("--compare takes two record files".to_owned()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20.0, false);
    let mut study_seed = DEFAULT_SEED;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = parse_seed(value).ok_or_else(|| format!("bad seed {value}"))?,
            "--study-seed" => {
                study_seed = parse_seed(value).ok_or_else(|| format!("bad study seed {value}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut settings = Settings::paper(workload, seed, seconds, trace);
    settings.study_seed = study_seed;
    Ok(Command::Run(settings))
}

/// Formats a metric value with all its digits (JSON has no NaN).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(Command::Run(s)) => s,
        Ok(Command::Compare(a, b)) => return compare(Path::new(&a), Path::new(&b)),
        Err(e) => {
            eprintln!("oslaybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = oslay_perf::history::machine_fingerprint();
    let rev = oslay_perf::history::read_git_rev(&bench_dir()).unwrap_or_else(|| "unknown".into());
    let result = run(&settings);

    println!(
        "# oslaybench workload={} seed={:#x} study_seed={:#x} os_blocks={} threads={} \
         machine={machine} git_rev={rev} iterations={} fingerprint={:#018x}",
        settings.workload.name(),
        settings.seed,
        settings.study_seed,
        settings.os_blocks,
        settings.threads,
        result.iteration_wall_s.len(),
        result.fingerprint,
    );
    let walls: Vec<String> = result
        .iteration_wall_s
        .iter()
        .map(|w| format!("{w:.4}"))
        .collect();
    println!("# iteration wall_s: {}", walls.join(" "));
    for m in result.metrics.iter().chain(&result.quality) {
        println!("{:<40} {:>20} {}", m.name, num(m.value), m.unit);
    }
    for f in &result.failures {
        eprintln!("check failed: {f}");
    }

    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    );

    let out = bench_dir().join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        settings.workload.name(),
        settings.seed,
        u8::from(settings.trace)
    );
    let record = format!(
        "{{\"machine\": \"{machine}\", \"git_rev\": \"{rev}\", \"workload\": \"{}\", \
         \"seed\": {}, \"study_seed\": {}, \"os_blocks\": {}, \"threads\": {}, \
         \"result\": {line}}}\n",
        settings.workload.name(),
        settings.seed,
        settings.study_seed,
        settings.os_blocks,
        settings.threads,
    );
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), record))
        .and_then(|()| {
            if settings.trace {
                oslaybench::tracer::write_spans(
                    &result.spans,
                    &out.join(format!("{stem}.spans.jsonl")),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("oslaybench: writing {}: {e}", out.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Reads a run record written by this binary.
fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    oslay_observe::json::parse(text.trim()).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("oslaybench: {e}");
            return ExitCode::from(2);
        }
    };
    let field = |r: &JsonValue, k: &str| r.get(k).and_then(JsonValue::as_str).map(str::to_owned);
    let (ma, mb) = (field(&ra, "machine"), field(&rb, "machine"));
    if ma.is_none() || ma != mb {
        eprintln!(
            "oslaybench: refusing to compare results from different machines ({} vs {})",
            ma.as_deref().unwrap_or("?"),
            mb.as_deref().unwrap_or("?")
        );
        return ExitCode::from(2);
    }
    let metrics = |r: &JsonValue| match r.get("result").and_then(|x| x.get("metrics")) {
        Some(JsonValue::Object(m)) => m.clone(),
        _ => Vec::new(),
    };
    let mb = metrics(&rb);
    for (name, va) in metrics(&ra) {
        let value = |v: &JsonValue| v.get("value").and_then(JsonValue::as_f64);
        let vb = mb
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| value(v));
        match (value(&va), vb) {
            (Some(x), Some(y)) if x != 0.0 => {
                println!(
                    "{name:<40} {x:>16.6} -> {y:>16.6} ({:+.2}%)",
                    (y / x - 1.0) * 100.0
                );
            }
            (Some(x), Some(y)) => println!("{name:<40} {x:>16.6} -> {y:>16.6}"),
            _ => println!("{name:<40} missing in one record"),
        }
    }
    ExitCode::SUCCESS
}
