//! Conflict diagnosis: attribute every miss of a workload, render per-set
//! pressure heatmaps, and diff the conflict structure of two layouts.
//!
//! ```text
//! # Why does OptS beat Base? Which conflicts did it remove?
//! cargo run --release --bin diag -- --compare base opts
//!
//! # Same, on a specific workload and scale:
//! cargo run --release --bin diag -- --compare base ch --case Shell --scale small
//!
//! # Sanity-check every results/*.json against the report schema:
//! cargo run --release --bin diag -- --check-results
//! ```
//!
//! For each layout the tool prints the compulsory/capacity/conflict
//! split, the Figure 13 block-class census, the per-set miss heatmap, and
//! the heaviest evictor→victim block pairs; then the diff: which pairs
//! the second layout resolved, which it introduced. A machine-readable
//! copy lands in `results/diag_<a>_vs_<b>.json`.

use crate::{
    apply_run_args, banner, exit_usage, flag_value, run_case_attributed, try_parse_run_args,
    AppSide, Reporter,
};
use oslay::analysis::figures::render_set_heatmap;
use oslay::analysis::report::{pct, TextTable};
use oslay::cache::{AttributionReport, CacheConfig, CodeRef};
use oslay::model::{Domain, RoutineId};
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_observe::{AttrClass, RunReport};

fn parse_kind(token: &str) -> Result<OsLayoutKind, String> {
    match token.to_ascii_lowercase().as_str() {
        "base" => Ok(OsLayoutKind::Base),
        "ch" | "c-h" | "changhwu" | "chang-hwu" => Ok(OsLayoutKind::ChangHwu),
        "opts" => Ok(OsLayoutKind::OptS),
        "optl" => Ok(OsLayoutKind::OptL),
        "call" => Ok(OsLayoutKind::Call),
        other => Err(format!("unknown layout {other:?} (base|ch|opts|optl|call)")),
    }
}

struct Args {
    config: StudyConfig,
    threads: usize,
    compare: Option<(OsLayoutKind, OsLayoutKind, String, String)>,
    case: String,
    check_results: bool,
}

fn parse_args() -> Args {
    let mut compare = None;
    let mut case = "Shell".to_owned();
    let mut check_results = false;
    let argv = std::env::args().skip(1).collect();
    let common = try_parse_run_args(argv, StudyConfig::paper(), |arg, rest| {
        match arg {
            "--compare" => {
                let mut name = || {
                    flag_value(arg, rest).map_err(|_| "--compare needs two layout names".to_owned())
                };
                let (a, b) = (name()?, name()?);
                compare = Some((
                    parse_kind(&a)?,
                    parse_kind(&b)?,
                    a.to_ascii_lowercase(),
                    b.to_ascii_lowercase(),
                ));
            }
            "--case" => case = flag_value(arg, rest)?,
            "--check-results" => check_results = true,
            _ => return Ok(false),
        }
        Ok(true)
    })
    .unwrap_or_else(|e| exit_usage(&e));
    apply_run_args(&common);
    Args {
        config: common.config,
        threads: common.threads,
        compare,
        case,
        check_results,
    }
}

/// Human label of a code reference: routine name (for OS code), block id,
/// and placement class.
fn code_label(study: &Study, code: &CodeRef) -> String {
    match code.domain {
        Domain::Os => {
            let routine = study
                .kernel()
                .program
                .routine(RoutineId::new(code.routine as usize));
            format!(
                "{}/b{} [{}]",
                routine.name(),
                code.block,
                code.class.label()
            )
        }
        Domain::App => format!(
            "app r{}/b{} [{}]",
            code.routine,
            code.block,
            code.class.label()
        ),
    }
}

fn print_report(study: &Study, name: &str, r: &AttributionReport) {
    println!("--- {name} ---");
    println!(
        "{} misses / {} fetches ({})",
        r.total_misses,
        r.total_accesses,
        pct(r.total_misses as f64 / r.total_accesses.max(1) as f64)
    );
    for class in AttrClass::ALL {
        println!(
            "  {:<10} {:>10}  {}",
            class.label(),
            r.misses_of(class),
            pct(r.misses_of(class) as f64 / r.total_misses.max(1) as f64)
        );
    }
    println!(
        "  set imbalance (CV): {:.2}; worst 5 sets hold {} of misses",
        r.set_imbalance(),
        pct(r.set_peak_share(5))
    );
    print!("{}", render_set_heatmap(&r.set_misses, 96));
    println!("Block-class census (Figure 13 categories):");
    let mut table = TextTable::new(["class", "refs", "misses", "miss share"]);
    for (label, refs, misses) in r.census() {
        if refs == 0 && misses == 0 {
            continue;
        }
        table.row([
            label.to_owned(),
            refs.to_string(),
            misses.to_string(),
            pct(misses as f64 / r.total_misses.max(1) as f64),
        ]);
    }
    print!("{}", table.render());
    let top = r.top_pairs(8);
    if !top.is_empty() {
        println!("Heaviest evictor -> victim block pairs:");
        for p in top {
            println!(
                "  {:>8}  {}  ->  {}",
                p.count,
                code_label(study, &p.evictor),
                code_label(study, &p.victim)
            );
        }
    }
    println!();
}

fn print_pair_list(study: &Study, title: &str, pairs: &[(CodeRef, CodeRef, u64, u64)]) {
    println!("{title}:");
    if pairs.is_empty() {
        println!("  (none)");
        return;
    }
    for (evictor, victim, base, current) in pairs.iter().take(10) {
        println!(
            "  {:>8} -> {:>6}  {}  ->  {}",
            base,
            current,
            code_label(study, evictor),
            code_label(study, victim)
        );
    }
    if pairs.len() > 10 {
        println!("  ... and {} more", pairs.len() - 10);
    }
}

fn compare_layouts(args: &Args) {
    let (kind_a, kind_b, tok_a, tok_b) = args.compare.as_ref().expect("compare mode");
    banner(
        &format!("diag: {} vs {} conflict diagnosis", tok_a, tok_b),
        &args.config,
    );
    let study = Study::generate_with_threads(&args.config, args.threads);
    let case = study
        .cases()
        .iter()
        .find(|c| c.name().eq_ignore_ascii_case(&args.case))
        .unwrap_or_else(|| {
            let names: Vec<&str> = study.cases().iter().map(|c| c.name()).collect();
            panic!("unknown workload {:?} (one of {names:?})", args.case)
        });
    let cfg = CacheConfig::paper_default();
    println!(
        "workload: {}; cache: {} B / {} B lines / {}-way (paper default)",
        case.name(),
        cfg.size(),
        cfg.line(),
        cfg.ways()
    );
    println!();
    let sim = SimConfig::fast();
    let mut reporter = Reporter::new(&format!("diag_{tok_a}_vs_{tok_b}"));
    let registry = reporter.registry();
    let (_, report_a) = run_case_attributed(
        &study,
        case,
        *kind_a,
        AppSide::Base,
        cfg,
        &sim,
        Some(&registry),
    );
    let (_, report_b) = run_case_attributed(
        &study,
        case,
        *kind_b,
        AppSide::Base,
        cfg,
        &sim,
        Some(&registry),
    );
    print_report(&study, &format!("{tok_a} ({})", kind_a.name()), &report_a);
    print_report(&study, &format!("{tok_b} ({})", kind_b.name()), &report_b);

    let diff = oslay::cache::diff_attribution(&report_a, &report_b);
    println!("=== layout diff: {tok_a} -> {tok_b} ===");
    for class in AttrClass::ALL {
        println!(
            "  {:<10} {:>+10}",
            class.label(),
            diff.class_delta[class.index()]
        );
    }
    println!(
        "  conflict matrix total: {} -> {}",
        diff.matrix_total.0, diff.matrix_total.1
    );
    let as_rows = |pairs: &[oslay::cache::PairDelta]| -> Vec<(CodeRef, CodeRef, u64, u64)> {
        pairs
            .iter()
            .map(|p| (p.evictor, p.victim, p.base, p.current))
            .collect()
    };
    print_pair_list(
        &study,
        &format!("Conflict pairs {tok_b} resolved (base count -> current)"),
        &as_rows(&diff.resolved),
    );
    print_pair_list(
        &study,
        &format!("Conflict pairs {tok_b} introduced (base count -> current)"),
        &as_rows(&diff.introduced),
    );
    println!();

    reporter.add_section(&format!("{tok_a}.attr"), report_a.section_fields());
    reporter.add_section(&format!("{tok_b}.attr"), report_b.section_fields());
    let resolved_misses: u64 = diff.resolved.iter().map(|p| p.base - p.current).sum();
    let introduced_misses: u64 = diff.introduced.iter().map(|p| p.current - p.base).sum();
    reporter.add_section(
        "diff",
        [
            ("conflict_delta".to_owned(), diff.conflict_delta() as f64),
            ("resolved_pairs".to_owned(), diff.resolved.len() as f64),
            ("introduced_pairs".to_owned(), diff.introduced.len() as f64),
            ("resolved_misses".to_owned(), resolved_misses as f64),
            ("introduced_misses".to_owned(), introduced_misses as f64),
        ],
    );
    let path = reporter.finish();
    println!("Run report: {}", path.display());
}

/// Schema sanity check of every `results/*.json`: each must parse as a
/// [`RunReport`] and carry at least one section or metric. Exits nonzero
/// on the first malformed file.
fn check_results() {
    let dir = std::path::Path::new("results");
    let mut checked = 0usize;
    let mut failed = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("results/ directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    for path in entries {
        checked += 1;
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                println!("FAIL {}: unreadable: {e}", path.display());
                failed += 1;
                continue;
            }
        };
        match RunReport::from_json(&text) {
            Ok(report) => {
                let sections = report.section_names().len();
                let metrics = report.metric_count();
                if sections == 0 && metrics == 0 {
                    println!(
                        "FAIL {}: parses but carries no sections or metrics",
                        path.display()
                    );
                    failed += 1;
                } else {
                    println!(
                        "ok   {} ({} sections, {} metrics)",
                        path.display(),
                        sections,
                        metrics
                    );
                }
            }
            Err(e) => {
                println!("FAIL {}: {e}", path.display());
                failed += 1;
            }
        }
    }
    println!();
    println!("{checked} report(s) checked, {failed} failed");
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Entry point shared by the `oslay-bench` binary and the root-package
/// forwarder.
pub fn run() {
    let args = parse_args();
    if args.check_results {
        check_results();
        crate::flush_trace();
        return;
    }
    if args.compare.is_some() {
        compare_layouts(&args);
        crate::flush_trace();
        return;
    }
    eprintln!("usage: diag --compare <base|ch|opts|optl|call> <...> [--case NAME] [--scale S]");
    eprintln!("       diag --check-results");
    std::process::exit(2);
}
