//! Shared support for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper. They share command-line handling (`--scale tiny|small|paper`,
//! `--blocks N`, `--seed N`) and one replay executor, [`plan`].
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run --release -p oslay-bench --bin fig12_optimization_levels -- --scale paper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint_gate;
pub mod archive;
pub mod diag;
pub mod digest;
pub mod plan;

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

use oslay::cache::{AttributionReport, CacheConfig};
use oslay::{OsLayout, OsLayoutKind, SimConfig, SimResult, Study, StudyConfig, WorkloadCase};
use oslay_layout::Layout;
use oslay_model::synth::Scale;
use oslay_observe::{global_recorder, MetricRegistry, RunReport};

pub use plan::{execute, rows, Outcome, Plan};

/// Every experiment binary counts allocations: the counting allocator is
/// a pair of relaxed atomic adds on top of the system allocator, cheap
/// enough to leave on unconditionally, and it feeds both the `perf.alloc`
/// report sections and the flight recorder's per-worker probe.
#[global_allocator]
static ALLOC: oslay_perf::alloc::CountingAlloc = oslay_perf::alloc::CountingAlloc;

/// Flushes the flight recorder to the `--trace-out` path and the
/// timeline to the `--telemetry-out` path, if either was given.
/// Idempotent and cheap when both are off; every experiment binary calls
/// this once at the end of `main` (the [`Reporter`] path does it in
/// [`Reporter::finish`]). Both notices go to stderr so stdout stays
/// byte-identical with observability on or off.
pub fn flush_trace() {
    match oslay_observe::flight::flush() {
        Ok(Some(path)) => eprintln!("flight trace written: {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("flight trace write failed: {e}"),
    }
    match oslay_observe::timeline::flush() {
        Ok(Some(path)) => eprintln!("telemetry written: {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }
}

/// The shared usage text for every experiment binary: the one place the
/// common flags are documented, so `--help` and the unknown-argument
/// error cannot drift out of sync with [`try_parse_run_args`].
#[must_use]
pub fn usage_text() -> String {
    "common experiment flags:\n\
     \x20 --scale tiny|small|paper   study scale (default: binary-specific)\n\
     \x20 --blocks N                 OS blocks per workload\n\
     \x20 --seed N                   workload generator seed\n\
     \x20 --threads N                worker threads (output is identical at any N)\n\
     \x20 --verify                   statically verify every layout before simulating\n\
     \x20 --trace-out FILE           write a Chrome trace-event flight recording\n\
     \x20 --telemetry-out FILE       write windowed simulated-time cache telemetry\n\
     \x20 --help, -h                 print this help and exit\n\
     some binaries accept additional flags; see their headers."
        .to_owned()
}

/// The common experiment arguments: study configuration plus the worker
/// count for sharded execution.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// The study configuration (`--scale`, `--blocks`, `--seed`).
    pub config: StudyConfig,
    /// Worker threads for independent simulation jobs (`--threads`,
    /// default: available parallelism). Output is byte-identical at any
    /// value; see `oslay::exec::parallel_map`.
    pub threads: usize,
    /// Verify every layout statically before simulating it (`--verify`).
    /// Debug builds always verify; this flag opts release builds in. See
    /// [`oslay::set_layout_verify`].
    pub verify: bool,
    /// Write a Chrome trace-event JSON flight recording here
    /// (`--trace-out FILE`). `None` leaves the flight recorder disabled,
    /// which is the zero-overhead default.
    pub trace_out: Option<PathBuf>,
    /// Write the simulated-time telemetry document here
    /// (`--telemetry-out FILE`). `None` leaves the timeline disabled,
    /// which is the zero-overhead default.
    pub telemetry_out: Option<PathBuf>,
}

/// Parses the common experiment arguments (`--scale tiny|small|paper`,
/// `--blocks N`, `--seed N`, `--threads N`).
///
/// Defaults to `--scale paper`; integration environments pass
/// `--scale small` for speed.
#[must_use]
pub fn run_args() -> RunArgs {
    run_args_with(StudyConfig::paper(), |_, _| false)
}

/// Like [`run_args`], but with a caller-chosen default configuration and
/// an `extra` handler for driver-specific arguments.
///
/// `extra` receives each token the common parser does not recognize plus
/// the remaining argument queue (pop values off the front); returning
/// `false` rejects the token. This is the one place command lines are
/// parsed — `bench_sim`, `diag`, and the `trace` store tool all layer
/// their flags on top of it rather than re-rolling `--scale`/`--threads`
/// handling. A malformed common flag or a rejected token ends the process
/// through [`exit_usage`] (exit 2).
#[must_use]
pub fn run_args_with<F>(default: StudyConfig, mut extra: F) -> RunArgs
where
    F: FnMut(&str, &mut VecDeque<String>) -> bool,
{
    let argv = std::env::args().skip(1).collect();
    let args = try_parse_run_args(argv, default, |arg, rest| Ok(extra(arg, rest)))
        .unwrap_or_else(|e| exit_usage(&e));
    apply_run_args(&args);
    args
}

/// Reports a command-line usage error on stderr, with the shared usage
/// text, and exits with status 2 — the CLI contract's "usage or input
/// error" code (0 = ok, 1 = a check failed).
pub fn exit_usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n{}", usage_text());
    std::process::exit(2)
}

/// Applies the parsed arguments' process-wide side effects: layout
/// verification (`--verify`) and flight-recorder activation
/// (`--trace-out`). [`run_args_with`] calls this; binaries that parse an
/// explicit queue through [`try_parse_run_args`] call it themselves.
pub fn apply_run_args(args: &RunArgs) {
    if args.verify {
        oslay::set_layout_verify(true);
    }
    if let Some(path) = &args.trace_out {
        oslay_observe::flight::set_output(path);
        oslay_observe::flight::set_thread_track("main");
        oslay_perf::alloc::install_flight_probe();
    }
    if let Some(path) = &args.telemetry_out {
        oslay_observe::timeline::set_output(path);
    }
}

/// Pops the value of `flag` off the argument queue.
///
/// # Errors
///
/// Fails when the queue is empty (the flag was the last token).
pub fn flag_value(flag: &str, rest: &mut VecDeque<String>) -> Result<String, String> {
    rest.pop_front()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Pops and parses the integer value of `flag`.
///
/// # Errors
///
/// Fails when the value is missing or is not an integer of type `T`.
pub fn flag_int<T: std::str::FromStr>(
    flag: &str,
    rest: &mut VecDeque<String>,
) -> Result<T, String> {
    let v = flag_value(flag, rest)?;
    v.parse()
        .map_err(|_| format!("{flag} must be an integer, got {v:?}"))
}

/// The testable core of [`run_args_with`]: parses an explicit argument
/// queue instead of the process command line.
///
/// `extra` handles driver-specific tokens: `Ok(true)` consumed it,
/// `Ok(false)` does not know it, `Err` rejects its value.
///
/// # Errors
///
/// Fails on an unknown argument, a flag missing its value, or a
/// malformed value (unknown scale, non-integer or zero `--threads`).
pub fn try_parse_run_args<F>(
    mut argv: VecDeque<String>,
    default: StudyConfig,
    mut extra: F,
) -> Result<RunArgs, String>
where
    F: FnMut(&str, &mut VecDeque<String>) -> Result<bool, String>,
{
    let mut out = RunArgs {
        config: default,
        threads: oslay::exec::default_threads(),
        verify: false,
        trace_out: None,
        telemetry_out: None,
    };
    while let Some(arg) = argv.pop_front() {
        match arg.as_str() {
            "--scale" => {
                out.config = match flag_value("--scale", &mut argv)?.as_str() {
                    "tiny" => StudyConfig::tiny(),
                    "small" => StudyConfig::small(),
                    "paper" => StudyConfig::paper(),
                    other => return Err(format!("unknown scale {other:?} (tiny|small|paper)")),
                };
            }
            "--blocks" => out.config.os_blocks = flag_int("--blocks", &mut argv)?,
            "--seed" => out.config.seed = flag_int("--seed", &mut argv)?,
            "--threads" => {
                out.threads = flag_int("--threads", &mut argv)?;
                if out.threads == 0 {
                    return Err("--threads must be >= 1".to_owned());
                }
            }
            "--verify" => out.verify = true,
            "--trace-out" => out.trace_out = Some(flag_value("--trace-out", &mut argv)?.into()),
            "--telemetry-out" => {
                out.telemetry_out = Some(flag_value("--telemetry-out", &mut argv)?.into());
            }
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => {
                if !extra(other, &mut argv)? {
                    return Err(format!("unknown argument {other:?}"));
                }
            }
        }
    }
    Ok(out)
}

/// Parses the common experiment arguments into a [`StudyConfig`].
///
/// Compatibility wrapper over [`run_args`] (tolerates and ignores
/// `--threads`).
#[must_use]
pub fn config_from_args() -> StudyConfig {
    run_args().config
}

/// Prints the standard experiment banner.
pub fn banner(title: &str, config: &StudyConfig) {
    println!("== {title} ==");
    println!(
        "   scale: {:?}, OS blocks/workload: {}, seed: {:#x}",
        config.scale, config.os_blocks, config.seed
    );
    println!();
}

/// Scale label for result files.
#[must_use]
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Which application layout to pair with an OS layout.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum AppSide {
    /// Unoptimized application (source order at `APP_BASE`).
    Base,
    /// `OptA`: the application optimized with sequences + loop area.
    Optimized,
    /// Chang–Hwu-optimized application.
    ChangHwu,
}

/// Replays one workload under one OS layout kind through the attribution
/// engine — a one-point attributed [`Plan`] — returning the usual
/// [`SimResult`] plus the [`AttributionReport`]: every miss classified
/// compulsory/capacity/conflict and charged to its cache set, Figure 13
/// block class, OS entry class and, for conflicts, its evictor→victim
/// pair.
///
/// When `registry` is given, each classified miss also lands in it as
/// `cache.attr.*` metrics.
#[must_use]
pub fn run_case_attributed(
    study: &Study,
    case: &WorkloadCase,
    os_kind: OsLayoutKind,
    app_side: AppSide,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    registry: Option<&Arc<MetricRegistry>>,
) -> (SimResult, AttributionReport) {
    let mut plan = Plan::attributed(*sim);
    let os = plan.share(study.os_layout(os_kind, cache_cfg.size()));
    let c = study
        .cases()
        .iter()
        .position(|c| std::ptr::eq(c, case))
        .expect("the case belongs to the study");
    let label = format!("{}/{}", case.name(), os_kind.name());
    plan.push(c, os, app_side, cache_cfg, label);
    let scratch = Arc::new(MetricRegistry::new());
    let mut outcomes = live(study, &plan, 1, registry.unwrap_or(&scratch));
    outcomes.remove(0).attributed()
}

/// Executes a plan whose source is live, which cannot fail.
fn live(
    study: &Study,
    plan: &Plan,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<Outcome> {
    execute(study, plan, threads, registry).expect("a live plan reads no store")
}

/// Runs the whole Figure-12 matrix — every workload × every ladder level
/// — over up to `threads` workers, returning `results[case][level]`.
///
/// A plain [`Plan`] of [`figure12_ladder`] on one cache organization, so
/// [`execute`] replays each point on its own cache; each replay posts its
/// `cache.*` counters, folded into `registry` in point order.
#[must_use]
pub fn run_figure12_matrix(
    study: &Study,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<Vec<SimResult>> {
    let mut plan = Plan::plain(*sim);
    let ladder = figure12_ladder();
    plan.push_ladder(study, &ladder, cache_cfg);
    let results = live(study, &plan, threads, registry)
        .into_iter()
        .map(|o| o.result)
        .collect();
    rows(results, ladder.len())
}

/// One evaluation point of a parameter sweep: a workload replayed under
/// an explicit (possibly custom) OS layout and cache organization.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Index into [`Study::cases`].
    pub case: usize,
    /// The OS layout to replay under (memoized by the caller; sweeps
    /// share one layout across many points).
    pub os: Arc<Layout>,
    /// Which application layout to pair with it.
    pub app: AppSide,
    /// The cache organization for this point.
    pub cache: CacheConfig,
}

/// The plain plan of a sweep grid, each point labelled `<case>@<cache>`.
fn sweep_plan(study: &Study, points: Vec<SweepPoint>, sim: &SimConfig) -> Plan {
    let mut plan = Plan::plain(*sim);
    for p in points {
        let label = format!("{}@{}", study.cases()[p.case].name(), p.cache);
        plan.push(p.case, p.os, p.app, p.cache, label);
    }
    plan
}

/// The per-point reference for sweeps: replays every point on its own
/// plain `Cache`, one job per point, returning one [`SimResult`] per
/// point in point order. The differential tests and `bench_sim` compare
/// [`execute`]'s single-pass lanes against it.
#[must_use]
pub fn run_sweep(
    study: &Study,
    points: Vec<SweepPoint>,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<SimResult> {
    let plan = sweep_plan(study, points, sim);
    plan::execute_on(study, &plan, threads, registry, plan::Engine::Points)
        .expect("a live plan reads no store")
        .into_iter()
        .map(|o| o.result)
        .collect()
}

/// Evaluates every sweep point through [`execute`], returning exactly
/// what [`run_sweep`] would: the same results and the same final
/// registry state at any worker count. A grid spanning several cache
/// organizations settles in one trace pass per (case, layout pair).
#[must_use]
pub fn run_sweep_single_pass(
    study: &Study,
    points: Vec<SweepPoint>,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<SimResult> {
    let plan = sweep_plan(study, points, sim);
    live(study, &plan, threads, registry)
        .into_iter()
        .map(|o| o.result)
        .collect()
}

/// Materializes a searched [`LayoutView`](oslay_verify::LayoutView) back
/// into a placed [`OsLayout`] via `Layout::assemble`.
///
/// The searched layout has no class map or SelfConfFree area — like the
/// Base and Chang–Hwu kinds, it is verified structurally only.
///
/// # Panics
///
/// Panics if the view does not re-assemble (the search's admission gate
/// guarantees it does) or fails structural verification.
#[must_use]
pub fn searched_os_layout(study: &Study, view: &oslay_verify::LayoutView) -> OsLayout {
    let program = &study.kernel().program;
    let layout = Layout::assemble(program, view.name.clone(), &view.addr, &view.size)
        .expect("searched view re-assembles into a layout");
    let report = oslay_verify::verify_structural(program, view);
    assert!(
        report.is_clean(),
        "searched layout lints dirty: {:?}",
        report.diagnostics().first()
    );
    OsLayout {
        layout,
        classes: None,
        scf_bytes: 0,
    }
}

/// How the search winner was chosen among the seed and every restart's
/// best: fast-replay misses per candidate per workload, ranked against
/// the seed (= OptS) baseline.
#[derive(Clone, Debug)]
pub struct SearchSelection {
    /// Total misses, `[candidate][case]` (candidate 0 is the seed).
    pub misses: Vec<Vec<u64>>,
    /// Per candidate: number of workloads with more misses than the seed.
    pub worse_cases: Vec<usize>,
    /// The chosen candidate index.
    pub chosen: usize,
}

/// Replays every candidate view on every workload (app side Base, like
/// the attributed matrices) and picks the winner among the *feasible*
/// candidates — those no worse than the seed on more than half the
/// workloads — by fewest total misses, then fewest worse-than-seed
/// workloads, then lowest objective, then lowest index. Candidate 0
/// must be the seed view; it is always feasible (zero worse
/// workloads), so a chosen candidate always matches or beats the seed
/// on at least half the workloads, and never has more total misses.
///
/// Deterministic at any `threads` (a plain [`Plan`], pure integer
/// ranking).
#[must_use]
pub fn select_search_winner(
    study: &Study,
    candidates: &[oslay_verify::LayoutView],
    objectives: &[u64],
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
) -> SearchSelection {
    assert_eq!(candidates.len(), objectives.len());
    let mut plan = Plan::plain(*sim);
    for view in candidates {
        let os = plan.share(searched_os_layout(study, view));
        for (c, case) in study.cases().iter().enumerate() {
            let label = format!("{}/{}", case.name(), view.name);
            plan.push(c, Arc::clone(&os), AppSide::Base, cache_cfg, label);
        }
    }
    let flat: Vec<u64> = live(study, &plan, threads, &Arc::new(MetricRegistry::new()))
        .iter()
        .map(|o| o.result.stats.total_misses())
        .collect();
    let cases = study.cases().len();
    let misses = rows(flat, cases);
    let worse_cases: Vec<usize> = misses
        .iter()
        .map(|row| row.iter().zip(&misses[0]).filter(|(m, b)| m > b).count())
        .collect();
    let chosen = (0..misses.len())
        .filter(|&k| worse_cases[k] * 2 <= cases)
        .min_by_key(|&k| {
            (
                misses[k].iter().sum::<u64>(),
                worse_cases[k],
                objectives[k],
                k,
            )
        })
        .expect("the seed candidate is always feasible");
    SearchSelection {
        misses,
        worse_cases,
        chosen,
    }
}

/// A completed layout search, validated and materialized: what the
/// `search` binary reports and `fig18_alternatives` folds in as a
/// column.
#[derive(Debug)]
pub struct SearchedLayout {
    /// The raw fan-out result.
    pub outcome: oslay_search::SearchOutcome,
    /// Candidate views in ranking order: seed first, then each restart's
    /// best.
    pub candidates: Vec<oslay_verify::LayoutView>,
    /// How the winner was chosen.
    pub selection: SearchSelection,
    /// The chosen layout, materialized.
    pub os: OsLayout,
}

/// Runs the full search pipeline: fan out restarts from the OptS seed,
/// then pick the winner by fast replay against the seed baseline (see
/// [`select_search_winner`]). Deterministic at any `threads`.
#[must_use]
pub fn run_layout_search(
    study: &Study,
    cache_cfg: CacheConfig,
    params: &oslay_search::SearchParams,
    sim: &SimConfig,
    threads: usize,
) -> SearchedLayout {
    let program = &study.kernel().program;
    let profile = study.averaged_os_profile();
    let seed = oslay_verify::LayoutView::from_layout(
        &study.os_layout(OsLayoutKind::OptS, cache_cfg.size()).layout,
    );
    let outcome = oslay_search::run_search(program, profile, &seed, &cache_cfg, params, threads);
    let mut candidates = vec![oslay_verify::LayoutView {
        name: "Search".to_owned(),
        ..seed
    }];
    let mut objectives = vec![outcome.initial];
    for r in &outcome.restarts {
        candidates.push(r.view.clone());
        objectives.push(r.best);
    }
    let selection = select_search_winner(study, &candidates, &objectives, cache_cfg, sim, threads);
    let os = searched_os_layout(study, &candidates[selection.chosen]);
    SearchedLayout {
        outcome,
        candidates,
        selection,
        os,
    }
}

/// JSON run-report plumbing shared by the experiment binaries.
///
/// Owns the [`MetricRegistry`] that executed plans feed ([`execute`])
/// and the [`RunReport`] under construction.
/// [`Reporter::finish`] folds in the global phase-span recorder and
/// writes `results/<name>.json` beside the `.txt` capture of stdout.
#[derive(Debug)]
pub struct Reporter {
    registry: Arc<MetricRegistry>,
    report: RunReport,
}

impl Reporter {
    /// Creates a reporter for the named run.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            registry: Arc::new(MetricRegistry::new()),
            report: RunReport::new(name),
        }
    }

    /// The registry probed caches should feed.
    #[must_use]
    pub fn registry(&self) -> Arc<MetricRegistry> {
        Arc::clone(&self.registry)
    }

    /// Appends a section of numeric fields to the report.
    pub fn add_section<S: Into<String>>(
        &mut self,
        name: &str,
        fields: impl IntoIterator<Item = (S, f64)>,
    ) {
        self.report.add_section(name, fields);
    }

    /// Folds the metric registry and the global span recorder into the
    /// report and writes it to `results/<name>.json`, returning the path.
    ///
    /// # Panics
    ///
    /// Panics if the report cannot be written.
    #[must_use]
    pub fn finish(mut self) -> PathBuf {
        self.report.add_spans(global_recorder());
        self.report.add_metrics(&self.registry);
        // Machine-dependent by nature, so the section carries the `perf.`
        // prefix that `to_json_deterministic` strips.
        let alloc = oslay_perf::alloc::snapshot();
        self.report.add_section(
            "perf.alloc",
            [
                ("alloc_calls", alloc.calls as f64),
                ("alloc_bytes", alloc.bytes as f64),
                ("live_bytes", alloc.live_bytes as f64),
                ("peak_bytes", alloc.peak_bytes as f64),
            ],
        );
        let path = PathBuf::from(format!("results/{}.json", self.report.name()));
        self.report.write(&path).expect("write run report");
        flush_trace();
        path
    }
}

/// Minimal `std`-only timing harness backing the `benches/` targets
/// (`harness = false`), so `cargo bench` works on an air-gapped machine.
///
/// Each case runs a warmup pass, then `samples` timed passes, and prints
/// the median wall time (median, not mean: robust to one slow sample from
/// a scheduler hiccup) plus throughput when an element count is given.
pub mod timing {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Times `f` over `samples` runs and returns the median duration.
    pub fn median_time<T>(samples: usize, mut f: impl FnMut() -> T) -> Duration {
        assert!(samples > 0, "need at least one sample");
        black_box(f()); // warmup
        let mut times: Vec<Duration> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    }

    /// Runs one named case and prints its median time (and element
    /// throughput, when `elements` is given).
    pub fn bench_case<T>(name: &str, samples: usize, elements: Option<u64>, f: impl FnMut() -> T) {
        let median = median_time(samples, f);
        match elements {
            Some(n) => {
                let rate = n as f64 / median.as_secs_f64();
                println!("{name:<40} {median:>12.2?}   {rate:>12.0} elem/s");
            }
            None => println!("{name:<40} {median:>12.2?}"),
        }
    }
}

/// The layout ladder of Figure 12, with the app side each level uses.
#[must_use]
pub fn figure12_ladder() -> Vec<(&'static str, OsLayoutKind, AppSide)> {
    vec![
        ("Base", OsLayoutKind::Base, AppSide::Base),
        ("C-H", OsLayoutKind::ChangHwu, AppSide::Base),
        ("OptS", OsLayoutKind::OptS, AppSide::Base),
        ("OptL", OsLayoutKind::OptL, AppSide::Base),
        ("OptA", OsLayoutKind::OptS, AppSide::Optimized),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_cache::MissKind;

    fn parse(argv: VecDeque<String>, default: StudyConfig) -> RunArgs {
        try_parse_run_args(argv, default, |_, _| Ok(false)).expect("valid arguments")
    }

    #[test]
    fn ladder_matches_figure12() {
        let names: Vec<&str> = figure12_ladder().iter().map(|&(n, _, _)| n).collect();
        assert_eq!(names, ["Base", "C-H", "OptS", "OptL", "OptA"]);
    }

    #[test]
    fn parse_trace_out_flag() {
        let argv: VecDeque<String> = ["--trace-out", "/tmp/t.json", "--threads", "2"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let args = parse(argv, StudyConfig::tiny());
        assert_eq!(
            args.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert_eq!(args.threads, 2);
        assert!(parse(VecDeque::new(), StudyConfig::tiny())
            .trace_out
            .is_none());
    }

    #[test]
    fn parse_telemetry_out_flag() {
        let argv: VecDeque<String> = ["--telemetry-out", "/tmp/tel.json"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let args = parse(argv, StudyConfig::tiny());
        assert_eq!(
            args.telemetry_out.as_deref(),
            Some(std::path::Path::new("/tmp/tel.json"))
        );
        assert!(parse(VecDeque::new(), StudyConfig::tiny())
            .telemetry_out
            .is_none());
    }

    #[test]
    fn usage_lists_every_common_flag() {
        let usage = usage_text();
        for flag in [
            "--scale",
            "--blocks",
            "--seed",
            "--threads",
            "--verify",
            "--trace-out",
            "--telemetry-out",
            "--help",
        ] {
            assert!(usage.contains(flag), "usage must document {flag}");
        }
    }

    #[test]
    fn bad_flags_are_rejected() {
        for (args, want) in [
            (
                &["--no-such-flag"][..],
                "unknown argument \"--no-such-flag\"",
            ),
            (&["--threads", "0"], "--threads must be >= 1"),
            (
                &["--threads", "x"],
                "--threads must be an integer, got \"x\"",
            ),
            (
                &["--scale", "bogus"],
                "unknown scale \"bogus\" (tiny|small|paper)",
            ),
            (&["--seed"], "--seed needs a value"),
        ] {
            let argv = args.iter().map(|s| (*s).to_owned()).collect();
            let err = try_parse_run_args(argv, StudyConfig::tiny(), |_, _| Ok(false))
                .expect_err("bad flag must be rejected");
            assert_eq!(err, want, "{args:?}");
        }
    }

    #[test]
    fn parse_verify_flag() {
        let argv: VecDeque<String> = ["--scale", "tiny", "--verify"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let args = parse(argv, StudyConfig::paper());
        assert!(args.verify);
        assert!(!parse(VecDeque::new(), StudyConfig::tiny()).verify);
    }

    #[test]
    fn one_point_plan_smoke() {
        let study = Study::generate(&StudyConfig::tiny());
        let mut plan = Plan::plain(SimConfig::fast());
        let os = plan.share(study.os_layout(OsLayoutKind::Base, 8192));
        let cfg = CacheConfig::paper_default();
        plan.push(3, os, AppSide::Base, cfg, "Shell/Base".to_owned());
        let registry = Arc::new(MetricRegistry::new());
        let r = &live(&study, &plan, 1, &registry)[0].result;
        assert!(r.stats.total_accesses() > 0);
        assert!(r.stats.misses(MissKind::OsSelf) > 0);
    }
}
