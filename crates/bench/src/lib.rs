//! Shared support for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper. They share command-line handling (`--scale tiny|small|paper`,
//! `--blocks N`, `--seed N`) and a couple of evaluation drivers.
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

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

use oslay::cache::{
    AddressMap, AttributedCache, AttributionReport, Cache, CacheConfig, InstructionCache,
};
use oslay::{
    MultiReplayer, OsLayout, OsLayoutKind, SimConfig, SimResult, Study, StudyConfig, WorkloadCase,
};
use oslay_layout::Layout;
use oslay_model::synth::Scale;
use oslay_model::Domain;
use oslay_observe::timeline;
use oslay_observe::{global_recorder, AttributionProbe, MetricRegistry, RunReport};

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

/// Builds the application layout a ladder level pairs with a case (`None`
/// for app-free workloads like Shell).
#[must_use]
pub fn app_layout_for(
    study: &Study,
    case: &WorkloadCase,
    app_side: AppSide,
    cache_size: u32,
) -> Option<Layout> {
    match app_side {
        AppSide::Base => study.app_base_layout(case),
        AppSide::Optimized => study.app_opt_layout(case, cache_size),
        AppSide::ChangHwu => study.app_ch_layout(case),
    }
}

/// Evaluates one workload under one OS layout kind on a unified cache.
#[must_use]
pub fn run_case(
    study: &Study,
    case: &WorkloadCase,
    os_kind: OsLayoutKind,
    app_side: AppSide,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
) -> SimResult {
    let os = study.os_layout(os_kind, cache_cfg.size());
    let app = app_layout_for(study, case, app_side, cache_cfg.size());
    let mut cache = Cache::new(cache_cfg);
    let _t = timeline::scope(
        timeline::group(),
        0,
        format!("{}/{}", case.name(), os_kind.name()),
    );
    study.simulate(case, &os.layout, app.as_ref(), &mut cache, sim)
}

/// Like [`run_case`], but with precomputed layouts: after the replay,
/// posts the cache's miss/eviction counts and a final set-occupancy
/// snapshot into `registry` ([`Cache::report_into`]), so the run report
/// carries `cache.*` metrics alongside the aggregate statistics.
///
/// Sharded drivers call this directly with memoized layouts (building an
/// OS layout is far more expensive than replaying a tiny trace through
/// it) and a per-job registry.
#[must_use]
pub fn run_probed_on(
    study: &Study,
    case: &WorkloadCase,
    os_layout: &Layout,
    app_layout: Option<&Layout>,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    registry: &Arc<MetricRegistry>,
) -> SimResult {
    let mut cache = Cache::new(cache_cfg);
    let result = study.simulate(case, os_layout, app_layout, &mut cache, sim);
    cache.report_into(registry.as_ref());
    result
}

/// Like [`run_case`], but posts the cache's miss/eviction counts and a
/// final set-occupancy snapshot into `registry` after the replay
/// ([`run_probed_on`]), so the run report carries `cache.*` metrics
/// alongside the aggregate statistics.
#[must_use]
pub fn run_case_probed(
    study: &Study,
    case: &WorkloadCase,
    os_kind: OsLayoutKind,
    app_side: AppSide,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    registry: &Arc<MetricRegistry>,
) -> SimResult {
    let os = study.os_layout(os_kind, cache_cfg.size());
    let app = app_layout_for(study, case, app_side, cache_cfg.size());
    let _t = timeline::scope(
        timeline::group(),
        0,
        format!("{}/{}", case.name(), os_kind.name()),
    );
    run_probed_on(
        study,
        case,
        &os.layout,
        app.as_ref(),
        cache_cfg,
        sim,
        registry,
    )
}

/// Like [`run_case`], but through the attribution engine: every miss is
/// classified compulsory/capacity/conflict, charged to its cache set,
/// Figure 13 block class, OS entry class, and (for conflicts) its
/// evictor→victim pair. Returns the usual [`SimResult`] plus the
/// [`AttributionReport`].
///
/// When `registry` is given, each classified miss also streams into it as
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
    let os = study.os_layout(os_kind, cache_cfg.size());
    let app = app_layout_for(study, case, app_side, cache_cfg.size());
    let _t = timeline::scope(
        timeline::group(),
        0,
        format!("{}/{}", case.name(), os_kind.name()),
    );
    run_attributed_on(study, case, &os, app.as_ref(), cache_cfg, sim, registry)
}

/// Like [`run_case_attributed`], but with precomputed layouts (the
/// sharded drivers memoize each [`OsLayout`] once and fan the replay jobs
/// out over it).
#[must_use]
pub fn run_attributed_on(
    study: &Study,
    case: &WorkloadCase,
    os: &OsLayout,
    app: Option<&Layout>,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    registry: Option<&Arc<MetricRegistry>>,
) -> (SimResult, AttributionReport) {
    let mut spans = oslay_layout::layout_spans(
        &study.kernel().program,
        &os.layout,
        Domain::Os,
        os.classes.as_deref(),
    );
    if let (Some(app_layout), Some(app_program)) = (app, case.app.as_ref()) {
        // App and OS address spaces are disjoint, so one map holds both.
        spans.extend(oslay_layout::layout_spans(
            app_program,
            app_layout,
            Domain::App,
            None,
        ));
    }
    let map = Arc::new(AddressMap::build(spans));
    let mut cache = match registry {
        Some(reg) => {
            let probe: Arc<dyn AttributionProbe + Send + Sync> = Arc::clone(reg) as _;
            AttributedCache::with_probe(Cache::new(cache_cfg), map, probe)
        }
        None => AttributedCache::new(Cache::new(cache_cfg), map),
    };
    let result = study.simulate(case, &os.layout, app, &mut cache, sim);
    (result, cache.report())
}

/// Runs the whole Figure-12 matrix — every workload × every ladder level
/// — over up to `threads` workers, returning `results[case][level]`.
///
/// The OS layout of each distinct kind is built once, on the caller's
/// thread, and shared read-only by the replay jobs (building a layout
/// costs far more than replaying a small trace through it). Each job
/// records its cache events into a private registry; the shards are
/// folded into `registry` in job-index order — counters and histograms
/// merge commutatively and gauges overwrite in the fixed order — so the
/// final registry state is identical at any worker count, and equal to a
/// sequential run's.
#[must_use]
pub fn run_figure12_matrix(
    study: &Study,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<Vec<SimResult>> {
    let ladder = figure12_ladder();
    let mut kinds: Vec<OsLayoutKind> = Vec::new();
    for &(_, kind, _) in &ladder {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    let layouts: Vec<(OsLayoutKind, OsLayout)> = kinds
        .into_iter()
        .map(|kind| (kind, study.os_layout(kind, cache_cfg.size())))
        .collect();
    let jobs: Vec<(usize, usize)> = (0..study.cases().len())
        .flat_map(|c| (0..ladder.len()).map(move |l| (c, l)))
        .collect();
    // One merge group for the whole matrix, allocated before the fan-out
    // so timeline runs land in job-index order at any worker count.
    let group = timeline::group();
    let sharded = oslay::exec::parallel_map(threads, jobs, |i, (c, l)| {
        let case = &study.cases()[c];
        let (level, kind, side) = ladder[l];
        let _t = timeline::scope(group, i as u64, format!("{}/{level}", case.name()));
        let os = &layouts
            .iter()
            .find(|&&(k, _)| k == kind)
            .expect("every ladder kind is memoized")
            .1;
        let app = app_layout_for(study, case, side, cache_cfg.size());
        let shard = Arc::new(MetricRegistry::new());
        let r = run_probed_on(
            study,
            case,
            &os.layout,
            app.as_ref(),
            cache_cfg,
            sim,
            &shard,
        );
        (r, shard)
    });
    let mut results: Vec<Vec<SimResult>> = Vec::with_capacity(study.cases().len());
    let mut sharded = sharded.into_iter();
    for _ in 0..study.cases().len() {
        let mut row = Vec::with_capacity(figure12_ladder().len());
        for _ in 0..figure12_ladder().len() {
            let (r, shard) = sharded.next().expect("one result per job");
            registry.merge_from(&shard);
            row.push(r);
        }
        results.push(row);
    }
    results
}

/// One evaluation point of a parameter sweep: a workload replayed under
/// an explicit (possibly custom) OS layout and cache organization.
///
/// The sweep binaries (Figures 15–17) build their full point grids up
/// front — memoizing each distinct layout in an [`Arc`] — and hand them
/// to [`run_sweep`], which shards the replays exactly like
/// [`run_figure12_matrix`].
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

/// Replays every sweep point over up to `threads` workers, returning one
/// [`SimResult`] per point, in point order.
///
/// Same sharding contract as [`run_figure12_matrix`]: every job records
/// into a private registry and the shards fold into `registry` in point
/// order, so the registry state — and therefore the run report — is
/// byte-identical at any worker count.
#[must_use]
pub fn run_sweep(
    study: &Study,
    points: Vec<SweepPoint>,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<SimResult> {
    let apps = memoized_app_layouts(study, &points);
    let jobs: Vec<(SweepPoint, Option<Arc<Layout>>)> = points.into_iter().zip(apps).collect();
    let group = timeline::group();
    let sharded = oslay::exec::parallel_map(threads, jobs, |i, (p, app)| {
        let case = &study.cases()[p.case];
        let _t = timeline::scope(group, i as u64, format!("{}@{}", case.name(), p.cache));
        let shard = Arc::new(MetricRegistry::new());
        let r = run_probed_on(study, case, &p.os, app.as_deref(), p.cache, sim, &shard);
        (r, shard)
    });
    let mut out = Vec::with_capacity(sharded.len());
    for (r, shard) in sharded {
        registry.merge_from(&shard);
        out.push(r);
    }
    out
}

/// Builds each distinct application layout a sweep grid needs exactly
/// once, on the caller's thread, returning one (shared) layout per point
/// in point order.
///
/// The memo key is `(case, app side, size key)`, where the cache size
/// participates only for [`AppSide::Optimized`] — the Base and Chang–Hwu
/// application layouts do not depend on it, so sweeping cache sizes
/// reuses a single build. Points sharing a key share one [`Arc`], which
/// the single-pass driver additionally relies on to group lanes.
fn memoized_app_layouts(study: &Study, points: &[SweepPoint]) -> Vec<Option<Arc<Layout>>> {
    type MemoKey = (usize, AppSide, u32);
    let mut memo: Vec<(MemoKey, Option<Arc<Layout>>)> = Vec::new();
    points
        .iter()
        .map(|p| {
            let size_key = match p.app {
                AppSide::Optimized => p.cache.size(),
                AppSide::Base | AppSide::ChangHwu => 0,
            };
            let key = (p.case, p.app, size_key);
            if let Some((_, hit)) = memo.iter().find(|(k, _)| *k == key) {
                return hit.clone();
            }
            let built =
                app_layout_for(study, &study.cases()[p.case], p.app, p.cache.size()).map(Arc::new);
            memo.push((key, built.clone()));
            built
        })
        .collect()
}

/// Evaluates every sweep point in **one trace pass per layout pair**
/// instead of one replay per point, returning exactly what [`run_sweep`]
/// would: the same results and the same final registry state (hence
/// byte-identical run-report metrics) at any worker count.
///
/// Points are partitioned into lanes: the points of one workload case
/// sharing an (OS layout, app layout) pair, in first-appearance order.
/// Each lane is one job that walks the case's buffered trace once through
/// a [`MultiReplayer`], whose [`oslay::cache::MultiSim`] settles all cache
/// organizations of that pair simultaneously — per-set-count LRU stacks
/// across sizes/associativities sharing a line size, banked tag arrays
/// across line sizes. Each grid point's cache events are then mirrored
/// into a private registry shard and the shards fold into `registry` in
/// global point order, the same merge contract as [`run_sweep`].
///
/// Only aggregate statistics can be collected this way: a [`SimConfig`]
/// requesting [`SimConfig::miss_detail`] falls back to [`run_sweep`]
/// (no committed sweep grid requests it). The timeline stream
/// differs from per-point mode — one recorded run per lane rather than
/// per point — but is itself worker-count-invariant.
#[must_use]
pub fn run_sweep_single_pass(
    study: &Study,
    points: Vec<SweepPoint>,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<SimResult> {
    if sim.miss_detail {
        return run_sweep(study, points, sim, threads, registry);
    }
    let apps = memoized_app_layouts(study, &points);

    /// One lane: a workload case under one layout pair, the cache
    /// organizations to evaluate under it and, per organization, the
    /// global grid index its result belongs to.
    struct Lane {
        case: usize,
        os: Arc<Layout>,
        app: Option<Arc<Layout>>,
        configs: Vec<CacheConfig>,
        origin: Vec<usize>,
    }
    let mut lanes: Vec<Lane> = Vec::new();
    for (gi, (p, app)) in points.iter().zip(&apps).enumerate() {
        // Lane identity: same case, same OS layout (pointer fast path,
        // then content) and same memoized app layout (pointer equality is
        // exact: `memoized_app_layouts` shares one Arc per key).
        let same_app = |l: &Lane| match (&l.app, app) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let lane = match lanes.iter_mut().find(|l| {
            l.case == p.case && (Arc::ptr_eq(&l.os, &p.os) || l.os == p.os) && same_app(l)
        }) {
            Some(l) => l,
            None => {
                lanes.push(Lane {
                    case: p.case,
                    os: Arc::clone(&p.os),
                    app: app.clone(),
                    configs: Vec::new(),
                    origin: Vec::new(),
                });
                lanes.last_mut().expect("just pushed")
            }
        };
        lane.configs.push(p.cache);
        lane.origin.push(gi);
    }

    let group = timeline::group();
    let sharded = oslay::exec::parallel_map(threads, lanes, |i, lane| {
        let case = &study.cases()[lane.case];
        let _t = timeline::scope(group, i as u64, format!("{}@multi", case.name()));
        let mut replayer = MultiReplayer::new(&lane.os, lane.app.as_deref(), &lane.configs);
        {
            // Feed the buffered trace — the same event source the
            // per-point `Study::simulate` path iterates — rather than
            // re-running the engine walk per lane.
            use oslay::trace::TraceSink as _;
            let _span = oslay_observe::span("study.sim");
            for event in case.trace.events() {
                replayer.event(*event);
            }
        }
        let multi = replayer.finish();
        // One (result, registry shard) per grid point of this lane,
        // tagged with its global index for the ordered fold below.
        lane.origin
            .iter()
            .enumerate()
            .map(|(k, &gi)| {
                let shard = Arc::new(MetricRegistry::new());
                multi.report_into(k, shard.as_ref());
                let result = SimResult {
                    stats: multi.stats(k),
                    os_miss_map: None,
                    os_self_miss_map: None,
                    os_cross_miss_map: None,
                    os_block_misses: None,
                    app_block_misses: None,
                };
                (gi, result, shard)
            })
            .collect::<Vec<_>>()
    });

    let n = apps.len();
    let mut slots: Vec<Option<(SimResult, Arc<MetricRegistry>)>> = vec![None; n];
    for (gi, r, shard) in sharded.into_iter().flatten() {
        slots[gi] = Some((r, shard));
    }
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        let (r, shard) = slot.expect("every grid point settled by its lane job");
        registry.merge_from(&shard);
        out.push(r);
    }
    out
}

/// Handles the sweep-mode flags shared by the fig15/16/17 binaries:
/// `--single-pass` selects [`run_sweep_single_pass`] (their default),
/// `--per-point` selects the legacy [`run_sweep`]. Returns whether the
/// token was consumed, for use inside a [`run_args_with`] `extra`
/// handler.
pub fn sweep_mode_arg(arg: &str, single_pass: &mut bool) -> bool {
    match arg {
        "--single-pass" => {
            *single_pass = true;
            true
        }
        "--per-point" => {
            *single_pass = false;
            true
        }
        _ => false,
    }
}

/// Dispatches a sweep grid to [`run_sweep_single_pass`] or the per-point
/// [`run_sweep`] according to the mode flag parsed by
/// [`sweep_mode_arg`]. Results are identical either way; only wall-clock
/// (and the timeline grouping) differs.
#[must_use]
pub fn run_sweep_mode(
    study: &Study,
    points: Vec<SweepPoint>,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
    single_pass: bool,
) -> Vec<SimResult> {
    if single_pass {
        run_sweep_single_pass(study, points, sim, threads, registry)
    } else {
        run_sweep(study, points, sim, threads, registry)
    }
}

/// Runs every workload under every OS layout kind in `kinds` through the
/// attribution engine, over up to `threads` workers, returning
/// `results[case][kind]` (the application always keeps its Base layout,
/// as in Figures 13 and 14).
///
/// Same sharding contract as [`run_figure12_matrix`]: one memoized OS
/// layout per kind, one private registry per job, shards folded into
/// `registry` in job-index order so output is identical at any worker
/// count.
#[must_use]
pub fn run_attributed_matrix(
    study: &Study,
    kinds: &[OsLayoutKind],
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<Vec<(SimResult, AttributionReport)>> {
    let layouts: Vec<OsLayout> = kinds
        .iter()
        .map(|&kind| study.os_layout(kind, cache_cfg.size()))
        .collect();
    let jobs: Vec<(usize, usize)> = (0..study.cases().len())
        .flat_map(|c| (0..kinds.len()).map(move |k| (c, k)))
        .collect();
    let group = timeline::group();
    let sharded = oslay::exec::parallel_map(threads, jobs, |i, (c, k)| {
        let case = &study.cases()[c];
        let _t = timeline::scope(
            group,
            i as u64,
            format!("{}/{}", case.name(), kinds[k].name()),
        );
        let app = app_layout_for(study, case, AppSide::Base, cache_cfg.size());
        let shard = Arc::new(MetricRegistry::new());
        let r = run_attributed_on(
            study,
            case,
            &layouts[k],
            app.as_ref(),
            cache_cfg,
            sim,
            Some(&shard),
        );
        (r, shard)
    });
    let mut results: Vec<Vec<(SimResult, AttributionReport)>> =
        Vec::with_capacity(study.cases().len());
    let mut sharded = sharded.into_iter();
    for _ in 0..study.cases().len() {
        let mut row = Vec::with_capacity(kinds.len());
        for _ in 0..kinds.len() {
            let (r, shard) = sharded.next().expect("one result per job");
            registry.merge_from(&shard);
            row.push(r);
        }
        results.push(row);
    }
    results
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
/// Deterministic at any `threads` (ordered [`oslay::exec::parallel_map`]
/// fan-out, pure integer ranking).
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
    let layouts: Vec<OsLayout> = candidates
        .iter()
        .map(|v| searched_os_layout(study, v))
        .collect();
    let jobs: Vec<(usize, usize)> = (0..candidates.len())
        .flat_map(|k| (0..study.cases().len()).map(move |c| (k, c)))
        .collect();
    let flat = oslay::exec::parallel_map(threads, jobs, |_, (k, c)| {
        let case = &study.cases()[c];
        let app = app_layout_for(study, case, AppSide::Base, cache_cfg.size());
        let mut cache = Cache::new(cache_cfg);
        study
            .simulate(case, &layouts[k].layout, app.as_ref(), &mut cache, sim)
            .stats
            .total_misses()
    });
    let cases = study.cases().len();
    let misses: Vec<Vec<u64>> = flat.chunks(cases).map(<[u64]>::to_vec).collect();
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

/// Attributed replay of one explicit OS layout across every workload
/// (app side Base), sharded like [`run_attributed_matrix`] — used to
/// rank a searched layout against the named kinds.
#[must_use]
pub fn run_attributed_row(
    study: &Study,
    os: &OsLayout,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<(SimResult, AttributionReport)> {
    let jobs: Vec<usize> = (0..study.cases().len()).collect();
    let group = timeline::group();
    let sharded = oslay::exec::parallel_map(threads, jobs, |i, c| {
        let case = &study.cases()[c];
        let _t = timeline::scope(group, i as u64, format!("{}/Search", case.name()));
        let app = app_layout_for(study, case, AppSide::Base, cache_cfg.size());
        let shard = Arc::new(MetricRegistry::new());
        let r = run_attributed_on(study, case, os, app.as_ref(), cache_cfg, sim, Some(&shard));
        (r, shard)
    });
    let mut out = Vec::with_capacity(sharded.len());
    for (r, shard) in sharded {
        registry.merge_from(&shard);
        out.push(r);
    }
    out
}

/// JSON run-report plumbing shared by the experiment binaries.
///
/// Owns the [`MetricRegistry`] that probed caches feed
/// ([`run_case_probed`]) and the [`RunReport`] under construction.
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

/// Evaluates one workload with explicit layouts on an arbitrary cache
/// organization (used by the Sep/Resv experiment).
#[must_use]
pub fn run_case_on(
    study: &Study,
    case: &WorkloadCase,
    os_layout: &Layout,
    app_layout: Option<&Layout>,
    cache: &mut dyn InstructionCache,
    sim: &SimConfig,
) -> SimResult {
    study.simulate(case, os_layout, app_layout, cache, sim)
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
    fn run_case_smoke() {
        let study = Study::generate(&StudyConfig::tiny());
        let case = &study.cases()[3];
        let r = run_case(
            &study,
            case,
            OsLayoutKind::Base,
            AppSide::Base,
            CacheConfig::paper_default(),
            &SimConfig::fast(),
        );
        assert!(r.stats.total_accesses() > 0);
        assert!(r.stats.misses(MissKind::OsSelf) > 0);
    }
}
