//! The four workloads, each a sequence of calls into the layers' public
//! functions with a span around every call.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use oslay::analysis::arcs::ArcDeterminism;
use oslay::analysis::loops::loop_shape;
use oslay::analysis::refchar::{ref_characteristics, union_footprint};
use oslay::analysis::temporal::{InvocationSkew, ReuseDistance};
use oslay::cache::{diff_attribution, Cache, CacheConfig, MissStats};
use oslay::exec::parallel_map;
use oslay::{OsLayout, OsLayoutKind, SimConfig, SimResult, Study};
use oslay_bench::absint_gate::{classify_study_layout, run_absint_gate};
use oslay_bench::archive::{archive_file_name, record_archive, run_archived_figure12_matrix};
use oslay_bench::{
    run_case_attributed, run_figure12_matrix, run_sweep_single_pass, searched_os_layout,
    select_search_winner, AppSide, SweepPoint,
};
use oslay_layout::Layout;
use oslay_observe::{AttrClass, MetricRegistry};
use oslay_search::{run_search, SearchParams};
use oslay_tracestore::TraceReader;
use oslay_verify::{LayoutView, LineClass};

use crate::{add, Checks, Fault, IterOutput, Phases, Raw, Settings, Tracer};

/// One of the benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `all_experiments` pipeline without printing.
    PaperDigest,
    /// The design-space grid through the single-pass `MultiSim` engine.
    DesignSweep,
    /// `analyze --gate` over the five layouts.
    AbsintGate,
    /// Record, verify and replay the `.otr` trace archive.
    TraceArchive,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperDigest,
        Workload::DesignSweep,
        Workload::AbsintGate,
        Workload::TraceArchive,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDigest => "paper_digest",
            Workload::DesignSweep => "design_sweep",
            Workload::AbsintGate => "absint_gate",
            Workload::TraceArchive => "trace_archive",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// OS blocks traced per case at paper scale: the run length of one
    /// iteration. The paper's 1.2 M, halved for the gate, whose
    /// attributed replays cost about six plain ones.
    #[must_use]
    pub fn paper_os_blocks(self) -> u64 {
        match self {
            Workload::PaperDigest | Workload::DesignSweep | Workload::TraceArchive => 1_200_000,
            Workload::AbsintGate => 600_000,
        }
    }

    /// Fingerprint of the simulated stats for the default study seed at
    /// [`Workload::paper_os_blocks`].
    #[must_use]
    pub fn golden_fingerprint(self) -> u64 {
        match self {
            Workload::PaperDigest => 0xf8cb_3bf7_901b_77f3,
            Workload::DesignSweep => 0xff70_8cba_3f5d_8465,
            Workload::AbsintGate => 0x4afd_00aa_273d_c2ba,
            Workload::TraceArchive => 0xdaa9_5ec4_6ab2_bfd1,
        }
    }
}

/// Per-run state carried between iterations.
pub(crate) struct State<'s> {
    settings: &'s Settings,
    /// `absint_gate`: simulated accesses of the gate's 20 replays, counted
    /// once by plain replay during the warm-up.
    gate_accesses: Option<u64>,
    /// `design_sweep`: the grid and its results, for the reference check.
    sweep: Option<(Vec<SweepPoint>, Vec<MissStats>)>,
    /// `trace_archive`: the archived matrix, for the live comparison.
    archived: Option<Vec<Vec<MissStats>>>,
}

/// Which replay path a call drives; decides where the program's
/// `study.sim` time is charged.
#[derive(Copy, Clone)]
enum Replay {
    Plain,
    Stream,
    Attr,
    Multi,
}

/// What one iteration borrows.
struct Ctx<'a> {
    study: &'a Study,
    tracer: &'a Tracer,
    raw: &'a mut Raw,
    checks: &'a mut Checks,
    threads: usize,
    seed: u64,
}

impl Ctx<'_> {
    /// Runs `f` (a call into a replay driver) under a span, charging the
    /// replay time the program records to the path's layer.
    fn replay<R>(
        &mut self,
        span: &'static str,
        kind: Replay,
        events: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let _g = self.tracer.span(span);
        let before = Phases::now();
        let r = f();
        let secs = Phases::now().since(&before).secs("study.sim");
        let (s, e) = match kind {
            Replay::Plain => ("replay.plain.s", "replay.plain.events"),
            Replay::Stream => ("replay.stream.s", "replay.stream.events"),
            Replay::Attr => ("replay.attr.s", "replay.attr.events"),
            Replay::Multi => ("replay.multi.s", "replay.multi.point_events"),
        };
        add(self.raw, s, secs);
        add(self.raw, e, events as f64);
        r
    }

    fn os_layout(&self, kind: OsLayoutKind, size: u32) -> OsLayout {
        let _g = self.tracer.span("klayout.os_layout");
        self.study.os_layout(kind, size)
    }

    /// Every trace event of every case: what one replay per case walks.
    fn all_events(&self) -> u64 {
        self.study
            .cases()
            .iter()
            .map(|c| c.trace.len() as u64)
            .sum()
    }
}

impl<'s> State<'s> {
    pub(crate) fn new(settings: &'s Settings) -> Self {
        Self {
            settings,
            gate_accesses: None,
            sweep: None,
            archived: None,
        }
    }

    /// Worker threads the layers get.
    pub(crate) fn threads(&self) -> usize {
        self.settings.threads
    }

    /// Runs one iteration of the workload.
    pub(crate) fn iterate(
        &mut self,
        study: &Study,
        tracer: &Tracer,
        raw: &mut Raw,
        checks: &mut Checks,
    ) -> IterOutput {
        let mut cx = Ctx {
            study,
            tracer,
            raw,
            checks,
            threads: self.settings.threads,
            seed: self.settings.seed,
        };
        match self.settings.workload {
            Workload::PaperDigest => paper_digest(&mut cx),
            Workload::DesignSweep => {
                let (out, points, results) = design_sweep(&mut cx);
                self.sweep = Some((points, results));
                out
            }
            Workload::AbsintGate => absint_gate(&mut cx, &mut self.gate_accesses),
            Workload::TraceArchive => {
                let dir = self
                    .settings
                    .work_dir
                    .join(format!("archive-{}", std::process::id()));
                let (out, archived) = trace_archive(&mut cx, &dir, self.settings.fault);
                self.archived = archived;
                out
            }
        }
    }

    /// The workload's independent reference checks, once per run.
    pub(crate) fn verify_once(&self, study: &Study, checks: &mut Checks) {
        let cfg = CacheConfig::paper_default();
        let sim = SimConfig::fast();
        match self.settings.workload {
            Workload::PaperDigest | Workload::AbsintGate => {}
            Workload::DesignSweep => {
                // A seeded sample of grid points, replayed one by one
                // through a plain `Cache`: an engine independent of
                // `MultiSim`, which must agree exactly.
                let Some((points, results)) = &self.sweep else {
                    checks.check(false, || "design_sweep produced no grid".to_owned());
                    return;
                };
                let mut rng = oslay_model::rng::Rng::seed_from_u64(self.settings.seed ^ 0x5EED);
                for _ in 0..8 {
                    let i = rng.gen_range(0..points.len());
                    let p = &points[i];
                    let case = &study.cases()[p.case];
                    let app = study.app_base_layout(case);
                    let mut cache = Cache::new(p.cache);
                    let r = study.simulate(case, &p.os, app.as_ref(), &mut cache, &sim);
                    checks.eq(
                        &format!("grid point {i}: plain-cache misses"),
                        r.stats.total_misses(),
                        results[i].total_misses(),
                    );
                    checks.check(r.stats == results[i], || {
                        format!(
                            "grid point {i}: plain Cache {:?} != MultiSim {:?}",
                            r.stats, results[i]
                        )
                    });
                }
            }
            Workload::TraceArchive => {
                let registry = Arc::new(MetricRegistry::new());
                let live = matrix_stats(&run_figure12_matrix(
                    study,
                    cfg,
                    &sim,
                    self.settings.threads,
                    &registry,
                ));
                checks.check(self.archived.as_ref() == Some(&live), || {
                    "archived Figure-12 matrix differs from the live one".to_owned()
                });
            }
        }
    }
}

/// The stats of a Figure-12 matrix, `[case][level]`.
fn matrix_stats(matrix: &[Vec<SimResult>]) -> Vec<Vec<MissStats>> {
    matrix
        .iter()
        .map(|row| row.iter().map(|r| r.stats).collect())
        .collect()
}

fn misses(row: &[MissStats], level: usize) -> u64 {
    row[level].total_misses()
}

/// OptS misses over Base misses, summed over the cases of a Figure-12
/// matrix (levels in `figure12_ladder` order: Base first, OptS third).
fn opts_ratio(matrix: &[Vec<MissStats>]) -> f64 {
    let base: u64 = matrix.iter().map(|r| misses(r, 0)).sum();
    let opts: u64 = matrix.iter().map(|r| misses(r, 2)).sum();
    opts as f64 / base as f64
}

/// The characterization half of the digest (Section 3 metrics).
fn characterize(study: &Study) -> f64 {
    let program = &study.kernel().program;
    let mut acc = ArcDeterminism::measure(study.averaged_os_profile()).fraction_ge_99();
    let profiles: Vec<_> = study.cases().iter().map(|c| c.os_profile.clone()).collect();
    acc += union_footprint(program, &profiles).code_fraction;
    for c in study.cases() {
        acc += ref_characteristics(program, &c.os_profile, &c.trace).executed_code_fraction;
        acc += ReuseDistance::measure(program, &c.os_profile, &c.trace, 10).reuse_within(1000.0);
    }
    let loops = study.os_loops();
    acc += loop_shape(loops.executed_loops().filter(|l| !l.has_calls)).median_size;
    acc += loop_shape(loops.executed_loops().filter(|l| l.has_calls)).median_size;
    acc += InvocationSkew::measure(program, study.averaged_os_profile()).top_share(10);
    acc
}

/// `run_layout_search`, call by call: the OptS seed, the search fan-out,
/// replay-gated winner selection, materialization.
fn search(cx: &mut Ctx<'_>, cfg: CacheConfig, params: &SearchParams) -> OsLayout {
    let study = cx.study;
    let threads = cx.threads;
    let seed = LayoutView::from_layout(&cx.os_layout(OsLayoutKind::OptS, cfg.size()).layout);
    let t = Instant::now();
    let outcome = {
        let _g = cx.tracer.span("ksearch.run_search");
        run_search(
            &study.kernel().program,
            study.averaged_os_profile(),
            &seed,
            &cfg,
            params,
            threads,
        )
    };
    add(cx.raw, "search.s", t.elapsed().as_secs_f64());
    for r in &outcome.restarts {
        add(cx.raw, "search.scored", r.stats.scored as f64);
        add(
            cx.raw,
            "search.accepted",
            (r.stats.accepted + r.stats.accepted_worse) as f64,
        );
        add(cx.raw, "search.proposed", r.stats.proposed as f64);
        add(cx.raw, "search.gate_rejected", r.stats.gate_rejected as f64);
    }
    let mut candidates = vec![LayoutView {
        name: "Search".to_owned(),
        ..seed
    }];
    let mut objectives = vec![outcome.initial];
    for r in &outcome.restarts {
        candidates.push(r.view.clone());
        objectives.push(r.best);
    }
    let t = Instant::now();
    let events = candidates.len() as u64 * cx.all_events();
    let selection = cx.replay("bench.select_search_winner", Replay::Plain, events, || {
        select_search_winner(
            study,
            &candidates,
            &objectives,
            cfg,
            &SimConfig::fast(),
            threads,
        )
    });
    add(cx.raw, "search.select_s", t.elapsed().as_secs_f64());
    let total = |k: usize| selection.misses[k].iter().sum::<u64>();
    let (chosen, seed_total) = (total(selection.chosen), total(0));
    cx.checks.check(chosen <= seed_total, || {
        format!("searched winner has {chosen} misses, more than OptS's {seed_total}")
    });
    let _g = cx.tracer.span("bench.searched_os_layout");
    searched_os_layout(study, &candidates[selection.chosen])
}

fn fingerprint_classes(out: &mut IterOutput, c: &oslay_verify::Classification) {
    for class in [
        LineClass::AlwaysHit,
        LineClass::Persistent,
        LineClass::AlwaysMiss,
        LineClass::Unclassified,
    ] {
        out.fingerprint
            .push(c.points.iter().filter(|p| p.class == class).count() as u64);
    }
}

fn paper_digest(cx: &mut Ctx<'_>) -> IterOutput {
    let study = cx.study;
    let threads = cx.threads;
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let mut out = IterOutput::default();
    {
        let _g = cx.tracer.span("kanalysis.characterize");
        std::hint::black_box(characterize(study));
    }

    let registry = Arc::new(MetricRegistry::new());
    let events = 5 * cx.all_events();
    let matrix = cx.replay("bench.run_figure12_matrix", Replay::Plain, events, || {
        run_figure12_matrix(study, cfg, &sim, threads, &registry)
    });
    let matrix = matrix_stats(&matrix);
    for (case, row) in study.cases().iter().zip(&matrix) {
        for s in row {
            cx.checks.stats(case.name(), s);
            out.fingerprint.stats(s);
            out.accesses += s.total_accesses();
        }
    }
    out.opts_miss_ratio = Some(opts_ratio(&matrix));

    // Shell attribution, Base vs OptS.
    let shell = &study.cases()[3];
    let mut reports = Vec::new();
    for kind in [OsLayoutKind::Base, OsLayoutKind::OptS] {
        let (r, attr) = cx.replay(
            "bench.run_case_attributed",
            Replay::Attr,
            shell.trace.len() as u64,
            || {
                run_case_attributed(
                    study,
                    shell,
                    kind,
                    AppSide::Base,
                    cfg,
                    &sim,
                    Some(&registry),
                )
            },
        );
        cx.checks.stats("Shell attributed", &r.stats);
        let classes = [
            AttrClass::Compulsory,
            AttrClass::Capacity,
            AttrClass::Conflict,
        ];
        cx.checks.eq(
            "attribution classes partition the misses",
            classes.iter().map(|&c| attr.misses_of(c)).sum(),
            attr.total_misses,
        );
        cx.checks.eq(
            "attributed misses match the cache",
            attr.total_misses,
            r.stats.total_misses(),
        );
        out.fingerprint.stats(&r.stats);
        out.accesses += r.stats.total_accesses();
        reports.push(attr);
    }
    {
        let _g = cx.tracer.span("kcache.diff_attribution");
        std::hint::black_box(diff_attribution(&reports[0], &reports[1]).conflict_delta());
    }

    let opts = cx.os_layout(OsLayoutKind::OptS, cfg.size());
    {
        let _g = cx.tracer.span("klayout.dynamic_overhead");
        std::hint::black_box(
            opts.layout
                .dynamic_overhead(&study.kernel().program, study.averaged_os_profile()),
        );
    }

    let params = SearchParams {
        seed: cx.seed,
        ..SearchParams::default()
    };
    let searched = search(cx, cfg, &params);

    let mut views: Vec<(&str, LayoutView)> = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
        OsLayoutKind::OptL,
    ]
    .iter()
    .map(|&kind| {
        (
            kind.name(),
            LayoutView::from_layout(&cx.os_layout(kind, cfg.size()).layout),
        )
    })
    .collect();
    views.push(("Search", LayoutView::from_layout(&searched.layout)));
    for (name, view) in &views {
        let a0 = oslay_perf::alloc::snapshot();
        let t = Instant::now();
        let c = {
            let _g = cx.tracer.span("bench.classify_study_layout");
            classify_study_layout(study, view, cfg)
        };
        add(cx.raw, "absint.s", t.elapsed().as_secs_f64());
        add(cx.raw, "absint.points", c.points.len() as f64);
        let allocs = oslay_perf::alloc::snapshot().delta_from(&a0).calls;
        add(cx.raw, "absint.allocs", allocs as f64);
        cx.checks.eq(
            &format!("{name}: absint lattice violations"),
            c.invariant_violations,
            0,
        );
        if *name != "Search" {
            fingerprint_classes(&mut out, &c);
        }
        if *name == "OptS" {
            out.absint_coverage = Some(c.coverage());
        }
    }
    out
}

/// The committed design-space grid, with OS layouts built per cache size
/// as the figure sweeps build them.
fn design_sweep(cx: &mut Ctx<'_>) -> (IterOutput, Vec<SweepPoint>, Vec<MissStats>) {
    let study = cx.study;
    let threads = cx.threads;
    let sizes = [4096u32, 8192, 16384, 32768, 65536, 131_072, 262_144];
    let kinds = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
    ];
    let layouts: Vec<Vec<Arc<Layout>>> = sizes
        .iter()
        .map(|&size| {
            kinds
                .iter()
                .map(|&kind| Arc::new(cx.os_layout(kind, size).layout))
                .collect()
        })
        .collect();
    let mut points = Vec::new();
    for case in 0..study.cases().len() {
        for (si, &size) in sizes.iter().enumerate() {
            let mut configs: Vec<CacheConfig> = [1u32, 2, 4, 8]
                .iter()
                .map(|&w| CacheConfig::new(size, 32, w))
                .collect();
            if size == 8192 {
                configs.extend([64u32, 128].map(|line| CacheConfig::new(size, line, 1)));
            }
            for cache in configs {
                for os in &layouts[si] {
                    points.push(SweepPoint {
                        case,
                        os: Arc::clone(os),
                        app: AppSide::Base,
                        cache,
                    });
                }
            }
        }
    }
    let point_events: u64 = points
        .iter()
        .map(|p| study.cases()[p.case].trace.len() as u64)
        .sum();
    let registry = Arc::new(MetricRegistry::new());
    let grid = points.clone();
    let results = cx.replay(
        "bench.run_sweep_single_pass",
        Replay::Multi,
        point_events,
        || run_sweep_single_pass(study, grid, &SimConfig::fast(), threads, &registry),
    );
    let results: Vec<MissStats> = results.iter().map(|r| r.stats).collect();

    let mut out = IterOutput::default();
    let (mut base, mut opts) = (0u64, 0u64);
    let paper = CacheConfig::paper_default();
    for (p, s) in points.iter().zip(&results) {
        cx.checks.stats("grid point", s);
        out.fingerprint.stats(s);
        out.accesses += s.total_accesses();
        if p.cache == paper {
            if Arc::ptr_eq(&p.os, &layouts[1][0]) {
                base += s.total_misses();
            } else if Arc::ptr_eq(&p.os, &layouts[1][2]) {
                opts += s.total_misses();
            }
        }
    }
    out.opts_miss_ratio = Some(opts as f64 / base as f64);
    (out, points, results)
}

/// `analyze --gate` over Base, C-H, OptS, OptL and a searched layout.
fn absint_gate(cx: &mut Ctx<'_>, gate_accesses: &mut Option<u64>) -> IterOutput {
    let study = cx.study;
    let threads = cx.threads;
    let cfg = CacheConfig::paper_default();
    let mut layouts: Vec<(String, OsLayout)> = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
        OsLayoutKind::OptL,
    ]
    .iter()
    .map(|&kind| (kind.name().to_owned(), cx.os_layout(kind, cfg.size())))
    .collect();
    let params = SearchParams {
        budget: 8_000,
        restarts: 1,
        seed: cx.seed,
        ..SearchParams::default()
    };
    layouts.push(("Search".to_owned(), search(cx, cfg, &params)));

    if gate_accesses.is_none() {
        // Counted once per run (during the untimed warm-up): the gate's
        // replays fetch exactly what a plain replay of the same layout
        // and workload fetches.
        let jobs: Vec<(usize, usize)> = (0..layouts.len())
            .flat_map(|l| (0..study.cases().len()).map(move |c| (l, c)))
            .collect();
        let counts = parallel_map(threads, jobs, |_, (l, c)| {
            let case = &study.cases()[c];
            let app = study.app_base_layout(case);
            let mut cache = Cache::new(cfg);
            study
                .simulate(
                    case,
                    &layouts[l].1.layout,
                    app.as_ref(),
                    &mut cache,
                    &SimConfig::fast(),
                )
                .stats
                .total_accesses()
        });
        *gate_accesses = Some(counts.iter().sum());
    }

    let before = Phases::now();
    let main_allocs = oslay_perf::alloc::thread_snapshot().0;
    let t = Instant::now();
    let outcome = {
        let _g = cx.tracer.span("bench.run_absint_gate");
        run_absint_gate(study, &layouts, cfg, threads)
    };
    let wall = t.elapsed().as_secs_f64();
    let d = Phases::now().since(&before);
    let points: u64 = outcome
        .classifications
        .iter()
        .map(|(_, c)| c.points.len() as u64)
        .sum();
    // The gate classifies on the calling thread, then fans the attributed
    // replays out to the workers: the fan-out's jobs are the replay time,
    // the rest of the call is the analysis.
    add(cx.raw, "replay.attr.s", d.secs("exec.job.run"));
    add(
        cx.raw,
        "replay.attr.events",
        (layouts.len() as u64 * cx.all_events()) as f64,
    );
    add(cx.raw, "absint.s", wall - d.secs("exec.parallel_map"));
    add(cx.raw, "absint.points", points as f64);
    add(
        cx.raw,
        "absint.allocs",
        (oslay_perf::alloc::thread_snapshot().0 - main_allocs) as f64,
    );

    let mut out = IterOutput {
        accesses: gate_accesses.unwrap_or(0),
        ..IterOutput::default()
    };
    cx.checks.eq(
        "gate rows",
        outcome.rows.len() as u64,
        (layouts.len() * study.cases().len()) as u64,
    );
    for row in &outcome.rows {
        cx.checks.check(row.ok(), || {
            format!(
                "absint gate {}/{}: ah_misses={} persistent_excess={} am_mismatch={}",
                row.layout, row.workload, row.ah_misses, row.persistent_excess, row.am_mismatch
            )
        });
        if row.layout == "Search" {
            continue;
        }
        for v in [
            row.ah_points,
            row.ah_misses,
            row.persistent_lines,
            row.persistent_excess,
            row.am_points,
            row.am_mismatch,
        ] {
            out.fingerprint.push(v);
        }
    }
    for (name, c) in &outcome.classifications {
        cx.checks.eq(
            &format!("{name}: absint lattice violations"),
            c.invariant_violations,
            0,
        );
        if name != "Search" {
            fingerprint_classes(&mut out, c);
        }
        if name == "OptS" {
            out.absint_coverage = Some(c.coverage());
        }
    }
    out
}

/// Flips one byte in the middle of `path`.
fn flip_byte(path: &Path) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    std::fs::write(path, bytes)
}

/// Record every case into `.otr` stores, verify them, replay the Figure-12
/// matrix from them, and replay OptS streamed and buffered.
fn trace_archive(
    cx: &mut Ctx<'_>,
    dir: &Path,
    fault: Option<Fault>,
) -> (IterOutput, Option<Vec<Vec<MissStats>>>) {
    let study = cx.study;
    let threads = cx.threads;
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let mut out = IterOutput::default();
    let _ = std::fs::remove_dir_all(dir);

    let t = Instant::now();
    let recorded = {
        let _g = cx.tracer.span("bench.record_archive");
        record_archive(study, dir, threads)
    };
    add(cx.raw, "store.encode_s", t.elapsed().as_secs_f64());
    let summaries = match recorded {
        Ok(s) => s,
        Err(e) => {
            cx.checks.check(false, || format!("record_archive: {e}"));
            return (out, None);
        }
    };
    for ((_, summary), case) in summaries.iter().zip(study.cases()) {
        cx.checks.eq(
            &format!("{}: encoded events", case.name()),
            summary.totals.events,
            case.trace.len() as u64,
        );
        add(cx.raw, "store.events", summary.totals.events as f64);
        add(cx.raw, "store.bytes", summary.file_bytes as f64);
    }
    if fault == Some(Fault::FlipStoreByte) {
        if let Err(e) = flip_byte(&dir.join(archive_file_name(&study.cases()[0]))) {
            cx.checks.check(false, || format!("fault injection: {e}"));
        }
    }

    let files: Vec<PathBuf> = study
        .cases()
        .iter()
        .map(|c| dir.join(archive_file_name(c)))
        .collect();
    let t = Instant::now();
    let verified = {
        let _g = cx.tracer.span("ktracestore.verify");
        parallel_map(threads, files, |_, path| {
            TraceReader::open(&path).and_then(|mut r| r.verify())
        })
    };
    add(cx.raw, "store.verify_s", t.elapsed().as_secs_f64());
    for (v, (name, written)) in verified.iter().zip(&summaries) {
        match v {
            Ok(s) => {
                add(cx.raw, "store.decoded", s.totals.events as f64);
                cx.checks.check(s.totals == written.totals, || {
                    format!("{name}: decoded totals differ from encoded")
                });
            }
            Err(e) => cx.checks.check(false, || format!("{name}: verify: {e}")),
        }
    }

    let registry = Arc::new(MetricRegistry::new());
    let archived = {
        let _g = cx.tracer.span("bench.run_archived_figure12_matrix");
        run_archived_figure12_matrix(study, dir, cfg, &sim, threads, &registry)
    };
    let archived: Option<Vec<Vec<MissStats>>> = match archived {
        Ok(m) => Some(matrix_stats(&m)),
        Err(e) => {
            cx.checks.check(false, || format!("archived replay: {e}"));
            None
        }
    };
    if let Some(matrix) = &archived {
        for (case, row) in study.cases().iter().zip(matrix) {
            for s in row {
                cx.checks.stats(case.name(), s);
                out.fingerprint.stats(s);
                out.accesses += s.total_accesses();
            }
        }
        out.opts_miss_ratio = Some(opts_ratio(matrix));
    }

    // The same OptS replay fed by the engine walk and by the buffered trace.
    let opts = cx.os_layout(OsLayoutKind::OptS, cfg.size());
    let all = cx.all_events();
    let cases: Vec<usize> = (0..study.cases().len()).collect();
    let streamed = cx.replay("core.replay_streaming", Replay::Stream, all, || {
        parallel_map(threads, cases.clone(), |_, c| {
            let case = &study.cases()[c];
            let app = study.app_base_layout(case);
            let mut cache = Cache::new(cfg);
            study
                .replay_streaming(case, &opts.layout, app.as_ref(), &mut cache, &sim)
                .stats
        })
    });
    let buffered = cx.replay("core.simulate", Replay::Plain, all, || {
        parallel_map(threads, cases.clone(), |_, c| {
            let case = &study.cases()[c];
            let app = study.app_base_layout(case);
            let mut cache = Cache::new(cfg);
            study
                .simulate(case, &opts.layout, app.as_ref(), &mut cache, &sim)
                .stats
        })
    });
    for (c, case) in study.cases().iter().enumerate() {
        cx.checks.check(streamed[c] == buffered[c], || {
            format!("{}: streamed replay differs from buffered", case.name())
        });
        if let Some(matrix) = &archived {
            cx.checks.check(matrix[c][2] == buffered[c], || {
                format!(
                    "{}: archived OptS replay differs from buffered",
                    case.name()
                )
            });
        }
        out.accesses += streamed[c].total_accesses() + buffered[c].total_accesses();
    }
    let _ = std::fs::remove_dir_all(dir);
    (out, archived)
}
