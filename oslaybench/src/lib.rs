//! The oslay benchmark: four paper-scale workloads driven through the
//! public functions of every pipeline layer, timed end to end and, in a
//! separate traced run, layer by layer.
//!
//! A run generates one [`Study`] from the study seed (the set-up, repeated
//! and reported as a median), runs one untimed warm-up iteration of the
//! workload, then repeats timed iterations for the requested number of
//! seconds and reports medians. Every iteration's outputs are checked;
//! after the timed loop the workload's independent reference checks run
//! once. Nothing is written outside the benchmark's own `out/` and
//! `work/` directories.
//!
//! See `README.md` beside this crate for why each workload exists, which
//! layers it loads and which it leaves idle.

#![forbid(unsafe_code)]

pub mod tracer;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use oslay::{Study, StudyConfig};
use oslay_model::synth::Scale;
use oslay_perf::alloc;

use tracer::Tracer;
pub use workloads::Workload;

/// The paper study's seed: the default study seed and run seed.
pub const DEFAULT_SEED: u64 = 0x05_1995;

/// A fault injected into one run, to show that the output checks fire.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Perturbs the expected side of the first exact-equality check.
    PerturbExpected,
    /// Flips one byte in the middle of the first encoded trace store
    /// (`trace_archive` only).
    FlipStoreByte,
}

/// Everything one run is parameterised by.
#[derive(Clone, Debug)]
pub struct Settings {
    /// The workload to run.
    pub workload: Workload,
    /// The run seed: seeds the layout search and the sample of grid
    /// points the sweep's reference check replays.
    pub seed: u64,
    /// The study seed: kernel, applications and traces.
    pub study_seed: u64,
    /// Seconds of timed iterations.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Kernel scale (`Paper` for the benchmark, `Tiny` for its tests).
    pub scale: Scale,
    /// OS blocks traced per workload case.
    pub os_blocks: u64,
    /// Worker threads handed to the layers.
    pub threads: usize,
    /// How many times the study is generated (the median is reported).
    pub setups: usize,
    /// Timed iterations run even when `seconds` has already elapsed.
    pub min_iterations: usize,
    /// A fault to inject, if any.
    pub fault: Option<Fault>,
    /// Scratch directory for trace archives.
    pub work_dir: PathBuf,
}

impl Settings {
    /// The benchmark's settings: paper-scale kernel, the workload's own
    /// run length, up to `nproc` workers.
    #[must_use]
    pub fn paper(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Paper,
            study_seed: DEFAULT_SEED,
            os_blocks: workload.paper_os_blocks(),
            threads: oslay::exec::default_threads(),
            setups: 5,
            min_iterations: 3,
            fault: None,
            work_dir: bench_dir().join("work"),
        }
    }

    /// A seconds-long tiny-scale run for the benchmark's own tests.
    #[must_use]
    pub fn tiny(workload: Workload, seed: u64, trace: bool) -> Self {
        Self {
            scale: Scale::Tiny,
            os_blocks: 6_000,
            seconds: 0.0,
            setups: 2,
            min_iterations: 2,
            threads: 2,
            ..Self::paper(workload, seed, 0.0, trace)
        }
    }

    fn study_config(&self) -> StudyConfig {
        let base = match self.scale {
            Scale::Paper => StudyConfig::paper(),
            Scale::Small => StudyConfig::small(),
            Scale::Tiny => StudyConfig::tiny(),
        };
        base.with_seed(self.study_seed)
            .with_os_blocks(self.os_blocks)
    }

    /// Whether the golden fingerprints apply: the default study seed at
    /// the benchmark's own scale and run length.
    fn golden_applies(&self) -> bool {
        self.study_seed == DEFAULT_SEED
            && self.scale == Scale::Paper
            && self.os_blocks == self.workload.paper_os_blocks()
    }
}

/// The benchmark package's directory (where `out/` and `work/` live).
#[must_use]
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Counts output checks; a failed check is recorded, never panics.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    /// Checks made.
    attempted: u64,
    /// Checks that failed.
    failed: u64,
    /// The first few failures, described.
    failures: Vec<String>,
    perturb: bool,
}

impl Checks {
    fn new(fault: Option<Fault>) -> Self {
        Self {
            perturb: fault == Some(Fault::PerturbExpected),
            ..Self::default()
        }
    }

    /// Records one check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Records an exact-equality check of two counts.
    fn eq(&mut self, what: &str, actual: u64, expected: u64) {
        let expected = if std::mem::take(&mut self.perturb) {
            expected + 1
        } else {
            expected
        };
        self.check(actual == expected, || {
            format!("{what}: got {actual}, expected {expected}")
        });
    }

    /// Checks the identities every cache's counters must satisfy: hits
    /// plus misses equal accesses, and the per-kind and per-domain miss
    /// splits add up to the total.
    fn stats(&mut self, what: &str, s: &oslay::cache::MissStats) {
        use oslay::cache::MissKind;
        use oslay_model::Domain;
        let hits = s.hits(Domain::Os) + s.hits(Domain::App);
        self.eq(
            &format!("{what}: hits + misses"),
            hits + s.total_misses(),
            s.total_accesses(),
        );
        // Every non-cold miss kind belongs to one suffering domain; the
        // cold misses are what is left of each domain's total.
        let os_kinds = s.misses(MissKind::OsSelf) + s.misses(MissKind::OsByApp);
        let app_kinds = s.misses(MissKind::AppSelf) + s.misses(MissKind::AppByOs);
        let cold = s
            .domain_misses(Domain::Os)
            .checked_sub(os_kinds)
            .zip(s.domain_misses(Domain::App).checked_sub(app_kinds));
        self.eq(
            &format!("{what}: per-kind misses"),
            cold.map_or(u64::MAX, |(o, a)| o + a),
            s.misses(MissKind::Cold),
        );
        let by_domain = s.domain_misses(Domain::Os) + s.domain_misses(Domain::App);
        self.eq(
            &format!("{what}: per-domain misses"),
            by_domain,
            s.total_misses(),
        );
    }
}

/// FNV-1a over 64-bit words: the golden fingerprint of simulated stats.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Fingerprint(pub(crate) u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &oslay::cache::MissStats) {
        self.push(s.total_accesses());
        self.push(s.total_misses());
        for k in oslay::cache::MissKind::ALL {
            self.push(s.misses(k));
        }
    }
}

/// Totals of the program's own phase spans (the `kobserve` global
/// recorder: `study.*`, `exec.*`, `store.replay`). The benchmark reads
/// them as deltas around its calls to split a driver's time between the
/// layers it calls internally.
#[derive(Clone, Debug, Default)]
pub(crate) struct Phases(BTreeMap<String, (f64, u64)>);

impl Phases {
    /// The recorder's totals now.
    #[must_use]
    pub(crate) fn now() -> Self {
        Self(
            oslay_observe::global_recorder()
                .totals()
                .into_iter()
                .map(|t| (t.name, (t.total.as_secs_f64(), t.count)))
                .collect(),
        )
    }

    /// What was recorded between `earlier` and this snapshot.
    #[must_use]
    pub(crate) fn since(&self, earlier: &Phases) -> Phases {
        Self(
            self.0
                .iter()
                .map(|(k, &(s, c))| {
                    let (s0, c0) = earlier.0.get(k).copied().unwrap_or((0.0, 0));
                    (k.clone(), (s - s0, c - c0))
                })
                .collect(),
        )
    }

    /// Seconds recorded under `name`.
    #[must_use]
    pub(crate) fn secs(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    /// Scopes recorded under `name`.
    #[must_use]
    pub(crate) fn count(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |v| v.1)
    }
}

/// Raw per-layer quantities one iteration (or set-up) accumulated, keyed
/// by the names in [`PER_LAYER`] or by raw counters that
/// [`layer_metrics`] derives them from.
pub(crate) type Raw = BTreeMap<&'static str, f64>;

fn add(raw: &mut Raw, key: &'static str, v: f64) {
    *raw.entry(key).or_insert(0.0) += v;
}

/// One workload iteration's outputs, beyond its raw layer quantities.
#[derive(Clone, Debug, Default)]
pub(crate) struct IterOutput {
    /// Simulated cache accesses.
    pub(crate) accesses: u64,
    /// Fingerprint of every simulated stat that depends on the study
    /// alone (not on the run seed's layout search).
    pub(crate) fingerprint: Fingerprint,
    /// OptS misses / Base misses at 8 KB direct-mapped, over the four
    /// workloads, where the workload simulates that point.
    pub(crate) opts_miss_ratio: Option<f64>,
    /// Weighted absint coverage of OptS, where the workload classifies it.
    pub(crate) absint_coverage: Option<f64>,
}

/// Per-layer metrics emitted by a traced run, with units. Every name is
/// emitted on every workload; a layer the workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kmodel.synth_s", "s"),
    ("ktrace.gen_s", "s"),
    ("ktrace.events", "count"),
    ("ktrace.stream_events_per_s", "1/s"),
    ("kprofile.collect_s", "s"),
    ("kprofile.loops_s", "s"),
    ("klayout.build_s", "s"),
    ("klayout.builds.base", "count"),
    ("klayout.builds.c-h", "count"),
    ("klayout.builds.opts", "count"),
    ("klayout.builds.optl", "count"),
    ("core.replay_s", "s"),
    ("core.replay_events_per_s", "1/s"),
    ("core.stream_vs_buffered", "ratio"),
    ("exec.jobs", "count"),
    ("exec.busy_s", "s"),
    ("exec.wait_s", "s"),
    ("exec.utilization", "ratio"),
    ("kcache.multisim_s", "s"),
    ("kcache.multisim_point_events_per_s", "1/s"),
    ("kcache.attr_s", "s"),
    ("kcache.attr_events_per_s", "1/s"),
    ("kcache.attr_vs_plain", "ratio"),
    ("ktracestore.encode_s", "s"),
    ("ktracestore.encode_events_per_s", "1/s"),
    ("ktracestore.decode_events_per_s", "1/s"),
    ("ktracestore.verify_s", "s"),
    ("ktracestore.bytes_per_event", "B"),
    ("kverify.absint_s", "s"),
    ("kverify.absint_points_per_s", "1/s"),
    ("kverify.absint_allocs_per_point", "count"),
    ("ksearch.search_s", "s"),
    ("ksearch.evals_per_s", "1/s"),
    ("ksearch.accept_ratio", "ratio"),
    ("ksearch.gate_reject_ratio", "ratio"),
    ("ksearch.select_s", "s"),
    ("alloc.setup.count", "count"),
    ("alloc.setup.bytes", "B"),
    ("alloc.iteration.count", "count"),
    ("alloc.iteration.bytes", "B"),
    ("trace.overhead_s", "s"),
];

/// The benchmark's own spans, one per layer function it calls. Their self
/// times are emitted as `self.<span>_s`.
pub const SPANS: &[&str] = &[
    "setup",
    "iteration",
    "kanalysis.characterize",
    "bench.run_figure12_matrix",
    "bench.run_case_attributed",
    "kcache.diff_attribution",
    "klayout.os_layout",
    "klayout.dynamic_overhead",
    "ksearch.run_search",
    "bench.select_search_winner",
    "bench.searched_os_layout",
    "bench.classify_study_layout",
    "bench.run_sweep_single_pass",
    "bench.run_absint_gate",
    "bench.record_archive",
    "ktracestore.verify",
    "bench.run_archived_figure12_matrix",
    "core.replay_streaming",
    "core.simulate",
];

/// End-to-end metrics of an untraced run, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_heap_mb", "MB"),
    ("sim_accesses_per_s", "1/s"),
];

/// Name of the self-time metric of a span.
#[must_use]
pub fn self_metric(span: &str) -> String {
    format!("self.{span}_s")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives the [`PER_LAYER`] metrics of one iteration from its raw
/// quantities.
#[must_use]
fn layer_metrics(raw: &Raw, threads: usize) -> BTreeMap<&'static str, f64> {
    let g = |k: &str| raw.get(k).copied().unwrap_or(0.0);
    let plain_rate = ratio(g("replay.plain.events"), g("replay.plain.s"));
    let stream_rate = ratio(g("replay.stream.events"), g("replay.stream.s"));
    let attr_rate = ratio(g("replay.attr.events"), g("replay.attr.s"));
    let mut m = BTreeMap::new();
    m.insert("klayout.build_s", g("klayout.build_s"));
    for k in [
        "klayout.builds.base",
        "klayout.builds.c-h",
        "klayout.builds.opts",
        "klayout.builds.optl",
    ] {
        m.insert(k, g(k));
    }
    m.insert("ktrace.stream_events_per_s", stream_rate);
    m.insert("core.replay_s", g("replay.plain.s"));
    m.insert("core.replay_events_per_s", plain_rate);
    m.insert("core.stream_vs_buffered", ratio(stream_rate, plain_rate));
    m.insert("exec.jobs", g("exec.jobs"));
    m.insert("exec.busy_s", g("exec.busy_s"));
    m.insert("exec.wait_s", g("exec.wait_s"));
    m.insert(
        "exec.utilization",
        ratio(g("exec.busy_s"), threads as f64 * g("exec.fanout_s")),
    );
    m.insert("kcache.multisim_s", g("replay.multi.s"));
    m.insert(
        "kcache.multisim_point_events_per_s",
        ratio(g("replay.multi.point_events"), g("replay.multi.s")),
    );
    m.insert("kcache.attr_s", g("replay.attr.s"));
    m.insert("kcache.attr_events_per_s", attr_rate);
    m.insert("kcache.attr_vs_plain", ratio(attr_rate, plain_rate));
    m.insert("ktracestore.encode_s", g("store.encode_s"));
    m.insert(
        "ktracestore.encode_events_per_s",
        ratio(g("store.events"), g("store.encode_s")),
    );
    m.insert(
        "ktracestore.decode_events_per_s",
        ratio(g("store.decoded"), g("store.verify_s")),
    );
    m.insert("ktracestore.verify_s", g("store.verify_s"));
    m.insert(
        "ktracestore.bytes_per_event",
        ratio(g("store.bytes"), g("store.events")),
    );
    m.insert("kverify.absint_s", g("absint.s"));
    m.insert(
        "kverify.absint_points_per_s",
        ratio(g("absint.points"), g("absint.s")),
    );
    m.insert(
        "kverify.absint_allocs_per_point",
        ratio(g("absint.allocs"), g("absint.points")),
    );
    m.insert("ksearch.search_s", g("search.s"));
    m.insert(
        "ksearch.evals_per_s",
        ratio(g("search.scored"), g("search.s")),
    );
    m.insert(
        "ksearch.accept_ratio",
        ratio(g("search.accepted"), g("search.scored")),
    );
    m.insert(
        "ksearch.gate_reject_ratio",
        ratio(g("search.gate_rejected"), g("search.proposed")),
    );
    m.insert("ksearch.select_s", g("search.select_s"));
    m.insert("alloc.iteration.count", g("alloc.count"));
    m.insert("alloc.iteration.bytes", g("alloc.bytes"));
    m
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (clock ticks of 1/100 s).
#[must_use]
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// One timed iteration.
#[derive(Clone, Debug)]
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    peak_bytes: u64,
    accesses: u64,
    traced: bool,
    run: u32,
    layers: BTreeMap<&'static str, f64>,
}

/// One metric as reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct RunResult {
    /// Whether every check passed.
    pub correct: bool,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Failure descriptions (at most a few).
    pub failures: Vec<String>,
    /// The metrics of this run: [`END_TO_END`] when untraced, [`PER_LAYER`]
    /// plus span self times when traced.
    pub metrics: Vec<Metric>,
    /// Quality figures printed beside the metrics: `fail_ratio`, and
    /// `opts_miss_ratio` / `absint_coverage` where the workload computes
    /// them.
    pub quality: Vec<Metric>,
    /// Wall seconds of every timed iteration, in order (traced ones
    /// included).
    pub iteration_wall_s: Vec<f64>,
    /// Fingerprint of the simulated stats.
    pub fingerprint: u64,
    /// The spans of a traced run.
    pub spans: Vec<tracer::Span>,
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
#[must_use]
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The study after set-up, with what each set-up measured.
struct SetUp {
    study: Study,
    /// Host seconds of each set-up.
    secs: Vec<f64>,
    /// Raw per-layer quantities of each set-up.
    raw: Vec<Raw>,
}

/// Generates the study `settings.setups` times, keeping the last. Each
/// set-up is traced as run `0..setups`.
fn set_up(settings: &Settings, tracer: &Tracer) -> SetUp {
    let config = settings.study_config();
    let (mut secs, mut raws, mut study) = (Vec::new(), Vec::new(), None);
    for run in 0..settings.setups.max(1) {
        drop(study.take());
        tracer.set_run(u32::try_from(run).expect("few set-ups"));
        let phases = Phases::now();
        let a0 = alloc::snapshot();
        let t = Instant::now();
        let s = {
            let _g = tracer.span("setup");
            Study::generate_with_threads(&config, settings.threads)
        };
        secs.push(t.elapsed().as_secs_f64());
        let a = alloc::snapshot().delta_from(&a0);
        let p = Phases::now().since(&phases);
        let mut raw = Raw::new();
        let synth = p.secs("study.synth.kernel") + p.secs("study.synth.app");
        add(&mut raw, "kmodel.synth_s", synth);
        add(&mut raw, "ktrace.gen_s", p.secs("study.trace"));
        let events: usize = s.cases().iter().map(|c| c.trace.len()).sum();
        add(&mut raw, "ktrace.events", events as f64);
        add(&mut raw, "kprofile.collect_s", p.secs("study.profile"));
        add(&mut raw, "kprofile.loops_s", p.secs("study.loops"));
        add(&mut raw, "alloc.setup.count", a.calls as f64);
        add(&mut raw, "alloc.setup.bytes", a.bytes as f64);
        raws.push(raw);
        study = Some(s);
    }
    SetUp {
        study: study.expect("at least one set-up ran"),
        secs,
        raw: raws,
    }
}

/// Runs one timed iteration as run `run`.
fn timed_iteration(
    state: &mut workloads::State<'_>,
    study: &Study,
    tracer: &Tracer,
    checks: &mut Checks,
    run: u32,
    traced: bool,
) -> (Sample, IterOutput) {
    tracer.set_enabled(traced);
    tracer.set_run(run);
    let mut raw = Raw::new();
    let phases = Phases::now();
    let a0 = alloc::snapshot();
    alloc::reset_peak();
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let out = {
        let _g = tracer.span("iteration");
        state.iterate(study, tracer, &mut raw, checks)
    };
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let a = alloc::snapshot().delta_from(&a0);
    let p = Phases::now().since(&phases);
    tracer.set_enabled(false);

    add(&mut raw, "alloc.count", a.calls as f64);
    add(&mut raw, "alloc.bytes", a.bytes as f64);
    for (key, name) in [
        ("klayout.builds.base", "study.layout.Base"),
        ("klayout.builds.c-h", "study.layout.C-H"),
        ("klayout.builds.opts", "study.layout.OptS"),
        ("klayout.builds.optl", "study.layout.OptL"),
    ] {
        add(&mut raw, key, p.count(name) as f64);
        add(&mut raw, "klayout.build_s", p.secs(name));
    }
    add(&mut raw, "exec.jobs", p.count("exec.job.run") as f64);
    add(&mut raw, "exec.busy_s", p.secs("exec.job.run"));
    add(&mut raw, "exec.wait_s", p.secs("exec.job.wait"));
    add(&mut raw, "exec.fanout_s", p.secs("exec.parallel_map"));
    let sample = Sample {
        wall_s,
        cpu_s,
        peak_bytes: a.peak_bytes,
        accesses: out.accesses,
        traced,
        run,
        layers: layer_metrics(&raw, state.threads()),
    };
    (sample, out)
}

/// Checks that an iteration's outputs repeat the first iteration's.
fn check_repeats(out: &IterOutput, first: &IterOutput, checks: &mut Checks) {
    checks.eq(
        "fingerprint repeats",
        out.fingerprint.0,
        first.fingerprint.0,
    );
    checks.check(out.opts_miss_ratio == first.opts_miss_ratio, || {
        "opts_miss_ratio differs between iterations".to_owned()
    });
    checks.check(out.absint_coverage == first.absint_coverage, || {
        "absint_coverage differs between iterations".to_owned()
    });
}

/// Runs the benchmark once. See the crate docs for the run's shape.
#[must_use]
pub fn run(settings: &Settings) -> RunResult {
    let tracer = Tracer::new(settings.trace);
    let mut checks = Checks::new(settings.fault);
    let setup = set_up(settings, &tracer);
    let study = &setup.study;

    // Warm-up, then timed iterations until the next would overrun.
    let mut state = workloads::State::new(settings);
    tracer.set_enabled(false);
    let first = state.iterate(study, &tracer, &mut Raw::new(), &mut checks);
    let mut samples: Vec<Sample> = Vec::new();
    let loop_start = Instant::now();
    let first_run = u32::try_from(setup.secs.len()).expect("few set-ups");
    for i in 0.. {
        let elapsed = loop_start.elapsed().as_secs_f64();
        let typical = median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
        if i >= settings.min_iterations.max(1) && elapsed + typical > settings.seconds {
            break;
        }
        // A traced run alternates untraced and traced iterations, so the
        // tracing overhead is measured under the same conditions.
        let traced = settings.trace && i % 2 == 1;
        let run = first_run + u32::try_from(i).expect("fewer than 2^32 iterations");
        let (sample, out) = timed_iteration(&mut state, study, &tracer, &mut checks, run, traced);
        check_repeats(&out, &first, &mut checks);
        samples.push(sample);
    }
    // Only an empty scratch directory is left behind; remove it.
    let _ = std::fs::remove_dir(&settings.work_dir);

    // Once per run: the independent reference checks.
    state.verify_once(study, &mut checks);
    if settings.golden_applies() {
        checks.eq(
            "golden fingerprint",
            first.fingerprint.0,
            settings.workload.golden_fingerprint(),
        );
    }

    let metrics = if settings.trace {
        traced_metrics(&tracer, &setup, &samples)
    } else {
        untraced_metrics(&setup, &samples)
    };
    let mut quality = vec![Metric {
        name: "fail_ratio".to_owned(),
        value: ratio(checks.failed as f64, checks.attempted as f64),
        unit: "ratio",
    }];
    for (name, value) in [
        ("opts_miss_ratio", first.opts_miss_ratio),
        ("absint_coverage", first.absint_coverage),
    ] {
        if let Some(value) = value {
            quality.push(Metric {
                name: name.to_owned(),
                value,
                unit: "ratio",
            });
        }
    }
    RunResult {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        metrics,
        quality,
        iteration_wall_s: samples.iter().map(|s| s.wall_s).collect(),
        fingerprint: first.fingerprint.0,
        spans: tracer.spans(),
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Median of `f` over some samples.
fn med<'a>(samples: impl Iterator<Item = &'a Sample>, f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.map(f).collect::<Vec<_>>())
}

/// The [`END_TO_END`] metrics, medians over the timed iterations.
fn untraced_metrics(setup: &SetUp, samples: &[Sample]) -> Vec<Metric> {
    vec![
        metric("wall_s", med(samples.iter(), |s| s.wall_s), "s"),
        metric("setup_s", median(&setup.secs), "s"),
        metric("cpu_s", med(samples.iter(), |s| s.cpu_s), "s"),
        metric(
            "peak_heap_mb",
            med(samples.iter(), |s| s.peak_bytes as f64 / 1e6),
            "MB",
        ),
        metric(
            "sim_accesses_per_s",
            med(samples.iter(), |s| s.accesses as f64 / s.wall_s),
            "1/s",
        ),
    ]
}

/// The [`PER_LAYER`] metrics and span self times: medians over the traced
/// iterations, or over the set-ups for set-up quantities.
fn traced_metrics(tracer: &Tracer, setup: &SetUp, samples: &[Sample]) -> Vec<Metric> {
    let traced = || samples.iter().filter(|s| s.traced);
    let untraced = || samples.iter().filter(|s| !s.traced);
    let mut metrics = Vec::new();
    for &(name, unit) in PER_LAYER {
        let value = if setup.raw[0].contains_key(name) {
            median(&setup.raw.iter().map(|r| r[name]).collect::<Vec<_>>())
        } else if name == "trace.overhead_s" {
            med(traced(), |s| s.wall_s) - med(untraced(), |s| s.wall_s)
        } else {
            med(traced(), |s| s.layers.get(name).copied().unwrap_or(0.0))
        };
        metrics.push(metric(name, value, unit));
    }
    let setup_runs = 0..u32::try_from(setup.secs.len()).expect("few set-ups");
    let self_times: Vec<BTreeMap<&'static str, f64>> = setup_runs
        .chain(traced().map(|s| s.run))
        .map(|run| tracer.self_times(run))
        .collect();
    for &span in SPANS {
        // Each span is measured in the runs that open it: set-up or
        // iterations.
        let values: Vec<f64> = self_times
            .iter()
            .filter(|m| m.contains_key("setup") == (span == "setup"))
            .map(|m| m.get(span).copied().unwrap_or(0.0))
            .collect();
        metrics.push(metric(&self_metric(span), median(&values), "s"));
    }
    metrics
}
