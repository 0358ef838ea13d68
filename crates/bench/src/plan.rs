//! The replay executor: every experiment grid is a [`Plan`], and
//! [`execute`] runs it.
//!
//! A plan lists its points — (workload case, OS layout, application side,
//! cache organization, timeline label) — plus the instrumentation
//! [`Level`], the [`SimConfig`] and the event [`Source`]. [`execute`]
//! owns everything the experiment drivers used to repeat by hand: the
//! application-layout memo, one timeline group allocated before the
//! fan-out, [`oslay::exec::parallel_map`], one private registry shard per
//! point, and the fold of those shards into the caller's registry in
//! point order. The fold order is what makes a run report byte-identical
//! at any worker count.
//!
//! The replay engine follows from the plan alone:
//!
//! - An archived source runs one job per case. The job decodes the case's
//!   `.otr` store once and feeds one [`Replayer`] per point through a
//!   [`FanoutSink`].
//! - A live plain plan without [`SimConfig::miss_detail`] that spans two
//!   or more distinct cache organizations runs one [`MultiReplayer`] job
//!   per lane: the points of one case that share an (OS, app) layout
//!   pair, settled in one walk of the trace.
//! - Anything else replays each point on its own `Cache` or
//!   `AttributedCache`, one job per point.
//!
//! A plan of a single job runs on the caller's thread, without a fan-out.

use std::path::PathBuf;
use std::sync::Arc;

use oslay::cache::{
    AddressMap, AttributedCache, AttributionReport, Cache, CacheConfig, InstructionCache,
};
use oslay::layout::BlockClass;
use oslay::trace::TraceSink;
use oslay::{
    FanoutSink, MultiReplayer, OsLayout, OsLayoutKind, Replayer, SimConfig, SimResult, Study,
};
use oslay_layout::Layout;
use oslay_model::Domain;
use oslay_observe::{timeline, AttributionProbe, MetricRegistry};
use oslay_tracestore::{StoreError, TraceReader};

use crate::archive::archive_file_name;
use crate::AppSide;

/// One replay of a plan: a workload under one layout pair and one cache
/// organization.
#[derive(Clone, Debug)]
pub struct PlanPoint {
    /// Index into [`Study::cases`].
    pub case: usize,
    /// The OS layout, shared by every point that replays under it.
    pub os: Arc<Layout>,
    /// Which application layout to pair with it.
    pub app: AppSide,
    /// The cache organization.
    pub cache: CacheConfig,
    /// The timeline run label of a per-point replay.
    pub label: String,
}

/// What a plan collects per replay.
#[derive(Clone, Debug)]
pub enum Level {
    /// Aggregate statistics (plus the miss maps and per-block vectors
    /// under [`SimConfig::miss_detail`]). Each replay posts its `cache.*`
    /// counters into its registry shard.
    Plain,
    /// The attribution engine: every miss classified compulsory, capacity
    /// or conflict, and streamed into the point's registry shard as
    /// `cache.attr.*` metrics. Carries the OS class map: the placement
    /// classes of each OS layout, keyed by its `Arc`. Layouts without
    /// classes (Base, C-H, searched) are absent and attribute every block
    /// as main-sequence code.
    Attributed(Vec<(Arc<Layout>, Vec<BlockClass>)>),
}

/// Where a plan's event streams come from.
#[derive(Clone, Debug)]
pub enum Source {
    /// Each case's buffered trace.
    Live,
    /// A trace archive directory of `.otr` stores named by
    /// [`archive_file_name`].
    Archive(PathBuf),
}

/// A grid of replays: points, level, simulation config and source.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The replays, in result (and registry fold) order.
    pub points: Vec<PlanPoint>,
    /// What each replay collects.
    pub level: Level,
    /// The simulation config every replay runs under.
    pub sim: SimConfig,
    /// Where the event streams come from.
    pub source: Source,
}

/// What one point of an executed plan produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The replay's statistics.
    pub result: SimResult,
    /// The attribution report, for points of an attributed plan.
    pub attribution: Option<AttributionReport>,
}

impl Outcome {
    /// The result with its attribution report.
    ///
    /// # Panics
    ///
    /// Panics if the point was not replayed by an attributed plan.
    #[must_use]
    pub fn attributed(self) -> (SimResult, AttributionReport) {
        let report = self.attribution.expect("an attributed plan's outcome");
        (self.result, report)
    }
}

impl Plan {
    /// An empty live plan collecting plain statistics.
    #[must_use]
    pub fn plain(sim: SimConfig) -> Self {
        Self {
            points: Vec::new(),
            level: Level::Plain,
            sim,
            source: Source::Live,
        }
    }

    /// An empty live plan replaying through the attribution engine.
    #[must_use]
    pub fn attributed(sim: SimConfig) -> Self {
        Self {
            level: Level::Attributed(Vec::new()),
            ..Self::plain(sim)
        }
    }

    /// Takes an OS layout into the plan, returning the shared handle its
    /// points replay under. An attributed plan keeps the layout's
    /// placement classes in its class map.
    pub fn share(&mut self, os: OsLayout) -> Arc<Layout> {
        let layout = Arc::new(os.layout);
        if let (Level::Attributed(classes), Some(map)) = (&mut self.level, os.classes) {
            classes.push((Arc::clone(&layout), map));
        }
        layout
    }

    /// Appends one point.
    pub fn push(
        &mut self,
        case: usize,
        os: Arc<Layout>,
        app: AppSide,
        cache: CacheConfig,
        label: String,
    ) {
        self.points.push(PlanPoint {
            case,
            os,
            app,
            cache,
            label,
        });
    }

    /// Appends every case × every `(level, kind, app side)` rung of
    /// `ladder`, case-major, each labelled `<case>/<level>`. Each distinct
    /// OS layout kind is built once, in first-appearance order.
    pub fn push_ladder(
        &mut self,
        study: &Study,
        ladder: &[(&str, OsLayoutKind, AppSide)],
        cache: CacheConfig,
    ) {
        let mut layouts: Vec<(OsLayoutKind, Arc<Layout>)> = Vec::new();
        for &(_, kind, _) in ladder {
            if layouts.iter().all(|&(k, _)| k != kind) {
                let os = self.share(study.os_layout(kind, cache.size()));
                layouts.push((kind, os));
            }
        }
        for (c, case) in study.cases().iter().enumerate() {
            for &(level, kind, app) in ladder {
                let os = &layouts
                    .iter()
                    .find(|&&(k, _)| k == kind)
                    .expect("every ladder kind is built")
                    .1;
                let label = format!("{}/{level}", case.name());
                self.push(c, Arc::clone(os), app, cache, label);
            }
        }
    }

    /// Appends every case × every OS layout kind, app side Base — the
    /// shape of Figures 13 and 14 — one layout built per kind.
    pub fn push_kinds(&mut self, study: &Study, kinds: &[OsLayoutKind], cache: CacheConfig) {
        let ladder: Vec<_> = kinds
            .iter()
            .map(|&kind| (kind.name(), kind, AppSide::Base))
            .collect();
        self.push_ladder(study, &ladder, cache);
    }
}

/// Regroups a flat point-order list into rows of `width` — the
/// `[case][level]` shape of a plan built by [`Plan::push_ladder`].
#[must_use]
pub fn rows<T>(flat: Vec<T>, width: usize) -> Vec<Vec<T>> {
    let n = flat.len() / width;
    let mut flat = flat.into_iter();
    (0..n)
        .map(|_| flat.by_ref().take(width).collect())
        .collect()
}

/// How an executed plan replays its points.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub(crate) enum Engine {
    /// One `MultiSim` pass per lane of points sharing a case and layouts.
    Lanes,
    /// One replay per point.
    Points,
    /// One archive decode per case, fanned out to each of its points.
    Cases,
}

impl Engine {
    /// The engine a plan's own contents call for.
    fn of(plan: &Plan) -> Self {
        if matches!(plan.source, Source::Archive(_)) {
            return Self::Cases;
        }
        let first = plan.points.first().map(|p| p.cache);
        let several_configs = plan.points.iter().any(|p| Some(p.cache) != first);
        let plain = matches!(plan.level, Level::Plain) && !plan.sim.miss_detail;
        if plain && several_configs {
            Self::Lanes
        } else {
            Self::Points
        }
    }
}

/// Runs every point of `plan` over up to `threads` workers and returns
/// one [`Outcome`] per point, in point order.
///
/// Each point records into a private registry shard; the shards fold
/// into `registry` in point order, so the registry — and the run report
/// built from it — is identical at any worker count. The engine is
/// chosen from the plan's contents (see the module docs); every engine
/// produces the same results and the same registry state.
///
/// # Errors
///
/// Only an archived source fails: the first [`StoreError`] in case order
/// (a missing store, or a corrupt block named by index).
pub fn execute(
    study: &Study,
    plan: &Plan,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Result<Vec<Outcome>, StoreError> {
    execute_on(study, plan, threads, registry, Engine::of(plan))
}

/// One point's outcome, tagged with its index for the ordered fold.
type Settled = (usize, Outcome, Arc<MetricRegistry>);

/// [`execute`] on a given engine.
pub(crate) fn execute_on(
    study: &Study,
    plan: &Plan,
    threads: usize,
    registry: &Arc<MetricRegistry>,
    engine: Engine,
) -> Result<Vec<Outcome>, StoreError> {
    let points = &plan.points;
    let apps = app_layouts(study, points);
    let mut jobs = match engine {
        Engine::Lanes => group(points.len(), |a, b| {
            let (p, q) = (&points[a], &points[b]);
            // Same case, same OS layout (pointer fast path, then content)
            // and the same memoized app layout (one `Arc` per memo key).
            let same_app = match (&apps[a], &apps[b]) {
                (None, None) => true,
                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                _ => false,
            };
            p.case == q.case && (Arc::ptr_eq(&p.os, &q.os) || p.os == q.os) && same_app
        }),
        Engine::Points => (0..points.len()).map(|i| vec![i]).collect(),
        Engine::Cases => group(points.len(), |a, b| points[a].case == points[b].case),
    };
    // One merge group for the whole plan, allocated before the fan-out so
    // timeline runs land in job order at any worker count.
    let group = timeline::group();
    let run = |i: usize, job: Vec<usize>| {
        let first = &points[job[0]];
        let case = study.cases()[first.case].name();
        let label = match engine {
            Engine::Lanes => format!("{case}@multi"),
            Engine::Points => first.label.clone(),
            Engine::Cases => case.to_owned(),
        };
        let _t = timeline::scope(group, i as u64, label);
        match (engine, &plan.level) {
            (Engine::Lanes, _) => Ok(replay_lane(study, plan, &apps, &job)),
            (_, Level::Plain) => replay_points(
                study,
                plan,
                &apps,
                &job,
                |i, _| Cache::new(points[i].cache),
                |cache, shard| {
                    cache.report_into(shard);
                    None
                },
            ),
            (_, Level::Attributed(classes)) => replay_points(
                study,
                plan,
                &apps,
                &job,
                |i, shard| attributed_cache(study, classes, &points[i], apps[i].as_deref(), shard),
                |cache, _| Some(cache.report()),
            ),
        }
    };
    let done = if jobs.len() == 1 {
        vec![run(0, jobs.pop().expect("one job"))]
    } else {
        oslay::exec::parallel_map(threads, jobs, run)
    };
    let mut slots: Vec<Option<(Outcome, Arc<MetricRegistry>)>> =
        points.iter().map(|_| None).collect();
    for settled in done {
        for (i, outcome, shard) in settled? {
            slots[i] = Some((outcome, shard));
        }
    }
    Ok(slots
        .into_iter()
        .map(|slot| {
            let (outcome, shard) = slot.expect("every point settled by its job");
            registry.merge_from(&shard);
            outcome
        })
        .collect())
}

/// Partitions `0..n` into groups of indices `same` relates to each
/// group's first member, in first-appearance order.
fn group(n: usize, same: impl Fn(usize, usize) -> bool) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        match groups.iter_mut().find(|g| same(g[0], i)) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// Builds each distinct application layout the plan needs exactly once,
/// on the caller's thread, returning one (shared) layout per point.
///
/// The memo key is `(case, app side, size key)`, where the cache size
/// participates only for [`AppSide::Optimized`] — the Base and Chang–Hwu
/// application layouts do not depend on it. Points sharing a key share
/// one [`Arc`], which lane grouping relies on.
fn app_layouts(study: &Study, points: &[PlanPoint]) -> Vec<Option<Arc<Layout>>> {
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
            let case = &study.cases()[p.case];
            let built = match p.app {
                AppSide::Base => study.app_base_layout(case),
                AppSide::Optimized => study.app_opt_layout(case, p.cache.size()),
                AppSide::ChangHwu => study.app_ch_layout(case),
            };
            let built = built.map(Arc::new);
            memo.push((key, built.clone()));
            built
        })
        .collect()
}

/// The attribution cache for point `p`: an address map of its OS layout
/// (with the plan's class map for it, if any) and app layout, streaming
/// classified misses into `shard`.
fn attributed_cache(
    study: &Study,
    classes: &[(Arc<Layout>, Vec<BlockClass>)],
    p: &PlanPoint,
    app: Option<&Layout>,
    shard: &Arc<MetricRegistry>,
) -> AttributedCache {
    let classes = classes
        .iter()
        .find(|(os, _)| Arc::ptr_eq(os, &p.os))
        .map(|(_, map)| map.as_slice());
    let mut spans = oslay_layout::layout_spans(&study.kernel().program, &p.os, Domain::Os, classes);
    if let (Some(app_layout), Some(app_program)) = (app, study.cases()[p.case].app.as_ref()) {
        // App and OS address spaces are disjoint, so one map holds both.
        spans.extend(oslay_layout::layout_spans(
            app_program,
            app_layout,
            Domain::App,
            None,
        ));
    }
    let probe: Arc<dyn AttributionProbe + Send + Sync> = Arc::clone(shard) as _;
    let map = Arc::new(AddressMap::build(spans));
    AttributedCache::with_probe(Cache::new(p.cache), map, probe)
}

/// Replays the points of one job, all of one case, each through the
/// cache `open` builds for it: the buffered trace once per point from a
/// live source, or one decode of the case's store fanned out to every
/// point. `settle` then posts what each cache holds into its shard and
/// returns its attribution report, if any.
fn replay_points<C: InstructionCache>(
    study: &Study,
    plan: &Plan,
    apps: &[Option<Arc<Layout>>],
    job: &[usize],
    open: impl Fn(usize, &Arc<MetricRegistry>) -> C,
    settle: impl Fn(C, &MetricRegistry) -> Option<AttributionReport>,
) -> Result<Vec<Settled>, StoreError> {
    let case = &study.cases()[plan.points[job[0]].case];
    let shards: Vec<Arc<MetricRegistry>> = job
        .iter()
        .map(|_| Arc::new(MetricRegistry::new()))
        .collect();
    let mut caches: Vec<C> = job
        .iter()
        .zip(&shards)
        .map(|(&i, shard)| open(i, shard))
        .collect();
    let results: Vec<SimResult> = match &plan.source {
        Source::Live => job
            .iter()
            .zip(&mut caches)
            .map(|(&i, cache)| {
                let os = &plan.points[i].os;
                study.simulate(case, os, apps[i].as_deref(), cache, &plan.sim)
            })
            .collect(),
        Source::Archive(dir) => {
            let mut replayers: Vec<Replayer<'_, C>> = job
                .iter()
                .zip(&mut caches)
                .map(|(&i, cache)| {
                    let os = &plan.points[i].os;
                    study.replayer_for(case, os, apps[i].as_deref(), cache, &plan.sim)
                })
                .collect();
            {
                let mut fan = FanoutSink::new(
                    replayers
                        .iter_mut()
                        .map(|r| r as &mut dyn TraceSink)
                        .collect(),
                );
                let mut reader = TraceReader::open(&dir.join(archive_file_name(case)))?;
                reader.replay_into(&mut fan)?;
            }
            replayers.into_iter().map(Replayer::finish).collect()
        }
    };
    Ok(job
        .iter()
        .zip(results)
        .zip(caches.into_iter().zip(shards))
        .map(|((&i, result), (cache, shard))| {
            let attribution = settle(cache, &shard);
            (
                i,
                Outcome {
                    result,
                    attribution,
                },
                shard,
            )
        })
        .collect())
}

/// Settles every point of one lane — one case under one layout pair — in
/// a single walk of the case's buffered trace through a
/// [`MultiReplayer`], then mirrors each point's cache events into its own
/// registry shard.
fn replay_lane(
    study: &Study,
    plan: &Plan,
    apps: &[Option<Arc<Layout>>],
    job: &[usize],
) -> Vec<Settled> {
    let first = &plan.points[job[0]];
    let case = &study.cases()[first.case];
    let configs: Vec<CacheConfig> = job.iter().map(|&i| plan.points[i].cache).collect();
    let mut replayer = MultiReplayer::new(&first.os, apps[job[0]].as_deref(), &configs);
    {
        let _span = oslay_observe::span("study.sim");
        for event in case.trace.events() {
            replayer.event(*event);
        }
    }
    let multi = replayer.finish();
    job.iter()
        .enumerate()
        .map(|(k, &i)| {
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
            let outcome = Outcome {
                result,
                attribution: None,
            };
            (i, outcome, shard)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay::StudyConfig;

    #[test]
    fn engine_follows_from_the_plan() {
        let study = Study::generate(&StudyConfig::tiny());
        let dm = CacheConfig::paper_default();
        let two_way = CacheConfig::new(8192, 32, 2);
        let with = |mut plan: Plan, configs: &[CacheConfig]| {
            let os = plan.share(study.os_layout(OsLayoutKind::OptS, 8192));
            for &cache in configs {
                plan.push(0, Arc::clone(&os), AppSide::Base, cache, String::new());
            }
            plan
        };
        let fast = SimConfig::fast();
        assert_eq!(
            Engine::of(&with(Plan::plain(fast), &[dm, dm])),
            Engine::Points
        );
        assert_eq!(
            Engine::of(&with(Plan::plain(fast), &[dm, two_way])),
            Engine::Lanes
        );
        let full = SimConfig::full();
        assert_eq!(
            Engine::of(&with(Plan::plain(full), &[dm, two_way])),
            Engine::Points
        );
        let attributed = with(Plan::attributed(fast), &[dm, two_way]);
        assert_eq!(Engine::of(&attributed), Engine::Points);
        let Level::Attributed(classes) = &attributed.level else {
            panic!("an attributed plan keeps its level");
        };
        assert_eq!(classes.len(), 1, "OptS brings its class map");
        let mut archived = with(Plan::plain(fast), &[dm, two_way]);
        archived.source = Source::Archive(PathBuf::from("archive"));
        assert_eq!(Engine::of(&archived), Engine::Cases);
    }
}
