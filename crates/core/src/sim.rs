//! Trace replay through a cache under a pair of layouts.

use oslay_analysis::missmap::AddressHistogram;
use oslay_cache::{CacheConfig, InstructionCache, MissKind, MissStats, MultiSim};
use oslay_layout::Layout;
use oslay_model::Domain;
use oslay_observe::timeline::{self, CacheSnapshot, WindowRecorder};
use oslay_trace::TraceEvent;

use crate::{Study, WorkloadCase};

/// Cumulative cache state for the timeline: aggregate statistics off
/// [`InstructionCache::stats`] plus whatever state sample the cache's
/// own telemetry probe provides.
fn cache_snapshot<C: InstructionCache + ?Sized>(cache: &C) -> CacheSnapshot {
    let stats = cache.stats();
    CacheSnapshot {
        accesses: stats.total_accesses(),
        os_accesses: stats.accesses(Domain::Os),
        misses: stats.total_misses(),
        cold_misses: stats.misses(MissKind::Cold),
        probe: cache.telemetry_snapshot(),
    }
}

/// What to collect during a simulation.
#[derive(Copy, Clone, Debug)]
pub struct SimConfig {
    /// Collect where the misses land: per-1KB histograms of OS miss
    /// addresses (Figures 1, 14) and per-block miss counts (Figure 13,
    /// Table 2).
    pub miss_detail: bool,
}

impl SimConfig {
    /// Collect nothing beyond the aggregate statistics.
    #[must_use]
    pub fn fast() -> Self {
        Self { miss_detail: false }
    }

    /// Collect everything.
    #[must_use]
    pub fn full() -> Self {
        Self { miss_detail: true }
    }
}

/// Result of replaying one workload trace against one layout pair.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Aggregate access/miss statistics.
    pub stats: MissStats,
    /// OS miss addresses at 1 KB granularity, if requested.
    pub os_miss_map: Option<AddressHistogram>,
    /// OS self-interference miss addresses (Figure 1-b), if requested.
    pub os_self_miss_map: Option<AddressHistogram>,
    /// OS-from-application interference miss addresses (Figure 1-c), if
    /// requested.
    pub os_cross_miss_map: Option<AddressHistogram>,
    /// Per-OS-block miss counts, if requested.
    pub os_block_misses: Option<Vec<u64>>,
    /// Per-app-block miss counts, if requested (empty when the workload
    /// has no application).
    pub app_block_misses: Option<Vec<u64>>,
}

impl SimResult {
    /// Total miss rate over all instruction fetches.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        self.stats.miss_rate()
    }
}

/// A streaming trace consumer that drives a cache: each [`TraceEvent`]
/// maps through the layouts to an instruction-fetch address stream and the
/// configured miss collectors.
///
/// This is the engine's hot path. [`Study::simulate`] feeds it from a
/// buffered [`oslay_trace::Trace`] (the compatibility shim);
/// [`Study::replay_streaming`] feeds it straight from the trace engine via
/// [`oslay_trace::TraceSink`], so paper-scale workloads never materialize
/// the event vector.
pub struct Replayer<'a, C: InstructionCache + ?Sized = dyn InstructionCache> {
    os_layout: &'a Layout,
    app_layout: Option<&'a Layout>,
    cache: &'a mut C,
    /// Present under [`SimConfig::miss_detail`].
    detail: Option<MissDetail>,
    /// Timeline recorder, present only when the timeline is enabled and
    /// this thread is inside a recording scope — the hot path then pays
    /// one branch per event plus a periodic cache sample.
    telemetry: Option<Box<WindowRecorder>>,
}

/// Where the misses of a replay landed: the collectors behind
/// [`SimConfig::miss_detail`].
struct MissDetail {
    os_miss_map: AddressHistogram,
    os_self_miss_map: AddressHistogram,
    os_cross_miss_map: AddressHistogram,
    os_block_misses: Vec<u64>,
    app_block_misses: Vec<u64>,
}

impl MissDetail {
    /// Files one OS miss reported by the cache under its address.
    fn add_os_miss(&mut self, addr: u64, kind: MissKind) {
        self.os_miss_map.add(addr);
        match kind {
            MissKind::OsSelf => self.os_self_miss_map.add(addr),
            MissKind::OsByApp => self.os_cross_miss_map.add(addr),
            _ => {}
        }
    }
}

impl<C: InstructionCache + ?Sized> std::fmt::Debug for Replayer<'_, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replayer")
            .field("os_layout", &self.os_layout.name())
            .field("has_app_layout", &self.app_layout.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a, C: InstructionCache + ?Sized> Replayer<'a, C> {
    /// Creates a replayer. `os_blocks`/`app_blocks` size the per-block
    /// miss vectors when `config.miss_detail` is set.
    #[must_use]
    pub fn new(
        os_layout: &'a Layout,
        app_layout: Option<&'a Layout>,
        cache: &'a mut C,
        config: &SimConfig,
        os_blocks: usize,
        app_blocks: usize,
    ) -> Self {
        let telemetry = timeline::recorder().map(Box::new);
        if telemetry.is_some() {
            // Ask the cache to keep its side of the telemetry (the
            // eviction-age histogram) for the duration of this replay;
            // `finish` turns it back off.
            cache.set_telemetry(true);
        }
        Self {
            os_layout,
            app_layout,
            cache,
            detail: config.miss_detail.then(|| MissDetail {
                os_miss_map: AddressHistogram::paper(),
                os_self_miss_map: AddressHistogram::paper(),
                os_cross_miss_map: AddressHistogram::paper(),
                os_block_misses: vec![0; os_blocks],
                app_block_misses: vec![0; app_blocks],
            }),
            telemetry,
        }
    }

    /// Replays one event.
    ///
    /// # Panics
    ///
    /// Panics if an app block arrives but no app layout was supplied.
    pub fn on_event(&mut self, event: TraceEvent) {
        self.handle_event(event);
        if let Some(tl) = self.telemetry.as_deref_mut() {
            if tl.tick() {
                tl.sample(&cache_snapshot(&*self.cache));
            }
        }
    }

    fn handle_event(&mut self, event: TraceEvent) {
        // Boundary and marker events feed the cache's diagnostic
        // hooks (no-ops on plain caches) but fetch nothing.
        let (id, domain) = match event {
            TraceEvent::Block { id, domain } => (id, domain),
            TraceEvent::OsEnter(kind) => {
                self.cache.note_os_enter(kind);
                return;
            }
            TraceEvent::OsExit => {
                self.cache.note_os_exit();
                return;
            }
            TraceEvent::Mark(tag) => {
                self.cache.note_mark(tag);
                return;
            }
        };
        let layout = match domain {
            Domain::Os => self.os_layout,
            Domain::App => self.app_layout.expect("app block but no app layout"),
        };
        let (base, words) = (layout.addr(id), layout.fetch_words(id));
        let Some(detail) = self.detail.as_mut() else {
            self.cache.access_words(base, words, domain, &mut |_, _| {});
            return;
        };
        let missed = self
            .cache
            .access_words(base, words, domain, &mut |addr, kind| {
                if domain == Domain::Os {
                    detail.add_os_miss(addr, kind);
                }
            });
        let blocks = match domain {
            Domain::Os => &mut detail.os_block_misses,
            Domain::App => &mut detail.app_block_misses,
        };
        blocks[id.index()] += missed;
    }

    /// Finishes the replay, reading the final statistics off the cache.
    /// If the timeline was recording, the final (possibly partial)
    /// window is closed, the run's phases are segmented, and the cache's
    /// telemetry bookkeeping is released.
    #[must_use]
    pub fn finish(mut self) -> SimResult {
        if let Some(tl) = self.telemetry.take() {
            tl.finish(&cache_snapshot(&*self.cache));
            self.cache.set_telemetry(false);
        }
        let stats = *self.cache.stats();
        match self.detail {
            Some(d) => SimResult {
                stats,
                os_miss_map: Some(d.os_miss_map),
                os_self_miss_map: Some(d.os_self_miss_map),
                os_cross_miss_map: Some(d.os_cross_miss_map),
                os_block_misses: Some(d.os_block_misses),
                app_block_misses: Some(d.app_block_misses),
            },
            None => SimResult {
                stats,
                os_miss_map: None,
                os_self_miss_map: None,
                os_cross_miss_map: None,
                os_block_misses: None,
                app_block_misses: None,
            },
        }
    }
}

impl<C: InstructionCache + ?Sized> oslay_trace::TraceSink for Replayer<'_, C> {
    fn event(&mut self, event: TraceEvent) {
        self.on_event(event);
    }
}

/// Duplicates a trace stream into several sinks, in order.
///
/// The fan-out half of single-pass sweeping: one trace decode (or one
/// engine walk) feeds any number of consumers — e.g. the archived-matrix
/// driver decodes each `.otr` case once and replays it through every
/// layout's [`Replayer`] side by side instead of re-decoding per point.
pub struct FanoutSink<'a> {
    sinks: Vec<&'a mut dyn oslay_trace::TraceSink>,
}

impl std::fmt::Debug for FanoutSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl<'a> FanoutSink<'a> {
    /// Wraps the given sinks; every event is forwarded to each of them in
    /// the order given.
    #[must_use]
    pub fn new(sinks: Vec<&'a mut dyn oslay_trace::TraceSink>) -> Self {
        Self { sinks }
    }
}

impl oslay_trace::TraceSink for FanoutSink<'_> {
    fn event(&mut self, event: TraceEvent) {
        for sink in &mut self.sinks {
            sink.event(event);
        }
    }
}

/// Timeline sample for a [`MultiReplayer`]. There is no single "the
/// cache" here; by convention the first configured point represents the
/// run (the committed sweep grids list the baseline point first), and no
/// probe sample is attached.
fn multi_snapshot(sim: &MultiSim) -> CacheSnapshot {
    let stats = sim.stats(0);
    CacheSnapshot {
        accesses: stats.total_accesses(),
        os_accesses: stats.accesses(Domain::Os),
        misses: stats.total_misses(),
        cold_misses: stats.misses(MissKind::Cold),
        probe: None,
    }
}

/// A streaming trace consumer that drives one layout pair through a
/// [`MultiSim`], settling many cache configurations in one walk of the
/// trace.
///
/// The single-pass counterpart of [`Replayer`]: where that maps each
/// event to one fetch against one cache, this maps it through the same
/// layouts into a simulator of every configuration at once. Only
/// aggregate statistics are collected (the equivalent of
/// [`SimConfig::fast`]); sweeps needing miss maps or per-block counts
/// replay per point.
pub struct MultiReplayer<'a> {
    os_layout: &'a Layout,
    app_layout: Option<&'a Layout>,
    sim: MultiSim,
    /// Timeline recorder, present only when the timeline is enabled and
    /// this thread is inside a recording scope (same contract as
    /// [`Replayer`]); samples come from [`multi_snapshot`].
    telemetry: Option<Box<WindowRecorder>>,
}

impl std::fmt::Debug for MultiReplayer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiReplayer")
            .field("os_layout", &self.os_layout.name())
            .field("points", &self.sim.num_points())
            .finish_non_exhaustive()
    }
}

impl<'a> MultiReplayer<'a> {
    /// Creates a replayer simulating every configuration in `configs`
    /// under the given layout pair.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    #[must_use]
    pub fn new(
        os_layout: &'a Layout,
        app_layout: Option<&'a Layout>,
        configs: &[CacheConfig],
    ) -> Self {
        Self {
            os_layout,
            app_layout,
            sim: MultiSim::new(configs),
            telemetry: timeline::recorder().map(Box::new),
        }
    }

    /// Finishes the replay and hands the simulator (with its accumulated
    /// per-point results) back. Closes the timeline run if one was
    /// recording.
    #[must_use]
    pub fn finish(mut self) -> MultiSim {
        if let Some(tl) = self.telemetry.take() {
            tl.finish(&multi_snapshot(&self.sim));
        }
        self.sim
    }
}

impl oslay_trace::TraceSink for MultiReplayer<'_> {
    /// # Panics
    ///
    /// Panics if an app block arrives but no app layout was supplied.
    fn event(&mut self, event: TraceEvent) {
        if let TraceEvent::Block { id, domain } = event {
            let layout = match domain {
                Domain::Os => self.os_layout,
                Domain::App => self.app_layout.expect("app block but no app layout"),
            };
            self.sim
                .access_words(layout.addr(id), layout.fetch_words(id), domain);
        }
        // Boundary and marker events fetch nothing (and a sweep has no
        // diagnostic hooks), but they still advance the timeline so
        // window boundaries line up with the per-point replays.
        if let Some(tl) = self.telemetry.as_deref_mut() {
            if tl.tick() {
                tl.sample(&multi_snapshot(&self.sim));
            }
        }
    }
}

/// Forwards a trace stream unchanged to an inner sink, emitting flight
/// recorder heartbeat counters every `every` events: events streamed so
/// far (`sim.events`), instantaneous throughput (`sim.ev_per_s`), and —
/// when an allocation probe is installed — the live heap size
/// (`sim.live_bytes`).
///
/// The telemetry substrate for long streaming replays: a consumer can
/// watch throughput evolve over a run instead of learning one aggregate
/// number at the end. Only constructed while the flight recorder is
/// enabled ([`Study::stream_case`] wraps its sink conditionally), so the
/// hot path pays nothing when tracing is off — and the wrapped stream is
/// bit-identical either way.
pub struct HeartbeatSink<'a, S: oslay_trace::TraceSink + ?Sized> {
    inner: &'a mut S,
    every: u64,
    seen: u64,
    window_start: std::time::Instant,
    window_seen: u64,
}

impl<S: oslay_trace::TraceSink + ?Sized> std::fmt::Debug for HeartbeatSink<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeartbeatSink")
            .field("every", &self.every)
            .field("seen", &self.seen)
            .finish_non_exhaustive()
    }
}

impl<'a, S: oslay_trace::TraceSink + ?Sized> HeartbeatSink<'a, S> {
    /// Default heartbeat interval: one snapshot per ~1M events, frequent
    /// enough to chart a run, far too coarse to perturb it.
    pub const DEFAULT_EVERY: u64 = 1 << 20;

    /// Wraps `inner`, beating every `every` events (min 1).
    pub fn new(inner: &'a mut S, every: u64) -> Self {
        Self {
            inner,
            every: every.max(1),
            seen: 0,
            window_start: std::time::Instant::now(),
            window_seen: 0,
        }
    }

    fn beat(&mut self) {
        let dt = self.window_start.elapsed().as_secs_f64();
        oslay_observe::flight::counter("sim.events", self.seen as f64);
        if dt > 0.0 {
            oslay_observe::flight::counter(
                "sim.ev_per_s",
                (self.seen - self.window_seen) as f64 / dt,
            );
        }
        if let Some(alloc) = oslay_observe::flight::alloc_probe_sample() {
            oslay_observe::flight::counter("sim.live_bytes", alloc.live_bytes as f64);
        }
        self.window_start = std::time::Instant::now();
        self.window_seen = self.seen;
    }
}

impl<S: oslay_trace::TraceSink + ?Sized> oslay_trace::TraceSink for HeartbeatSink<'_, S> {
    fn event(&mut self, event: TraceEvent) {
        self.inner.event(event);
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            self.beat();
        }
    }
}

impl Study {
    fn replayer_sizes(&self, case: &WorkloadCase) -> (usize, usize) {
        (
            self.kernel().program.num_blocks(),
            case.app
                .as_ref()
                .map_or(0, oslay_model::Program::num_blocks),
        )
    }

    /// Replays `case`'s trace through `cache`, mapping OS blocks through
    /// `os_layout` and app blocks through `app_layout`.
    ///
    /// # Panics
    ///
    /// Panics if the workload traces an application but `app_layout` is
    /// `None`.
    #[must_use]
    pub fn simulate<C: InstructionCache + ?Sized>(
        &self,
        case: &WorkloadCase,
        os_layout: &Layout,
        app_layout: Option<&Layout>,
        cache: &mut C,
        config: &SimConfig,
    ) -> SimResult {
        assert!(
            case.app.is_none() || app_layout.is_some(),
            "workload {} traces an application: supply its layout",
            case.name()
        );
        let _span = oslay_observe::span("study.sim");
        let (os_blocks, app_blocks) = self.replayer_sizes(case);
        let mut replayer =
            Replayer::new(os_layout, app_layout, cache, config, os_blocks, app_blocks);
        for event in case.trace.events() {
            replayer.on_event(*event);
        }
        replayer.finish()
    }

    /// Like [`Study::simulate`], but regenerates the case's trace from its
    /// recorded seed and streams every event straight into the cache —
    /// the event vector is never touched (nor needed), so this is the
    /// path for workloads too large to buffer.
    ///
    /// Produces bit-identical results to [`Study::simulate`] because the
    /// engine's streaming walk emits the same event sequence.
    ///
    /// # Panics
    ///
    /// Panics if the workload traces an application but `app_layout` is
    /// `None`.
    #[must_use]
    pub fn replay_streaming<C: InstructionCache + ?Sized>(
        &self,
        case: &WorkloadCase,
        os_layout: &Layout,
        app_layout: Option<&Layout>,
        cache: &mut C,
        config: &SimConfig,
    ) -> SimResult {
        assert!(
            case.app.is_none() || app_layout.is_some(),
            "workload {} traces an application: supply its layout",
            case.name()
        );
        let _span = oslay_observe::span("study.sim");
        let (os_blocks, app_blocks) = self.replayer_sizes(case);
        let mut replayer =
            Replayer::new(os_layout, app_layout, cache, config, os_blocks, app_blocks);
        self.stream_case(case, &mut replayer);
        replayer.finish()
    }

    /// Like [`Study::replay_streaming`], but replays an *archived* event
    /// stream (an `oslay-tracestore` reader, a buffered trace — any
    /// [`oslay_trace::TraceSink`] feeder) instead of regenerating the
    /// walk. The caller drives the replayer through the returned handle
    /// and finishes it for the result; see `oslay-bench`'s archived
    /// matrix drivers.
    ///
    /// # Panics
    ///
    /// Panics if the workload traces an application but `app_layout` is
    /// `None`.
    #[must_use]
    pub fn replayer_for<'a, C: InstructionCache + ?Sized>(
        &self,
        case: &WorkloadCase,
        os_layout: &'a Layout,
        app_layout: Option<&'a Layout>,
        cache: &'a mut C,
        config: &SimConfig,
    ) -> Replayer<'a, C> {
        assert!(
            case.app.is_none() || app_layout.is_some(),
            "workload {} traces an application: supply its layout",
            case.name()
        );
        let (os_blocks, app_blocks) = self.replayer_sizes(case);
        Replayer::new(os_layout, app_layout, cache, config, os_blocks, app_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OsLayoutKind, StudyConfig};
    use oslay_cache::{Cache, CacheConfig, MissKind};

    fn study() -> Study {
        Study::generate(&StudyConfig::tiny())
    }

    #[test]
    fn accesses_match_trace_volume() {
        let s = study();
        let case = &s.cases()[3];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let mut cache = Cache::new(CacheConfig::paper_default());
        let r = s.simulate(case, &base.layout, None, &mut cache, &SimConfig::fast());
        // Every OS block contributes its fetch words.
        let mut expected = 0u64;
        for event in case.trace.events() {
            if let TraceEvent::Block {
                id,
                domain: Domain::Os,
            } = *event
            {
                expected += u64::from(base.layout.fetch_words(id));
            }
        }
        assert_eq!(r.stats.accesses(Domain::Os), expected);
        assert_eq!(r.stats.accesses(Domain::App), 0);
    }

    #[test]
    fn optimized_layout_misses_less_than_base() {
        let s = study();
        let case = &s.cases()[3]; // Shell (OS only)
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let opts = s.os_layout(OsLayoutKind::OptS, 8192);
        let run = |l: &oslay_layout::Layout| {
            let mut cache = Cache::new(CacheConfig::paper_default());
            s.simulate(case, l, None, &mut cache, &SimConfig::fast())
                .stats
                .total_misses()
        };
        let base_misses = run(&base.layout);
        let opt_misses = run(&opts.layout);
        assert!(
            opt_misses < base_misses,
            "OptS ({opt_misses}) must beat Base ({base_misses})"
        );
    }

    #[test]
    fn os_self_interference_dominates_in_base() {
        let s = study();
        let case = &s.cases()[3];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let mut cache = Cache::new(CacheConfig::paper_default());
        let r = s.simulate(case, &base.layout, None, &mut cache, &SimConfig::fast());
        let os_self = r.stats.misses(MissKind::OsSelf);
        let total = r.stats.total_misses();
        // Tiny-scale traces leave cold misses a visible share; at paper
        // scale self-interference exceeds 90% (see EXPERIMENTS.md).
        assert!(
            os_self * 10 >= total * 7,
            "OS self-interference {os_self} of {total} misses"
        );
    }

    #[test]
    fn collected_block_misses_sum_to_stats() {
        let s = study();
        let case = &s.cases()[3];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let mut cache = Cache::new(CacheConfig::paper_default());
        let r = s.simulate(case, &base.layout, None, &mut cache, &SimConfig::full());
        let by_block: u64 = r.os_block_misses.as_ref().unwrap().iter().sum();
        assert_eq!(by_block, r.stats.total_misses());
        assert_eq!(
            r.os_miss_map.as_ref().unwrap().total(),
            r.stats.total_misses()
        );
    }

    #[test]
    fn streaming_replay_matches_buffered_simulate() {
        let s = study();
        for case in [&s.cases()[0], &s.cases()[3]] {
            let base = s.os_layout(OsLayoutKind::Base, 8192);
            let app = s.app_base_layout(case);
            let mut c1 = Cache::new(CacheConfig::paper_default());
            let buffered = s.simulate(
                case,
                &base.layout,
                app.as_ref(),
                &mut c1,
                &SimConfig::full(),
            );
            let mut c2 = Cache::new(CacheConfig::paper_default());
            let streamed = s.replay_streaming(
                case,
                &base.layout,
                app.as_ref(),
                &mut c2,
                &SimConfig::full(),
            );
            assert_eq!(buffered.stats, streamed.stats, "case {}", case.name());
            assert_eq!(buffered.os_block_misses, streamed.os_block_misses);
            assert_eq!(buffered.app_block_misses, streamed.app_block_misses);
            assert_eq!(
                buffered.os_miss_map.as_ref().unwrap().total(),
                streamed.os_miss_map.as_ref().unwrap().total()
            );
        }
    }

    #[test]
    fn app_workload_requires_app_layout() {
        let s = study();
        let case = &s.cases()[0];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let app_base = s.app_base_layout(case).unwrap();
        let mut cache = Cache::new(CacheConfig::paper_default());
        let r = s.simulate(
            case,
            &base.layout,
            Some(&app_base),
            &mut cache,
            &SimConfig::fast(),
        );
        assert!(r.stats.accesses(Domain::App) > 0);
    }

    #[test]
    #[should_panic(expected = "supply its layout")]
    fn missing_app_layout_panics() {
        let s = study();
        let case = &s.cases()[0];
        let base = s.os_layout(OsLayoutKind::Base, 8192);
        let mut cache = Cache::new(CacheConfig::paper_default());
        let _ = s.simulate(case, &base.layout, None, &mut cache, &SimConfig::fast());
    }

    // The flight recorder and timeline are process-global; serialize the
    // tests that touch them.
    fn observability_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A sink that archives every event it receives, for byte-exact
    /// forwarding comparisons.
    #[derive(Debug, Default)]
    struct ArchiveSink(Vec<TraceEvent>);

    impl oslay_trace::TraceSink for ArchiveSink {
        fn event(&mut self, event: TraceEvent) {
            self.0.push(event);
        }
    }

    #[test]
    fn heartbeat_default_cadence_is_two_to_the_twenty() {
        assert_eq!(HeartbeatSink::<ArchiveSink>::DEFAULT_EVERY, 1 << 20);
    }

    #[test]
    fn heartbeat_beats_on_exact_cadence_with_monotone_counters() {
        let _g = observability_gate();
        oslay_observe::flight::reset();
        oslay_observe::flight::enable();
        let s = study();
        let case = &s.cases()[3];
        let total = case.trace.events().len() as u64;
        let every = 64u64;
        let mut archive = ArchiveSink::default();
        {
            let mut hb = HeartbeatSink::new(&mut archive, every);
            for event in case.trace.events() {
                oslay_trace::TraceSink::event(&mut hb, *event);
            }
        }
        oslay_observe::flight::disable();
        let beats: Vec<f64> = oslay_observe::flight::counter_events()
            .into_iter()
            .filter(|c| c.name == "sim.events")
            .map(|c| c.value)
            .collect();
        oslay_observe::flight::reset();
        assert_eq!(
            beats.len() as u64,
            total / every,
            "one beat per {every} events, nothing on the partial tail"
        );
        for (i, &v) in beats.iter().enumerate() {
            assert_eq!(v, ((i as u64 + 1) * every) as f64, "beat {i} cadence");
        }
        assert!(
            beats.windows(2).all(|w| w[0] < w[1]),
            "event counter strictly monotone"
        );
    }

    #[test]
    fn heartbeat_wrapper_forwards_events_byte_identically() {
        let _g = observability_gate();
        let s = study();
        let case = &s.cases()[0]; // app+OS mix: all event kinds flow
        let mut plain = ArchiveSink::default();
        for event in case.trace.events() {
            oslay_trace::TraceSink::event(&mut plain, *event);
        }
        // Wrapped, with an aggressive cadence and the recorder enabled:
        // the downstream archive must not change by one byte.
        oslay_observe::flight::reset();
        oslay_observe::flight::enable();
        let mut wrapped = ArchiveSink::default();
        {
            let mut hb = HeartbeatSink::new(&mut wrapped, 7);
            for event in case.trace.events() {
                oslay_trace::TraceSink::event(&mut hb, *event);
            }
        }
        oslay_observe::flight::disable();
        oslay_observe::flight::reset();
        assert_eq!(plain.0, wrapped.0);
        assert_eq!(format!("{:?}", plain.0), format!("{:?}", wrapped.0));
    }

    #[test]
    fn replayer_records_a_timeline_run_when_scoped() {
        let _g = observability_gate();
        timeline::reset();
        let s = study();
        let case = &s.cases()[3];
        let base = s.os_layout(OsLayoutKind::Base, 8192);

        // Telemetry disabled: no run is recorded.
        let mut c1 = Cache::new(CacheConfig::paper_default());
        let plain = s.replay_streaming(case, &base.layout, None, &mut c1, &SimConfig::fast());
        assert_eq!(timeline::runs_recorded(), 0);

        // Enabled + scoped: one validated run, identical sim results.
        timeline::enable();
        let _scope = timeline::scope(timeline::group(), 0, "test/Base");
        let mut c2 = Cache::new(CacheConfig::paper_default());
        let traced = s.replay_streaming(case, &base.layout, None, &mut c2, &SimConfig::fast());
        timeline::disable();
        assert_eq!(plain.stats, traced.stats, "telemetry must not perturb");
        assert_eq!(timeline::runs_recorded(), 1);
        let doc = timeline::document().to_json_pretty();
        timeline::reset();
        let stats = oslay_observe::timeline::validate_telemetry(&doc).expect("valid document");
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.events, case.trace.events().len() as u64);
        assert!(stats.frames > 0);
        assert!(stats.phases > 0);
    }
}
