//! End-to-end equivalence of the optimized engine against its reference
//! twins, on the *real* generated workload traces (the unit suites in
//! `oslay-cache` cover randomized streams; here the access pattern is the
//! one the experiments actually replay).
//!
//! Four contracts are pinned:
//!
//! 1. The line-run replay (`SimConfig::full`) fills every collector — the
//!    three OS miss maps, both per-block miss vectors, the statistics and
//!    an attribution report — exactly as a per-word replay through
//!    `InstructionCache::access` does, for every cache organization.
//! 2. `Study::replay_streaming` produces bit-identical results to the
//!    buffered `Study::simulate` path it replaced on the hot path.
//! 3. The dense tag-array `Cache` classifies every single access exactly
//!    like the map-based `ReferenceCache`.
//! 4. The O(1) intrusive-LRU `ShadowTags` agrees touch-by-touch with the
//!    `ReferenceShadowTags` on the cache-line stream of a real trace.

use std::sync::Arc;

use oslay::analysis::missmap::AddressHistogram;
use oslay::cache::reference::{ReferenceCache, ReferenceShadowTags};
use oslay::cache::{
    AccessOutcome, AddressMap, AttributedCache, Cache, CacheConfig, InstructionCache, MissKind,
    MissStats, ReservedCache, ShadowTags, SplitCache,
};
use oslay::layout::{layout_spans, Layout};
use oslay::model::{Domain, SeedKind};
use oslay::trace::TraceEvent;
use oslay::{OsLayout, OsLayoutKind, SimConfig, SimResult, Study, StudyConfig, WorkloadCase};

fn study() -> Study {
    Study::generate(&StudyConfig::tiny())
}

/// The oracle for the line-run replay: every word of every block fetch
/// goes through `InstructionCache::access` on its own, and the miss maps
/// and per-block vectors are built here from the per-word outcomes.
fn per_word_replay(
    study: &Study,
    case: &WorkloadCase,
    os: &Layout,
    app: Option<&Layout>,
    cache: &mut dyn InstructionCache,
) -> SimResult {
    let mut maps = [(); 3].map(|()| AddressHistogram::paper());
    let mut os_blocks = vec![0u64; study.kernel().program.num_blocks()];
    let mut app_blocks = vec![0u64; case.app.as_ref().map_or(0, |p| p.num_blocks())];
    for &event in case.trace.events() {
        let (id, domain) = match event {
            TraceEvent::Block { id, domain } => (id, domain),
            TraceEvent::OsEnter(kind) => {
                cache.note_os_enter(kind);
                continue;
            }
            TraceEvent::OsExit => {
                cache.note_os_exit();
                continue;
            }
            TraceEvent::Mark(tag) => {
                cache.note_mark(tag);
                continue;
            }
        };
        let layout = match domain {
            Domain::Os => os,
            Domain::App => app.expect("app layout"),
        };
        for addr in layout.fetch_addrs(id) {
            let AccessOutcome::Miss(kind) = cache.access(addr, domain) else {
                continue;
            };
            if domain == Domain::App {
                app_blocks[id.index()] += 1;
                continue;
            }
            os_blocks[id.index()] += 1;
            maps[0].add(addr);
            match kind {
                MissKind::OsSelf => maps[1].add(addr),
                MissKind::OsByApp => maps[2].add(addr),
                _ => {}
            }
        }
    }
    let [all, own, cross] = maps;
    SimResult {
        stats: *cache.stats(),
        os_miss_map: Some(all),
        os_self_miss_map: Some(own),
        os_cross_miss_map: Some(cross),
        os_block_misses: Some(os_blocks),
        app_block_misses: Some(app_blocks),
    }
}

/// Wraps a cache and logs every miss it reports — through
/// `access_words`' callback on the line-run side, through `access` on
/// the per-word side — as `(address, domain, kind)`. The miss maps bin
/// addresses by the kilobyte, so this log is what pins each reported
/// address to the exact word.
#[derive(Debug)]
struct MissLog<C> {
    inner: C,
    misses: Vec<(u64, Domain, MissKind)>,
}

impl<C> MissLog<C> {
    fn new(inner: C) -> Self {
        Self {
            inner,
            misses: Vec::new(),
        }
    }
}

impl<C: InstructionCache> InstructionCache for MissLog<C> {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        let outcome = self.inner.access(addr, domain);
        if let AccessOutcome::Miss(kind) = outcome {
            self.misses.push((addr, domain, kind));
        }
        outcome
    }

    fn access_words(
        &mut self,
        base: u64,
        words: u32,
        domain: Domain,
        on_miss: &mut dyn FnMut(u64, MissKind),
    ) -> u64 {
        let log = &mut self.misses;
        self.inner
            .access_words(base, words, domain, &mut |addr, kind| {
                log.push((addr, domain, kind));
                on_miss(addr, kind);
            })
    }

    fn stats(&self) -> &MissStats {
        self.inner.stats()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.misses.clear();
    }

    fn note_os_enter(&mut self, kind: SeedKind) {
        self.inner.note_os_enter(kind);
    }

    fn note_os_exit(&mut self) {
        self.inner.note_os_exit();
    }

    fn note_mark(&mut self, tag: u32) {
        self.inner.note_mark(tag);
    }
}

/// Replays `case` through two fresh caches from `make` — line runs under
/// `SimConfig::full`, and the per-word oracle — asserts every collector
/// and every logged miss agree, and hands both caches back.
fn check_replay<C: InstructionCache>(
    study: &Study,
    case: &WorkloadCase,
    os: &Layout,
    app: Option<&Layout>,
    make: impl Fn() -> C,
    at: &str,
) -> (C, C) {
    let (mut line_runs, mut per_word) = (MissLog::new(make()), MissLog::new(make()));
    let got = study.simulate(case, os, app, &mut line_runs, &SimConfig::full());
    let want = per_word_replay(study, case, os, app, &mut per_word);
    assert_same(&got, &want, at);
    assert_eq!(
        line_runs.misses.len(),
        per_word.misses.len(),
        "{at}: misses"
    );
    for (i, (got, want)) in line_runs.misses.iter().zip(&per_word.misses).enumerate() {
        assert_eq!(got, want, "{at}: miss #{i} (address, domain, kind)");
    }
    (line_runs.inner, per_word.inner)
}

fn assert_same(got: &SimResult, want: &SimResult, at: &str) {
    assert!(want.stats.total_misses() > 0, "{at}: no misses to compare");
    assert_eq!(got.stats, want.stats, "{at}: stats");
    assert_eq!(got.os_miss_map, want.os_miss_map, "{at}: OS miss map");
    assert_eq!(
        got.os_self_miss_map, want.os_self_miss_map,
        "{at}: self map"
    );
    assert_eq!(
        got.os_cross_miss_map, want.os_cross_miss_map,
        "{at}: cross map"
    );
    assert_eq!(got.os_block_misses, want.os_block_misses, "{at}: OS blocks");
    assert_eq!(
        got.app_block_misses, want.app_block_misses,
        "{at}: app blocks"
    );
}

/// The address map an attributing replay of `case` under `os` resolves.
fn address_map(
    study: &Study,
    case: &WorkloadCase,
    os: &OsLayout,
    app: Option<&Layout>,
) -> Arc<AddressMap> {
    let program = &study.kernel().program;
    let mut spans = layout_spans(program, &os.layout, Domain::Os, os.classes.as_deref());
    if let (Some(app), Some(app_program)) = (app, case.app.as_ref()) {
        spans.extend(layout_spans(app_program, app, Domain::App, None));
    }
    Arc::new(AddressMap::build(spans))
}

#[test]
fn coalesced_replay_matches_per_word_replay() {
    // Every tiny case, on a shortened trace: 9 geometries x 4 caches x 2
    // replays per case and layout.
    let study = Study::generate(&StudyConfig::tiny().with_os_blocks(10_000));
    for kind in [OsLayoutKind::Base, OsLayoutKind::OptS] {
        let os = study.os_layout(kind, 2048);
        for case in study.cases() {
            let app = study.app_base_layout(case);
            let map = address_map(&study, case, &os, app.as_ref());
            for line in [16u32, 32, 64] {
                for ways in [1u32, 2, 4] {
                    let cfg = CacheConfig::new(2048, line, ways);
                    let small = CacheConfig::new(256, line, ways);
                    let at = |name: &str| {
                        format!("{name} {cfg} on {} under {}", case.name(), kind.name())
                    };
                    let (os, app) = (&os.layout, app.as_ref());
                    check_replay(&study, case, os, app, || Cache::new(cfg), &at("Cache"));
                    check_replay(
                        &study,
                        case,
                        os,
                        app,
                        || SplitCache::halves_of(cfg),
                        &at("SplitCache"),
                    );
                    check_replay(
                        &study,
                        case,
                        os,
                        app,
                        // Range ends fall mid-line and, the block
                        // bases being byte-granular, mid-block.
                        || ReservedCache::new(small, cfg, 0x46..0x5a2),
                        &at("ReservedCache"),
                    );
                    let (line_runs, per_word) = check_replay(
                        &study,
                        case,
                        os,
                        app,
                        || AttributedCache::new(Cache::new(cfg), Arc::clone(&map)),
                        &at("AttributedCache"),
                    );
                    assert_eq!(
                        line_runs.report(),
                        per_word.report(),
                        "{}: report",
                        at("AttributedCache")
                    );
                }
            }
        }
    }
}

#[test]
fn streaming_replay_matches_buffered_replay() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    for kind in [OsLayoutKind::Base, OsLayoutKind::OptS] {
        let os = study.os_layout(kind, cfg.size());
        for case in study.cases() {
            let app = study.app_base_layout(case);
            let sim = SimConfig::full();
            let mut buffered_cache = Cache::new(cfg);
            let buffered =
                study.simulate(case, &os.layout, app.as_ref(), &mut buffered_cache, &sim);
            let mut streamed_cache = Cache::new(cfg);
            let streamed =
                study.replay_streaming(case, &os.layout, app.as_ref(), &mut streamed_cache, &sim);
            assert_eq!(
                buffered.stats,
                streamed.stats,
                "stats diverge on {} under {}",
                case.name(),
                kind.name()
            );
            assert_eq!(buffered.os_miss_map, streamed.os_miss_map);
            assert_eq!(buffered.os_self_miss_map, streamed.os_self_miss_map);
            assert_eq!(buffered.os_cross_miss_map, streamed.os_cross_miss_map);
            assert_eq!(buffered.os_block_misses, streamed.os_block_misses);
            assert_eq!(buffered.app_block_misses, streamed.app_block_misses);
            assert!(buffered.stats.total_accesses() > 0);
        }
    }
}

/// An `InstructionCache` that feeds every access to both the optimized
/// cache and the reference cache and asserts their detailed outcomes are
/// identical, so `Study::simulate` itself generates the address stream.
#[derive(Debug)]
struct MirrorCache {
    fast: Cache,
    reference: ReferenceCache,
    compared: u64,
}

impl MirrorCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            fast: Cache::new(cfg),
            reference: ReferenceCache::new(cfg),
            compared: 0,
        }
    }
}

impl InstructionCache for MirrorCache {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        let got = self.fast.access_detailed(addr, domain);
        let want = self.reference.access_detailed(addr, domain);
        assert_eq!(
            got, want,
            "access #{} at {addr:#x} by {domain:?} diverges",
            self.compared
        );
        self.compared += 1;
        got.outcome
    }

    fn stats(&self) -> &MissStats {
        self.fast.stats()
    }

    fn reset(&mut self) {
        self.fast.reset();
        self.reference = ReferenceCache::new(CacheConfig::paper_default());
        self.compared = 0;
    }
}

#[test]
fn dense_cache_matches_reference_on_real_traces() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    for kind in [OsLayoutKind::Base, OsLayoutKind::OptS] {
        let os = study.os_layout(kind, cfg.size());
        for case in study.cases() {
            let app = study.app_base_layout(case);
            let mut mirror = MirrorCache::new(cfg);
            let r = study.simulate(
                case,
                &os.layout,
                app.as_ref(),
                &mut mirror,
                &SimConfig::fast(),
            );
            assert_eq!(mirror.compared, r.stats.total_accesses());
            assert!(mirror.compared > 0);
        }
    }
}

/// An `InstructionCache` that only records the fetched cache-line
/// addresses, to extract a real line stream for the shadow-store check.
#[derive(Debug, Default)]
struct LineRecorder {
    lines: Vec<u64>,
    stats: MissStats,
}

impl InstructionCache for LineRecorder {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        self.lines
            .push(CacheConfig::paper_default().line_addr(addr));
        self.stats.record(domain, AccessOutcome::Hit);
        AccessOutcome::Hit
    }

    fn stats(&self) -> &MissStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.lines.clear();
        self.stats = MissStats::default();
    }
}

#[test]
fn shadow_store_matches_reference_on_real_line_stream() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let os = study.os_layout(OsLayoutKind::Base, cfg.size());
    let case = &study.cases()[3]; // Shell: OS + app interleaving
    let app = study.app_base_layout(case);
    let mut recorder = LineRecorder::default();
    let _ = study.simulate(
        case,
        &os.layout,
        app.as_ref(),
        &mut recorder,
        &SimConfig::fast(),
    );
    assert!(!recorder.lines.is_empty());
    // The capacity the attribution engine actually uses (whole-cache line
    // count) plus a tiny one to force heavy eviction churn.
    let cache_lines = (cfg.size() / cfg.line()) as usize;
    for capacity in [cache_lines, 17] {
        let mut fast = ShadowTags::new(capacity);
        let mut reference = ReferenceShadowTags::new(capacity);
        for (i, &line) in recorder.lines.iter().enumerate() {
            assert_eq!(
                fast.touch(line),
                reference.touch(line),
                "touch #{i} of line {line:#x} diverges at capacity {capacity}"
            );
            assert_eq!(fast.len(), reference.len());
        }
    }
}
