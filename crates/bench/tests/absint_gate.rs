//! Integration tests for the abstract-interpretation soundness gate:
//! thread invariance of the classification and the replay checks, and
//! the line-run replay pinned against a word-by-word attributed oracle
//! over several study seeds and cache geometries.

use std::sync::Arc;

use oslay::cache::{AddressMap, AttributedCache, Cache, CacheConfig, InstructionCache};
use oslay::{OsLayout, OsLayoutKind, Study, StudyConfig, WorkloadCase};
use oslay_bench::absint_gate::{
    classify_study_layout, measure_point_misses, run_absint_gate, LinePoints, PointMisses,
};
use oslay_model::{Domain, WORD_BYTES};
use oslay_trace::{TraceEvent, TraceSink};
use oslay_verify::LayoutView;

fn tiny_study(threads: usize) -> Study {
    Study::generate_with_threads(&StudyConfig::tiny().with_os_blocks(6_000), threads)
}

#[test]
fn classification_is_invariant_under_threads() {
    let cfg = CacheConfig::paper_default();
    let a = tiny_study(1);
    let b = tiny_study(4);
    for kind in [OsLayoutKind::Base, OsLayoutKind::OptS] {
        let va = LayoutView::from_layout(&a.os_layout(kind, cfg.size()).layout);
        let vb = LayoutView::from_layout(&b.os_layout(kind, cfg.size()).layout);
        let ca = classify_study_layout(&a, &va, cfg);
        let cb = classify_study_layout(&b, &vb, cfg);
        assert_eq!(ca, cb, "{kind:?} classification diverges across threads");
    }
}

#[test]
fn gate_rows_are_invariant_under_threads_and_sound() {
    let cfg = CacheConfig::paper_default();
    let study = tiny_study(2);
    let layouts: Vec<(String, OsLayout)> = [OsLayoutKind::Base, OsLayoutKind::ChangHwu]
        .iter()
        .map(|&k| (k.name().to_owned(), study.os_layout(k, cfg.size())))
        .collect();
    let one = run_absint_gate(&study, &layouts, cfg, 1);
    let four = run_absint_gate(&study, &layouts, cfg, 4);
    assert_eq!(one.rows, four.rows, "gate rows diverge across threads");
    assert!(one.ok(), "tiny-scale gate must be sound");
    // Every workload x layout pair is replayed.
    assert_eq!(one.rows.len(), 2 * study.cases().len());
}

/// Each fetch word of a block at `base` with `size` bytes: its address
/// and the line slot (0 = the block's first line) it falls in. Words are
/// 4 bytes and lines at least 16, so consecutive words never skip a line.
fn word_slots(base: u64, size: u32, line: u64) -> impl Iterator<Item = (u64, usize)> {
    (0..oslay_model::fetch_words(size)).map(move |w| {
        let addr = base + u64::from(w) * u64::from(WORD_BYTES);
        (addr, (addr / line - base / line) as usize)
    })
}

/// The reference recorder: streams the case from the trace engine and
/// fetches word by word through an [`AttributedCache`].
struct WordOracle<'a> {
    cache: AttributedCache,
    os: &'a LayoutView,
    app: Option<&'a LayoutView>,
    line: u64,
    point_miss: Vec<Vec<u64>>,
    exec: Vec<u64>,
}

impl TraceSink for WordOracle<'_> {
    fn event(&mut self, event: TraceEvent) {
        let TraceEvent::Block { id, domain } = event else {
            return;
        };
        let b = id.index();
        match domain {
            Domain::Os => {
                self.exec[b] += 1;
                for (addr, slot) in word_slots(self.os.addr[b], self.os.size[b], self.line) {
                    if self.cache.access(addr, Domain::Os).is_miss() {
                        self.point_miss[b][slot] += 1;
                    }
                }
            }
            Domain::App => {
                let app = self.app.expect("app block in a workload without an app");
                for (addr, _) in word_slots(app.addr[b], app.size[b], self.line) {
                    let _ = self.cache.access(addr, Domain::App);
                }
            }
        }
    }
}

/// Word-by-word attributed replay of `case` against `os`, flattened to
/// the gate's (block, slot) point order.
fn oracle_point_misses(
    study: &Study,
    case: &WorkloadCase,
    os: &OsLayout,
    config: CacheConfig,
) -> PointMisses {
    let program = &study.kernel().program;
    let mut spans =
        oslay_layout::layout_spans(program, &os.layout, Domain::Os, os.classes.as_deref());
    let app_layout = study.app_base_layout(case);
    if let (Some(layout), Some(app_program)) = (&app_layout, &case.app) {
        spans.extend(oslay_layout::layout_spans(
            app_program,
            layout,
            Domain::App,
            None,
        ));
    }
    let os_view = LayoutView::from_layout(&os.layout);
    let app_view = app_layout.as_ref().map(LayoutView::from_layout);
    let line = u64::from(config.line());
    let mut oracle = WordOracle {
        cache: AttributedCache::new(Cache::new(config), Arc::new(AddressMap::build(spans))),
        os: &os_view,
        app: app_view.as_ref(),
        line,
        point_miss: (0..os_view.num_blocks())
            .map(|b| {
                let slots = word_slots(os_view.addr[b], os_view.size[b], line)
                    .last()
                    .map_or(0, |(_, slot)| slot + 1);
                vec![0; slots]
            })
            .collect(),
        exec: vec![0; os_view.num_blocks()],
    };
    study.stream_case(case, &mut oracle);
    PointMisses {
        misses: oracle.point_miss.concat(),
        exec: oracle.exec,
    }
}

#[test]
fn line_run_replay_matches_word_oracle_across_seeds_and_geometries() {
    let geometries = [
        CacheConfig::paper_default(),  // 8 KB direct-mapped, 32 B lines
        CacheConfig::new(8192, 32, 2), // 2-way
        CacheConfig::new(8192, 32, 4), // 4-way
        CacheConfig::new(8192, 16, 1), // 16 B lines
        CacheConfig::new(8192, 64, 1), // 64 B lines
    ];
    for seed in [StudyConfig::tiny().seed, 7, 0xBEEF] {
        let study = Study::generate_with_threads(
            &StudyConfig::tiny().with_os_blocks(6_000).with_seed(seed),
            2,
        );
        for cfg in geometries {
            let layouts: Vec<(String, OsLayout)> = [OsLayoutKind::Base, OsLayoutKind::OptS]
                .iter()
                .map(|&k| (k.name().to_owned(), study.os_layout(k, cfg.size())))
                .collect();
            let outcome = run_absint_gate(&study, &layouts, cfg, 2);
            for row in &outcome.rows {
                assert!(
                    row.ok(),
                    "seed {seed:#x} {cfg} {}/{}: ah_misses={} persistent_excess={} am_mismatch={}",
                    row.layout,
                    row.workload,
                    row.ah_misses,
                    row.persistent_excess,
                    row.am_mismatch
                );
            }
            for (name, os) in &layouts {
                let points = LinePoints::new(&LayoutView::from_layout(&os.layout), &cfg);
                for case in study.cases() {
                    let got = measure_point_misses(&study, case, &points, cfg);
                    let want = oracle_point_misses(&study, case, os, cfg);
                    assert_eq!(
                        got,
                        want,
                        "seed {seed:#x} {cfg} {name}/{}: line-run replay != word oracle",
                        case.name()
                    );
                    assert!(got.misses.iter().sum::<u64>() > 0, "replay must miss");
                }
            }
        }
    }
}
