//! Determinism of the sharded experiment drivers: the same study replayed
//! at any worker count must produce identical results, identical
//! attribution reports, and an identical metric registry — the property
//! that makes `results/*.json` byte-stable regardless of `--threads`.

use std::sync::Arc;

use oslay::cache::CacheConfig;
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_bench::{execute, run_figure12_matrix, Outcome, Plan};
use oslay_observe::MetricRegistry;

fn study() -> Study {
    Study::generate(&StudyConfig::tiny())
}

/// Everything a registry can report, in one comparable value.
fn registry_snapshot(r: &MetricRegistry) -> impl PartialEq + std::fmt::Debug {
    (r.counters(), r.gauges(), r.histograms())
}

#[test]
fn figure12_matrix_is_identical_at_any_worker_count() {
    let study = study();
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let baseline_registry = Arc::new(MetricRegistry::new());
    let baseline = run_figure12_matrix(&study, cfg, &sim, 1, &baseline_registry);
    for threads in [2, 8] {
        let registry = Arc::new(MetricRegistry::new());
        let matrix = run_figure12_matrix(&study, cfg, &sim, threads, &registry);
        assert_eq!(matrix.len(), baseline.len());
        for (rows, baseline_rows) in matrix.iter().zip(&baseline) {
            for (r, b) in rows.iter().zip(baseline_rows) {
                assert_eq!(r.stats, b.stats, "stats diverge at {threads} threads");
                assert_eq!(r.os_block_misses, b.os_block_misses);
            }
        }
        assert_eq!(
            registry_snapshot(&registry),
            registry_snapshot(&baseline_registry),
            "metric registry diverges at {threads} threads"
        );
    }
}

/// The Figure-13 shape: every case under Base and OptS (OptS carries a
/// class map), through the attribution engine with full miss detail.
fn attributed_plan(study: &Study) -> Plan {
    let mut plan = Plan::attributed(SimConfig::full());
    plan.push_kinds(
        study,
        &[OsLayoutKind::Base, OsLayoutKind::OptS],
        CacheConfig::paper_default(),
    );
    plan
}

/// Asserts two executions of the same points agree on everything an
/// attributed replay reports.
fn assert_outcomes_equal(got: &[Outcome], want: &[Outcome], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: point count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.result.stats, w.result.stats, "{what}: stats");
        assert_eq!(g.result.os_block_misses, w.result.os_block_misses);
        // AttributionReport is PartialEq: conflict pairs, matrix,
        // per-set misses, census — the whole diagnosis must match.
        assert!(g.attribution.is_some(), "{what}: attributed outcome");
        assert_eq!(g.attribution, w.attribution, "{what}: attribution reports");
    }
}

#[test]
fn attributed_matrix_reports_are_identical_across_threads() {
    let study = study();
    let plan = attributed_plan(&study);
    let baseline_registry = Arc::new(MetricRegistry::new());
    let baseline = execute(&study, &plan, 1, &baseline_registry).expect("live plan");
    let registry = Arc::new(MetricRegistry::new());
    let matrix = execute(&study, &plan, 4, &registry).expect("live plan");
    assert_outcomes_equal(&matrix, &baseline, "4 threads");
    assert_eq!(
        registry_snapshot(&registry),
        registry_snapshot(&baseline_registry)
    );
}

#[test]
fn attributed_plan_equals_its_points_run_one_by_one() {
    let study = study();
    let plan = attributed_plan(&study);
    // Each point on its own, same class map, folded in point order.
    let single_registry = Arc::new(MetricRegistry::new());
    let singles: Vec<Outcome> = plan
        .points
        .iter()
        .flat_map(|p| {
            let one = Plan {
                points: vec![p.clone()],
                ..plan.clone()
            };
            execute(&study, &one, 1, &single_registry).expect("live plan")
        })
        .collect();
    for threads in [1, 2] {
        let registry = Arc::new(MetricRegistry::new());
        let whole = execute(&study, &plan, threads, &registry).expect("live plan");
        assert_outcomes_equal(&whole, &singles, &format!("{threads} workers"));
        assert_eq!(
            registry_snapshot(&registry),
            registry_snapshot(&single_registry),
            "registry diverges at {threads} workers"
        );
    }
}

#[test]
fn same_seed_reruns_are_identical() {
    let cfg = CacheConfig::paper_default();
    let sim = SimConfig::fast();
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let study = Study::generate_with_threads(&StudyConfig::tiny(), 2);
            let registry = Arc::new(MetricRegistry::new());
            let matrix = run_figure12_matrix(&study, cfg, &sim, 2, &registry);
            let rates: Vec<Vec<f64>> = matrix
                .iter()
                .map(|row| row.iter().map(oslay::SimResult::miss_rate).collect())
                .collect();
            (rates, registry.counters(), registry.gauges())
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn threaded_study_generation_matches_sequential() {
    let sequential = Study::generate(&StudyConfig::tiny());
    let threaded = Study::generate_with_threads(&StudyConfig::tiny(), 8);
    for (a, b) in sequential.cases().iter().zip(threaded.cases()) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.engine_seed, b.engine_seed);
        assert_eq!(a.trace.events(), b.trace.events());
    }
}
