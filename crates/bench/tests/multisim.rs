//! Differential gate for the single-pass sweep engine: on every committed
//! sweep grid shape (Figures 15, 16 and 17, and the design grid), the
//! plan executor — which settles a multi-configuration plain plan in one
//! `MultiSim` pass per lane — must produce exactly what the per-point
//! [`run_sweep`] reference produces: the `SimResult` stream and the
//! folded metric registry both, at 1 and 2 workers.

use std::sync::Arc;

use oslay::cache::CacheConfig;
use oslay::{OsLayoutKind, SimConfig, Study, StudyConfig};
use oslay_bench::{execute, run_sweep, AppSide, Plan, SweepPoint};
use oslay_layout::Layout;
use oslay_observe::{MetricRegistry, RunReport};

const KINDS: [OsLayoutKind; 3] = [
    OsLayoutKind::Base,
    OsLayoutKind::ChangHwu,
    OsLayoutKind::OptS,
];

fn study() -> Study {
    Study::generate(&StudyConfig::tiny())
}

/// Serializes a registry's full contents deterministically. Counters,
/// gauges and histograms are the registry's whole surface — the
/// nondeterministic report parts (span timings, allocator counters) never
/// enter it — so equal fingerprints mean byte-identical report metrics.
fn registry_fingerprint(registry: &MetricRegistry) -> String {
    let mut report = RunReport::new("fingerprint");
    report.add_metrics(registry);
    report.to_json_deterministic().to_json_pretty()
}

/// The plan of a sweep grid: one point per grid point, in grid order.
fn plan_of(study: &Study, grid: Vec<SweepPoint>, sim: SimConfig) -> Plan {
    let mut plan = Plan::plain(sim);
    for p in grid {
        let label = format!("{}@{}", study.cases()[p.case].name(), p.cache);
        plan.push(p.case, p.os, p.app, p.cache, label);
    }
    plan
}

/// Replays `grid` through the per-point reference and through the
/// executor, and asserts the executor's results and registry match the
/// reference at 1 and 2 workers.
fn assert_modes_agree(study: &Study, grid: &dyn Fn() -> Vec<SweepPoint>, what: &str) {
    let sim = SimConfig::fast();
    let baseline_registry = Arc::new(MetricRegistry::new());
    let baseline = run_sweep(study, grid(), &sim, 1, &baseline_registry);
    let baseline_fingerprint = registry_fingerprint(&baseline_registry);
    assert!(
        baseline.iter().all(|r| r.stats.total_accesses() > 0),
        "{what}: baseline grid replayed nothing"
    );
    for threads in [1, 2] {
        let registry = Arc::new(MetricRegistry::new());
        let got =
            execute(study, &plan_of(study, grid(), sim), threads, &registry).expect("live plan");
        assert_eq!(got.len(), baseline.len(), "{what}: point count");
        for (pi, (g, b)) in got.iter().zip(&baseline).enumerate() {
            assert_eq!(
                g.result.stats, b.stats,
                "{what}: point {pi} diverges at {threads} workers"
            );
        }
        assert_eq!(
            registry_fingerprint(&registry),
            baseline_fingerprint,
            "{what}: registry diverges at {threads} workers"
        );
    }
}

/// The Figure-15 grid: 4–32 KB direct-mapped, 32-byte lines, three OS
/// layouts per size — four stacked shadow-tag sizes in one bank.
fn fig15_grid(study: &Study) -> Vec<SweepPoint> {
    let sizes = [4096u32, 8192, 16384, 32768];
    let layouts: Vec<((OsLayoutKind, u32), Arc<Layout>)> = sizes
        .iter()
        .flat_map(|&size| KINDS.map(|kind| (kind, size)))
        .map(|key| (key, Arc::new(study.os_layout(key.0, key.1).layout)))
        .collect();
    let mut points = Vec::new();
    for &size in &sizes {
        let cfg = CacheConfig::new(size, 32, 1);
        for wi in 0..study.cases().len() {
            for kind in KINDS {
                let os = &layouts
                    .iter()
                    .find(|&&(k, _)| k == (kind, size))
                    .expect("memoized")
                    .1;
                points.push(SweepPoint {
                    case: wi,
                    os: Arc::clone(os),
                    app: AppSide::Base,
                    cache: cfg,
                });
            }
        }
    }
    points
}

/// The Figure-16 grid: Base plus four SelfConfFree cut-offs per cache
/// size — five lanes per (case, size), all direct-mapped 32-byte lines.
fn fig16_grid(study: &Study) -> Vec<SweepPoint> {
    let cutoffs = [None, Some(376u32), Some(1286), Some(2514)];
    let sizes = [4096u32, 8192, 16384];
    let mut points = Vec::new();
    for &size in &sizes {
        let base = Arc::new(study.os_layout(OsLayoutKind::Base, size).layout);
        let mut layouts = vec![Arc::clone(&base)];
        for &cutoff in &cutoffs {
            layouts.push(Arc::new(study.os_opt_s_with_scf(size, cutoff).layout));
        }
        for wi in 0..study.cases().len() {
            for os in &layouts {
                points.push(SweepPoint {
                    case: wi,
                    os: Arc::clone(os),
                    app: AppSide::Base,
                    cache: CacheConfig::new(size, 32, 1),
                });
            }
        }
    }
    points
}

/// One Figure-17 sub-grid: a fixed 8 KB capacity swept across `configs`,
/// three OS layouts each — the line sweep exercises banked tag arrays,
/// the associativity sweep one shared stack per layout.
fn fig17_grid(study: &Study, configs: &[CacheConfig]) -> Vec<SweepPoint> {
    let layouts: Vec<Arc<Layout>> = KINDS
        .iter()
        .map(|&kind| Arc::new(study.os_layout(kind, configs[0].size()).layout))
        .collect();
    let mut points = Vec::new();
    for wi in 0..study.cases().len() {
        for &cfg in configs {
            for os in &layouts {
                points.push(SweepPoint {
                    case: wi,
                    os: Arc::clone(os),
                    app: AppSide::Base,
                    cache: cfg,
                });
            }
        }
    }
    points
}

#[test]
fn fig15_grid_single_pass_matches_per_point() {
    let study = study();
    assert_modes_agree(&study, &|| fig15_grid(&study), "fig15");
}

#[test]
fn fig16_grid_single_pass_matches_per_point() {
    let study = study();
    assert_modes_agree(&study, &|| fig16_grid(&study), "fig16");
}

#[test]
fn fig17_grids_single_pass_matches_per_point() {
    let study = study();
    let lines: Vec<CacheConfig> = [16u32, 32, 64, 128]
        .iter()
        .map(|&l| CacheConfig::new(8192, l, 1))
        .collect();
    assert_modes_agree(&study, &|| fig17_grid(&study, &lines), "fig17a");
    let ways: Vec<CacheConfig> = [1u32, 2, 4, 8]
        .iter()
        .map(|&w| CacheConfig::new(8192, 32, w))
        .collect();
    assert_modes_agree(&study, &|| fig17_grid(&study, &ways), "fig17b");
}

/// The design-space grid the benchmark sweeps: 4–256 KB × 1/2/4/8 ways
/// at 32-byte lines plus 16/64/128-byte lines at 8 KB, three OS layouts
/// built per size. Base and C-H do not depend on the size, so each
/// collapses into one wide lane spanning many set counts (one level per
/// set count, 8-way deep); OptS gives one narrow lane per size.
fn design_grid(study: &Study) -> Vec<SweepPoint> {
    let sizes = [4096u32, 8192, 16384, 32768, 65536, 131_072, 262_144];
    let mut points = Vec::new();
    for &size in &sizes {
        let layouts: Vec<Arc<Layout>> = KINDS
            .iter()
            .map(|&kind| Arc::new(study.os_layout(kind, size).layout))
            .collect();
        let mut configs: Vec<CacheConfig> = [1u32, 2, 4, 8]
            .iter()
            .map(|&w| CacheConfig::new(size, 32, w))
            .collect();
        if size == 8192 {
            configs.extend([16u32, 64, 128].map(|line| CacheConfig::new(size, line, 1)));
        }
        for wi in 0..study.cases().len() {
            for &cfg in &configs {
                for os in &layouts {
                    points.push(SweepPoint {
                        case: wi,
                        os: Arc::clone(os),
                        app: AppSide::Base,
                        cache: cfg,
                    });
                }
            }
        }
    }
    points
}

#[test]
fn design_grid_single_pass_matches_per_point() {
    for config in [StudyConfig::tiny(), StudyConfig::tiny().with_seed(0xD51)] {
        let study = Study::generate(&config);
        let what = format!("design grid, study seed {:#x}", config.seed);
        assert_modes_agree(&study, &|| design_grid(&study), &what);
    }
}

#[test]
fn detailed_sim_config_falls_back_to_per_point() {
    // A config requesting miss maps cannot be settled in one pass; the
    // executor must take the per-point path and return the full detailed
    // results.
    let study = study();
    let ways: Vec<CacheConfig> = [1u32, 4]
        .iter()
        .map(|&w| CacheConfig::new(8192, 32, w))
        .collect();
    let sim = SimConfig::full();
    let baseline_registry = Arc::new(MetricRegistry::new());
    let baseline = run_sweep(
        &study,
        fig17_grid(&study, &ways),
        &sim,
        1,
        &baseline_registry,
    );
    let registry = Arc::new(MetricRegistry::new());
    let plan = plan_of(&study, fig17_grid(&study, &ways), sim);
    let got: Vec<_> = execute(&study, &plan, 2, &registry)
        .expect("live plan")
        .into_iter()
        .map(|o| o.result)
        .collect();
    assert_eq!(got.len(), baseline.len());
    for (g, b) in got.iter().zip(&baseline) {
        assert_eq!(g.stats, b.stats);
        assert_eq!(g.os_miss_map, b.os_miss_map);
        assert!(g.os_miss_map.is_some(), "full config keeps its miss maps");
        assert_eq!(g.os_block_misses, b.os_block_misses);
    }
    assert_eq!(
        registry_fingerprint(&registry),
        registry_fingerprint(&baseline_registry)
    );
}
