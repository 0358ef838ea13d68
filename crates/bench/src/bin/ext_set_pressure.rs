//! Extension experiment: per-set conflict pressure.
//!
//! The paper argues spatially — its Figures 1 and 14 show miss peaks over
//! *code addresses*. The cache-side view of the same phenomenon is per-set
//! pressure: under `Base`, a few cache sets thrash (the peaks); under
//! `OptS`, equally-hot code is spread across sets and the SelfConfFree
//! sets go quiet. This binary measures per-set miss concentration and
//! imbalance for each layout, off the attribution report's per-set miss
//! counts.

use std::sync::Arc;

use oslay::analysis::report::{f, pct, TextTable};
use oslay::cache::CacheConfig;
use oslay::{OsLayoutKind, SimConfig, Study};
use oslay_bench::{banner, run_args, run_attributed_matrix};
use oslay_observe::MetricRegistry;

fn main() {
    let args = run_args();
    let config = args.config;
    banner(
        "Extension: per-set conflict pressure (8KB direct-mapped)",
        &config,
    );
    let study = Study::generate_with_threads(&config, args.threads);
    let cfg = CacheConfig::paper_default();
    let kinds = [
        OsLayoutKind::Base,
        OsLayoutKind::ChangHwu,
        OsLayoutKind::OptS,
    ];
    // Sets covered by the SelfConfFree area (offsets [0, scf_bytes) of
    // each frame), per layout kind.
    let scf_sets: Vec<usize> = kinds
        .iter()
        .map(|&kind| (study.os_layout(kind, cfg.size()).scf_bytes / u64::from(cfg.line())) as usize)
        .collect();
    let matrix = run_attributed_matrix(
        &study,
        &kinds,
        cfg,
        &SimConfig::fast(),
        args.threads,
        &Arc::new(MetricRegistry::new()),
    );

    for (case, row) in study.cases().iter().zip(&matrix) {
        println!("{}:", case.name());
        let mut table = TextTable::new([
            "layout",
            "misses",
            "top-8 sets hold",
            "top-32 sets hold",
            "imbalance (cv)",
            "SCF-set misses",
        ]);
        for ((kind, (r, report)), &scf) in kinds.iter().zip(row).zip(&scf_sets) {
            table.row([
                kind.name().to_owned(),
                r.stats.total_misses().to_string(),
                pct(report.set_peak_share(8)),
                pct(report.set_peak_share(32)),
                f(report.set_imbalance(), 2),
                if scf == 0 {
                    "n/a".to_owned()
                } else {
                    report.set_misses[..scf].iter().sum::<u64>().to_string()
                },
            ]);
        }
        print!("{}", table.render());
        println!();
    }
    println!(
        "Expected shape: Base concentrates its misses in few sets (high cv, high top-8 \
         share); OptS spreads them (lower cv) and its SelfConfFree sets see almost no misses."
    );
    oslay_bench::flush_trace();
}
