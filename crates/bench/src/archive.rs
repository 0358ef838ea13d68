//! Recording and replaying archived trace stores.
//!
//! A trace archive is a directory with one `oslay-tracestore` file per
//! workload case, named by [`archive_file_name`]. [`record_archive`]
//! writes one from a live study; [`run_archived_figure12_matrix`] then
//! reproduces the Figure-12 matrix from the files alone — same ladder,
//! same sharding contract, same registry merge order as the live
//! [`crate::run_figure12_matrix`] — so a live run and an archived replay
//! produce byte-identical reports at any worker count.

use std::path::Path;
use std::sync::Arc;

use oslay::cache::{Cache, CacheConfig};
use oslay::{FanoutSink, Replayer, SimConfig, SimResult, Study, WorkloadCase};
use oslay_layout::Layout;
use oslay_observe::MetricRegistry;
use oslay_tracestore::{StoreError, StoreSummary, TraceReader, TraceWriter};

use crate::{app_layout_for, figure12_ladder};

/// The archive file name for a workload case: its display name lowered
/// with every non-alphanumeric run collapsed to `_`, plus the `.otr`
/// ("oslay trace") extension — `TRFD+Make` becomes `trfd_make.otr`.
#[must_use]
pub fn archive_file_name(case: &WorkloadCase) -> String {
    let mut name = String::new();
    for c in case.name().chars() {
        if c.is_ascii_alphanumeric() {
            name.push(c.to_ascii_lowercase());
        } else if !name.ends_with('_') {
            name.push('_');
        }
    }
    name.push_str(".otr");
    name
}

/// Records every workload case of `study` into `dir` (created if
/// missing), one store file per case, over up to `threads` workers.
///
/// Returns `(file_name, summary)` per case, in case order. Traces are
/// regenerated from each case's recorded engine seed, so the archived
/// stream is exactly the stream a live replay consumes.
///
/// # Errors
///
/// Returns the first I/O error in case order; earlier cases may still
/// have written their files.
pub fn record_archive(
    study: &Study,
    dir: &Path,
    threads: usize,
) -> std::io::Result<Vec<(String, StoreSummary)>> {
    std::fs::create_dir_all(dir)?;
    let jobs: Vec<usize> = (0..study.cases().len()).collect();
    let results = oslay::exec::parallel_map(threads, jobs, |_, i| {
        let case = &study.cases()[i];
        let file = archive_file_name(case);
        let mut writer = TraceWriter::create(&dir.join(&file))?;
        study.stream_case(case, &mut writer);
        let (_, summary) = writer.finish()?;
        Ok((file, summary))
    });
    results.into_iter().collect()
}

/// The memory layouts one replay runs under: the OS image plus the
/// optional application side.
#[derive(Clone, Copy)]
pub struct LayoutPair<'a> {
    /// The placed OS layout.
    pub os: &'a Layout,
    /// The application layout, `None` for OS-only workloads.
    pub app: Option<&'a Layout>,
}

/// Replays one archived case through a plain cache, mirroring
/// [`crate::run_probed_on`] event for event: same replayer, same
/// post-replay `cache.*` report. The only difference is the
/// event source — a [`TraceReader`] instead of a regenerated walk — so
/// the metric registry and result are identical when the archive is
/// faithful.
///
/// # Errors
///
/// Returns a [`StoreError`] if the store cannot be opened or a block
/// fails its CRC or decode (the error names the block).
pub fn replay_archived_probed(
    study: &Study,
    case: &WorkloadCase,
    path: &Path,
    layouts: LayoutPair<'_>,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    registry: &Arc<MetricRegistry>,
) -> Result<SimResult, StoreError> {
    let mut cache = Cache::new(cache_cfg);
    let mut reader = TraceReader::open(path)?;
    let result = {
        let mut replayer = study.replayer_for(case, layouts.os, layouts.app, &mut cache, sim);
        reader.replay_into(&mut replayer)?;
        replayer.finish()
    };
    cache.report_into(registry.as_ref());
    Ok(result)
}

/// Reproduces the Figure-12 matrix from an archive directory, returning
/// `results[case][level]` exactly like [`crate::run_figure12_matrix`].
///
/// Single-pass: each case's store is opened and decoded **once**, and a
/// [`FanoutSink`] feeds the decoded stream to one [`Replayer`] per
/// ladder level side by side — five replays for one decode, instead of
/// re-opening and re-decoding the store per level. Each level records
/// into a private registry shard; shards fold into `registry`
/// case-major, level-minor — the same order the per-level job list used
/// — so against the same study this is byte-identical to the live
/// matrix at any worker count.
///
/// # Errors
///
/// Returns the first [`StoreError`] in case order (a missing file, or a
/// corrupt block named by index).
pub fn run_archived_figure12_matrix(
    study: &Study,
    dir: &Path,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Result<Vec<Vec<SimResult>>, StoreError> {
    let ladder = figure12_ladder();
    let mut kinds: Vec<oslay::OsLayoutKind> = Vec::new();
    for &(_, kind, _) in &ladder {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    let layouts: Vec<(oslay::OsLayoutKind, oslay::OsLayout)> = kinds
        .into_iter()
        .map(|kind| (kind, study.os_layout(kind, cache_cfg.size())))
        .collect();
    let jobs: Vec<usize> = (0..study.cases().len()).collect();
    let ladder_ref = &ladder;
    let layouts_ref = &layouts;
    // Same timeline contract as the live matrix: one group allocated
    // before the fan-out, one scope per job in job-index order, so an
    // archived replay's telemetry document is byte-identical across
    // worker counts.
    let group = oslay_observe::timeline::group();
    let sharded = oslay::exec::parallel_map(threads, jobs, move |i, c| {
        let case = &study.cases()[c];
        let _t = oslay_observe::timeline::scope(group, i as u64, case.name().to_owned());
        let path = dir.join(archive_file_name(case));

        // One cache + registry shard per ladder level. The app
        // layouts live beside them: each replayer borrows its level's.
        let shards: Vec<Arc<MetricRegistry>> = (0..ladder_ref.len())
            .map(|_| Arc::new(MetricRegistry::new()))
            .collect();
        let apps: Vec<Option<Layout>> = ladder_ref
            .iter()
            .map(|&(_, _, side)| app_layout_for(study, case, side, cache_cfg.size()))
            .collect();
        let mut caches: Vec<Cache> = (0..ladder_ref.len())
            .map(|_| Cache::new(cache_cfg))
            .collect();
        let mut replayers: Vec<_> = caches
            .iter_mut()
            .zip(ladder_ref.iter().zip(&apps))
            .map(|(cache, (&(_, kind, _), app))| {
                let os = &layouts_ref
                    .iter()
                    .find(|&&(k, _)| k == kind)
                    .expect("every ladder kind is memoized")
                    .1;
                study.replayer_for(case, &os.layout, app.as_ref(), cache, sim)
            })
            .collect();

        // Decode the store once; every block fans out to all levels.
        {
            let mut fan = FanoutSink::new(
                replayers
                    .iter_mut()
                    .map(|r| r as &mut dyn oslay_trace::TraceSink)
                    .collect(),
            );
            let mut reader = TraceReader::open(&path)?;
            reader.replay_into(&mut fan)?;
        }

        let row: Vec<SimResult> = replayers.into_iter().map(Replayer::finish).collect();
        for (cache, shard) in caches.iter().zip(&shards) {
            cache.report_into(shard.as_ref());
        }
        Ok::<_, StoreError>(row.into_iter().zip(shards).collect::<Vec<_>>())
    });
    let mut results: Vec<Vec<SimResult>> = Vec::with_capacity(study.cases().len());
    for levels in sharded {
        let levels = levels?;
        let mut row = Vec::with_capacity(ladder.len());
        for (r, shard) in levels {
            registry.merge_from(&shard);
            row.push(r);
        }
        results.push(row);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay::StudyConfig;

    #[test]
    fn archive_names_match_spec() {
        let study = Study::generate(&StudyConfig::tiny());
        let names: Vec<String> = study.cases().iter().map(archive_file_name).collect();
        assert_eq!(
            names,
            ["trfd_4.otr", "trfd_make.otr", "arc2d_fsck.otr", "shell.otr"]
        );
    }
}
