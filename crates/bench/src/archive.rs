//! Recording and replaying archived trace stores.
//!
//! A trace archive is a directory with one `oslay-tracestore` file per
//! workload case, named by [`archive_file_name`]. [`record_archive`]
//! writes one from a live study; [`run_archived_figure12_matrix`] then
//! reproduces the Figure-12 matrix from the files alone — the live
//! matrix's plan with an archived source — so a live run and an archived
//! replay produce byte-identical reports at any worker count.

use std::path::Path;
use std::sync::Arc;

use oslay::cache::CacheConfig;
use oslay::{SimConfig, SimResult, Study, WorkloadCase};
use oslay_observe::MetricRegistry;
use oslay_tracestore::{StoreError, StoreSummary, TraceWriter};

use crate::figure12_ladder;
use crate::plan::{execute, rows, Plan, Source};

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

/// Reproduces the Figure-12 matrix from an archive directory, returning
/// `results[case][level]` exactly like [`crate::run_figure12_matrix`].
///
/// The same plan as the live matrix with an archived [`Source`]: each
/// case's store is decoded **once** and fanned out to one replay per
/// ladder level. Shards fold into `registry` in point order, so against
/// the same study this is byte-identical to the live matrix at any
/// worker count.
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
    let mut plan = Plan::plain(*sim);
    let ladder = figure12_ladder();
    plan.push_ladder(study, &ladder, cache_cfg);
    plan.source = Source::Archive(dir.to_path_buf());
    let results = execute(study, &plan, threads, registry)?
        .into_iter()
        .map(|o| o.result)
        .collect();
    Ok(rows(results, ladder.len()))
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
