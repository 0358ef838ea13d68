//! Soundness gate for the abstract-interpretation cache analysis.
//!
//! The static classifier (`oslay_verify::absint`) promises, per layout:
//! always-hit points never miss, persistent lines miss at most once per
//! run, always-miss points miss on every execution. This module replays
//! every workload against every layout and checks each promise against
//! the *measured* per-point miss counts. One surviving violation anywhere
//! fails the gate; the `analyze --gate` binary turns that into exit 1
//! and ci.sh runs it on every push.
//!
//! The replay is the production one (`oslay::sim::Replayer` under
//! `SimConfig::fast`: the buffered trace, the same fetch words, a plain
//! [`Cache`] fed one line run at a time), but it records misses per
//! *(block, line-slot)* access point — the unit the classifier speaks —
//! instead of only per block. A point is one line run, so its miss is
//! the run's one 0/1 `access_words` outcome; see
//! [`measure_point_misses`] for why that equals a word-by-word replay.

use std::collections::{HashMap, HashSet};

use oslay::cache::{line_runs, Cache, CacheConfig, InstructionCache};
use oslay::{OsLayout, Study, WorkloadCase};
use oslay_model::{Domain, WORD_BYTES};
use oslay_trace::TraceEvent;
use oslay_verify::{
    block_line_addrs, classify_layout, AbsintParams, Classification, LayoutView, LineClass,
};

/// Gate verdict for one workload × layout replay.
#[derive(Clone, PartialEq, Debug)]
pub struct GateRow {
    /// Workload name.
    pub workload: String,
    /// Layout name.
    pub layout: String,
    /// Always-hit points (static).
    pub ah_points: u64,
    /// Measured misses summed over always-hit points — sound iff 0.
    pub ah_misses: u64,
    /// Distinct lines carrying at least one persistent point.
    pub persistent_lines: u64,
    /// Persistent lines measuring more than one miss — sound iff 0.
    pub persistent_excess: u64,
    /// Always-miss points (static).
    pub am_points: u64,
    /// Always-miss points whose measured misses differ from the block's
    /// execution count — sound iff 0.
    pub am_mismatch: u64,
    /// Fraction of this workload's measured OS line accesses that landed
    /// on a classified (non-unclassified) point.
    pub measured_coverage: f64,
}

impl GateRow {
    /// Whether every soundness promise held in this replay.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.ah_misses == 0 && self.persistent_excess == 0 && self.am_mismatch == 0
    }
}

/// The full gate outcome: per-layout classifications plus one
/// [`GateRow`] per workload × layout.
#[derive(Clone, PartialEq, Debug)]
pub struct AbsintGateOutcome {
    /// `(layout name, classification)` in the order given.
    pub classifications: Vec<(String, Classification)>,
    /// Rows in layout-major, workload-minor order.
    pub rows: Vec<GateRow>,
}

impl AbsintGateOutcome {
    /// Whether every row passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.rows.iter().all(GateRow::ok)
    }
}

/// Line-aligned addresses of every application line the workloads
/// execute (under their replayed app-side Base layouts) — the foreign
/// lines that count against each set's persistence budget.
#[must_use]
pub fn absint_foreign_lines(study: &Study, config: &CacheConfig) -> Vec<u64> {
    let mut lines = Vec::new();
    for case in study.cases() {
        let (Some(layout), Some(profile)) = (study.app_base_layout(case), &case.app_profile) else {
            continue;
        };
        for block in profile.executed_blocks() {
            lines.extend(block_line_addrs(
                layout.addr(block),
                layout.effective_size(block),
                config,
            ));
        }
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Classifies one OS layout against the study's merged profile, with the
/// study's own foreign lines — the standard way every surface (analyze,
/// lint, all_experiments, the gate) invokes the analysis.
#[must_use]
pub fn classify_study_layout(
    study: &Study,
    view: &LayoutView,
    config: CacheConfig,
) -> Classification {
    let foreign = absint_foreign_lines(study, &config);
    let params = AbsintParams::new(config).with_foreign_lines(foreign);
    let _g = oslay_observe::flight::span("absint.classify");
    classify_layout(
        &study.kernel().program,
        study.averaged_os_profile(),
        view,
        &params,
    )
}

/// Line-run replay geometry of one OS layout, flattened (CSR): per
/// block its base address, and per *(block, line slot)* access point the
/// number of fetch words that fall in that slot's cache line.
///
/// Block `b`'s points are `slot_start[b]..slot_start[b + 1]`, in slot
/// order — the same flat index [`PointMisses::misses`] uses.
#[derive(Clone, Debug)]
pub struct LinePoints {
    base: Vec<u64>,
    slot_start: Vec<u32>,
    slot_words: Vec<u16>,
}

impl LinePoints {
    /// Splits every block of `view` into the line runs its fetch words
    /// form under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the layout has more than `u32::MAX` access points.
    #[must_use]
    pub fn new(view: &LayoutView, config: &CacheConfig) -> Self {
        let n = view.num_blocks();
        let mut slot_start = Vec::with_capacity(n + 1);
        let mut slot_words = Vec::new();
        slot_start.push(0);
        for b in 0..n {
            let words = oslay_model::fetch_words(view.size[b]);
            for (_, run) in line_runs(view.addr[b], words, config.line()) {
                slot_words.push(u16::try_from(run).expect("a cache line holds < 2^16 words"));
            }
            slot_start.push(u32::try_from(slot_words.len()).expect("< 2^32 access points"));
        }
        Self {
            base: view.addr.clone(),
            slot_start,
            slot_words,
        }
    }

    /// Flat index of `block`'s line slot `slot`.
    fn point(&self, block: usize, slot: usize) -> usize {
        self.slot_start[block] as usize + slot
    }

    fn slots(&self, block: usize) -> std::ops::Range<usize> {
        self.slot_start[block] as usize..self.slot_start[block + 1] as usize
    }
}

/// Measured misses of one workload replayed against one OS layout.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PointMisses {
    /// Misses per access point, in the layout's [`LinePoints`] order:
    /// block by block, each block's line slots in address order.
    pub misses: Vec<u64>,
    /// Executions per OS block.
    pub exec: Vec<u64>,
}

/// Replays `case`'s buffered trace against the OS layout `os` (app code
/// under its Base layout) through a plain [`Cache`], recording misses per
/// *(block, line slot)* access point.
///
/// Each slot is one `access_words` call, whose 0/1 return is that
/// point's miss. This is exactly the word-by-word outcome: after a line's
/// first fetched word the line is resident and most-recently-used, so
/// the slot's other words are hits that change no replacement state. The
/// stream, fetch enumeration and cache are the production replayer's
/// (`oslay::sim::Replayer`, `SimConfig::fast`), so the totals equal a
/// plain replay's.
///
/// # Panics
///
/// Panics if the trace runs an app block but the case has no app.
#[must_use]
pub fn measure_point_misses(
    study: &Study,
    case: &WorkloadCase,
    os: &LinePoints,
    config: CacheConfig,
) -> PointMisses {
    let app = study.app_base_layout(case);
    let word = u64::from(WORD_BYTES);
    let mut cache = Cache::new(config);
    let mut misses = vec![0u64; os.slot_words.len()];
    let mut exec = vec![0u64; os.base.len()];
    for &event in case.trace.events() {
        let TraceEvent::Block { id, domain } = event else {
            continue;
        };
        match domain {
            Domain::Os => {
                let b = id.index();
                exec[b] += 1;
                let mut addr = os.base[b];
                for p in os.slots(b) {
                    let words = u32::from(os.slot_words[p]);
                    misses[p] += cache.access_words(addr, words, Domain::Os, &mut |_, _| {});
                    addr += u64::from(words) * word;
                }
            }
            Domain::App => {
                let app = app
                    .as_ref()
                    .expect("app block in a workload without an app");
                cache.access_words(
                    app.addr(id),
                    app.fetch_words(id),
                    Domain::App,
                    &mut |_, _| {},
                );
            }
        }
    }
    PointMisses { misses, exec }
}

/// Replays every workload against every layout and checks the static
/// classes against measured misses.
///
/// `layouts` pairs a display name with the built layout; classifications
/// use the merged profile (sound for each workload separately because
/// the merged arc set is a superset of every individual one).
#[must_use]
pub fn run_absint_gate(
    study: &Study,
    layouts: &[(String, OsLayout)],
    config: CacheConfig,
    threads: usize,
) -> AbsintGateOutcome {
    let classifications: Vec<(String, Classification, LinePoints)> = layouts
        .iter()
        .map(|(name, os)| {
            let mut view = LayoutView::from_layout(&os.layout);
            view.name.clone_from(name);
            let c = classify_study_layout(study, &view, config);
            (name.clone(), c, LinePoints::new(&view, &config))
        })
        .collect();

    let jobs: Vec<(usize, usize)> = (0..layouts.len())
        .flat_map(|l| (0..study.cases().len()).map(move |c| (l, c)))
        .collect();
    let rows = oslay::exec::parallel_map(threads, jobs, |_, (l, c)| {
        let _g = oslay_observe::flight::span_with_args(
            "absint.gate.replay",
            &[("layout", l as f64), ("workload", c as f64)],
        );
        let case = &study.cases()[c];
        let (name, classification, points) = &classifications[l];
        let measured = measure_point_misses(study, case, points, config);
        check_row(case.name(), name, classification, points, &measured)
    });

    AbsintGateOutcome {
        classifications: classifications
            .into_iter()
            .map(|(name, c, _)| (name, c))
            .collect(),
        rows,
    }
}

/// Checks one replay's measured misses against one classification.
fn check_row(
    workload: &str,
    layout: &str,
    classification: &Classification,
    points: &LinePoints,
    measured: &PointMisses,
) -> GateRow {
    let mut row = GateRow {
        workload: workload.to_owned(),
        layout: layout.to_owned(),
        ah_points: 0,
        ah_misses: 0,
        persistent_lines: 0,
        persistent_excess: 0,
        am_points: 0,
        am_mismatch: 0,
        measured_coverage: 0.0,
    };
    // Per-line miss totals over *all* points (a persistent line's budget
    // is global, whichever block touches it).
    let mut line_miss: HashMap<u64, u64> = HashMap::new();
    for p in &classification.points {
        let misses = measured.misses[points.point(p.block as usize, p.slot as usize)];
        *line_miss.entry(p.line_addr).or_insert(0) += misses;
    }
    let mut persistent_seen: HashSet<u64> = HashSet::new();
    let mut covered_exec = 0u64;
    let mut total_exec = 0u64;
    for p in &classification.points {
        let block = p.block as usize;
        let misses = measured.misses[points.point(block, p.slot as usize)];
        let exec = measured.exec[block];
        total_exec += exec;
        if p.class != LineClass::Unclassified {
            covered_exec += exec;
        }
        match p.class {
            LineClass::AlwaysHit => {
                row.ah_points += 1;
                row.ah_misses += misses;
            }
            LineClass::Persistent => {
                persistent_seen.insert(p.line_addr);
            }
            LineClass::AlwaysMiss => {
                row.am_points += 1;
                if misses != exec {
                    row.am_mismatch += 1;
                }
            }
            LineClass::Unclassified => {}
        }
    }
    for &line in &persistent_seen {
        row.persistent_lines += 1;
        if line_miss.get(&line).copied().unwrap_or(0) > 1 {
            row.persistent_excess += 1;
        }
    }
    row.measured_coverage = if total_exec == 0 {
        1.0
    } else {
        covered_exec as f64 / total_exec as f64
    };
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay::{OsLayoutKind, StudyConfig};

    #[test]
    fn tiny_gate_is_sound_on_base_and_opt_s() {
        let config = StudyConfig::tiny().with_os_blocks(8_000);
        let study = Study::generate(&config);
        let cfg = CacheConfig::paper_default();
        let layouts: Vec<(String, OsLayout)> = [OsLayoutKind::Base, OsLayoutKind::OptS]
            .iter()
            .map(|&k| (k.name().to_owned(), study.os_layout(k, cfg.size())))
            .collect();
        let outcome = run_absint_gate(&study, &layouts, cfg, 2);
        assert_eq!(outcome.rows.len(), 2 * study.cases().len());
        for row in &outcome.rows {
            assert!(
                row.ok(),
                "{}/{}: ah_misses={} persistent_excess={} am_mismatch={}",
                row.layout,
                row.workload,
                row.ah_misses,
                row.persistent_excess,
                row.am_mismatch
            );
        }
        // The analysis must actually claim something.
        for (name, c) in &outcome.classifications {
            assert!(c.coverage() > 0.0, "{name}: zero coverage");
        }
    }
}
