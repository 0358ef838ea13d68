//! Single-pass multi-configuration simulation.
//!
//! [`MultiSim`] evaluates a whole family of cache organizations in one
//! pass over an access stream and reproduces, per configuration, exactly
//! what a dedicated [`crate::Cache`] would have measured: the same
//! [`MissStats`], the same per-kind miss classification (including the
//! bounded eviction-provenance table's cap behavior), the same eviction
//! counts and the same final set-occupancy snapshot.
//!
//! Three mechanisms make one pass suffice:
//!
//! * **Per-set-count levels.** Configurations sharing a line size and a
//!   set count form one *level* with one true-LRU recency stack per set,
//!   truncated at the level's largest associativity. The residents of an
//!   `A`-way set are exactly its `A` most recently used lines, so one
//!   search of the key's stack settles every `(sets, ways)` point of the
//!   level at once: a hit iff the key sits at depth `< A`, and on a miss
//!   the evicted line is the entry at depth `A - 1` when the set holds at
//!   least `A` lines. A line pushed below the truncation depth is
//!   resident in no point of the level, so it is simply dropped.
//! * **MRU early exit.** Set index masks nest: a level with more sets
//!   splits each set of a coarser one. Levels are walked coarse to fine
//!   and the walk stops at the first level where the key is already most
//!   recently used, because a line that is MRU in a set is MRU in every
//!   finer set containing it — a hit for every remaining point that
//!   moves nothing.
//! * **Banked tag arrays.** Configurations with different line sizes
//!   cannot share a stack (their keys differ), so each line size gets its
//!   own bank of levels and the banks run side by side on the same
//!   stream, each coalescing sequential fetches into line runs at its own
//!   line size.

use oslay_model::Domain;
use oslay_observe::Probe;

use crate::sim::{post_cache_metrics, EvictTable};
use crate::{CacheConfig, MissKind, MissStats};

/// Marks an unused stack slot. Line keys are `addr >> line_shift`; a
/// real key collides with the sentinel only for the topmost line of the
/// address space, which layouts never produce (the dense cache
/// debug-asserts the same).
const EMPTY: u64 = u64::MAX;

/// Per-configuration simulation state: everything a dedicated
/// [`crate::Cache`] would have accumulated, minus what is shared across
/// the group (word counts) or derivable from the level's stacks
/// (occupancy).
#[derive(Clone, Debug)]
struct PointState {
    cfg: CacheConfig,
    /// Mirrors the dense cache's bounded provenance table bit for bit:
    /// same per-set capacity, same round-robin drop, same record-then-
    /// classify order, so classification degrades identically under cap
    /// pressure.
    evict: EvictTable,
    misses_by_kind: [u64; 5],
    /// Cold misses split by the accessing domain (needed to reconstruct
    /// per-domain hits: hits = accesses - misses suffered).
    cold_by_domain: [u64; 2],
    /// Evictions of valid lines, by evictor domain.
    evict_by_domain: [u64; 2],
}

impl PointState {
    fn new(cfg: &CacheConfig) -> Self {
        Self {
            cfg: *cfg,
            evict: EvictTable::new(cfg.num_sets() as usize, EvictTable::DEFAULT_CAP),
            misses_by_kind: [0; 5],
            cold_by_domain: [0; 2],
            evict_by_domain: [0; 2],
        }
    }

    /// Replicates the dense miss path: record the eviction (if the set
    /// was full) first, then classify against the provenance table —
    /// the order matters under its cap.
    fn miss(&mut self, set: u32, key: u64, victim: Option<u64>, domain: Domain) {
        if let Some(victim) = victim {
            self.evict.record(set, victim, domain);
            self.evict_by_domain[domain.index()] += 1;
        }
        let kind = MissKind::classify(domain, self.evict.lookup(set, key));
        self.misses_by_kind[kind.index()] += 1;
        if kind == MissKind::Cold {
            self.cold_by_domain[domain.index()] += 1;
        }
    }
}

/// Every configuration of a bank sharing one set count, on per-set LRU
/// recency stacks truncated at the largest associativity among them.
#[derive(Clone, Debug)]
struct Level {
    /// `num_sets - 1`: `key & set_mask` selects the stack.
    set_mask: u64,
    /// Stack slots per set: the level's largest associativity.
    depth: usize,
    /// Live entries per set, at most `depth` (`u32`, like `ways`).
    lens: Vec<u32>,
    /// Stack entries (line keys), set-major, `depth` slots per set, most
    /// recent first. Unused slots hold [`EMPTY`], which never equals a
    /// key, so the MRU test reads one slot and no length.
    entries: Vec<u64>,
    /// The level's points, associativity strictly ascending (within a
    /// bank, `(sets, ways)` determines the configuration).
    points: Vec<PointState>,
}

impl Level {
    /// Builds a level from configurations sharing one set count, sorted
    /// by strictly ascending associativity.
    fn new(cfgs: &[CacheConfig]) -> Self {
        let sets = cfgs[0].num_sets() as usize;
        let depth = cfgs[cfgs.len() - 1].ways() as usize;
        Self {
            set_mask: cfgs[0].set_mask(),
            depth,
            lens: vec![0; sets],
            entries: vec![EMPTY; sets * depth],
            points: cfgs.iter().map(PointState::new).collect(),
        }
    }

    /// One line access: settles every point of the level, then hoists
    /// `key` to the top of its set's stack. Returns `false`, touching
    /// nothing, when `key` already tops the stack — a hit for every
    /// point here and at every finer level.
    fn access(&mut self, key: u64, domain: Domain) -> bool {
        let set = (key & self.set_mask) as usize;
        let stack = &mut self.entries[set * self.depth..(set + 1) * self.depth];
        if stack[0] == key {
            return false;
        }
        let len = self.lens[set] as usize;
        let pos = stack[..len].iter().position(|&e| e == key);
        // Points are in ascending ways: the first one holding the key
        // (stack distance < ways) ends the misses. A point whose set
        // holds at least `ways` lines evicts its LRU resident, at depth
        // `ways - 1`.
        let dist = pos.unwrap_or(usize::MAX);
        for point in &mut self.points {
            let ways = point.cfg.ways() as usize;
            if dist < ways {
                break;
            }
            let victim = (len >= ways).then(|| stack[ways - 1]);
            point.miss(set as u32, key, victim, domain);
        }
        match pos {
            Some(p) => stack.copy_within(..p, 1),
            None => {
                // A full stack drops its bottom entry, which is resident
                // in no point of the level.
                let kept = len.min(self.depth - 1);
                stack.copy_within(..kept, 1);
                self.lens[set] = (kept + 1) as u32;
            }
        }
        stack[0] = key;
        true
    }

    /// Final per-set occupancy of one point: a set holds `min(len, ways)`
    /// valid lines.
    fn occupancy(&self, ways: u32) -> impl Iterator<Item = u64> + '_ {
        self.lens.iter().map(move |&len| u64::from(len.min(ways)))
    }

    /// Structural stack invariants (test hook): every length within the
    /// level's depth, live entries unique and homed to their set, unused
    /// slots empty.
    fn check(&self) -> Result<(), String> {
        for (set, (&len, stack)) in self
            .lens
            .iter()
            .zip(self.entries.chunks_exact(self.depth))
            .enumerate()
        {
            let len = len as usize;
            if len > self.depth {
                return Err(format!(
                    "set {set}: length {len} exceeds depth {}",
                    self.depth
                ));
            }
            let (live, unused) = stack.split_at(len);
            for (i, &e) in live.iter().enumerate() {
                if e & self.set_mask != set as u64 {
                    return Err(format!(
                        "set {set}: entry {e:#x} belongs to set {}",
                        e & self.set_mask
                    ));
                }
                if live[..i].contains(&e) {
                    return Err(format!("set {set}: duplicate entry {e:#x}"));
                }
            }
            if let Some(&e) = unused.iter().find(|&&e| e != EMPTY) {
                return Err(format!("set {set}: entry {e:#x} past length {len}"));
            }
        }
        Ok(())
    }
}

/// One bank: every configuration sharing a line size, one [`Level`] per
/// distinct set count.
#[derive(Clone, Debug)]
struct Bank {
    /// `log2(line)`: `addr >> line_shift` is the line key.
    line_shift: u32,
    /// Ascending set count, so an access walks coarse to fine.
    levels: Vec<Level>,
}

impl Bank {
    fn new(line_shift: u32, cfgs: &[CacheConfig]) -> Self {
        let mut cfgs = cfgs.to_vec();
        cfgs.sort_unstable_by_key(|c| (c.num_sets(), c.ways()));
        cfgs.dedup();
        let levels = cfgs
            .chunk_by(|a, b| a.num_sets() == b.num_sets())
            .map(Level::new)
            .collect();
        Self { line_shift, levels }
    }

    /// `(level, point)` indices of a configuration of this bank.
    fn locate(&self, cfg: &CacheConfig) -> (usize, usize) {
        self.levels
            .iter()
            .enumerate()
            .find_map(|(li, l)| {
                l.points
                    .iter()
                    .position(|p| p.cfg == *cfg)
                    .map(|pi| (li, pi))
            })
            .expect("configuration is in its bank")
    }

    /// Splits a `words`-long sequential fetch into line runs at this
    /// bank's line size and touches the levels once per run — after the
    /// first word of a line the rest of the run is guaranteed hits in
    /// every configuration of the bank (same line size), leaving all
    /// replacement state untouched, exactly as the dense cache's
    /// coalesced path reasons.
    fn access_run(&mut self, base: u64, words: u32, domain: Domain) {
        let word = u64::from(oslay_model::WORD_BYTES);
        let line = 1u64 << self.line_shift;
        let mut w = 0u32;
        while w < words {
            let addr = base + u64::from(w) * word;
            // Words left in this line, rounding up: fetch bases are
            // byte-granular, so a partial trailing word still belongs to
            // (and ends) the line. `line` is a power of two, so the
            // offset is a mask, not a division.
            let in_line = ((line - (addr & (line - 1))).div_ceil(word)) as u32;
            let run = in_line.min(words - w);
            self.access_line(addr >> self.line_shift, domain);
            w += run;
        }
    }

    /// One line-granular access, walking the levels coarse to fine until
    /// one finds `key` already most recently used.
    fn access_line(&mut self, key: u64, domain: Domain) {
        debug_assert_ne!(key, EMPTY, "address in the topmost line");
        for level in &mut self.levels {
            if !level.access(key, domain) {
                break;
            }
        }
    }
}

/// A multi-configuration instruction-cache simulator: one pass over an
/// access stream yields, per [`CacheConfig`] point, results identical to
/// a dedicated [`crate::Cache`] replaying the same stream.
///
/// Construction groups the points into banks by line size and, within a
/// bank, into levels by set count; duplicate configurations collapse onto
/// one simulation point (queries by original index are fanned back out).
///
/// # Example
///
/// ```
/// use oslay_cache::{CacheConfig, MultiSim};
/// use oslay_model::Domain;
///
/// let grid = [
///     CacheConfig::new(4096, 32, 1),
///     CacheConfig::new(8192, 32, 2),
///     CacheConfig::new(8192, 64, 1),
/// ];
/// let mut multi = MultiSim::new(&grid);
/// multi.access_words(0x100, 12, Domain::Os);
/// assert_eq!(multi.stats(0).total_accesses(), 12);
/// ```
#[derive(Clone, Debug)]
pub struct MultiSim {
    banks: Vec<Bank>,
    /// Original point index -> (bank, level, point-in-level).
    point_map: Vec<(usize, usize, usize)>,
    /// Word fetches by domain — identical for every point (the stream is
    /// shared), so accounted once for the whole group.
    accesses: [u64; 2],
}

impl MultiSim {
    /// Builds a simulator for the given configuration grid. Duplicate
    /// configurations share state; per-index queries still answer for
    /// every input position.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    #[must_use]
    pub fn new(configs: &[CacheConfig]) -> Self {
        assert!(!configs.is_empty(), "multisim needs at least one point");
        // One bank per line size, in first-appearance order.
        let mut banks: Vec<Bank> = Vec::new();
        for cfg in configs {
            let shift = cfg.line_shift();
            if banks.iter().all(|b| b.line_shift != shift) {
                let members: Vec<CacheConfig> = configs
                    .iter()
                    .filter(|c| c.line_shift() == shift)
                    .copied()
                    .collect();
                banks.push(Bank::new(shift, &members));
            }
        }
        let point_map = configs
            .iter()
            .map(|cfg| {
                let bi = banks
                    .iter()
                    .position(|b| b.line_shift == cfg.line_shift())
                    .expect("every line size has a bank");
                let (li, pi) = banks[bi].locate(cfg);
                (bi, li, pi)
            })
            .collect();
        Self {
            banks,
            point_map,
            accesses: [0; 2],
        }
    }

    /// The level and state of one input point.
    fn point(&self, point: usize) -> (&Level, &PointState) {
        let (bi, li, pi) = self.point_map[point];
        let level = &self.banks[bi].levels[li];
        (level, &level.points[pi])
    }

    /// Number of input points (including duplicates).
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.point_map.len()
    }

    /// The configuration of one input point.
    #[must_use]
    pub fn config(&self, point: usize) -> CacheConfig {
        self.point(point).1.cfg
    }

    /// Simulates one instruction-word fetch, for every point at once.
    pub fn access(&mut self, addr: u64, domain: Domain) {
        self.accesses[domain.index()] += 1;
        for bank in &mut self.banks {
            bank.access_line(addr >> bank.line_shift, domain);
        }
    }

    /// Simulates `words` consecutive instruction-word fetches starting
    /// at `base`, for every point at once — the multi-configuration
    /// equivalent of [`crate::InstructionCache::access_words`], with
    /// fetch coalescing at each bank's own line size.
    pub fn access_words(&mut self, base: u64, words: u32, domain: Domain) {
        if words == 0 {
            return;
        }
        self.accesses[domain.index()] += u64::from(words);
        for bank in &mut self.banks {
            bank.access_run(base, words, domain);
        }
    }

    /// The statistics a dedicated [`crate::Cache`] would report for this
    /// point after the same stream.
    #[must_use]
    pub fn stats(&self, point: usize) -> MissStats {
        let p = self.point(point).1;
        let mk = p.misses_by_kind;
        let suffered = [
            // Misses suffered by the OS: its cold misses plus both
            // kinds where the OS is the victim.
            p.cold_by_domain[Domain::Os.index()]
                + mk[MissKind::OsSelf.index()]
                + mk[MissKind::OsByApp.index()],
            p.cold_by_domain[Domain::App.index()]
                + mk[MissKind::AppSelf.index()]
                + mk[MissKind::AppByOs.index()],
        ];
        let hits = [
            self.accesses[0] - suffered[0],
            self.accesses[1] - suffered[1],
        ];
        MissStats::from_parts(self.accesses, hits, mk)
    }

    /// Reports one point's cache events into `probe` exactly as
    /// [`crate::Cache::report_into`] reports a dedicated cache after the
    /// same stream: per-kind miss counters and per-evictor eviction
    /// counters (created only when nonzero), one `cache.set_occupancy`
    /// histogram sample per set in set order, and the `cache.occupancy`
    /// fill gauge.
    pub fn report_into(&self, point: usize, probe: &dyn Probe) {
        let (level, p) = self.point(point);
        post_cache_metrics(
            probe,
            p.misses_by_kind,
            p.evict_by_domain,
            level.occupancy(p.cfg.ways()),
            u64::from(p.cfg.num_sets()) * u64::from(p.cfg.ways()),
        );
    }

    /// Verifies the structural invariants of every level's stacks
    /// (length within the level's depth, unique entries homed to their
    /// set, unused slots empty). Test hook for the property suite.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (bi, bank) in self.banks.iter().enumerate() {
            for (li, level) in bank.levels.iter().enumerate() {
                level
                    .check()
                    .map_err(|e| format!("bank {bi} level {li}: {e}"))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use oslay_model::rng::Rng;
    use oslay_observe::MetricRegistry;

    use super::*;
    use crate::{Cache, InstructionCache};

    /// A grid mixing sizes, associativities, and line sizes (three
    /// banks), plus a duplicate point.
    fn grid() -> Vec<CacheConfig> {
        vec![
            CacheConfig::new(1024, 32, 1),
            CacheConfig::new(2048, 32, 2),
            CacheConfig::new(4096, 32, 4),
            CacheConfig::new(2048, 32, 1),
            CacheConfig::new(2048, 16, 2),
            CacheConfig::new(4096, 64, 1),
            CacheConfig::new(2048, 32, 2),
        ]
    }

    fn random_stream(seed: u64, steps: u32, span: u32, mut sink: impl FnMut(u64, u32, Domain)) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..steps {
            let base = u64::from(rng.gen_range(0..span));
            let words = 1 + rng.gen_range(0..24u32);
            let domain = if rng.gen_range(0..3u32) == 0 {
                Domain::App
            } else {
                Domain::Os
            };
            sink(base, words, domain);
        }
    }

    #[test]
    fn matches_dense_caches_on_randomized_stream() {
        let grid = grid();
        let mut multi = MultiSim::new(&grid);
        let mut dense: Vec<Cache> = grid.iter().map(|&c| Cache::new(c)).collect();
        random_stream(0x51EE7, 20_000, 6 * 1024, |base, words, domain| {
            multi.access_words(base, words, domain);
            for c in &mut dense {
                c.access_words(base, words, domain, &mut |_, _| {});
            }
        });
        for (pi, c) in dense.iter().enumerate() {
            assert_eq!(multi.stats(pi), *c.stats(), "point {pi} ({})", grid[pi]);
        }
        multi.check_invariants().expect("stack invariants hold");
    }

    #[test]
    fn matches_dense_caches_per_single_access() {
        // Word-at-a-time API, checked at every step so any divergence
        // pinpoints the first mismatching access.
        let grid = grid();
        let mut multi = MultiSim::new(&grid);
        let mut dense: Vec<Cache> = grid.iter().map(|&c| Cache::new(c)).collect();
        let mut rng = Rng::seed_from_u64(0xACCE55);
        for step in 0..30_000u32 {
            let addr = u64::from(rng.gen_range(0..4 * 1024u32));
            let domain = if rng.gen_range(0..4u32) == 0 {
                Domain::App
            } else {
                Domain::Os
            };
            multi.access(addr, domain);
            for (pi, c) in dense.iter_mut().enumerate() {
                c.access(addr, domain);
                assert_eq!(
                    multi.stats(pi),
                    *c.stats(),
                    "step {step} addr {addr:#x} point {pi} ({})",
                    grid[pi]
                );
            }
        }
    }

    #[test]
    fn truncation_pressure_preserves_equality() {
        // Tiny caches, address span far beyond every capacity: every
        // level's stacks fill and drop entries below their depth
        // constantly.
        let grid = vec![
            CacheConfig::new(64, 16, 1),
            CacheConfig::new(128, 16, 2),
            CacheConfig::new(256, 16, 1),
            CacheConfig::new(128, 32, 1),
        ];
        let mut multi = MultiSim::new(&grid);
        let mut dense: Vec<Cache> = grid.iter().map(|&c| Cache::new(c)).collect();
        random_stream(0x9B1D, 40_000, 64 * 1024, |base, words, domain| {
            multi.access_words(base, words, domain);
            for c in &mut dense {
                c.access_words(base, words, domain, &mut |_, _| {});
            }
            multi
                .check_invariants()
                .expect("truncated stacks stay sound");
        });
        for (pi, c) in dense.iter().enumerate() {
            assert_eq!(multi.stats(pi), *c.stats(), "point {pi} ({})", grid[pi]);
        }
    }

    #[test]
    fn report_matches_probed_cache_and_occupancy() {
        let grid = grid();
        let mut multi = MultiSim::new(&grid);
        let mut probed: Vec<(MetricRegistry, Cache)> = grid
            .iter()
            .map(|&c| (MetricRegistry::new(), Cache::new(c)))
            .collect();
        random_stream(0x0CC, 15_000, 6 * 1024, |base, words, domain| {
            multi.access_words(base, words, domain);
            for (_, c) in &mut probed {
                c.access_words(base, words, domain, &mut |_, _| {});
            }
        });
        for (pi, (reg, c)) in probed.iter().enumerate() {
            c.report_into(reg);
            let mine = MetricRegistry::new();
            multi.report_into(pi, &mine);
            assert_eq!(
                mine.counters(),
                reg.counters(),
                "point {pi} ({}) counters",
                grid[pi]
            );
            assert_eq!(
                mine.gauges(),
                reg.gauges(),
                "point {pi} ({}) gauges",
                grid[pi]
            );
            assert_eq!(
                mine.histograms(),
                reg.histograms(),
                "point {pi} ({}) histograms",
                grid[pi]
            );
        }
    }

    #[test]
    fn duplicate_points_share_state_and_answer_independently() {
        let grid = grid();
        let multi = MultiSim::new(&grid);
        assert_eq!(multi.num_points(), grid.len());
        assert_eq!(multi.config(1), multi.config(6));
        let mut multi = multi;
        multi.access_words(0x40, 9, Domain::Os);
        assert_eq!(multi.stats(1), multi.stats(6));
    }

    #[test]
    fn matches_reference_caches_on_seeded_streams() {
        // Property check against the *map-based* reference model rather
        // than the optimized dense cache: N independent `ReferenceCache`
        // instances aggregate the same stream access-by-access, and every
        // grid point must agree, per seed.
        use crate::reference::ReferenceCache;

        let grid = grid();
        for seed in [0xA11CEu64, 0xB0B5EED, 0xF1F7EE17] {
            let mut multi = MultiSim::new(&grid);
            let mut refs: Vec<(ReferenceCache, MissStats)> = grid
                .iter()
                .map(|&c| (ReferenceCache::new(c), MissStats::default()))
                .collect();
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..20_000u32 {
                let addr = u64::from(rng.gen_range(0..6 * 1024u32));
                let domain = if rng.gen_range(0..3u32) == 0 {
                    Domain::App
                } else {
                    Domain::Os
                };
                multi.access(addr, domain);
                for (r, stats) in &mut refs {
                    let detail = r.access_detailed(addr, domain);
                    stats.record(domain, detail.outcome);
                }
            }
            multi.check_invariants().expect("stack invariants hold");
            for (pi, (_, stats)) in refs.iter().enumerate() {
                assert_eq!(
                    multi.stats(pi),
                    *stats,
                    "seed {seed:#x} point {pi} ({})",
                    grid[pi]
                );
            }
        }
    }

    #[test]
    fn matches_reference_caches_under_truncation_pressure() {
        // Same property under truncation: tiny caches, an address span
        // far beyond every capacity, invariants checked as full stacks
        // drop their bottom entries.
        use crate::reference::ReferenceCache;

        let grid = vec![
            CacheConfig::new(64, 16, 1),
            CacheConfig::new(128, 16, 2),
            CacheConfig::new(256, 16, 1),
            CacheConfig::new(128, 32, 1),
        ];
        let mut multi = MultiSim::new(&grid);
        let mut refs: Vec<(ReferenceCache, MissStats)> = grid
            .iter()
            .map(|&c| (ReferenceCache::new(c), MissStats::default()))
            .collect();
        let mut rng = Rng::seed_from_u64(0x9B1D5EED);
        for step in 0..30_000u32 {
            let addr = u64::from(rng.gen_range(0..16 * 1024u32));
            let domain = if rng.gen_range(0..4u32) == 0 {
                Domain::App
            } else {
                Domain::Os
            };
            multi.access(addr, domain);
            for (r, stats) in &mut refs {
                let detail = r.access_detailed(addr, domain);
                stats.record(domain, detail.outcome);
            }
            if step % 1024 == 0 {
                multi
                    .check_invariants()
                    .expect("truncated stacks stay sound");
            }
        }
        multi
            .check_invariants()
            .expect("truncated stacks stay sound");
        for (pi, (_, stats)) in refs.iter().enumerate() {
            assert_eq!(multi.stats(pi), *stats, "point {pi} ({})", grid[pi]);
        }
    }

    #[test]
    fn check_invariants_detects_corrupted_stacks() {
        // `check_invariants` is the property suite's oracle, so prove it
        // actually fires: plant each class of violation in a healthy
        // simulator and expect the matching report.
        let grid = grid();
        let filled = || {
            let mut m = MultiSim::new(&grid);
            random_stream(0x5EED, 3_000, 6 * 1024, |base, words, domain| {
                m.access_words(base, words, domain);
            });
            m.check_invariants().expect("healthy after the stream");
            m
        };
        // A level of the first bank with at least two sets and a set at
        // least two deep: (level, set, first slot of that set).
        let deep_set = |m: &MultiSim| {
            let levels = &m.banks[0].levels;
            levels
                .iter()
                .enumerate()
                .filter(|(_, l)| l.lens.len() > 1)
                .find_map(|(li, l)| {
                    let set = l.lens.iter().position(|&len| len >= 2)?;
                    Some((li, set, set * l.depth))
                })
                .expect("a multi-set level with a stack at least two deep")
        };

        // A duplicated entry.
        let mut m = filled();
        let (li, _, base) = deep_set(&m);
        let level = &mut m.banks[0].levels[li];
        level.entries[base + 1] = level.entries[base];
        let err = m.check_invariants().expect_err("duplicate goes undetected");
        assert!(err.contains("duplicate"), "{err}");

        // An entry homed to the wrong set (flipping the lowest key bit
        // moves it: the level has more than one set).
        let mut m = filled();
        let (li, _, base) = deep_set(&m);
        m.banks[0].levels[li].entries[base] ^= 1;
        let err = m
            .check_invariants()
            .expect_err("mis-homed entry undetected");
        assert!(err.contains("belongs to"), "{err}");

        // A stack deeper than its level's depth.
        let mut m = filled();
        let (li, set, _) = deep_set(&m);
        let level = &mut m.banks[0].levels[li];
        level.lens[set] = level.depth as u32 + 1;
        let err = m
            .check_invariants()
            .expect_err("over-deep stack undetected");
        assert!(err.contains("exceeds depth"), "{err}");

        // A stale key in an unused slot (the MRU test would read it): one
        // access leaves set 0 of the coarsest level one line deep.
        let mut m = MultiSim::new(&grid);
        m.access(0, Domain::Os);
        let level = &mut m.banks[0].levels[0];
        assert!(level.depth > 1 && level.lens[0] == 1);
        level.entries[1] = level.set_mask + 1;
        let err = m.check_invariants().expect_err("stale slot undetected");
        assert!(err.contains("past length"), "{err}");
    }

    #[test]
    fn design_grid_matches_dense_and_reference_caches() {
        // The figure sweeps' design grid scaled down 16x: 256 B-16 KB x
        // 1/2/4/8 ways at 32 B (one bank of many levels, 8-way depth),
        // plus 16/64/128 B lines at 512 B. Half the fetches land in a
        // hot 2 KB region, the rest anywhere in a span 3x the largest
        // cache, so every level's stacks fill and truncate.
        use crate::reference::ReferenceCache;

        let mut grid = Vec::new();
        for size in [256u32, 512, 1024, 2048, 4096, 8192, 16_384] {
            for ways in [1u32, 2, 4, 8] {
                grid.push(CacheConfig::new(size, 32, ways));
            }
        }
        grid.extend([16u32, 64, 128].map(|line| CacheConfig::new(512, line, 1)));
        let span = 3 * 16_384u32;
        for seed in [0xD5161u64, 0x5EED_0002, 0x5EED_0003] {
            let mut multi = MultiSim::new(&grid);
            let mut dense: Vec<Cache> = grid.iter().map(|&c| Cache::new(c)).collect();
            let mut refs: Vec<(ReferenceCache, MissStats)> = grid
                .iter()
                .map(|&c| (ReferenceCache::new(c), MissStats::default()))
                .collect();
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..6_000u32 {
                let base = if rng.gen_range(0..2u32) == 0 {
                    u64::from(rng.gen_range(0..2048u32))
                } else {
                    u64::from(rng.gen_range(0..span))
                };
                let words = 1 + rng.gen_range(0..16u32);
                let domain = if rng.gen_range(0..3u32) == 0 {
                    Domain::App
                } else {
                    Domain::Os
                };
                multi.access_words(base, words, domain);
                for c in &mut dense {
                    c.access_words(base, words, domain, &mut |_, _| {});
                }
                for (r, stats) in &mut refs {
                    for w in 0..words {
                        let addr = base + u64::from(w * oslay_model::WORD_BYTES);
                        stats.record(domain, r.access_detailed(addr, domain).outcome);
                    }
                }
            }
            multi.check_invariants().expect("stack invariants hold");
            for (pi, (c, (_, ref_stats))) in dense.iter().zip(&refs).enumerate() {
                let at = format!("seed {seed:#x} point {pi} ({})", grid[pi]);
                assert_eq!(multi.stats(pi), *c.stats(), "{at} vs Cache");
                assert_eq!(multi.stats(pi), *ref_stats, "{at} vs ReferenceCache");
                let (mine, theirs) = (MetricRegistry::new(), MetricRegistry::new());
                multi.report_into(pi, &mine);
                c.report_into(&theirs);
                assert_eq!(mine.counters(), theirs.counters(), "{at} counters");
                assert_eq!(mine.gauges(), theirs.gauges(), "{at} gauges");
                assert_eq!(mine.histograms(), theirs.histograms(), "{at} histograms");
            }
        }
    }

    #[test]
    fn empty_stream_reports_zeros() {
        let multi = MultiSim::new(&grid());
        for pi in 0..multi.num_points() {
            assert_eq!(multi.stats(pi), MissStats::default());
        }
        multi.check_invariants().expect("empty stacks are sound");
    }
}
