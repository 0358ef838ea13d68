//! The core set-associative LRU cache simulator.
//!
//! The hot path is dense and allocation-free: per-set tag/LRU arrays
//! indexed by a precomputed `(set, tag)` decomposition (shift + mask, no
//! division), and a bounded per-set [`EvictTable`] replacing the old
//! unbounded `HashMap<line, Domain>` for interference classification. A
//! map-based twin is preserved in [`crate::reference`] and the test suite
//! replays randomized traces through both, asserting identical per-access
//! outcomes.

use oslay_model::{Domain, WORD_BYTES};
use oslay_observe::timeline::{self, CacheProbeSnapshot};
use oslay_observe::Probe;

use crate::{CacheConfig, InstructionCache, MissStats};

/// Why a miss happened.
///
/// This is the decomposition used throughout the paper's evaluation: cold
/// misses turn out to be negligible, operating-system *self*-interference
/// dominates (over 90% of OS misses in every workload studied), and the
/// optimizations attack exactly that component.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum MissKind {
    /// First-ever reference to the line.
    Cold,
    /// An OS line was evicted by other OS code and refetched.
    OsSelf,
    /// An OS line was evicted by application code and refetched.
    OsByApp,
    /// An application line was evicted by other application code.
    AppSelf,
    /// An application line was evicted by OS code.
    AppByOs,
}

impl MissKind {
    /// All kinds, in reporting order.
    pub const ALL: [MissKind; 5] = [
        MissKind::Cold,
        MissKind::OsSelf,
        MissKind::OsByApp,
        MissKind::AppSelf,
        MissKind::AppByOs,
    ];

    /// Dense index (`0..5`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            MissKind::Cold => 0,
            MissKind::OsSelf => 1,
            MissKind::OsByApp => 2,
            MissKind::AppSelf => 3,
            MissKind::AppByOs => 4,
        }
    }

    /// Short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MissKind::Cold => "cold",
            MissKind::OsSelf => "os-self",
            MissKind::OsByApp => "os-by-app",
            MissKind::AppSelf => "app-self",
            MissKind::AppByOs => "app-by-os",
        }
    }

    /// Metric name in the `cache.*` namespace counting misses of this
    /// kind.
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            MissKind::Cold => "cache.miss.cold",
            MissKind::OsSelf => "cache.miss.os-self",
            MissKind::OsByApp => "cache.miss.os-by-app",
            MissKind::AppSelf => "cache.miss.app-self",
            MissKind::AppByOs => "cache.miss.app-by-os",
        }
    }

    /// Classifies a miss of `victim` domain given who evicted the line
    /// last (`None` = never cached).
    #[must_use]
    pub fn classify(victim: Domain, evictor: Option<Domain>) -> Self {
        match (victim, evictor) {
            (_, None) => MissKind::Cold,
            (Domain::Os, Some(Domain::Os)) => MissKind::OsSelf,
            (Domain::Os, Some(Domain::App)) => MissKind::OsByApp,
            (Domain::App, Some(Domain::App)) => MissKind::AppSelf,
            (Domain::App, Some(Domain::Os)) => MissKind::AppByOs,
        }
    }
}

/// Outcome of one fetch.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum AccessOutcome {
    /// The word was in the cache.
    Hit,
    /// The word missed, for the stated reason.
    Miss(MissKind),
}

impl AccessOutcome {
    /// True for misses.
    #[must_use]
    pub fn is_miss(self) -> bool {
        matches!(self, AccessOutcome::Miss(_))
    }
}

/// Detailed outcome of one fetch: the classical outcome plus the cache
/// coordinates diagnostics need — which line and set the access touched
/// and, on a fill that displaced a valid line, which line was evicted.
///
/// Produced by [`Cache::access_detailed`]; the attribution engine
/// ([`crate::AttributedCache`]) consumes it to maintain evictor→victim
/// provenance without duplicating the replacement logic.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct AccessDetail {
    /// Hit, or miss with interference kind.
    pub outcome: AccessOutcome,
    /// The accessed (line-aligned) address.
    pub line: u64,
    /// The set the access mapped to.
    pub set: u32,
    /// The valid line displaced by this fill, if any.
    pub evicted: Option<u64>,
}

/// Sentinel tag marking an invalid (never filled) way. Line keys are
/// `addr >> line_shift`, so a real key can only collide with the sentinel
/// for addresses in the topmost line of the address space — which the
/// layouts never produce (debug-asserted on access).
const TAG_EMPTY: u64 = u64::MAX;

/// Bounded per-set store of "who last evicted this line", replacing the
/// old unbounded `HashMap<u64, Domain>` (which grew one entry per distinct
/// line ever evicted and was never pruned on re-fill).
///
/// Each set keeps its records sorted by line key for `O(log n)` lookup
/// and update. When a set reaches `cap` records, the *oldest inserted*
/// record is dropped round-robin; classification of a line whose record
/// was dropped degrades to `Cold`, exactly as if the line had never been
/// cached. The default cap (4096) is far above the distinct-lines-per-set
/// count of any paper-scale workload (~a few hundred), so results are
/// bit-identical to the unbounded map while memory stays bounded at
/// `O(sets × cap)` worst case.
#[derive(Clone, Debug)]
pub(crate) struct EvictTable {
    cap: usize,
    /// Per set: records `(line_key, evictor)` sorted by key, plus the
    /// round-robin drop cursor used when the set is at capacity.
    sets: Vec<(Vec<(u64, Domain)>, usize)>,
}

impl EvictTable {
    /// Default per-set record bound.
    pub(crate) const DEFAULT_CAP: usize = 4096;

    pub(crate) fn new(num_sets: usize, cap: usize) -> Self {
        assert!(cap > 0, "evict table needs capacity");
        Self {
            cap,
            sets: vec![(Vec::new(), 0); num_sets],
        }
    }

    pub(crate) fn lookup(&self, set: u32, key: u64) -> Option<Domain> {
        let records = &self.sets[set as usize].0;
        records
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| records[i].1)
    }

    pub(crate) fn record(&mut self, set: u32, key: u64, evictor: Domain) {
        let (records, cursor) = &mut self.sets[set as usize];
        match records.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => records[i].1 = evictor,
            Err(i) => {
                if records.len() >= self.cap {
                    // At capacity: drop one record round-robin to make
                    // room (its line reclassifies as cold if refetched).
                    let drop_at = *cursor % records.len();
                    *cursor = cursor.wrapping_add(1);
                    records.remove(drop_at);
                    let i = records
                        .binary_search_by_key(&key, |&(k, _)| k)
                        .expect_err("key was absent");
                    records.insert(i, (key, evictor));
                } else {
                    records.insert(i, (key, evictor));
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.sets.iter().map(|(r, _)| r.len()).sum()
    }

    fn clear(&mut self) {
        for (records, cursor) in &mut self.sets {
            records.clear();
            *cursor = 0;
        }
    }
}

/// A unified set-associative LRU instruction cache.
///
/// # Example
///
/// ```
/// use oslay_cache::{AccessOutcome, Cache, CacheConfig, InstructionCache, MissKind};
/// use oslay_model::Domain;
///
/// let mut cache = Cache::new(CacheConfig::paper_default());
/// assert_eq!(
///     cache.access(0x100, Domain::Os),
///     AccessOutcome::Miss(MissKind::Cold)
/// );
/// assert_eq!(cache.access(0x104, Domain::Os), AccessOutcome::Hit);
/// ```
#[derive(Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line)`: `addr >> line_shift` is the line key.
    line_shift: u32,
    /// `num_sets - 1`: `key & set_mask` is the set index.
    set_mask: u64,
    ways_per_set: usize,
    /// Line key per way, set-major ([`TAG_EMPTY`] = invalid).
    tags: Vec<u64>,
    /// Last-touch clock per way, parallel to `tags`.
    lru: Vec<u64>,
    /// Last evictor per line (bounded; absent = never evicted = cold).
    evicted_by: EvictTable,
    clock: u64,
    stats: MissStats,
    /// Valid lines displaced since the last reset, by evictor domain
    /// (indexed by [`Domain::index`]); posted by [`Cache::report_into`].
    evictions: [u64; 2],
    /// Eviction-age histogram (log2 buckets of `clock - last_touch`),
    /// allocated only while the timeline has telemetry enabled.
    /// Touched only on the eviction path.
    evict_ages: Option<Box<[u64; timeline::AGE_BUCKETS]>>,
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("cfg", &self.cfg)
            .field("clock", &self.clock)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Cache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_evict_cap(cfg, EvictTable::DEFAULT_CAP)
    }

    /// Creates an empty cache with a custom per-set bound on eviction
    /// provenance records (tests use tiny caps to exercise the drop
    /// path; the default is `EvictTable::DEFAULT_CAP` via
    /// [`Cache::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `evict_cap` is zero.
    #[must_use]
    pub fn with_evict_cap(cfg: CacheConfig, evict_cap: usize) -> Self {
        let slots = (cfg.num_sets() * cfg.ways()) as usize;
        Self {
            cfg,
            line_shift: cfg.line_shift(),
            set_mask: cfg.set_mask(),
            ways_per_set: cfg.ways() as usize,
            tags: vec![TAG_EMPTY; slots],
            lru: vec![0; slots],
            evicted_by: EvictTable::new(cfg.num_sets() as usize, evict_cap),
            clock: 0,
            stats: MissStats::default(),
            evictions: [0; 2],
            evict_ages: None,
        }
    }

    /// Total eviction-provenance records currently held (test hook for
    /// the boundedness guarantee).
    #[must_use]
    pub fn evict_records(&self) -> usize {
        self.evicted_by.len()
    }

    /// This cache's geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Reports this cache's events since the last reset into `probe`, by
    /// the rule [`crate::MultiSim::report_into`] follows: per-kind miss
    /// counters (`cache.miss.*`) and per-evictor eviction counters
    /// (`cache.evict.*`), each created only when nonzero, then one
    /// `cache.set_occupancy` histogram sample per set in set order and
    /// the `cache.occupancy` fill gauge.
    ///
    /// The replay itself never touches a probe: callers post the counts
    /// once, after the replay.
    pub fn report_into(&self, probe: &dyn Probe) {
        let occupancy = self
            .tags
            .chunks(self.ways_per_set)
            .map(|set| set.iter().filter(|&&tag| tag != TAG_EMPTY).count() as u64);
        post_cache_metrics(
            probe,
            MissKind::ALL.map(|kind| self.stats.misses(kind)),
            self.evictions,
            occupancy,
            self.tags.len() as u64,
        );
    }

    /// Looks `key` up in its set, advancing the clock once. A hit stamps
    /// the way most-recently-used and returns `true`; a miss changes
    /// nothing else and leaves the fill to [`Cache::fill`].
    #[inline(always)]
    fn touch_line(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, TAG_EMPTY, "address in the topmost line");
        self.clock += 1;
        let base = (key & self.set_mask) as usize * self.ways_per_set;
        // A key never equals TAG_EMPTY, so no validity check.
        if self.ways_per_set == 1 {
            // Direct-mapped (the paper's geometry): one compare, no scan.
            let hit = self.tags[base] == key;
            if hit {
                self.lru[base] = self.clock;
            }
            return hit;
        }
        match self.tags[base..base + self.ways_per_set]
            .iter()
            .position(|&tag| tag == key)
        {
            Some(i) => {
                self.lru[base + i] = self.clock;
                true
            }
            None => false,
        }
    }

    /// The miss path, kept out of line so the hit loops stay tight:
    /// fills `key` at the current clock into the first invalid way, else
    /// the first least-recently-used one (matching the reference
    /// implementation's tie-break), records the miss, and returns its
    /// kind with the displaced valid line's key, if any.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, key: u64, domain: Domain) -> (MissKind, Option<u64>) {
        let clock = self.clock;
        let set = (key & self.set_mask) as u32;
        let base = set as usize * self.ways_per_set;
        let mut victim = base;
        let mut best = (self.tags[base] != TAG_EMPTY, self.lru[base]);
        for i in base + 1..base + self.ways_per_set {
            let rank = (self.tags[i] != TAG_EMPTY, self.lru[i]);
            if rank < best {
                best = rank;
                victim = i;
            }
        }
        let evictee = self.tags[victim];
        let evicted_valid = evictee != TAG_EMPTY;
        // Victim's last-touch stamp, read before the fill overwrites it:
        // the eviction age is how long the line sat untouched.
        let victim_last = self.lru[victim];
        self.tags[victim] = key;
        self.lru[victim] = clock;
        if evicted_valid {
            self.evicted_by.record(set, evictee, domain);
            self.evictions[domain.index()] += 1;
            if let Some(ages) = self.evict_ages.as_deref_mut() {
                ages[(clock - victim_last).ilog2() as usize] += 1;
            }
        }
        // A line is non-cold iff it was ever evicted — residency implies a
        // prior fill, and every displacement of a valid line leaves a
        // provenance record — so the evict table doubles as the seen-set.
        let kind = MissKind::classify(domain, self.evicted_by.lookup(set, key));
        self.stats.record(domain, AccessOutcome::Miss(kind));
        (kind, evicted_valid.then_some(evictee))
    }

    /// Like [`InstructionCache::access`], but also reports the touched
    /// line, its set, and the line evicted by the fill (if any).
    ///
    /// The hit path is branch-light: one shift-and-mask decomposition, a
    /// scan of at most `ways` dense tags, one LRU stamp. Maps are only
    /// consulted on misses.
    #[inline]
    pub fn access_detailed(&mut self, addr: u64, domain: Domain) -> AccessDetail {
        let key = addr >> self.line_shift;
        let set = (key & self.set_mask) as u32;
        let line = key << self.line_shift;
        if self.touch_line(key) {
            self.stats.record(domain, AccessOutcome::Hit);
            return AccessDetail {
                outcome: AccessOutcome::Hit,
                line,
                set,
                evicted: None,
            };
        }
        let (kind, evicted) = self.fill(key, domain);
        AccessDetail {
            outcome: AccessOutcome::Miss(kind),
            line,
            set,
            evicted: evicted.map(|k| k << self.line_shift),
        }
    }
}

/// Posts one cache's event counts into `probe`: the `cache.*` reporting
/// rule [`Cache::report_into`] and [`crate::MultiSim::report_into`]
/// share. Miss counters by kind (indexed by [`MissKind::index`]) and
/// eviction counters by evictor domain are created only when nonzero;
/// `occupancy` yields each set's valid ways in set order, and `slots` is
/// the cache's total way count.
pub(crate) fn post_cache_metrics(
    probe: &dyn Probe,
    misses: [u64; 5],
    evictions: [u64; 2],
    occupancy: impl Iterator<Item = u64>,
    slots: u64,
) {
    for kind in MissKind::ALL {
        let n = misses[kind.index()];
        if n > 0 {
            probe.counter_add(kind.metric_name(), n);
        }
    }
    for (domain, name) in [
        (Domain::Os, "cache.evict.by_os"),
        (Domain::App, "cache.evict.by_app"),
    ] {
        let n = evictions[domain.index()];
        if n > 0 {
            probe.counter_add(name, n);
        }
    }
    let mut valid_total = 0u64;
    for occupied in occupancy {
        valid_total += occupied;
        probe.histogram_record("cache.set_occupancy", occupied);
    }
    probe.gauge_set("cache.occupancy", valid_total as f64 / slots as f64);
}

/// Splits a fetch of `words` consecutive words from `base` into line runs
/// for `line`-byte cache lines: `(address of the run's first word, words
/// in the run)`, one per cache line the fetch touches.
///
/// This is the line-run rule every `access_words` override relies on:
/// after a run's first word the line is resident and most-recently-used,
/// so the run's other words are guaranteed hits that would change no
/// replacement state if touched one by one. [`Cache`] walks the same
/// lines in closed form (`first..=last` line key); the attributing and
/// absint callers need each run's address and length, so they use this.
pub fn line_runs(base: u64, words: u32, line: u32) -> impl Iterator<Item = (u64, u32)> {
    debug_assert!(line.is_power_of_two(), "line size must be a power of two");
    let word = u64::from(WORD_BYTES);
    let line = u64::from(line);
    let mut w = 0u32;
    std::iter::from_fn(move || {
        if w >= words {
            return None;
        }
        let addr = base + u64::from(w) * word;
        // Words left in this cache line, rounding up: block layouts are
        // byte-granular, so a fetch base need not be word-aligned and a
        // partial trailing word still belongs to (and ends) this line.
        let in_line = (line - (addr & (line - 1))).div_ceil(word) as u32;
        let run = in_line.min(words - w);
        w += run;
        Some((addr, run))
    })
}

impl Cache {
    /// Counts `n` further hits by `domain` on the line the previous access
    /// left most-recently-used: the bulk half of a line run
    /// ([`line_runs`]). Replacement state and the clock stay untouched:
    /// the line is already the most recent in its set, so per-word
    /// re-touches could not change which line a later miss evicts.
    pub(crate) fn record_run_hits(&mut self, domain: Domain, n: u64) {
        self.stats.record_hits(domain, n);
    }

    /// [`InstructionCache::access_words`] for a cache that is one part of
    /// a cache complex ([`crate::SplitCache`], [`crate::ReservedCache`]):
    /// the complex's own `stats` tally the same outcomes as this cache's.
    pub(crate) fn access_words_into(
        &mut self,
        stats: &mut MissStats,
        base: u64,
        words: u32,
        domain: Domain,
        on_miss: &mut dyn FnMut(u64, MissKind),
    ) -> u64 {
        let missed = self.access_words(base, words, domain, &mut |addr, kind| {
            stats.record(domain, AccessOutcome::Miss(kind));
            on_miss(addr, kind);
        });
        stats.record_hits(domain, u64::from(words) - missed);
        missed
    }
}

impl InstructionCache for Cache {
    #[inline]
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        self.access_detailed(addr, domain).outcome
    }

    /// One tag probe per cache line the fetch touches, and nothing else on
    /// a hit. Word `w` lies in line `(base + w·WORD_BYTES) >> line_shift`;
    /// lines hold at least one word ([`CacheConfig::new`]), so the fetch
    /// touches every key in `first..=last` exactly once, in order. The
    /// clock advances once per line, as one [`Cache::access`] per line
    /// run would; the fetch's `words - missed` hits are counted in one
    /// step, since every word but a line's first is a guaranteed hit. A
    /// miss is reported at its line run's first word: `base` for the
    /// first line, else the first word at or past the line's start.
    fn access_words(
        &mut self,
        base: u64,
        words: u32,
        domain: Domain,
        on_miss: &mut dyn FnMut(u64, MissKind),
    ) -> u64 {
        if words == 0 {
            return 0;
        }
        let word = u64::from(WORD_BYTES);
        let first = base >> self.line_shift;
        let last = (base + u64::from(words - 1) * word) >> self.line_shift;
        debug_assert_ne!(last, TAG_EMPTY, "address in the topmost line");
        let mut missed = 0u64;
        for key in first..last + 1 {
            if !self.touch_line(key) {
                let (kind, _) = self.fill(key, domain);
                missed += 1;
                let addr = if key == first {
                    base
                } else {
                    base + ((key << self.line_shift) - base).div_ceil(word) * word
                };
                on_miss(addr, kind);
            }
        }
        self.stats.record_hits(domain, u64::from(words) - missed);
        missed
    }

    fn stats(&self) -> &MissStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.tags.fill(TAG_EMPTY);
        self.lru.fill(0);
        self.evicted_by.clear();
        self.clock = 0;
        self.stats = MissStats::default();
        self.evictions = [0; 2];
        if let Some(ages) = self.evict_ages.as_deref_mut() {
            ages.fill(0);
        }
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.evict_ages = enabled.then(|| Box::new([0u64; timeline::AGE_BUCKETS]));
    }

    fn telemetry_snapshot(&self) -> Option<CacheProbeSnapshot> {
        // Occupancy histogram: how many sets hold exactly `n` valid ways
        // (fixed-size so the scan is one pass, no allocation per call).
        let mut counts = [0u64; 65];
        let mut valid_total = 0u64;
        for set in self.tags.chunks(self.ways_per_set) {
            let occupied = set.iter().filter(|&&tag| tag != TAG_EMPTY).count();
            valid_total += occupied as u64;
            counts[occupied.min(64)] += 1;
        }
        let sets = (self.tags.len() / self.ways_per_set) as u64;
        let quantile = |num: u64, den: u64| -> u32 {
            let target = (sets * num).div_ceil(den).max(1);
            let mut cum = 0u64;
            for (occ, &n) in counts.iter().enumerate() {
                cum += n;
                if cum >= target {
                    return occ as u32;
                }
            }
            self.ways_per_set as u32
        };
        Some(CacheProbeSnapshot {
            occ_p50: quantile(1, 2),
            occ_p95: quantile(19, 20),
            fill_ppm: (valid_total * 1_000_000 / self.tags.len() as u64) as u32,
            evict_ages: self
                .evict_ages
                .as_deref()
                .copied()
                .unwrap_or([0; timeline::AGE_BUCKETS]),
            attr: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm64() -> Cache {
        // 64-byte direct-mapped cache with 16-byte lines: 4 sets.
        Cache::new(CacheConfig::new(64, 16, 1))
    }

    #[test]
    fn telemetry_snapshot_tracks_occupancy_and_evict_ages() {
        let mut c = dm64();
        c.set_telemetry(true);
        // Empty cache: zero fill, zero quantiles, no evictions.
        let snap = c.telemetry_snapshot().expect("sim cache always samples");
        assert_eq!((snap.occ_p50, snap.occ_p95, snap.fill_ppm), (0, 0, 0));
        assert!(snap.evict_ages.iter().all(|&n| n == 0));
        assert_eq!(snap.attr, None);
        // Fill all four sets, then evict set 0's line after 4 more ticks.
        for set in 0..4u64 {
            c.access(set * 16, Domain::Os);
        }
        let full = c.telemetry_snapshot().unwrap();
        assert_eq!((full.occ_p50, full.occ_p95), (1, 1));
        assert_eq!(full.fill_ppm, 1_000_000);
        c.access(64, Domain::App); // maps to set 0, evicts line 0 at age 4
        let evicted = c.telemetry_snapshot().unwrap();
        assert_eq!(evicted.evict_ages.iter().sum::<u64>(), 1);
        assert_eq!(evicted.evict_ages[2], 1, "age 4 lands in bucket log2(4)");
        // reset() clears the histogram; set_telemetry(false) frees it
        // and zeros are reported thereafter.
        c.reset();
        assert!(c
            .telemetry_snapshot()
            .unwrap()
            .evict_ages
            .iter()
            .all(|&n| n == 0));
        c.set_telemetry(false);
        for set in 0..4u64 {
            c.access(set * 16, Domain::Os);
        }
        c.access(64, Domain::App);
        let off = c.telemetry_snapshot().unwrap();
        assert!(off.evict_ages.iter().all(|&n| n == 0), "disabled: no ages");
        assert_eq!(off.fill_ppm, 1_000_000, "occupancy still sampled");
    }

    #[test]
    fn cold_then_hit_within_line() {
        let mut c = dm64();
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(c.access(4, Domain::Os), AccessOutcome::Hit);
        assert_eq!(c.access(15, Domain::Os), AccessOutcome::Hit);
        assert_eq!(
            c.access(16, Domain::Os),
            AccessOutcome::Miss(MissKind::Cold)
        );
    }

    #[test]
    fn self_interference_classified() {
        let mut c = dm64();
        // 0 and 64 conflict in set 0.
        assert!(c.access(0, Domain::Os).is_miss()); // cold
        assert!(c.access(64, Domain::Os).is_miss()); // cold, evicts 0 by OS
        assert_eq!(
            c.access(0, Domain::Os),
            AccessOutcome::Miss(MissKind::OsSelf)
        );
    }

    #[test]
    fn cross_interference_classified_both_ways() {
        let mut c = dm64();
        assert!(c.access(0, Domain::Os).is_miss());
        assert!(c.access(64, Domain::App).is_miss()); // app evicts OS line
        assert_eq!(
            c.access(0, Domain::Os),
            AccessOutcome::Miss(MissKind::OsByApp)
        );
        // Now OS evicted the app line at 64.
        assert_eq!(
            c.access(64, Domain::App),
            AccessOutcome::Miss(MissKind::AppByOs)
        );
    }

    #[test]
    fn app_self_interference() {
        let mut c = dm64();
        assert!(c.access(0, Domain::App).is_miss());
        assert!(c.access(64, Domain::App).is_miss());
        assert_eq!(
            c.access(0, Domain::App),
            AccessOutcome::Miss(MissKind::AppSelf)
        );
    }

    #[test]
    fn two_way_cache_holds_both_conflicting_lines() {
        let mut c = Cache::new(CacheConfig::new(64, 16, 2));
        assert!(c.access(0, Domain::Os).is_miss());
        assert!(c.access(64, Domain::Os).is_miss());
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Hit);
        assert_eq!(c.access(64, Domain::Os), AccessOutcome::Hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2 sets × 2 ways, 16B lines: set 0 holds lines 0, 32, 64, ...
        let mut c = Cache::new(CacheConfig::new(64, 16, 2));
        c.access(0, Domain::Os); // line 0
        c.access(32, Domain::Os); // line 32 (same set)
        c.access(0, Domain::Os); // touch line 0: 32 is now LRU
        c.access(64, Domain::Os); // evicts 32
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Hit);
        assert!(c.access(32, Domain::Os).is_miss());
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut c = dm64();
        c.access(0, Domain::Os);
        c.access(0, Domain::Os);
        c.access(64, Domain::App);
        let s = c.stats();
        assert_eq!(s.accesses(Domain::Os), 2);
        assert_eq!(s.accesses(Domain::App), 1);
        assert_eq!(s.total_misses(), 2);
        c.reset();
        assert_eq!(c.stats().total_accesses(), 0);
        // After reset, previously-seen lines are cold again.
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Miss(MissKind::Cold));
    }

    #[test]
    fn classification_matrix() {
        assert_eq!(MissKind::classify(Domain::Os, None), MissKind::Cold);
        assert_eq!(
            MissKind::classify(Domain::Os, Some(Domain::Os)),
            MissKind::OsSelf
        );
        assert_eq!(
            MissKind::classify(Domain::Os, Some(Domain::App)),
            MissKind::OsByApp
        );
        assert_eq!(
            MissKind::classify(Domain::App, Some(Domain::App)),
            MissKind::AppSelf
        );
        assert_eq!(
            MissKind::classify(Domain::App, Some(Domain::Os)),
            MissKind::AppByOs
        );
    }

    #[test]
    fn probe_sees_misses_evictions_and_occupancy() {
        use oslay_observe::MetricRegistry;

        let reg = MetricRegistry::new();
        let mut c = Cache::new(CacheConfig::new(64, 16, 1));
        c.access(0, Domain::Os); // cold
        c.access(64, Domain::App); // cold; app evicts the OS line
        c.access(0, Domain::Os); // os-by-app; OS evicts the app line
        c.access(0, Domain::Os); // hit
        c.report_into(&reg);
        assert_eq!(reg.counter("cache.miss.cold"), 2);
        assert_eq!(reg.counter("cache.miss.os-by-app"), 1);
        assert_eq!(reg.counter("cache.evict.by_app"), 1);
        assert_eq!(reg.counter("cache.evict.by_os"), 1);
        // Zero counts create no counter.
        assert_eq!(reg.counters().len(), 4);

        // 4 direct-mapped sets, exactly one holds a line.
        let occ = reg.histogram("cache.set_occupancy").expect("histogram");
        assert_eq!(occ.count(), 4);
        assert_eq!(occ.sum(), 1);
        assert_eq!(reg.gauge("cache.occupancy"), Some(0.25));
    }

    #[test]
    fn access_detailed_reports_line_set_and_eviction() {
        let mut c = dm64();
        let d = c.access_detailed(20, Domain::Os); // line 16, set 1
        assert_eq!(d.outcome, AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(d.line, 16);
        assert_eq!(d.set, 1);
        assert_eq!(d.evicted, None, "filling an invalid way evicts nothing");
        let d = c.access_detailed(16, Domain::Os);
        assert_eq!(d.outcome, AccessOutcome::Hit);
        assert_eq!(d.evicted, None);
        let d = c.access_detailed(80, Domain::Os); // line 80, also set 1
        assert!(d.outcome.is_miss());
        assert_eq!(d.evicted, Some(16));
    }

    #[test]
    fn eviction_attribution_updates_over_time() {
        let mut c = dm64();
        c.access(0, Domain::Os);
        c.access(64, Domain::App); // app evicts OS:0
        c.access(0, Domain::Os); // OsByApp; OS evicts App:64
        c.access(64, Domain::Os); // OS line now at 64; evicts OS:0 by OS
        assert_eq!(
            c.access(0, Domain::Os),
            AccessOutcome::Miss(MissKind::OsSelf)
        );
    }

    #[test]
    fn evict_records_stay_bounded_per_set() {
        // Regression: the old implementation kept one `evicted_by` entry
        // per distinct line ever evicted, forever. Thrash one set of a
        // direct-mapped cache with far more distinct lines than the cap
        // and check the table never exceeds it.
        let cap = 8;
        let mut c = Cache::with_evict_cap(CacheConfig::new(64, 16, 1), cap);
        for round in 0..4u64 {
            for i in 0..64u64 {
                // All map to set 0 (stride = 4 sets * 16B line).
                c.access(i * 64, Domain::Os);
                assert!(
                    c.evict_records() <= cap * 4,
                    "round {round}: {} records exceed bound",
                    c.evict_records()
                );
            }
        }
        assert!(c.evict_records() >= cap, "table should fill to its cap");
        // Reset clears provenance too.
        c.reset();
        assert_eq!(c.evict_records(), 0);
    }

    #[test]
    fn dropped_evict_record_degrades_to_cold() {
        // Under cap pressure, old provenance is forgotten: a refetch of a
        // line whose record was dropped classifies as cold — never
        // misattributed to the wrong domain.
        let mut c = Cache::with_evict_cap(CacheConfig::new(64, 16, 1), 2);
        c.access(0, Domain::Os);
        c.access(64, Domain::Os); // evicts line 0 (recorded: 0 <- Os)
        assert_eq!(
            c.access(0, Domain::Os), // evicts 64 (recorded: 64 <- Os)
            AccessOutcome::Miss(MissKind::OsSelf)
        );
        c.access(128, Domain::App); // evicts 0 (record updated in place)
        c.access(192, Domain::App); // evicts 128; set at cap, drops 0's record
        assert_eq!(
            c.access(64, Domain::Os), // its record survived the drops
            AccessOutcome::Miss(MissKind::OsSelf),
            "surviving record still classifies"
        );
        assert_eq!(
            c.access(0, Domain::Os), // 0's record was dropped at cap
            AccessOutcome::Miss(MissKind::Cold),
            "dropped record degrades to cold"
        );
    }

    /// `cache.*` counters tallied from per-access outcomes, in the shape
    /// [`Cache::report_into`] posts them (zero counts omitted).
    #[derive(Default)]
    struct Tally {
        misses: [u64; 5],
        evictions: [u64; 2],
    }

    impl Tally {
        fn add(&mut self, domain: Domain, detail: AccessDetail) {
            if let AccessOutcome::Miss(kind) = detail.outcome {
                self.misses[kind.index()] += 1;
            }
            if detail.evicted.is_some() {
                self.evictions[domain.index()] += 1;
            }
        }

        fn counters(&self) -> Vec<(String, u64)> {
            let mut out: Vec<(String, u64)> = MissKind::ALL
                .iter()
                .map(|k| (k.metric_name().to_owned(), self.misses[k.index()]))
                .chain([
                    ("cache.evict.by_os".to_owned(), self.evictions[0]),
                    ("cache.evict.by_app".to_owned(), self.evictions[1]),
                ])
                .filter(|&(_, n)| n > 0)
                .collect();
            out.sort();
            out
        }
    }

    fn reported_counters(cache: &Cache) -> Vec<(String, u64)> {
        let reg = oslay_observe::MetricRegistry::new();
        cache.report_into(&reg);
        reg.counters()
    }

    #[test]
    fn access_words_matches_per_word_loop() {
        use oslay_model::rng::Rng;
        let word = u64::from(WORD_BYTES);
        for line in [16u32, 32, 64] {
            for ways in [1u32, 2, 4, 8] {
                let cfg = CacheConfig::new(1024, line, ways);
                let shift = cfg.line_shift();
                // The closed-form walk under test.
                let mut coalesced = Cache::new(cfg);
                // Every word through `access_detailed`: the semantic
                // reference for outcomes, stats, and counters.
                let mut per_word = Cache::new(cfg);
                // Word by word too, but a word in its predecessor's line
                // is checked resident and most-recently-used, then
                // counted as a hit without a clock tick: the clock
                // contract (one tick per line) that eviction ages follow.
                let mut per_line = Cache::new(cfg);
                for c in [&mut coalesced, &mut per_word, &mut per_line] {
                    c.set_telemetry(true);
                }
                let mut tally = Tally::default();
                let mut rng = Rng::seed_from_u64(0xC0A1 + u64::from(ways) * 131 + u64::from(line));
                for step in 0..5_000u32 {
                    if step == 2_500 {
                        assert_eq!(reported_counters(&coalesced), tally.counters());
                        for c in [&mut coalesced, &mut per_word, &mut per_line] {
                            c.reset();
                        }
                        tally = Tally::default();
                    }
                    // Random (possibly line-straddling) block fetch at a
                    // byte-granular, not necessarily word-aligned, base.
                    let base = u64::from(rng.gen_range(0..4800u32));
                    let words = 1 + rng.gen_range(0..24u32);
                    let domain = if rng.gen_range(0..2u32) == 0 {
                        Domain::Os
                    } else {
                        Domain::App
                    };
                    let mut reported = Vec::new();
                    let fast = coalesced.access_words(base, words, domain, &mut |addr, kind| {
                        reported.push((addr, kind));
                    });
                    let mut slow = 0u64;
                    let mut oracle = Vec::new();
                    let mut prev_key = None;
                    for w in 0..u64::from(words) {
                        let addr = base + w * word;
                        let detail = per_word.access_detailed(addr, domain);
                        if let AccessOutcome::Miss(kind) = detail.outcome {
                            slow += 1;
                            oracle.push((addr, kind));
                        }
                        tally.add(domain, detail);
                        let key = addr >> shift;
                        if prev_key == Some(key) {
                            let way = per_line
                                .tags
                                .iter()
                                .position(|&t| t == key)
                                .expect("line resident");
                            assert_eq!(per_line.lru[way], per_line.clock, "line is MRU");
                            per_line.record_run_hits(domain, 1);
                        } else {
                            per_line.access_detailed(addr, domain);
                        }
                        prev_key = Some(key);
                    }
                    let at = format!("{cfg} step {step}");
                    assert_eq!(fast, slow, "{at}");
                    assert_eq!(reported, oracle, "{at}: miss addresses and kinds");
                    assert_eq!(coalesced.stats(), per_word.stats(), "{at}");
                    assert_eq!(coalesced.stats(), per_line.stats(), "{at}");
                    assert_eq!(
                        coalesced.telemetry_snapshot(),
                        per_line.telemetry_snapshot(),
                        "{at}"
                    );
                }
                assert_eq!(reported_counters(&coalesced), tally.counters(), "{cfg}");
                assert_eq!(reported_counters(&coalesced), reported_counters(&per_word));
            }
        }
    }

    #[test]
    fn matches_reference_cache_on_randomized_trace() {
        use crate::reference::ReferenceCache;
        use oslay_model::rng::Rng;

        // Several geometries, domains interleaved, addresses spanning many
        // sets with heavy conflict pressure.
        for (seed, cfg) in [
            (1u64, CacheConfig::new(64, 16, 1)),
            (2, CacheConfig::new(256, 16, 2)),
            (3, CacheConfig::new(1024, 32, 4)),
            (4, CacheConfig::paper_default()),
        ] {
            let mut dense = Cache::new(cfg);
            let mut reference = ReferenceCache::new(cfg);
            let mut rng = Rng::seed_from_u64(seed);
            for step in 0..50_000u32 {
                let addr = u64::from(rng.gen_range(0..8 * cfg.size()));
                let domain = if rng.gen_range(0..4u32) == 0 {
                    Domain::App
                } else {
                    Domain::Os
                };
                let got = dense.access_detailed(addr, domain);
                let want = reference.access_detailed(addr, domain);
                assert_eq!(got, want, "cfg {cfg} step {step} addr {addr:#x}");
            }
        }
    }
}
