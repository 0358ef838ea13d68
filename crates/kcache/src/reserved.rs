//! The "Resv" organization: a small cache reserved for hot
//! operating-system code.
//!
//! Section 5.5 evaluates "a very small cache dedicated to the important
//! sections of the operating system only" (an idea from the VMP
//! multiprocessor): a 1 KB cache captures the most important parts of the
//! sequences while a 7 KB cache serves the application and the rest of the
//! operating system. The paper finds it no better than laying out a
//! SelfConfFree area in software; Figure 18's `Resv` bars reproduce that.

use std::ops::Range;

use oslay_model::{Domain, WORD_BYTES};
use oslay_observe::Probe;

use crate::{AccessOutcome, Cache, CacheConfig, InstructionCache, MissKind, MissStats};

/// A small reserved OS cache in front of a main cache.
#[derive(Clone, Debug)]
pub struct ReservedCache {
    small: Cache,
    main: Cache,
    reserved: Range<u64>,
    stats: MissStats,
}

impl ReservedCache {
    /// Creates the complex. OS fetches whose address falls in `reserved`
    /// go to the small cache; everything else goes to the main cache.
    #[must_use]
    pub fn new(small: CacheConfig, main: CacheConfig, reserved: Range<u64>) -> Self {
        Self {
            small: Cache::new(small),
            main: Cache::new(main),
            reserved,
            stats: MissStats::default(),
        }
    }

    /// The paper's setup: a 1 KB reserved cache next to a main cache.
    ///
    /// The paper pairs 1 KB with a 7 KB main cache; 7 KB is not a power of
    /// two, so this constructor uses the largest power of two that fits in
    /// the remaining budget (`paired_with(8 KB)` → 1 KB + 4 KB). That makes
    /// the simulated `Resv` slightly *pessimistic*, which does not affect
    /// the paper's qualitative conclusion (Resv buys roughly nothing over
    /// laying out a SelfConfFree area in software).
    #[must_use]
    pub fn paired_with(total: CacheConfig, reserved: Range<u64>) -> Self {
        let small = CacheConfig::new(1024, total.line(), total.ways().min(1024 / total.line()));
        let main_size = (total.size() - 1024).next_power_of_two() / 2;
        let main = total.with_size(main_size.max(total.line()));
        Self::new(small, main, reserved)
    }

    /// The reserved address range.
    #[must_use]
    pub fn reserved_range(&self) -> Range<u64> {
        self.reserved.clone()
    }

    /// Geometry of the small reserved cache.
    #[must_use]
    pub fn small_config(&self) -> CacheConfig {
        self.small.config()
    }

    /// Geometry of the main cache.
    #[must_use]
    pub fn main_config(&self) -> CacheConfig {
        self.main.config()
    }

    /// Statistics of the small reserved cache alone.
    #[must_use]
    pub fn reserved_stats(&self) -> &MissStats {
        self.small.stats()
    }

    /// Hit rate inside the reserved area (0.0 before any reserved
    /// access). This is the number the paper's Resv evaluation hinges
    /// on: how much of the hot OS footprint the tiny cache captures.
    #[must_use]
    pub fn reserved_hit_rate(&self) -> f64 {
        let stats = self.small.stats();
        if stats.total_accesses() == 0 {
            return 0.0;
        }
        1.0 - stats.miss_rate()
    }

    /// Reports reserved-area effectiveness to `probe`: the
    /// `cache.reserved.hit_rate` gauge plus `cache.reserved.accesses`
    /// and `cache.reserved.misses` counters.
    pub fn record_reserved_metrics(&self, probe: &dyn Probe) {
        let stats = self.small.stats();
        if stats.total_accesses() == 0 {
            return;
        }
        probe.gauge_set("cache.reserved.hit_rate", self.reserved_hit_rate());
        probe.counter_add("cache.reserved.accesses", stats.total_accesses());
        probe.counter_add("cache.reserved.misses", stats.total_misses());
    }
}

impl InstructionCache for ReservedCache {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        let outcome = if domain == Domain::Os && self.reserved.contains(&addr) {
            self.small.access(addr, domain)
        } else {
            self.main.access(addr, domain)
        };
        self.stats.record(domain, outcome);
        outcome
    }

    /// An OS fetch is split on the words where the reserved range starts
    /// and ends: the words before it and after it go to the main cache,
    /// the words inside it to the small one, each piece as line runs. An
    /// application fetch goes to the main cache whole.
    fn access_words(
        &mut self,
        base: u64,
        words: u32,
        domain: Domain,
        on_miss: &mut dyn FnMut(u64, MissKind),
    ) -> u64 {
        let word = u64::from(WORD_BYTES);
        // Words of the fetch whose address lies below `addr`.
        let below = |addr: u64| {
            addr.saturating_sub(base)
                .div_ceil(word)
                .min(u64::from(words)) as u32
        };
        let (lo, hi) = match domain {
            Domain::Os => {
                let lo = below(self.reserved.start);
                (lo, below(self.reserved.end).max(lo))
            }
            Domain::App => (words, words),
        };
        let at = |w: u32| base + u64::from(w) * word;
        let stats = &mut self.stats;
        self.main
            .access_words_into(stats, base, lo, domain, on_miss)
            + self
                .small
                .access_words_into(stats, at(lo), hi - lo, domain, on_miss)
            + self
                .main
                .access_words_into(stats, at(hi), words - hi, domain, on_miss)
    }

    fn stats(&self) -> &MissStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.small.reset();
        self.main.reset();
        self.stats = MissStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MissKind;

    fn complex() -> ReservedCache {
        ReservedCache::new(
            CacheConfig::new(64, 16, 1),
            CacheConfig::new(128, 16, 1),
            0..1024,
        )
    }

    #[test]
    fn reserved_os_code_is_immune_to_app_traffic() {
        let mut c = complex();
        c.access(0, Domain::Os); // reserved, small cache
                                 // App traffic that would conflict in a unified cache.
        for i in 0..32u64 {
            c.access(0x4000 + i * 16, Domain::App);
        }
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Hit);
    }

    #[test]
    fn unreserved_os_code_shares_the_main_cache() {
        let mut c = complex();
        c.access(0x2000, Domain::Os); // outside reserved range → main
        c.access(0x2000 + 128, Domain::App); // conflicts in 128B main
        assert_eq!(
            c.access(0x2000, Domain::Os),
            AccessOutcome::Miss(MissKind::OsByApp)
        );
    }

    #[test]
    fn app_never_touches_the_small_cache() {
        let mut c = complex();
        // An app access inside the "reserved" range still uses main.
        c.access(0x10, Domain::App);
        c.access(0x10, Domain::Os); // small cache: cold, not a hit
        assert_eq!(
            c.access(0x10, Domain::Os),
            AccessOutcome::Hit,
            "second OS access hits the small cache"
        );
        assert_eq!(c.access(0x10, Domain::App), AccessOutcome::Hit);
    }

    #[test]
    fn paired_with_keeps_budget_shape() {
        let c = ReservedCache::paired_with(CacheConfig::paper_default(), 0..1024);
        assert_eq!(c.small_config().size(), 1024);
        assert!(c.main_config().size() >= 4096);
        assert_eq!(c.reserved_range(), 0..1024);
    }

    #[test]
    fn reserved_hit_rate_and_metrics() {
        use oslay_observe::MetricRegistry;

        let mut c = complex();
        assert_eq!(c.reserved_hit_rate(), 0.0, "no reserved traffic yet");
        c.access(0, Domain::Os); // reserved: cold miss
        c.access(0, Domain::Os); // reserved: hit
        c.access(0x2000, Domain::Os); // main cache only
        assert!((c.reserved_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.reserved_stats().total_accesses(), 2);

        let reg = MetricRegistry::new();
        c.record_reserved_metrics(&reg);
        assert_eq!(reg.gauge("cache.reserved.hit_rate"), Some(0.5));
        assert_eq!(reg.counter("cache.reserved.accesses"), 2);
        assert_eq!(reg.counter("cache.reserved.misses"), 1);
    }

    #[test]
    fn access_words_matches_per_word_loop() {
        use oslay_model::rng::Rng;
        // Range ends neither line- nor word-aligned relative to the
        // byte-granular fetch bases, so fetches straddle both ends.
        for (seed, reserved) in [(1u64, 0x16..0x1f5), (2, 0x3..0x9), (3, 0x40..0x40)] {
            let mut coalesced = complex();
            coalesced.reserved = reserved.clone();
            let mut per_word = coalesced.clone();
            let mut rng = Rng::seed_from_u64(seed);
            for step in 0..4_000u32 {
                let base = u64::from(rng.gen_range(0..0x300u32));
                let words = 1 + rng.gen_range(0..20u32);
                let domain = if rng.gen_range(0..3u32) == 0 {
                    Domain::App
                } else {
                    Domain::Os
                };
                let mut reported = Vec::new();
                let fast = coalesced.access_words(base, words, domain, &mut |addr, kind| {
                    reported.push((addr, kind));
                });
                let mut oracle = Vec::new();
                for w in 0..words {
                    let addr = base + u64::from(w) * u64::from(WORD_BYTES);
                    if let AccessOutcome::Miss(kind) = per_word.access(addr, domain) {
                        oracle.push((addr, kind));
                    }
                }
                let at = format!("{reserved:?} step {step}");
                assert_eq!(fast, oracle.len() as u64, "{at}");
                assert_eq!(reported, oracle, "{at}");
                assert_eq!(coalesced.stats(), per_word.stats(), "{at}");
                assert_eq!(
                    coalesced.reserved_stats(),
                    per_word.reserved_stats(),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn reset_clears_both() {
        let mut c = complex();
        c.access(0, Domain::Os);
        c.access(0x2000, Domain::App);
        c.reset();
        assert_eq!(c.stats().total_accesses(), 0);
        assert!(c.access(0, Domain::Os).is_miss());
    }
}
