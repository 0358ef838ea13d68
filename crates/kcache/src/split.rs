//! The "Sep" organization: a cache statically partitioned between
//! operating system and application.
//!
//! Section 5.5: "we examine partitioning the on-chip cache into two halves:
//! one for the operating system and the other for the application. ...
//! while it will eliminate any cross interference, it will cause more
//! self-interference." The paper finds this setup undesirable; the
//! reproduction includes it to regenerate that negative result (Figure 18,
//! `Sep` bars).

use oslay_model::Domain;

use crate::{AccessOutcome, Cache, CacheConfig, InstructionCache, MissKind, MissStats};

/// Two half-size caches, one per domain.
#[derive(Clone, Debug)]
pub struct SplitCache {
    os: Cache,
    app: Cache,
    stats: MissStats,
}

impl SplitCache {
    /// Splits `total` capacity evenly between the domains, keeping line
    /// size and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the halves would be smaller than one line per way.
    #[must_use]
    pub fn halves_of(total: CacheConfig) -> Self {
        let half = total.with_size(total.size() / 2);
        Self {
            os: Cache::new(half),
            app: Cache::new(half),
            stats: MissStats::default(),
        }
    }

    /// The OS half geometry.
    #[must_use]
    pub fn os_config(&self) -> CacheConfig {
        self.os.config()
    }

    /// The application half geometry.
    #[must_use]
    pub fn app_config(&self) -> CacheConfig {
        self.app.config()
    }
}

impl InstructionCache for SplitCache {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        let outcome = match domain {
            Domain::Os => self.os.access(addr, domain),
            Domain::App => self.app.access(addr, domain),
        };
        self.stats.record(domain, outcome);
        outcome
    }

    /// The whole fetch goes to its domain's half, as line runs.
    fn access_words(
        &mut self,
        base: u64,
        words: u32,
        domain: Domain,
        on_miss: &mut dyn FnMut(u64, MissKind),
    ) -> u64 {
        let half = match domain {
            Domain::Os => &mut self.os,
            Domain::App => &mut self.app,
        };
        half.access_words_into(&mut self.stats, base, words, domain, on_miss)
    }

    fn stats(&self) -> &MissStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.os.reset();
        self.app.reset();
        self.stats = MissStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MissKind;

    #[test]
    fn cross_interference_is_impossible() {
        let mut c = SplitCache::halves_of(CacheConfig::new(128, 16, 1));
        // Per-domain halves are 64 bytes: addresses 0 and 64 conflict
        // within a half.
        c.access(0, Domain::Os);
        c.access(0, Domain::App);
        c.access(64, Domain::App); // evicts the app's line 0 only
        assert_eq!(c.access(0, Domain::Os), AccessOutcome::Hit);
        assert_eq!(
            c.access(0, Domain::App),
            AccessOutcome::Miss(MissKind::AppSelf)
        );
        assert_eq!(c.stats().misses(MissKind::OsByApp), 0);
        assert_eq!(c.stats().misses(MissKind::AppByOs), 0);
    }

    #[test]
    fn halving_increases_self_conflicts() {
        // In the full 128-byte cache, OS addresses 0 and 64 do not
        // conflict; in the 64-byte half they do.
        let mut full = Cache::new(CacheConfig::new(128, 16, 1));
        full.access(0, Domain::Os);
        full.access(64, Domain::Os);
        assert_eq!(full.access(0, Domain::Os), AccessOutcome::Hit);

        let mut split = SplitCache::halves_of(CacheConfig::new(128, 16, 1));
        split.access(0, Domain::Os);
        split.access(64, Domain::Os);
        assert!(split.access(0, Domain::Os).is_miss());
    }

    #[test]
    fn access_words_matches_per_word_loop() {
        use oslay_model::rng::Rng;
        let mut coalesced = SplitCache::halves_of(CacheConfig::new(256, 16, 2));
        let mut per_word = coalesced.clone();
        let mut rng = Rng::seed_from_u64(7);
        for step in 0..4_000u32 {
            let base = u64::from(rng.gen_range(0..0x400u32));
            let words = 1 + rng.gen_range(0..20u32);
            let domain = if rng.gen_range(0..2u32) == 0 {
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
                let addr = base + u64::from(w) * u64::from(oslay_model::WORD_BYTES);
                if let AccessOutcome::Miss(kind) = per_word.access(addr, domain) {
                    oracle.push((addr, kind));
                }
            }
            assert_eq!(fast, oracle.len() as u64, "step {step}");
            assert_eq!(reported, oracle, "step {step}");
            assert_eq!(coalesced.stats(), per_word.stats(), "step {step}");
        }
    }

    #[test]
    fn stats_cover_both_halves() {
        let mut c = SplitCache::halves_of(CacheConfig::new(128, 16, 1));
        c.access(0, Domain::Os);
        c.access(0, Domain::App);
        assert_eq!(c.stats().total_accesses(), 2);
        c.reset();
        assert_eq!(c.stats().total_accesses(), 0);
    }
}
