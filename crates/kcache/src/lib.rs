//! Instruction-cache simulation for the `oslay` reproduction.
//!
//! A trace-driven set-associative cache with true-LRU replacement and the
//! miss classification the paper's evaluation rests on: every miss is
//! attributed to **first-time reference** (cold), **self-interference**
//! (evicted earlier by the same domain), or **cross-interference** (evicted
//! by the other domain) — the decomposition of Figures 1 and 12.
//!
//! Besides the standard unified cache ([`Cache`]), the crate implements the
//! two hardware alternatives evaluated in Section 5.5:
//!
//! * [`SplitCache`] ("Sep"): the cache is statically halved between
//!   operating system and application;
//! * [`ReservedCache`] ("Resv"): a small dedicated cache captures a
//!   reserved range of hot operating-system code, the rest shares the main
//!   cache.
//!
//! All three implement [`InstructionCache`], so the evaluation driver is
//! organization-agnostic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attribution;
mod config;
mod multisim;
#[doc(hidden)]
pub mod reference;
mod reserved;
mod sim;
mod split;
mod stats;

pub use attribution::{
    census_label, diff_attribution, AddressMap, AttributedCache, AttributionDiff,
    AttributionReport, CodeClass, CodeRef, ConflictMatrix, ConflictPair, MatrixCell, PairDelta,
    RoutineKey, ShadowTags, CENSUS_SLOTS,
};
pub use config::CacheConfig;
pub use multisim::MultiSim;
pub use reserved::ReservedCache;
pub use sim::{line_runs, AccessDetail, AccessOutcome, Cache, MissKind};
pub use split::SplitCache;
pub use stats::MissStats;

use oslay_model::{Domain, SeedKind};

/// A trace-driven instruction cache.
///
/// Implementations classify every access and accumulate [`MissStats`].
pub trait InstructionCache: std::fmt::Debug {
    /// Simulates one instruction-word fetch at byte address `addr` by
    /// `domain` and returns its outcome.
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome;

    /// Simulates `words` consecutive instruction-word fetches starting at
    /// `base`, calls `on_miss(address, kind)` for each fetch that missed,
    /// and returns the number that missed. Callers that only want the
    /// count pass a no-op.
    ///
    /// This is the one way a trace replay reaches a cache. This default
    /// is the oracle semantics: one [`InstructionCache::access`] per
    /// word, reporting each missing word. Every organization in this
    /// crate overrides it with line runs ([`line_runs`]): after the first
    /// fetch of a cache line the line is resident and most-recently-used,
    /// so the line's remaining words are guaranteed hits that leave the
    /// replacement state untouched and can be bulk-counted. Only a run's
    /// first word can miss, so the misses reported (address and kind)
    /// are exactly the oracle's. Only test caches rely on the default.
    fn access_words(
        &mut self,
        base: u64,
        words: u32,
        domain: Domain,
        on_miss: &mut dyn FnMut(u64, MissKind),
    ) -> u64 {
        let mut missed = 0u64;
        for w in 0..words {
            let addr = base + u64::from(w) * u64::from(oslay_model::WORD_BYTES);
            if let AccessOutcome::Miss(kind) = self.access(addr, domain) {
                missed += 1;
                on_miss(addr, kind);
            }
        }
        missed
    }

    /// Statistics accumulated so far.
    fn stats(&self) -> &MissStats;

    /// Clears contents and statistics.
    fn reset(&mut self);

    /// Notes that the trace entered the operating system via `kind`.
    /// Diagnostic caches use this to attribute misses per entry class;
    /// the default is a no-op.
    fn note_os_enter(&mut self, kind: SeedKind) {
        let _ = kind;
    }

    /// Notes that the trace returned from the operating system.
    fn note_os_exit(&mut self) {}

    /// Notes a diagnostic phase marker (`TraceEvent::Mark`) with its tag.
    fn note_mark(&mut self, tag: u32) {
        let _ = tag;
    }

    /// Enables or disables telemetry collection (the timeline's
    /// eviction-age histogram). The default ignores the request;
    /// organizations without the bookkeeping simply report no probe
    /// data. Disabling frees any telemetry state.
    fn set_telemetry(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// A point-in-time telemetry sample — per-set occupancy quantiles,
    /// fill fraction, the eviction-age histogram, and (for attributing
    /// caches) the cumulative compulsory/capacity/conflict split. The
    /// default reports `None`; the timeline then records zeros for
    /// these fields.
    fn telemetry_snapshot(&self) -> Option<oslay_observe::timeline::CacheProbeSnapshot> {
        None
    }
}
