//! Code-placement algorithms — the paper's primary contribution.
//!
//! Given a program and a *measured* profile, each algorithm here produces a
//! [`Layout`]: an assignment of every basic block to a memory address. The
//! cache simulator then replays the same trace against each layout.
//!
//! Implemented layouts:
//!
//! * [`base_layout`] — the original source-order image (`Base`);
//! * [`chang_hwu_layout`] — Hwu & Chang's profile-guided placement
//!   (intra-routine trace selection + caller/callee routine ordering), the
//!   strongest prior scheme the paper compares against (`C-H`);
//! * [`optimize_os`] — the paper's algorithm: interprocedural **sequences**
//!   grown from the four kernel seeds under a descending
//!   `(ExecThresh, BranchThresh)` schedule (Section 4.1), a **SelfConfFree**
//!   area replicated across logical caches (Section 4.2), and optional
//!   **loop extraction** (Section 4.3) — `OptS` / `OptL`;
//! * [`optimize_app`] — the application side of `OptA` (Section 5:
//!   sequences from `main`, placed from the opposite side of the cache);
//! * [`call_opt_layout`] — the advanced loops-with-callees optimization of
//!   Section 4.4 (conflict matrix, per-loop logical caches), implemented to
//!   reproduce the paper's *negative* result (`Call` in Figure 18).
//!
//! All algorithms are deterministic and consume only measured profile data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod base;
mod call_opt;
mod chang_hwu;
mod conflict;
mod layout;
mod logical;
mod optapp;
mod opts;
mod seq;
mod summary;

pub use base::base_layout;
pub use call_opt::{call_opt_layout, CallOptParams};
pub use chang_hwu::{chang_hwu_audited, chang_hwu_layout};
pub use conflict::{address_map, code_class, layout_spans, measured_conflict_ranking};
pub use layout::{Layout, LayoutBuilder, LayoutError};
pub use logical::LogicalCacheAllocator;
pub use optapp::{optimize_app, optimize_app_audited};
pub use opts::{optimize_os, BlockClass, OptLayout, OptParams};
pub use seq::{build_sequences, Sequence, SequenceSet, ThresholdPass, ThresholdSchedule};
pub use summary::{layout_regions, render_regions, RegionSummary};

/// Base virtual address used for application images, far from the kernel
/// (the kernel occupies low addresses; the exact distance only matters
/// modulo the cache size).
///
/// The offset within a cache frame is deliberately *not* zero: a real
/// program's hot code sits at an arbitrary offset, and a cache-aligned
/// base would make the synthetic application's hot loop (emitted first in
/// its image) alias exactly with the kernel's SelfConfFree area — an
/// alignment accident, not a property of any layout. 0x1800 (6 KB) keeps
/// the unoptimized application's hot code away from the bottom-of-cache
/// region for every cache size evaluated (4–32 KB) without matching
/// `OptA`'s deliberate opposite-side placement either.
pub const APP_BASE: u64 = 0x4000_1800;
