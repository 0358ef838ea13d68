//! Miss attribution: *why* did each miss happen, and *who* caused it.
//!
//! The aggregate [`MissStats`] say how many misses a layout suffered; this
//! module explains them, reproducing the diagnostic views behind the
//! paper's evaluation:
//!
//! * **Three-way classification** ([`AttrClass`]): every miss is
//!   compulsory (first reference), capacity (an LRU *shadow tag store* of
//!   the same total capacity, fully associative, would also have missed),
//!   or conflict (the shadow store still held the line — only the set
//!   mapping evicted it). Conflict misses are the component code layout
//!   can remove, so the split tells you how much headroom a layout pass
//!   has left.
//! * **Per-set pressure** ([`AttributionReport::set_misses`]): the sharp
//!   per-set peaks of Figure 1 / Figure 14, measured instead of plotted
//!   from addresses.
//! * **Block-class census** ([`AttributionReport::census`]): references
//!   and misses keyed by the Figure 13 placement classes
//!   ([`CodeClass`]: MainSeq, SelfConfFree, Loops, OtherSeq, Cold).
//! * **Evictor→victim pairs and the routine×routine conflict matrix**
//!   ([`ConflictMatrix`]): when a conflict miss refetches a line, the
//!   engine charges the pair *(block that evicted it → block that
//!   missed)*, and rolls the pairs up per routine — the measured analogue
//!   of the static loop×routine matrix driving the Section 4.4 `Call`
//!   optimization.
//!
//! The engine is a wrapper cache ([`AttributedCache`]) so any experiment
//! can opt in without touching the simulation driver, and it streams
//! every classified miss through an optional
//! [`AttributionProbe`](oslay_observe::AttributionProbe) — strictly
//! zero-cost when absent. Two [`AttributionReport`]s from different
//! layouts diff against each other ([`diff_attribution`]): which pairs
//! stopped conflicting, which new conflicts appeared.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use oslay_model::{Domain, SeedKind};
use oslay_observe::{AttrClass, AttributionProbe};

use crate::{
    line_runs, AccessDetail, AccessOutcome, Cache, CacheConfig, InstructionCache, MissStats,
};

/// Placement class of a code address — the categories of the paper's
/// Figure 13 (mirrors the layout crate's block classes; the cache crate
/// cannot depend on it).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum CodeClass {
    /// In the SelfConfFree area.
    SelfConfFree,
    /// In a sequence with `ExecThresh ≥ 0.01%`.
    MainSeq,
    /// In a less popular sequence.
    OtherSeq,
    /// Extracted into a loop area / logical cache.
    Loop,
    /// Never executed under the layout's profile.
    Cold,
}

impl CodeClass {
    /// All classes, in reporting order.
    pub const ALL: [CodeClass; 5] = [
        CodeClass::SelfConfFree,
        CodeClass::MainSeq,
        CodeClass::OtherSeq,
        CodeClass::Loop,
        CodeClass::Cold,
    ];

    /// Dense index (`0..5`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CodeClass::SelfConfFree => 0,
            CodeClass::MainSeq => 1,
            CodeClass::OtherSeq => 2,
            CodeClass::Loop => 3,
            CodeClass::Cold => 4,
        }
    }

    /// Label matching the paper's Figure 13.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CodeClass::SelfConfFree => "SelfConfFree",
            CodeClass::MainSeq => "MainSeq",
            CodeClass::OtherSeq => "OtherSeq",
            CodeClass::Loop => "Loops",
            CodeClass::Cold => "Cold",
        }
    }
}

/// Census slots: the five [`CodeClass`]es plus one for addresses the
/// [`AddressMap`] does not cover (layout gaps, stretch padding).
pub const CENSUS_SLOTS: usize = CodeClass::ALL.len() + 1;

/// Label of census slot `i` (`CodeClass` labels, then `"unmapped"`).
#[must_use]
pub fn census_label(i: usize) -> &'static str {
    CodeClass::ALL
        .get(i)
        .map_or("unmapped", |class| class.label())
}

/// What an address belongs to: which program, block, routine, and
/// placement class. Blocks and routines are dense indices into the
/// owning program (kept as raw `u32`s so the map is program-agnostic).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct CodeRef {
    /// Which program the code belongs to.
    pub domain: Domain,
    /// Block index within the program.
    pub block: u32,
    /// Routine index within the program.
    pub routine: u32,
    /// Placement class under the layout the map was built from.
    pub class: CodeClass,
}

impl CodeRef {
    /// The layout-independent identity of the code: `(domain, block)`.
    /// Pair diffs across layouts key on this, because the placement class
    /// and address change between layouts while the block does not.
    #[must_use]
    pub fn block_key(&self) -> (Domain, u32) {
        (self.domain, self.block)
    }

    /// The routine-level identity: `(domain, routine)`.
    #[must_use]
    pub fn routine_key(&self) -> (Domain, u32) {
        (self.domain, self.routine)
    }
}

/// Address → [`CodeRef`] reverse map for one layout pair.
///
/// Built once per layout from `(start, len, code)` spans (the layout
/// crate provides the builder for its `Layout` type), then queried on the
/// miss path by binary search. Spans must not overlap; gaps are allowed
/// and resolve to `None`.
#[derive(Clone, Debug, Default)]
pub struct AddressMap {
    /// Sorted, non-overlapping `(start, end, code)` spans.
    spans: Vec<(u64, u64, CodeRef)>,
}

impl AddressMap {
    /// Builds a map from spans, sorting them by start address.
    ///
    /// # Panics
    ///
    /// Panics if two spans overlap.
    #[must_use]
    pub fn build(spans: impl IntoIterator<Item = (u64, u64, CodeRef)>) -> Self {
        let mut spans: Vec<(u64, u64, CodeRef)> = spans
            .into_iter()
            .filter(|&(_, len, _)| len > 0)
            .map(|(start, len, code)| (start, start + len, code))
            .collect();
        spans.sort_unstable_by_key(|&(start, _, _)| start);
        for pair in spans.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "overlapping code spans at {:#x}",
                pair[1].0
            );
        }
        Self { spans }
    }

    /// The code containing `addr`, if any span covers it.
    #[must_use]
    pub fn lookup(&self, addr: u64) -> Option<CodeRef> {
        let i = self.spans.partition_point(|&(start, _, _)| start <= addr);
        let &(start, end, code) = self.spans.get(i.checked_sub(1)?)?;
        debug_assert!(start <= addr);
        (addr < end).then_some(code)
    }

    /// Like [`AddressMap::lookup`], but returns the half-open address
    /// range sharing `addr`'s answer: the containing span, or the gap
    /// between spans. Callers memoize the range so that the sequential
    /// fetches of one basic block cost a single binary search.
    #[must_use]
    pub fn lookup_span(&self, addr: u64) -> (u64, u64, Option<CodeRef>) {
        let i = self.spans.partition_point(|&(start, _, _)| start <= addr);
        let next_start = self.spans.get(i).map_or(u64::MAX, |&(start, _, _)| start);
        match i.checked_sub(1).and_then(|j| self.spans.get(j)) {
            Some(&(start, end, code)) if addr < end => (start, end, Some(code)),
            Some(&(_, end, _)) => (end, next_start, None),
            None => (0, next_start, None),
        }
    }

    /// Number of spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the map covers nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// A fully-associative LRU stack over line addresses: the *shadow tag
/// store* behind the capacity/conflict split.
///
/// Holds at most `capacity` tags. [`ShadowTags::touch`] reports whether
/// the line was resident — i.e. whether a fully-associative LRU cache of
/// the same total capacity would have hit — and promotes it to
/// most-recently-used.
///
/// Touch and evict are O(1) and allocation-free after construction: an
/// intrusive doubly-linked LRU list threaded through a fixed slab of
/// nodes, found via a preallocated open-addressed hash index (linear
/// probing, backward-shift deletion, so no tombstones accumulate). The
/// map-based original survives as
/// [`crate::reference::ReferenceShadowTags`]; the equivalence tests drive
/// both with identical touch sequences.
#[derive(Clone, Debug)]
pub struct ShadowTags {
    capacity: usize,
    /// Slab: line tag per node.
    lines: Vec<u64>,
    /// Intrusive list links per node ([`SHADOW_NIL`] terminated).
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Most-recently-used node.
    head: u32,
    /// Least-recently-used node (the eviction candidate).
    tail: u32,
    len: usize,
    /// Open-addressed index: `(line, node)` pairs, node == [`SHADOW_NIL`]
    /// meaning empty. Power-of-two sized, ≥2× capacity, so load factor
    /// stays ≤ 0.5.
    index: Vec<(u64, u32)>,
}

/// Null node index for [`ShadowTags`]' intrusive list and hash index.
const SHADOW_NIL: u32 = u32::MAX;

impl ShadowTags {
    /// Creates a store holding `capacity` line tags.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow store needs capacity");
        let index_size = (capacity * 2).next_power_of_two();
        Self {
            capacity,
            lines: vec![0; capacity],
            prev: vec![SHADOW_NIL; capacity],
            next: vec![SHADOW_NIL; capacity],
            head: SHADOW_NIL,
            tail: SHADOW_NIL,
            len: 0,
            index: vec![(0, SHADOW_NIL); index_size],
        }
    }

    /// Fibonacci-hash home bucket of a line.
    #[inline]
    fn home(&self, line: u64) -> usize {
        let hash = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// Index position holding `line`, or the empty position where it
    /// would be inserted.
    #[inline]
    fn index_pos(&self, line: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut i = self.home(line);
        loop {
            let (key, node) = self.index[i];
            if node == SHADOW_NIL || key == line {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `line`'s index entry with backward-shift deletion (keeps
    /// probe chains contiguous without tombstones).
    fn index_remove(&mut self, line: u64) {
        let mask = self.index.len() - 1;
        let mut hole = self.index_pos(line);
        debug_assert_ne!(self.index[hole].1, SHADOW_NIL, "removing absent line");
        self.index[hole] = (0, SHADOW_NIL);
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (key, node) = self.index[j];
            if node == SHADOW_NIL {
                return;
            }
            // Move the entry back iff the hole lies within its probe
            // chain (i.e. between its home bucket and its position).
            let home = self.home(key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.index[hole] = (key, node);
                self.index[j] = (0, SHADOW_NIL);
                hole = j;
            }
        }
    }

    /// Unlinks `node` from the LRU list.
    #[inline]
    fn unlink(&mut self, node: u32) {
        let (p, n) = (self.prev[node as usize], self.next[node as usize]);
        if p == SHADOW_NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == SHADOW_NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Links `node` at the MRU end.
    #[inline]
    fn push_front(&mut self, node: u32) {
        self.prev[node as usize] = SHADOW_NIL;
        self.next[node as usize] = self.head;
        if self.head != SHADOW_NIL {
            self.prev[self.head as usize] = node;
        }
        self.head = node;
        if self.tail == SHADOW_NIL {
            self.tail = node;
        }
    }

    /// Touches `line`, returning true if it was resident (an LRU-stack
    /// hit). Non-resident lines are inserted, evicting the coldest tag
    /// once the store is full.
    pub fn touch(&mut self, line: u64) -> bool {
        let pos = self.index_pos(line);
        let (_, node) = self.index[pos];
        if node != SHADOW_NIL {
            // Resident: promote to MRU.
            if self.head != node {
                self.unlink(node);
                self.push_front(node);
            }
            return true;
        }
        // Not resident: take a free slab slot, or recycle the LRU node.
        let slot = if self.len < self.capacity {
            self.len += 1;
            (self.len - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            self.index_remove(self.lines[victim as usize]);
            victim
        };
        self.lines[slot as usize] = line;
        // The eviction above may have shifted entries; re-probe.
        let pos = self.index_pos(line);
        self.index[pos] = (line, slot);
        self.push_front(slot);
        false
    }

    /// Number of resident tags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tag is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears all tags.
    pub fn clear(&mut self) {
        self.lines.fill(0);
        self.prev.fill(SHADOW_NIL);
        self.next.fill(SHADOW_NIL);
        self.head = SHADOW_NIL;
        self.tail = SHADOW_NIL;
        self.len = 0;
        self.index.fill((0, SHADOW_NIL));
    }
}

/// One evictor→victim conflict pair with its miss count.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ConflictPair {
    /// The block whose fill displaced the victim's line.
    pub evictor: CodeRef,
    /// The block that later missed on the displaced line.
    pub victim: CodeRef,
    /// Conflict misses charged to the pair.
    pub count: u64,
}

/// Layout-independent identity of a routine: `(domain, routine index)`.
/// The same shape also keys blocks ([`CodeRef::block_key`]).
pub type RoutineKey = (Domain, u32);

/// One conflict-matrix cell: `(evictor, victim, count)`.
pub type MatrixCell = (RoutineKey, RoutineKey, u64);

/// The routine×routine conflict matrix: entry `(evictor, victim)` counts
/// conflict misses where code of `evictor` displaced a line that code of
/// `victim` then refetched.
///
/// This is the measured analogue of the static loop×routine matrix the
/// Section 4.4 `Call` optimization builds from the call graph; the layout
/// crate can rank its rows to pick `Call` candidates from measurement
/// instead of structure.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConflictMatrix {
    entries: BTreeMap<(RoutineKey, RoutineKey), u64>,
}

impl ConflictMatrix {
    /// Adds `n` conflicts to entry `(evictor, victim)`.
    pub fn add(&mut self, evictor: (Domain, u32), victim: (Domain, u32), n: u64) {
        *self.entries.entry((evictor, victim)).or_insert(0) += n;
    }

    /// Count of entry `(evictor, victim)`.
    #[must_use]
    pub fn count(&self, evictor: (Domain, u32), victim: (Domain, u32)) -> u64 {
        self.entries.get(&(evictor, victim)).copied().unwrap_or(0)
    }

    /// Sum of all entries.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.entries.values().sum()
    }

    /// Number of non-zero entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no conflict was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries as `(evictor, victim, count)`, key order.
    pub fn entries(&self) -> impl Iterator<Item = MatrixCell> + '_ {
        self.entries.iter().map(|(&(e, v), &c)| (e, v, c))
    }

    /// The `k` heaviest entries, by count descending (ties by key).
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<MatrixCell> {
        let mut all: Vec<_> = self.entries().collect();
        all.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    /// Conflicts suffered *by* a routine (its victim row sum).
    #[must_use]
    pub fn victim_row_sum(&self, victim: (Domain, u32)) -> u64 {
        self.entries
            .iter()
            .filter(|&(&(_, v), _)| v == victim)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Conflicts caused *by* a routine (its evictor column sum).
    #[must_use]
    pub fn evictor_row_sum(&self, evictor: (Domain, u32)) -> u64 {
        self.entries
            .iter()
            .filter(|&(&(e, _), _)| e == evictor)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Asymmetry of the matrix: `Σ |c(a,b) − c(b,a)|` over unordered
    /// routine pairs, as a fraction of the total. Two routines ping-pong
    /// evicting each other in a direct-mapped set, so sustained thrash
    /// shows up as near-symmetric entries; a strongly one-sided matrix
    /// means transient (streaming) interference instead.
    #[must_use]
    pub fn asymmetry(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut defect = 0u64;
        for (&(e, v), &c) in &self.entries {
            if e < v {
                let back = self.count(v, e);
                defect += c.abs_diff(back);
            } else if e == v {
                // Self-conflict of one routine is its own mirror.
            } else if !self.entries.contains_key(&(v, e)) {
                // Counted once from the smaller-keyed side only when the
                // mirror entry exists; a one-sided entry lands here.
                defect += c;
            }
        }
        defect as f64 / total as f64
    }
}

/// Everything the attribution engine measured in one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributionReport {
    /// Geometry of the attributed cache.
    pub config: CacheConfig,
    /// Total fetches observed.
    pub total_accesses: u64,
    /// Total misses observed.
    pub total_misses: u64,
    /// Misses per [`AttrClass`] (compulsory, capacity, conflict).
    pub class_misses: [u64; 3],
    /// Accesses per cache set.
    pub set_accesses: Vec<u64>,
    /// Misses per cache set (the per-set pressure histogram).
    pub set_misses: Vec<u64>,
    /// References per census slot (see [`census_label`]).
    pub census_refs: [u64; CENSUS_SLOTS],
    /// Misses per census slot.
    pub census_misses: [u64; CENSUS_SLOTS],
    /// Misses per OS entry class (`SeedKind` order), slot 4 = outside any
    /// OS invocation (application code, idle loop).
    pub entry_misses: [u64; 5],
    /// Conflict misses per [`TraceEvent::Mark`](oslay_model::Domain)
    /// epoch, as `(tag, conflicts)`; empty when the trace has no marks.
    pub epoch_conflicts: Vec<(u32, u64)>,
    /// Evictor→victim block pairs, heaviest first.
    pub pairs: Vec<ConflictPair>,
    /// The routine×routine conflict matrix.
    pub matrix: ConflictMatrix,
}

impl AttributionReport {
    /// Misses of one class.
    #[must_use]
    pub fn misses_of(&self, class: AttrClass) -> u64 {
        self.class_misses[class.index()]
    }

    /// Conflict misses as a fraction of all misses (0 if no misses).
    #[must_use]
    pub fn conflict_share(&self) -> f64 {
        if self.total_misses == 0 {
            return 0.0;
        }
        self.misses_of(AttrClass::Conflict) as f64 / self.total_misses as f64
    }

    /// Coefficient of variation (σ/μ) of the per-set miss counts — 0 for
    /// perfectly even pressure, large when a few sets thrash.
    #[must_use]
    pub fn set_imbalance(&self) -> f64 {
        let n = self.set_misses.len() as f64;
        let mean = self.set_misses.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .set_misses
            .iter()
            .map(|&m| {
                let d = m as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    /// Fraction of all misses concentrated in the `k` worst sets.
    #[must_use]
    pub fn set_peak_share(&self, k: usize) -> f64 {
        let total: u64 = self.set_misses.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut sorted = self.set_misses.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.iter().take(k).sum::<u64>() as f64 / total as f64
    }

    /// The `k` heaviest evictor→victim pairs.
    #[must_use]
    pub fn top_pairs(&self, k: usize) -> &[ConflictPair] {
        &self.pairs[..k.min(self.pairs.len())]
    }

    /// Census rows as `(label, references, misses)`, paper order plus the
    /// unmapped slot.
    #[must_use]
    pub fn census(&self) -> Vec<(&'static str, u64, u64)> {
        (0..CENSUS_SLOTS)
            .map(|i| (census_label(i), self.census_refs[i], self.census_misses[i]))
            .collect()
    }

    /// Flattens the report into the numeric fields a
    /// [`RunReport`](oslay_observe::RunReport) section stores, so
    /// `compare()` can flag conflict-matrix regressions between runs.
    /// All fields are lower-is-better.
    #[must_use]
    pub fn section_fields(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("misses".to_owned(), self.total_misses as f64),
            (
                "compulsory".to_owned(),
                self.misses_of(AttrClass::Compulsory) as f64,
            ),
            (
                "capacity".to_owned(),
                self.misses_of(AttrClass::Capacity) as f64,
            ),
            (
                "conflict".to_owned(),
                self.misses_of(AttrClass::Conflict) as f64,
            ),
            ("conflict_share".to_owned(), self.conflict_share()),
            ("set_imbalance".to_owned(), self.set_imbalance()),
            ("set_peak_share_5".to_owned(), self.set_peak_share(5)),
            // Note: the number of *distinct* matrix entries is deliberately
            // not a field — an optimization that spreads fewer conflicts
            // over more, lighter pairs would look like a regression.
            ("matrix_total".to_owned(), self.matrix.total() as f64),
            (
                "top_pair_count".to_owned(),
                self.pairs.first().map_or(0, |p| p.count) as f64,
            ),
        ];
        for i in 0..CENSUS_SLOTS {
            out.push((
                format!("census_miss.{}", census_label(i)),
                self.census_misses[i] as f64,
            ));
        }
        out
    }
}

/// A cache wrapper that attributes every miss.
///
/// Wraps a concrete [`Cache`] (it needs the eviction detail of
/// [`Cache::access_detailed`]), consults the shadow tag store on every
/// access, and keeps per-set, per-class, and per-pair rollups. Implements
/// [`InstructionCache`], so the standard simulation driver works
/// unchanged; call [`AttributedCache::report`] afterwards for the
/// rollups.
pub struct AttributedCache {
    inner: Cache,
    map: Arc<AddressMap>,
    shadow: ShadowTags,
    /// Last resolved map range `(start, end, code)` — sequential fetches
    /// of one block stay inside one span, so almost every access resolves
    /// here instead of binary-searching the map. Starts empty
    /// (`start > end`, matching nothing).
    span_memo: (u64, u64, Option<CodeRef>),
    /// victim line → line whose fill displaced it.
    last_evictor: HashMap<u64, u64>,
    set_accesses: Vec<u64>,
    set_misses: Vec<u64>,
    class_misses: [u64; 3],
    census_refs: [u64; CENSUS_SLOTS],
    census_misses: [u64; CENSUS_SLOTS],
    entry_misses: [u64; 5],
    /// Current OS entry class (None = outside the OS).
    context: Option<SeedKind>,
    /// Current mark epoch and per-epoch conflict counts.
    epoch: Option<u32>,
    epoch_conflicts: BTreeMap<u32, u64>,
    pairs: PairTable,
    matrix: ConflictMatrix,
    probe: Option<Arc<dyn AttributionProbe + Send + Sync>>,
}

/// Pair rollup keyed by the stable `(block, block)` identity; the value
/// keeps the first-seen [`CodeRef`]s alongside the count.
type PairTable = HashMap<(RoutineKey, RoutineKey), (CodeRef, CodeRef, u64)>;

impl std::fmt::Debug for AttributedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttributedCache")
            .field("inner", &self.inner)
            .field("class_misses", &self.class_misses)
            .field("pairs", &self.pairs.len())
            .field("probe", &self.probe.is_some())
            .finish_non_exhaustive()
    }
}

impl AttributedCache {
    /// Wraps `inner`, attributing through `map`.
    #[must_use]
    pub fn new(inner: Cache, map: Arc<AddressMap>) -> Self {
        let cfg = inner.config();
        let sets = cfg.num_sets() as usize;
        let lines = (cfg.size() / cfg.line()) as usize;
        Self {
            inner,
            map,
            shadow: ShadowTags::new(lines),
            span_memo: (1, 0, None),
            last_evictor: HashMap::new(),
            set_accesses: vec![0; sets],
            set_misses: vec![0; sets],
            class_misses: [0; 3],
            census_refs: [0; CENSUS_SLOTS],
            census_misses: [0; CENSUS_SLOTS],
            entry_misses: [0; 5],
            context: None,
            epoch: None,
            epoch_conflicts: BTreeMap::new(),
            pairs: HashMap::new(),
            matrix: ConflictMatrix::default(),
            probe: None,
        }
    }

    /// Like [`AttributedCache::new`], additionally streaming every
    /// classified miss into `probe`. The probe is touched only on misses.
    #[must_use]
    pub fn with_probe(
        inner: Cache,
        map: Arc<AddressMap>,
        probe: Arc<dyn AttributionProbe + Send + Sync>,
    ) -> Self {
        let mut cache = Self::new(inner, map);
        cache.probe = Some(probe);
        cache
    }

    /// The wrapped cache.
    #[must_use]
    pub fn inner(&self) -> &Cache {
        &self.inner
    }

    /// Extracts the measured rollups.
    #[must_use]
    pub fn report(&self) -> AttributionReport {
        let _g = oslay_observe::flight::span("cache.attr.report");
        let mut pairs: Vec<ConflictPair> = self
            .pairs
            .values()
            .map(|&(evictor, victim, count)| ConflictPair {
                evictor,
                victim,
                count,
            })
            .collect();
        pairs.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.evictor.block_key().cmp(&b.evictor.block_key()))
                .then(a.victim.block_key().cmp(&b.victim.block_key()))
        });
        AttributionReport {
            config: self.inner.config(),
            total_accesses: self.inner.stats().total_accesses(),
            total_misses: self.inner.stats().total_misses(),
            class_misses: self.class_misses,
            set_accesses: self.set_accesses.clone(),
            set_misses: self.set_misses.clone(),
            census_refs: self.census_refs,
            census_misses: self.census_misses,
            entry_misses: self.entry_misses,
            epoch_conflicts: self.epoch_conflicts.iter().map(|(&t, &c)| (t, c)).collect(),
            pairs,
            matrix: self.matrix.clone(),
        }
    }

    fn census_slot(code: Option<CodeRef>) -> usize {
        code.map_or(CENSUS_SLOTS - 1, |c| c.class.index())
    }

    /// Points the span memo at `addr`'s map range, if it is not there
    /// already.
    #[inline]
    fn resolve(&mut self, addr: u64) {
        if !(self.span_memo.0 <= addr && addr < self.span_memo.1) {
            self.span_memo = self.map.lookup_span(addr);
        }
    }

    /// Counts `n` census references for the consecutive words starting at
    /// `addr`, resolving them span by span through the memo (one slot
    /// increment per span the words cross, not one per word).
    fn census_words(&mut self, mut addr: u64, mut n: u64) {
        let word = u64::from(oslay_model::WORD_BYTES);
        while n > 0 {
            self.resolve(addr);
            let here = (self.span_memo.1 - addr).div_ceil(word).min(n);
            self.census_refs[Self::census_slot(self.span_memo.2)] += here;
            addr += here * word;
            n -= here;
        }
    }

    /// One fully attributed fetch: the inner cache access plus every
    /// rollup the report keeps.
    fn attribute(&mut self, addr: u64, domain: Domain) -> AccessDetail {
        let detail = self.inner.access_detailed(addr, domain);
        self.set_accesses[detail.set as usize] += 1;
        self.resolve(addr);
        let code = self.span_memo.2;
        self.census_refs[Self::census_slot(code)] += 1;
        // The shadow stack sees every access (hits keep the LRU order
        // honest); its verdict is read before this touch takes effect.
        let was_resident = self.shadow.touch(detail.line);

        if let AccessOutcome::Miss(kind) = detail.outcome {
            self.set_misses[detail.set as usize] += 1;
            self.census_misses[Self::census_slot(code)] += 1;
            self.entry_misses[self.context.map_or(4, SeedKind::index)] += 1;
            let class = if kind == crate::MissKind::Cold {
                AttrClass::Compulsory
            } else if was_resident {
                AttrClass::Conflict
            } else {
                AttrClass::Capacity
            };
            self.class_misses[class.index()] += 1;
            let mut evictor_known = false;
            if class == AttrClass::Conflict {
                if let Some(tag) = self.epoch {
                    *self.epoch_conflicts.entry(tag).or_insert(0) += 1;
                }
                if let Some(&evictor_line) = self.last_evictor.get(&detail.line) {
                    evictor_known = true;
                    if let (Some(victim), Some(evictor)) = (code, self.map.lookup(evictor_line)) {
                        let entry = self
                            .pairs
                            .entry((evictor.block_key(), victim.block_key()))
                            .or_insert((evictor, victim, 0));
                        entry.2 += 1;
                        self.matrix
                            .add(evictor.routine_key(), victim.routine_key(), 1);
                    }
                }
            }
            if let Some(probe) = &self.probe {
                probe.miss_attributed(detail.set, class, evictor_known);
            }
        }
        if let Some(victim) = detail.evicted {
            self.last_evictor.insert(victim, detail.line);
        }
        detail
    }
}

impl InstructionCache for AttributedCache {
    fn access(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        self.attribute(addr, domain).outcome
    }

    /// The line-run rule of [`Cache`]'s override: one fully attributed
    /// access per line, then the line's remaining words are bulk-counted
    /// as the hits they must be. A hit on the MRU line changes nothing
    /// but the access tallies — the shadow store already holds the line
    /// at its MRU end, and hits reach no miss rollup — so the report, the
    /// stats and the reported misses equal the per-word loop's.
    fn access_words(
        &mut self,
        base: u64,
        words: u32,
        domain: Domain,
        on_miss: &mut dyn FnMut(u64, crate::MissKind),
    ) -> u64 {
        let mut missed = 0u64;
        for (addr, run) in line_runs(base, words, self.inner.config().line()) {
            let detail = self.attribute(addr, domain);
            if let AccessOutcome::Miss(kind) = detail.outcome {
                missed += 1;
                on_miss(addr, kind);
            }
            let rest = u64::from(run) - 1;
            if rest > 0 {
                self.set_accesses[detail.set as usize] += rest;
                self.census_words(addr + u64::from(oslay_model::WORD_BYTES), rest);
                self.inner.record_run_hits(domain, rest);
            }
        }
        missed
    }

    fn stats(&self) -> &MissStats {
        self.inner.stats()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.shadow.clear();
        self.span_memo = (1, 0, None);
        self.last_evictor.clear();
        self.set_accesses.fill(0);
        self.set_misses.fill(0);
        self.class_misses = [0; 3];
        self.census_refs = [0; CENSUS_SLOTS];
        self.census_misses = [0; CENSUS_SLOTS];
        self.entry_misses = [0; 5];
        self.context = None;
        self.epoch = None;
        self.epoch_conflicts.clear();
        self.pairs.clear();
        self.matrix = ConflictMatrix::default();
    }

    fn note_os_enter(&mut self, kind: SeedKind) {
        self.context = Some(kind);
    }

    fn note_os_exit(&mut self) {
        self.context = None;
    }

    fn note_mark(&mut self, tag: u32) {
        self.epoch = Some(tag);
        self.epoch_conflicts.entry(tag).or_insert(0);
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.inner.set_telemetry(enabled);
    }

    fn telemetry_snapshot(&self) -> Option<oslay_observe::timeline::CacheProbeSnapshot> {
        // The inner cache supplies occupancy and eviction ages; this
        // wrapper adds the attribution split the timeline uses for the
        // compulsory/capacity/conflict decomposition per window.
        self.inner.telemetry_snapshot().map(|mut snap| {
            snap.attr = Some(self.class_misses);
            snap
        })
    }
}

/// One pair's before/after counts in a layout diff.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PairDelta {
    /// The pair, with the [`CodeRef`]s of whichever side recorded it.
    pub evictor: CodeRef,
    /// Victim side of the pair.
    pub victim: CodeRef,
    /// Conflict count in the baseline report.
    pub base: u64,
    /// Conflict count in the current report.
    pub current: u64,
}

impl PairDelta {
    /// Signed change (`current − base`).
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.current as i64 - self.base as i64
    }
}

/// The difference between two layouts' attributions: which block pairs
/// stopped conflicting, which new conflicts the new layout introduced.
#[derive(Clone, Debug, Default)]
pub struct AttributionDiff {
    /// Pairs that conflicted under the baseline and no longer do (or far
    /// less), heaviest baseline count first.
    pub resolved: Vec<PairDelta>,
    /// Pairs the current layout introduced (or made heavier), heaviest
    /// current count first.
    pub introduced: Vec<PairDelta>,
    /// Per-class miss change (`current − base`, [`AttrClass`] order).
    pub class_delta: [i64; 3],
    /// Per-set miss change (`current − base`).
    pub set_delta: Vec<i64>,
    /// Matrix totals `(base, current)`.
    pub matrix_total: (u64, u64),
}

impl AttributionDiff {
    /// Net conflict-miss change.
    #[must_use]
    pub fn conflict_delta(&self) -> i64 {
        self.class_delta[AttrClass::Conflict.index()]
    }
}

/// Diffs two attributions of the *same workload* under different layouts.
/// Pairs are matched by `(domain, block)` identity, which is stable
/// across layouts.
///
/// # Panics
///
/// Panics if the two reports come from different cache geometries.
#[must_use]
pub fn diff_attribution(base: &AttributionReport, current: &AttributionReport) -> AttributionDiff {
    assert_eq!(
        base.config, current.config,
        "attribution diffs need identical cache geometry"
    );
    type Key = ((Domain, u32), (Domain, u32));
    let index = |r: &AttributionReport| -> BTreeMap<Key, ConflictPair> {
        r.pairs
            .iter()
            .map(|&p| ((p.evictor.block_key(), p.victim.block_key()), p))
            .collect()
    };
    let base_pairs = index(base);
    let current_pairs = index(current);

    let mut resolved = Vec::new();
    let mut introduced = Vec::new();
    for (key, p) in &base_pairs {
        let cur = current_pairs.get(key).map_or(0, |c| c.count);
        if cur < p.count {
            resolved.push(PairDelta {
                evictor: p.evictor,
                victim: p.victim,
                base: p.count,
                current: cur,
            });
        }
    }
    for (key, p) in &current_pairs {
        let was = base_pairs.get(key).map_or(0, |b| b.count);
        if p.count > was {
            introduced.push(PairDelta {
                evictor: p.evictor,
                victim: p.victim,
                base: was,
                current: p.count,
            });
        }
    }
    resolved.sort_by_key(|p| std::cmp::Reverse(p.base - p.current));
    introduced.sort_by_key(|p| std::cmp::Reverse(p.current - p.base));

    let mut class_delta = [0i64; 3];
    for (delta, (&cur, &was)) in class_delta
        .iter_mut()
        .zip(current.class_misses.iter().zip(&base.class_misses))
    {
        *delta = cur as i64 - was as i64;
    }
    let set_delta = base
        .set_misses
        .iter()
        .zip(&current.set_misses)
        .map(|(&b, &c)| c as i64 - b as i64)
        .collect();

    AttributionDiff {
        resolved,
        introduced,
        class_delta,
        set_delta,
        matrix_total: (base.matrix.total(), current.matrix.total()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(domain: Domain, block: u32, routine: u32, class: CodeClass) -> CodeRef {
        CodeRef {
            domain,
            block,
            routine,
            class,
        }
    }

    /// 64-byte direct-mapped cache, 16-byte lines (4 sets, 4 lines), with
    /// a map of one block per 16-byte line over the first 8 lines.
    fn rig() -> AttributedCache {
        let spans = (0..8u64).map(|i| {
            (
                i * 16,
                16,
                code(Domain::Os, i as u32, (i / 2) as u32, CodeClass::MainSeq),
            )
        });
        AttributedCache::new(
            Cache::new(CacheConfig::new(64, 16, 1)),
            Arc::new(AddressMap::build(spans)),
        )
    }

    #[test]
    fn address_map_lookup_hits_spans_and_gaps() {
        let map = AddressMap::build([
            (0, 16, code(Domain::Os, 0, 0, CodeClass::MainSeq)),
            (32, 8, code(Domain::Os, 1, 0, CodeClass::Cold)),
        ]);
        assert_eq!(map.len(), 2);
        assert_eq!(map.lookup(0).unwrap().block, 0);
        assert_eq!(map.lookup(15).unwrap().block, 0);
        assert_eq!(map.lookup(16), None, "gap");
        assert_eq!(map.lookup(32).unwrap().block, 1);
        assert_eq!(map.lookup(39).unwrap().block, 1);
        assert_eq!(map.lookup(40), None);
    }

    #[test]
    fn lookup_span_agrees_with_lookup_everywhere() {
        let map = AddressMap::build([
            (16, 16, code(Domain::Os, 0, 0, CodeClass::MainSeq)),
            (48, 8, code(Domain::Os, 1, 0, CodeClass::Cold)),
        ]);
        for addr in 0..80u64 {
            let (start, end, got) = map.lookup_span(addr);
            assert!(start <= addr && addr < end, "addr {addr}: [{start}, {end})");
            assert_eq!(got, map.lookup(addr), "addr {addr}");
            // The whole returned range must share the answer (that is the
            // memoization contract).
            for a in start..end.min(80) {
                assert_eq!(map.lookup(a), got, "addr {addr}, range member {a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn address_map_rejects_overlap() {
        let _ = AddressMap::build([
            (0, 20, code(Domain::Os, 0, 0, CodeClass::MainSeq)),
            (16, 8, code(Domain::Os, 1, 0, CodeClass::MainSeq)),
        ]);
    }

    #[test]
    fn shadow_tags_track_lru_stack_residency() {
        let mut s = ShadowTags::new(2);
        assert!(!s.touch(1));
        assert!(!s.touch(2));
        assert!(s.touch(1), "still resident");
        assert!(!s.touch(3), "evicts 2 (LRU)");
        assert!(!s.touch(2), "2 was evicted");
        assert!(s.touch(3));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn shadow_tags_match_reference_on_randomized_touches() {
        use crate::reference::ReferenceShadowTags;
        use oslay_model::rng::Rng;

        // Capacities around and below the working-set size, line keys drawn
        // from a range a few times the capacity so hits, evictions and
        // re-fetches all occur constantly.
        for (seed, capacity) in [(1u64, 1usize), (2, 2), (3, 7), (4, 64), (5, 256)] {
            let mut fast = ShadowTags::new(capacity);
            let mut reference = ReferenceShadowTags::new(capacity);
            let mut rng = Rng::seed_from_u64(seed);
            let span = (capacity as u32) * 4 + 3;
            for step in 0..50_000u32 {
                let line = u64::from(rng.gen_range(0..span)) * 32;
                let got = fast.touch(line);
                let want = reference.touch(line);
                assert_eq!(got, want, "capacity {capacity} step {step} line {line}");
                assert_eq!(
                    fast.len(),
                    reference.len(),
                    "capacity {capacity} step {step}"
                );
            }
        }
    }

    #[test]
    fn conflict_miss_is_shadow_resident() {
        let mut c = rig();
        // Lines 0 and 64 share set 0; both fit the 4-line shadow store.
        c.access(0, Domain::Os); // compulsory
        c.access(64, Domain::Os); // compulsory, evicts 0
        c.access(0, Domain::Os); // conflict: shadow still holds line 0
        let r = c.report();
        assert_eq!(r.misses_of(AttrClass::Compulsory), 2);
        assert_eq!(r.misses_of(AttrClass::Conflict), 1);
        assert_eq!(r.misses_of(AttrClass::Capacity), 0);
        assert_eq!(r.total_misses, 3);
    }

    #[test]
    fn capacity_miss_is_shadow_evicted() {
        let mut c = rig();
        // Cycle through 5 distinct lines: one more than the shadow store
        // holds, so round-robin LRU keeps every line shadow-non-resident
        // on revisit. In the real 4-set cache only lines 0 and 4 collide
        // (set 0); their revisit misses must classify as capacity, never
        // conflict.
        for round in 0..3 {
            for line in 0..5u64 {
                c.access(line * 16, Domain::Os);
            }
            let _ = round;
        }
        let r = c.report();
        assert_eq!(r.misses_of(AttrClass::Compulsory), 5);
        assert_eq!(r.misses_of(AttrClass::Conflict), 0);
        assert_eq!(r.misses_of(AttrClass::Capacity), 4);
        assert_eq!(r.total_misses, 9);
    }

    #[test]
    fn classes_partition_total_misses() {
        let mut c = rig();
        // A mixed pattern: ping-pong plus a cycling sweep.
        for i in 0..200u64 {
            c.access((i % 7) * 16, Domain::Os);
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        let r = c.report();
        assert_eq!(r.class_misses.iter().sum::<u64>(), r.total_misses);
        assert_eq!(
            r.misses_of(AttrClass::Compulsory),
            c.inner().stats().misses(crate::MissKind::Cold),
            "compulsory must equal the simulator's cold count"
        );
        assert_eq!(r.set_misses.iter().sum::<u64>(), r.total_misses);
        assert_eq!(r.set_accesses.iter().sum::<u64>(), r.total_accesses);
        assert_eq!(r.census_refs.iter().sum::<u64>(), r.total_accesses);
        assert_eq!(r.census_misses.iter().sum::<u64>(), r.total_misses);
        assert_eq!(r.entry_misses.iter().sum::<u64>(), r.total_misses);
    }

    #[test]
    fn evictor_victim_pairs_are_charged_on_conflicts() {
        let mut c = rig();
        // Blocks 0 (line 0) and 4 (line 64) ping-pong in set 0.
        for i in 0..21u64 {
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        let r = c.report();
        // 21 accesses: 2 compulsory, 19 conflicts. The first conflict
        // (refetch of line 0) knows its evictor; every later one does too.
        assert_eq!(r.misses_of(AttrClass::Conflict), 19);
        let ab = r
            .pairs
            .iter()
            .find(|p| p.evictor.block == 4 && p.victim.block == 0)
            .expect("pair 4→0");
        let ba = r
            .pairs
            .iter()
            .find(|p| p.evictor.block == 0 && p.victim.block == 4)
            .expect("pair 0→4");
        assert_eq!(ab.count + ba.count, 19);
        // Alternation makes the pair nearly symmetric.
        assert!(ab.count.abs_diff(ba.count) <= 1);
        // Routine rollup: blocks 0 and 4 belong to routines 0 and 2.
        assert_eq!(r.matrix.total(), 19);
        assert_eq!(
            r.matrix.count((Domain::Os, 2), (Domain::Os, 0)),
            ab.count,
            "matrix mirrors the block pairs at routine granularity"
        );
        assert!(r.matrix.asymmetry() < 0.1);
    }

    #[test]
    fn matrix_row_sums_bound_known_conflicts() {
        let mut c = rig();
        for i in 0..50u64 {
            c.access(if i % 2 == 0 { 16 } else { 80 }, Domain::Os);
        }
        let r = c.report();
        let conflicts = r.misses_of(AttrClass::Conflict);
        assert!(r.matrix.total() <= conflicts);
        // Every matrix entry shows up in exactly one victim row sum.
        let victims: std::collections::BTreeSet<_> =
            r.matrix.entries().map(|(_, v, _)| v).collect();
        let by_rows: u64 = victims.iter().map(|&v| r.matrix.victim_row_sum(v)).sum();
        assert_eq!(by_rows, r.matrix.total());
        let evictors: std::collections::BTreeSet<_> =
            r.matrix.entries().map(|(e, _, _)| e).collect();
        let by_cols: u64 = evictors.iter().map(|&e| r.matrix.evictor_row_sum(e)).sum();
        assert_eq!(by_cols, r.matrix.total());
    }

    #[test]
    fn entry_context_attributes_misses_per_seed_class() {
        let mut c = rig();
        c.note_os_enter(SeedKind::SysCall);
        c.access(0, Domain::Os);
        c.access(64, Domain::Os);
        c.note_os_exit();
        c.access(0, Domain::Os); // conflict, but outside the OS context
        let r = c.report();
        assert_eq!(r.entry_misses[SeedKind::SysCall.index()], 2);
        assert_eq!(r.entry_misses[4], 1);
    }

    #[test]
    fn marks_segment_conflicts_into_epochs() {
        let mut c = rig();
        c.note_mark(0);
        c.access(0, Domain::Os);
        c.access(64, Domain::Os);
        c.note_mark(1);
        c.access(0, Domain::Os); // conflict in epoch 1
        c.access(64, Domain::Os); // conflict in epoch 1
        let r = c.report();
        assert_eq!(r.epoch_conflicts, vec![(0, 0), (1, 2)]);
    }

    #[test]
    fn diff_finds_resolved_and_introduced_pairs() {
        // Baseline: 0 and 64 ping-pong.
        let mut base = rig();
        for i in 0..20u64 {
            base.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        // "Optimized": blocks no longer collide; 16/80 collide instead.
        let mut cur = rig();
        for i in 0..20u64 {
            cur.access(if i % 2 == 0 { 16 } else { 80 }, Domain::Os);
        }
        let d = diff_attribution(&base.report(), &cur.report());
        assert!(!d.resolved.is_empty());
        assert!(!d.introduced.is_empty());
        assert!(d.resolved.iter().all(|p| p.current == 0));
        assert!(d.introduced.iter().all(|p| p.base == 0));
        assert_eq!(d.conflict_delta(), 0, "same volume, different pairs");
        assert_eq!(d.matrix_total.0, d.matrix_total.1);
        // Set pressure moved from set 0 to set 1.
        assert!(d.set_delta[0] < 0);
        assert!(d.set_delta[1] > 0);
    }

    #[test]
    fn reset_clears_all_rollups() {
        let mut c = rig();
        c.note_mark(3);
        c.note_os_enter(SeedKind::Interrupt);
        for i in 0..10u64 {
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        c.reset();
        let r = c.report();
        assert_eq!(r.total_accesses, 0);
        assert_eq!(r.total_misses, 0);
        assert_eq!(r.class_misses, [0; 3]);
        assert!(r.pairs.is_empty());
        assert!(r.matrix.is_empty());
        assert!(r.epoch_conflicts.is_empty());
        // And the engine still classifies correctly afterwards.
        c.access(0, Domain::Os);
        assert_eq!(c.report().misses_of(AttrClass::Compulsory), 1);
    }

    #[test]
    fn probe_sees_every_classified_miss() {
        use oslay_observe::MetricRegistry;
        let reg = Arc::new(MetricRegistry::new());
        let spans = (0..8u64).map(|i| {
            (
                i * 16,
                16,
                code(Domain::Os, i as u32, 0, CodeClass::MainSeq),
            )
        });
        let mut c = AttributedCache::with_probe(
            Cache::new(CacheConfig::new(64, 16, 1)),
            Arc::new(AddressMap::build(spans)),
            reg.clone(),
        );
        for i in 0..11u64 {
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        c.access(0, Domain::Os); // hit: must not touch the probe
        assert_eq!(reg.counter("cache.attr.compulsory"), 2);
        assert_eq!(reg.counter("cache.attr.conflict"), 9);
        assert_eq!(reg.counter("cache.attr.capacity"), 0);
        let sets = reg.histogram("cache.attr.set").expect("set histogram");
        assert_eq!(sets.count(), 11);
    }

    #[test]
    fn access_words_matches_per_word_loop() {
        use oslay_model::rng::Rng;
        for line in [16u32, 32, 64] {
            for ways in [1u32, 2, 4] {
                let seed = u64::from(line) * 10 + u64::from(ways);
                let mut rng = Rng::seed_from_u64(seed);
                // Spans of 1..48 bytes with gaps: a line run often crosses
                // several spans (and unmapped bytes) of mixed classes.
                let mut spans = Vec::new();
                let mut at = 0u64;
                while at < 6_000 {
                    at += u64::from(rng.gen_range(0..8u32));
                    let len = u64::from(1 + rng.gen_range(0..48u32));
                    let block = spans.len() as u32;
                    let domain = if at < 4_000 { Domain::Os } else { Domain::App };
                    let class = CodeClass::ALL[rng.gen_range(0..5u32) as usize];
                    spans.push((at, len, code(domain, block, block / 4, class)));
                    at += len;
                }
                let map = Arc::new(AddressMap::build(spans));
                let cfg = CacheConfig::new(1024, line, ways);
                let mut coalesced = AttributedCache::new(Cache::new(cfg), map.clone());
                let mut per_word = AttributedCache::new(Cache::new(cfg), map);
                for step in 0..5_000u32 {
                    match rng.gen_range(0..16u32) {
                        0 => {
                            let kind = SeedKind::ALL[rng.gen_range(0..4u32) as usize];
                            coalesced.note_os_enter(kind);
                            per_word.note_os_enter(kind);
                        }
                        1 => {
                            coalesced.note_os_exit();
                            per_word.note_os_exit();
                        }
                        2 => {
                            let tag = rng.gen_range(0..4u32);
                            coalesced.note_mark(tag);
                            per_word.note_mark(tag);
                        }
                        _ => {}
                    }
                    // A block fetch at a byte-granular, not necessarily
                    // word-aligned base, often straddling lines.
                    let base = u64::from(rng.gen_range(0..6_200u32));
                    let words = 1 + rng.gen_range(0..24u32);
                    let domain = if base < 4_000 {
                        Domain::Os
                    } else {
                        Domain::App
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
                    assert_eq!(
                        fast,
                        oracle.len() as u64,
                        "line {line} ways {ways} step {step}"
                    );
                    assert_eq!(reported, oracle, "line {line} ways {ways} step {step}");
                    assert_eq!(coalesced.stats(), per_word.stats());
                }
                assert_eq!(
                    coalesced.report(),
                    per_word.report(),
                    "line {line} ways {ways}"
                );
            }
        }
    }

    #[test]
    fn section_fields_expose_the_regression_surface() {
        let mut c = rig();
        for i in 0..30u64 {
            c.access(if i % 2 == 0 { 0 } else { 64 }, Domain::Os);
        }
        let fields = c.report().section_fields();
        let get = |k: &str| {
            fields
                .iter()
                .find(|(n, _)| n == k)
                .unwrap_or_else(|| panic!("missing field {k}"))
                .1
        };
        assert_eq!(get("misses"), 30.0);
        assert_eq!(get("compulsory") + get("capacity") + get("conflict"), 30.0);
        assert!(get("matrix_total") > 0.0);
        assert!(get("top_pair_count") > 0.0);
        assert!(get("census_miss.MainSeq") > 0.0);
    }
}
