//! Symbolic loop-summary abstract interpretation (`alter-cli absint`).
//!
//! PR 5's [`LoopSummary`] is a *dynamic* artifact: everything the analyzer
//! knows it learned by replaying the loop once. This module adds the static
//! half of the synergy: each workload declares its loop body's accesses as
//! symbolic expressions over the iteration ordinal (a [`LoopSpec`]), and an
//! abstract interpreter evaluates them under an interval × stride
//! (congruence) domain ([`StrideInterval`]) into a [`StaticSummary`] —
//! symbolic per-iteration footprints plus dependence edges with symbolic
//! iteration distances — without executing a single iteration.
//!
//! Two consumers sit on top:
//!
//! * [`static_verdict`] mirrors the dynamic predictor's [`Verdict`] with a
//!   *two-sided* answer: [`StaticVerdict::ProvedSafe`] (the probe must
//!   succeed — no loop-carried edges and the per-transaction footprint fits
//!   the budget), [`StaticVerdict::ProvedUnsound`] (the probe must fail —
//!   iteration 0's unconditional footprint alone exceeds the tracked-words
//!   budget), or [`StaticVerdict::Unknown`] (fall back to the dynamic
//!   tier). The inference engine skips the probe entirely in the first two
//!   cases.
//! * [`cross_validate`] enforces the soundness contract structurally:
//!   `static ⊇ dynamic` — every word the replay observed must be covered by
//!   a declared access, and every observed dependence edge must be covered
//!   by a static edge whose distance interval contains the observed
//!   distances. A `LoopSpec` that under-declares its loop fails tier-1.
//!
//! The domain is deliberately small. A [`StrideInterval`] `⟨lo, hi, s⟩`
//! concretises to `{lo, lo+s, …, hi}` (`s = 0` means the singleton `{lo}`);
//! `join` falls back to the gcd congruence and `add` is the standard sound
//! transfer function. [`interpret`] evaluates each access once over the
//! whole iteration interval, so no chain of joins needs widening. Seeded
//! property tests in `tests/absint.rs` check both sound and monotone
//! against concrete u64 sets.

use crate::classify::Verdict;
use alter_heap::ObjId;
use alter_runtime::{ConflictPolicy, DepEdge, DepKind, ExecParams, LoopSummary, RedOp};
use std::collections::BTreeSet;
use std::fmt;

/// Greatest common divisor with the lattice convention `gcd(0, x) = x`.
fn gcd(a: u64, b: u64) -> u64 {
    if a == 0 {
        b
    } else {
        gcd(b % a, a)
    }
}

/// A non-empty interval-with-congruence abstract value over `u64`:
/// `γ(⟨lo, hi, s⟩) = {lo + k·s | k ≥ 0, lo + k·s ≤ hi}`, with `s = 0`
/// denoting the singleton `{lo}` (then `hi == lo`).
///
/// Invariants (maintained by every constructor and transfer function):
/// `lo ≤ hi`; `s == 0 ⇔ lo == hi`; `s > 0 ⇒ (hi − lo) % s == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StrideInterval {
    /// Smallest element.
    pub lo: u64,
    /// Largest element.
    pub hi: u64,
    /// Congruence stride (0 for a singleton).
    pub stride: u64,
}

impl StrideInterval {
    /// Normalises raw bounds into a valid value: clamps `hi` down to the
    /// largest element reachable from `lo` by whole strides.
    fn norm(lo: u64, hi: u64, stride: u64) -> Self {
        debug_assert!(lo <= hi);
        if lo == hi || stride == 0 {
            return StrideInterval {
                lo,
                hi: lo,
                stride: 0,
            };
        }
        let hi = lo + ((hi - lo) / stride) * stride;
        if hi == lo {
            StrideInterval { lo, hi, stride: 0 }
        } else {
            StrideInterval { lo, hi, stride }
        }
    }

    /// The singleton `{c}`.
    pub fn constant(c: u64) -> Self {
        StrideInterval {
            lo: c,
            hi: c,
            stride: 0,
        }
    }

    /// The dense range `{lo, lo+1, …, hi}` (inclusive bounds).
    pub fn range(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "empty range");
        Self::norm(lo, hi, 1)
    }

    /// The affine image `{offset + scale·i | 0 ≤ i < n}` of an `n`-element
    /// iteration space (`n ≥ 1`).
    pub fn affine(scale: u64, offset: u64, n: u64) -> Self {
        assert!(n >= 1, "empty iteration space");
        if scale == 0 || n == 1 {
            return Self::constant(offset);
        }
        StrideInterval {
            lo: offset,
            hi: offset + scale * (n - 1),
            stride: scale,
        }
    }

    /// Whether `v ∈ γ(self)`.
    pub fn contains(&self, v: u64) -> bool {
        if v < self.lo || v > self.hi {
            return false;
        }
        if self.stride == 0 {
            v == self.lo
        } else {
            (v - self.lo).is_multiple_of(self.stride)
        }
    }

    /// Whether `γ(other) ⊆ γ(self)`.
    pub fn covers(&self, other: &StrideInterval) -> bool {
        if other.lo < self.lo || other.hi > self.hi {
            return false;
        }
        if self.stride == 0 {
            return other.stride == 0 && other.lo == self.lo;
        }
        // Every element of `other` is ≡ other.lo (mod other.stride); they
        // all land on self's lattice iff other.lo does and the stride is a
        // multiple.
        self.contains(other.lo) && other.stride.is_multiple_of(self.stride)
    }

    /// Number of concrete elements.
    pub fn count(&self) -> u64 {
        match (self.hi - self.lo).checked_div(self.stride) {
            None => 1, // stride 0: singleton
            Some(steps) => steps + 1,
        }
    }

    /// Least upper bound: the tightest stride interval containing both —
    /// interval hull on the bounds, gcd on the congruence.
    pub fn join(&self, other: &StrideInterval) -> Self {
        let lo = self.lo.min(other.lo);
        let hi = self.hi.max(other.hi);
        let diff = self.lo.abs_diff(other.lo);
        let stride = gcd(gcd(self.stride, other.stride), diff);
        Self::norm(lo, hi, if lo == hi { 0 } else { stride.max(1) })
    }

    /// Sound addition: `γ(a) + γ(b) ⊆ γ(a.add(b))` (element-wise sums).
    pub fn add(&self, other: &StrideInterval) -> Self {
        let lo = self.lo.saturating_add(other.lo);
        let hi = self.hi.saturating_add(other.hi);
        let stride = gcd(self.stride, other.stride);
        Self::norm(lo, hi, if lo == hi { 0 } else { stride.max(1) })
    }
}

impl fmt::Display for StrideInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stride == 0 {
            write!(f, "{{{}}}", self.lo)
        } else if self.stride == 1 {
            write!(f, "[{}..{}]", self.lo, self.hi)
        } else {
            write!(f, "[{}..{}]%{}", self.lo, self.hi, self.stride)
        }
    }
}

/// A named set of heap allocations a loop touches, declared up front.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Human-readable name (rendered by `alter-cli deps <workload>`).
    pub name: &'static str,
    /// The member allocations, in declaration order. [`Member::Each`]
    /// indexes this vector by iteration ordinal.
    pub objects: Vec<ObjId>,
    /// Words per member object (the declared upper bound on word indices).
    pub words_per_object: u32,
    /// Reduction-variable label, when the region backs a named scalar.
    pub label: Option<&'static str>,
}

/// Which member(s) of a region one access may touch at iteration ordinal
/// `i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Member {
    /// `objects[i]` — the ordinal-indexed member. The map `i ↦ objects[i]`
    /// is injective, so two distinct iterations touch distinct objects;
    /// `Each`-vs-`Each` pairs never produce a loop-carried edge. (The
    /// cross-validation gate falsifies a spec that mislabels a
    /// non-injective access as `Each`.)
    Each,
    /// The fixed member `objects[k]`.
    At(usize),
    /// Every member, every iteration.
    All,
    /// A data-dependent member — may be any subset of the region.
    Some,
}

/// Which words of the touched member(s) an access may cover at ordinal `i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Words {
    /// The affine window `[scale·i + offset, scale·i + offset + width)`.
    Affine {
        /// Per-ordinal stride of the window start.
        scale: u64,
        /// Window start at ordinal 0.
        offset: u64,
        /// Window width in words.
        width: u32,
    },
    /// The fixed window `[lo, hi)`.
    Range {
        /// First word.
        lo: u32,
        /// One past the last word.
        hi: u32,
    },
    /// Data-dependent words somewhere within `[0, bound)`.
    Unknown {
        /// Exclusive upper bound on touched word indices.
        bound: u32,
    },
}

impl Words {
    /// Width in words of the window this access may touch in one
    /// iteration.
    fn width(&self) -> u64 {
        match *self {
            Words::Affine { width, .. } => width as u64,
            Words::Range { lo, hi } => (hi - lo) as u64,
            Words::Unknown { bound } => bound as u64,
        }
    }

    /// Whether the window is exactly determined (usable in must-footprint
    /// reasoning).
    fn is_exact(&self) -> bool {
        !matches!(self, Words::Unknown { .. })
    }

    /// The concrete word window at ordinal `i`, as `[lo, hi)`. For
    /// [`Words::Unknown`] this is the may-window `[0, bound)`.
    fn at(&self, i: u64) -> (u64, u64) {
        match *self {
            Words::Affine {
                scale,
                offset,
                width,
            } => {
                let lo = scale * i + offset;
                (lo, lo + width as u64)
            }
            Words::Range { lo, hi } => (lo as u64, hi as u64),
            Words::Unknown { bound } => (0, bound as u64),
        }
    }

    /// The symbolic word footprint over the whole `n`-iteration loop, as a
    /// stride interval of word indices.
    fn over_loop(&self, n: u64) -> StrideInterval {
        match *self {
            Words::Affine {
                scale,
                offset,
                width,
            } => {
                let starts = StrideInterval::affine(scale, offset, n);
                if width <= 1 {
                    starts
                } else {
                    starts.add(&StrideInterval::range(0, width as u64 - 1))
                }
            }
            Words::Range { lo, hi } => StrideInterval::range(lo as u64, hi.max(lo + 1) as u64 - 1),
            Words::Unknown { bound } => StrideInterval::range(0, bound.max(1) as u64 - 1),
        }
    }
}

/// How an access touches its words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Pure read.
    Read,
    /// Pure (blind) write.
    Write,
    /// Read-modify-write.
    Update,
    /// Read-modify-write routed through one commutative reduction
    /// operator (a `BoundScalar::apply`).
    Reduce(RedOp),
}

impl AccessKind {
    fn reads(self) -> bool {
        !matches!(self, AccessKind::Write)
    }

    fn writes(self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

/// One declared access of the loop body: region × member × words × kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessSpec {
    /// Index into [`LoopSpec::regions`].
    pub region: usize,
    /// Member selector.
    pub member: Member,
    /// Word selector.
    pub words: Words,
    /// Access kind.
    pub kind: AccessKind,
    /// Whether the access may be skipped in some iterations (guards,
    /// early exits). Conditional accesses still contribute to the
    /// may-footprint and may-edges, but never to must-footprints.
    pub conditional: bool,
}

/// The declarative loop IR: a symbolic description of the same loop
/// instance `probe_summary` replays — a workload builds both from one
/// start function, so they name the same `ObjId`s — which is what makes
/// [`cross_validate`] an exact check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopSpec {
    /// Iteration (replay-ordinal) count.
    pub iterations: u64,
    /// Declared regions.
    pub regions: Vec<Region>,
    /// Declared accesses.
    pub accesses: Vec<AccessSpec>,
    /// Allocation watermark at loop entry: objects with
    /// `ObjId::index() ≥ watermark` are loop-local allocations.
    pub watermark: u32,
    /// Whether the body may allocate mid-loop (e.g. hash-set overflow
    /// buckets). Allocated objects may be read or written by any later
    /// iteration, so this implies may-edges of every kind.
    pub allocates: bool,
}

impl LoopSpec {
    /// A spec for an `n`-iteration loop over a heap whose high-water mark
    /// at loop entry is `watermark`.
    pub fn new(iterations: u64, watermark: u32) -> Self {
        LoopSpec {
            iterations,
            regions: Vec::new(),
            accesses: Vec::new(),
            watermark,
            allocates: false,
        }
    }

    /// Declares a region; returns its index for use in access specs.
    pub fn region(
        &mut self,
        name: &'static str,
        objects: Vec<ObjId>,
        words_per_object: u32,
    ) -> usize {
        self.regions.push(Region {
            name,
            objects,
            words_per_object,
            label: None,
        });
        self.regions.len() - 1
    }

    /// Declares a region backing the named reduction scalar.
    pub fn labeled_region(&mut self, name: &'static str, obj: ObjId, label: &'static str) -> usize {
        self.regions.push(Region {
            name,
            objects: vec![obj],
            words_per_object: 1,
            label: Some(label),
        });
        self.regions.len() - 1
    }

    /// Declares an unconditional access.
    pub fn access(&mut self, region: usize, member: Member, words: Words, kind: AccessKind) {
        self.push(region, member, words, kind, false);
    }

    /// Declares a conditional access (may be skipped in some iterations).
    pub fn access_if(&mut self, region: usize, member: Member, words: Words, kind: AccessKind) {
        self.push(region, member, words, kind, true);
    }

    fn push(
        &mut self,
        region: usize,
        member: Member,
        words: Words,
        kind: AccessKind,
        conditional: bool,
    ) {
        assert!(region < self.regions.len(), "undeclared region");
        self.accesses.push(AccessSpec {
            region,
            member,
            words,
            kind,
            conditional,
        });
    }

    /// Marks the loop as allocating mid-iteration (watermark escape).
    pub fn allocates(&mut self) {
        self.allocates = true;
    }

    /// The region containing `obj`, if any.
    pub fn region_of(&self, obj: ObjId) -> Option<usize> {
        self.regions.iter().position(|r| r.objects.contains(&obj))
    }

    /// Whether `obj` is a loop-local allocation under the watermark rule.
    pub fn is_loop_local(&self, obj: ObjId) -> bool {
        self.allocates && obj.index() >= self.watermark
    }
}

/// Region index of the synthetic "loop-local allocations" pseudo-region in
/// [`StaticEdge::region`].
pub const ALLOC_REGION: usize = usize::MAX;

/// One symbolic dependence edge: all iteration pairs of one kind that may
/// collide within one region, with a symbolic distance interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticEdge {
    /// Dependence kind.
    pub kind: DepKind,
    /// Region index ([`ALLOC_REGION`] for the mid-loop allocation
    /// pseudo-region).
    pub region: usize,
    /// Symbolic iteration distances the edge may span.
    pub dist: StrideInterval,
    /// Whether the edge provably occurs (both endpoint accesses
    /// unconditional with exactly-determined members and words), as
    /// opposed to merely may occur.
    pub must: bool,
}

/// Per-region symbolic word footprints (union over the whole loop).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionFootprint {
    /// Region index.
    pub region: usize,
    /// Word indices any iteration may read, or `None` if never read.
    pub read_words: Option<StrideInterval>,
    /// Word indices any iteration may write, or `None` if never written.
    pub write_words: Option<StrideInterval>,
}

/// The abstract interpreter's result: symbolic footprints, symbolic
/// dependence edges, and the footprint scalars the verdict rules consume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticSummary {
    /// Iteration count (copied from the spec).
    pub iterations: u64,
    /// Per-region footprints, in region order.
    pub footprints: Vec<RegionFootprint>,
    /// Symbolic dependence edges, ascending by (region, kind).
    pub edges: Vec<StaticEdge>,
    /// Upper bound on one iteration's tracked words under read-and-write
    /// tracking (RAW/Full policies).
    pub may_iter_words_rw: u64,
    /// Upper bound on one iteration's tracked words under write-only
    /// tracking (WAW policy).
    pub may_iter_words_w: u64,
    /// Lower bound on iteration 0's distinct tracked words under
    /// read-and-write tracking: unconditional accesses with exactly
    /// determined members and words only.
    pub must_first_words_rw: u64,
    /// Same lower bound under write-only tracking.
    pub must_first_words_w: u64,
    /// Whether the loop may allocate mid-iteration.
    pub allocates: bool,
}

impl StaticSummary {
    /// Whether a dynamic edge is covered by some static edge: same kind,
    /// same region (or the allocation pseudo-region), distance interval
    /// containing the observed extremes.
    pub fn covers_edge(&self, spec: &LoopSpec, edge: &DepEdge) -> bool {
        let region = match spec.region_of(edge.obj) {
            Some(r) => Some(r),
            None if spec.is_loop_local(edge.obj) => None, // ALLOC_REGION
            None => return false,
        };
        let want = region.unwrap_or(ALLOC_REGION);
        self.edges.iter().any(|e| {
            e.kind == edge.kind
                && e.region == want
                && e.dist.contains(edge.min_dist)
                && e.dist.contains(edge.max_dist)
                && e.dist.lo <= edge.min_dist
                && e.dist.hi >= edge.max_dist
        })
    }
}

/// Member selectors `x@i` and `y@j` (i ≠ j) may name the same object.
fn members_may_alias(x: Member, y: Member) -> bool {
    !matches!((x, y), (Member::Each, Member::Each))
}

/// The loop-carried distance interval over which `earlier`'s window may
/// overlap `later`'s window `d ≥ 1` iterations later, or `None` if they
/// provably never collide. `n` is the iteration count.
fn carried_distances(earlier: &Words, later: &Words, n: u64) -> Option<StrideInterval> {
    if n < 2 {
        return None;
    }
    let full = StrideInterval::range(1, n - 1);
    match (earlier, later) {
        (
            Words::Affine {
                scale: a1,
                offset: b1,
                width: w1,
            },
            Words::Affine {
                scale: a2,
                offset: b2,
                width: w2,
            },
        ) if a1 == a2 && *a1 > 0 => {
            // earlier@i covers [a·i + b1, +w1); later@(i+d) covers
            // [a·(i+d) + b2, +w2). They intersect iff
            // a·d ∈ (b1 − b2 − w2, b1 − b2 + w1), i.e. for integer d in a
            // window of width < (w1 + w2)/a + 1 around (b1 − b2)/a.
            let a = *a1 as i128;
            let b1 = *b1 as i128;
            let b2 = *b2 as i128;
            let (w1, w2) = (*w1 as i128, *w2 as i128);
            let lo_num = b1 - b2 - w2 + 1; // a·d ≥ lo_num
            let hi_num = b1 - b2 + w1 - 1; // a·d ≤ hi_num
            let d_lo = lo_num.div_euclid(a) + i128::from(lo_num.rem_euclid(a) != 0);
            let d_hi = hi_num.div_euclid(a);
            let lo = d_lo.max(1);
            let hi = d_hi.min(n as i128 - 1);
            if lo > hi {
                None
            } else {
                Some(StrideInterval::range(lo as u64, hi as u64))
            }
        }
        _ => {
            // At least one side's window reaches every ordinal (fixed
            // range, unknown, or mismatched affine scales): fall back to
            // an interval-hull intersection test over the whole loop.
            let e = earlier.over_loop(n);
            let l = later.over_loop(n);
            if e.lo <= l.hi && l.lo <= e.hi {
                Some(full)
            } else {
                None
            }
        }
    }
}

/// Evaluates a [`LoopSpec`] under the stride-interval domain into a
/// [`StaticSummary`] — footprints, edges, and the must/may scalars — in
/// time polynomial in the number of declared accesses, independent of the
/// iteration count.
pub fn interpret(spec: &LoopSpec) -> StaticSummary {
    let n = spec.iterations.max(1);

    // Per-region symbolic footprints.
    let mut footprints = Vec::with_capacity(spec.regions.len());
    for (ri, _region) in spec.regions.iter().enumerate() {
        let mut read_words: Option<StrideInterval> = None;
        let mut write_words: Option<StrideInterval> = None;
        for a in spec.accesses.iter().filter(|a| a.region == ri) {
            let w = a.words.over_loop(n);
            if a.kind.reads() {
                read_words = Some(read_words.map_or(w, |r| r.join(&w)));
            }
            if a.kind.writes() {
                write_words = Some(write_words.map_or(w, |r| r.join(&w)));
            }
        }
        footprints.push(RegionFootprint {
            region: ri,
            read_words,
            write_words,
        });
    }

    // Per-iteration may-footprint upper bounds (duplicates over-counted —
    // it is an upper bound).
    let mut may_rw = 0u64;
    let mut may_w = 0u64;
    for a in &spec.accesses {
        let members = match a.member {
            Member::Each | Member::At(_) => 1,
            Member::All | Member::Some => spec.regions[a.region].objects.len() as u64,
        };
        let words = members * a.words.width();
        if a.kind.writes() {
            may_w += words;
        }
        may_rw += words;
    }

    // Iteration-0 must-footprint lower bounds: distinct (object, word)
    // pairs of unconditional accesses whose members and words are exactly
    // determined at ordinal 0.
    let mut must_rw: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut must_w: BTreeSet<(u32, u64)> = BTreeSet::new();
    for a in &spec.accesses {
        if a.conditional || !a.words.is_exact() {
            continue;
        }
        let region = &spec.regions[a.region];
        let objs: Vec<ObjId> = match a.member {
            Member::Each => region.objects.first().copied().into_iter().collect(),
            Member::At(k) => region.objects.get(k).copied().into_iter().collect(),
            Member::All => region.objects.clone(),
            Member::Some => Vec::new(),
        };
        let (lo, hi) = a.words.at(0);
        for obj in objs {
            for w in lo..hi {
                must_rw.insert((obj.index(), w));
                if a.kind.writes() {
                    must_w.insert((obj.index(), w));
                }
            }
        }
    }

    // Symbolic edges: for every same-region spec pair whose members may
    // alias across iterations, intersect the word windows at symbolic
    // distance d and classify by direction. The aggregated edge per
    // (region, kind) joins the distance intervals.
    let mut edges: Vec<StaticEdge> = Vec::new();
    let mut add_edge = |kind: DepKind, region: usize, dist: StrideInterval, must: bool| {
        if let Some(e) = edges
            .iter_mut()
            .find(|e| e.kind == kind && e.region == region)
        {
            e.dist = e.dist.join(&dist);
            e.must |= must;
        } else {
            edges.push(StaticEdge {
                kind,
                region,
                dist,
                must,
            });
        }
    };
    for (xi, x) in spec.accesses.iter().enumerate() {
        for y in &spec.accesses[xi..] {
            if x.region != y.region {
                continue;
            }
            for (earlier, later) in [(x, y), (y, x)] {
                if !members_may_alias(earlier.member, later.member) {
                    continue;
                }
                let must_pair = !earlier.conditional
                    && !later.conditional
                    && earlier.words.is_exact()
                    && later.words.is_exact()
                    && !matches!(earlier.member, Member::Some)
                    && !matches!(later.member, Member::Some)
                    // Only fully-aliasing member pairs make the collision
                    // certain at every distance the words allow.
                    && matches!(
                        (earlier.member, later.member),
                        (Member::All, _) | (_, Member::All) | (Member::At(_), Member::At(_))
                    );
                if let Some(d) = carried_distances(&earlier.words, &later.words, n) {
                    if earlier.kind.writes() && later.kind.reads() {
                        add_edge(DepKind::Raw, x.region, d, must_pair);
                    }
                    if earlier.kind.writes() && later.kind.writes() {
                        add_edge(DepKind::Waw, x.region, d, must_pair);
                    }
                    if earlier.kind.reads() && later.kind.writes() {
                        add_edge(DepKind::War, x.region, d, must_pair);
                    }
                }
                if std::ptr::eq(earlier, later) {
                    break; // self-pair: both directions coincide
                }
            }
        }
    }
    if spec.allocates && n >= 2 {
        // Mid-loop allocations may be revisited by any later iteration
        // (hash-set overflow chains): admit every edge kind on the
        // pseudo-region at every distance.
        let full = StrideInterval::range(1, n - 1);
        for kind in [DepKind::Raw, DepKind::Waw, DepKind::War] {
            add_edge(kind, ALLOC_REGION, full, false);
        }
    }
    edges.sort_by_key(|e| (e.region, e.kind));

    StaticSummary {
        iterations: spec.iterations,
        footprints,
        edges,
        may_iter_words_rw: may_rw,
        may_iter_words_w: may_w,
        must_first_words_rw: must_rw.len() as u64,
        must_first_words_w: must_w.len() as u64,
        allocates: spec.allocates,
    }
}

/// A two-sided static verdict for one probe, mirroring the dynamic
/// predictor's [`Verdict`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StaticVerdict {
    /// The probe must succeed: no loop-carried edges exist (any commit
    /// order reproduces the sequential output with zero conflicts) and the
    /// per-transaction footprint provably fits the tracked-words budget.
    ProvedSafe,
    /// The probe must fail, with the predicted dynamic verdict (currently
    /// always an out-of-memory abort: iteration 0's unconditional
    /// footprint alone exceeds the budget).
    ProvedUnsound(Verdict),
    /// No static proof either way — consult the dynamic tier.
    Unknown,
}

impl StaticVerdict {
    /// Short stable class name (`safe`, `o.o.m.`, `unknown`), used by
    /// `VERDICTS.json`.
    pub fn class(&self) -> &'static str {
        match self {
            StaticVerdict::ProvedSafe => "safe",
            StaticVerdict::ProvedUnsound(v) => v.class(),
            StaticVerdict::Unknown => "unknown",
        }
    }
}

impl fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticVerdict::ProvedSafe => write!(f, "proved safe"),
            StaticVerdict::ProvedUnsound(v) => write!(f, "proved unsound: {v}"),
            StaticVerdict::Unknown => write!(f, "unknown"),
        }
    }
}

/// Derives the static verdict for a probe run under `params`: its conflict
/// policy, chunk factor and tracked-words budget.
///
/// Both proofs are sound without margins, unlike the dynamic predictor's:
///
/// * the unsound proof compares a true *lower* bound (iteration 0's
///   unconditional, exactly-determined footprint — a subset of the first
///   transaction's real tracked set under any chunking) against the
///   budget, so `must > budget` implies the real probe aborts
///   out-of-memory. This closes the dynamic predictor's abstention band:
///   `predict` must return `Unknown` when the replayed chunk footprint
///   lands between `budget` and twice the budget.
/// * the safe proof requires the absence of *any* loop-carried edge (so
///   every schedule commits first-try and reproduces the sequential
///   output exactly) plus a per-transaction *upper* bound
///   (`chunk × per-iteration may-footprint`) within the budget, so the
///   probe cannot abort, conflict, or time out.
pub fn static_verdict(summary: &StaticSummary, params: &ExecParams) -> StaticVerdict {
    let (policy, budget) = (params.conflict, params.budget_words);
    if policy == ConflictPolicy::None {
        // DOALL tracks nothing and is judged on output alone — not
        // provable from footprints.
        return StaticVerdict::Unknown;
    }
    let tracks_reads = policy.track_mode().tracks_reads();
    let must = if tracks_reads {
        summary.must_first_words_rw
    } else {
        summary.must_first_words_w
    };
    if must > budget {
        return StaticVerdict::ProvedUnsound(Verdict::OutOfMemory {
            words: must,
            budget,
        });
    }
    let may_chunk = (params.chunk as u64).saturating_mul(if tracks_reads {
        summary.may_iter_words_rw
    } else {
        summary.may_iter_words_w
    });
    if summary.edges.is_empty() && !summary.allocates && may_chunk <= budget {
        return StaticVerdict::ProvedSafe;
    }
    StaticVerdict::Unknown
}

/// Checks the `static ⊇ dynamic` soundness contract of one workload's
/// [`LoopSpec`] against its replayed [`LoopSummary`]: every observed word
/// access must be covered by a declared access at its ordinal, and every
/// observed dependence edge by a static edge containing its distances.
/// Returns human-readable violations (empty = the spec over-approximates).
pub fn cross_validate(
    spec: &LoopSpec,
    summary: &StaticSummary,
    dynamic: &LoopSummary,
) -> Vec<String> {
    let mut violations = Vec::new();
    if spec.iterations != dynamic.iterations {
        violations.push(format!(
            "iteration count: spec declares {}, replay observed {}",
            spec.iterations, dynamic.iterations
        ));
        return violations;
    }

    // Location coverage: each observed (ordinal, object, word, mode) must
    // fall inside the union of the matching specs' windows at that
    // ordinal.
    let cover = |ordinal: u64, obj: ObjId, word: u64, want_write: bool| -> bool {
        if spec.is_loop_local(obj) {
            return true;
        }
        spec.accesses.iter().any(|a| {
            if want_write && !a.kind.writes() {
                return false;
            }
            if !want_write && !a.kind.reads() {
                return false;
            }
            let region = &spec.regions[a.region];
            let member_hit = match a.member {
                Member::Each => region.objects.get(ordinal as usize) == Some(&obj),
                Member::At(k) => region.objects.get(k) == Some(&obj),
                Member::All | Member::Some => region.objects.contains(&obj),
            };
            if !member_hit {
                return false;
            }
            let (lo, hi) = a.words.at(ordinal);
            lo <= word && word < hi
        })
    };
    'iters: for (ordinal, it) in dynamic.iters.iter().enumerate() {
        let ordinal = ordinal as u64;
        for (ranges, want_write, what) in [(&it.reads, false, "read"), (&it.writes, true, "write")]
        {
            for &(obj, lo, hi) in ranges.iter() {
                for w in lo..hi {
                    if !cover(ordinal, obj, w as u64, want_write) {
                        violations.push(format!(
                            "iteration {ordinal}: {what} of obj {} word {w} not covered by any \
                             declared access",
                            obj.index()
                        ));
                        if violations.len() >= 8 {
                            break 'iters; // enough evidence; stay readable
                        }
                    }
                }
            }
        }
    }

    // Edge coverage.
    for e in &dynamic.edges {
        if !summary.covers_edge(spec, e) {
            violations.push(format!(
                "{} edge on obj {} (dist {}..{}) not covered by any static edge",
                e.kind,
                e.obj.index(),
                e.min_dist,
                e.max_dist
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn si(lo: u64, hi: u64, stride: u64) -> StrideInterval {
        StrideInterval::norm(lo, hi, stride)
    }

    #[test]
    fn constructors_normalise() {
        assert_eq!(StrideInterval::constant(5), si(5, 5, 0));
        assert_eq!(StrideInterval::range(2, 2), si(2, 2, 0));
        assert_eq!(StrideInterval::affine(4, 1, 3), si(1, 9, 4));
        assert_eq!(StrideInterval::affine(0, 7, 10), si(7, 7, 0));
        assert_eq!(StrideInterval::affine(3, 0, 1), si(0, 0, 0));
    }

    #[test]
    fn contains_respects_congruence() {
        let x = StrideInterval::affine(4, 1, 3); // {1, 5, 9}
        assert!(x.contains(1) && x.contains(5) && x.contains(9));
        assert!(!x.contains(3) && !x.contains(13) && !x.contains(0));
        assert_eq!(x.count(), 3);
    }

    #[test]
    fn join_takes_gcd_congruence() {
        let a = StrideInterval::affine(6, 0, 4); // {0, 6, 12, 18}
        let b = StrideInterval::affine(4, 2, 3); // {2, 6, 10}
        let j = a.join(&b);
        // gcd(6, 4, |0-2|) = 2.
        assert_eq!(j, si(0, 18, 2));
        for v in [0, 6, 12, 18, 2, 10] {
            assert!(j.contains(v));
        }
    }

    #[test]
    fn add_and_mul_are_sound_on_examples() {
        let a = StrideInterval::affine(2, 1, 3); // {1, 3, 5}
        let b = StrideInterval::affine(4, 0, 2); // {0, 4}
        let s = a.add(&b);
        for x in [1u64, 3, 5] {
            for y in [0u64, 4] {
                assert!(s.contains(x + y), "{} ∉ {s}", x + y);
            }
        }
    }

    /// A tiny spec: per-iteration rows (Each) plus a shared accumulator.
    fn toy_spec() -> LoopSpec {
        let mut s = LoopSpec::new(8, 10);
        let rows = s.region("rows", (0..8).map(ObjId::from_index).collect(), 4);
        let acc = s.region("acc", vec![ObjId::from_index(9)], 1);
        s.access(
            rows,
            Member::Each,
            Words::Range { lo: 0, hi: 4 },
            AccessKind::Update,
        );
        s.access(
            acc,
            Member::At(0),
            Words::Range { lo: 0, hi: 1 },
            AccessKind::Update,
        );
        s
    }

    #[test]
    fn each_members_produce_no_edges_but_shared_members_do() {
        let s = toy_spec();
        let sum = interpret(&s);
        // The rows region is Each-only: no edges on region 0.
        assert!(sum.edges.iter().all(|e| e.region != 0));
        // The accumulator has all three kinds at distance [1, 7].
        for kind in [DepKind::Raw, DepKind::Waw, DepKind::War] {
            let e = sum
                .edges
                .iter()
                .find(|e| e.kind == kind && e.region == 1)
                .expect("accumulator edge");
            assert_eq!((e.dist.lo, e.dist.hi), (1, 7));
            assert!(e.must);
        }
    }

    #[test]
    fn affine_injective_writes_prove_waw_absence() {
        // write x[i] vs read x[0..n]: RAW/WAR at all distances, no WAW.
        let mut s = LoopSpec::new(8, 1);
        let x = s.region("x", vec![ObjId::from_index(0)], 8);
        s.access(
            x,
            Member::At(0),
            Words::Affine {
                scale: 1,
                offset: 0,
                width: 1,
            },
            AccessKind::Write,
        );
        s.access(
            x,
            Member::At(0),
            Words::Range { lo: 0, hi: 8 },
            AccessKind::Read,
        );
        let sum = interpret(&s);
        assert!(sum.edges.iter().any(|e| e.kind == DepKind::Raw));
        assert!(sum.edges.iter().any(|e| e.kind == DepKind::War));
        assert!(
            sum.edges.iter().all(|e| e.kind != DepKind::Waw),
            "affine scale-1 width-1 writes are injective: {:?}",
            sum.edges
        );
    }

    #[test]
    fn affine_offset_collisions_have_exact_distance() {
        // write x[i+1] vs read x[i]: RAW at exactly distance 1... direction:
        // earlier write@i covers i+1, later read@(i+d) covers i+d — collide
        // iff d = 1.
        let mut s = LoopSpec::new(8, 1);
        let x = s.region("x", vec![ObjId::from_index(0)], 16);
        s.access(
            x,
            Member::At(0),
            Words::Affine {
                scale: 1,
                offset: 1,
                width: 1,
            },
            AccessKind::Write,
        );
        s.access(
            x,
            Member::At(0),
            Words::Affine {
                scale: 1,
                offset: 0,
                width: 1,
            },
            AccessKind::Read,
        );
        let sum = interpret(&s);
        let raw = sum
            .edges
            .iter()
            .find(|e| e.kind == DepKind::Raw)
            .expect("RAW edge");
        assert_eq!((raw.dist.lo, raw.dist.hi), (1, 1));
    }

    #[test]
    fn verdicts_cover_all_three_classes() {
        // A probe at chunk 16 with a 64-word budget under `policy`.
        let at = |policy| {
            let mut p = ExecParams::new(4, 16);
            p.conflict = policy;
            p.budget_words = 64;
            p
        };
        // Safe: Each-only rows, tiny footprint.
        let mut safe = LoopSpec::new(8, 10);
        let rows = safe.region("rows", (0..8).map(ObjId::from_index).collect(), 2);
        safe.access(
            rows,
            Member::Each,
            Words::Range { lo: 0, hi: 2 },
            AccessKind::Update,
        );
        let s = interpret(&safe);
        assert_eq!(
            static_verdict(&s, &at(ConflictPolicy::Raw)),
            StaticVerdict::ProvedSafe
        );
        assert_eq!(
            static_verdict(&s, &at(ConflictPolicy::Waw)),
            StaticVerdict::ProvedSafe
        );
        assert_eq!(
            static_verdict(&s, &at(ConflictPolicy::None)),
            StaticVerdict::Unknown
        );

        // Unsound under read tracking: iteration 0 must read 100 words.
        let mut heavy = LoopSpec::new(4, 200);
        let all = heavy.region("table", (0..100).map(ObjId::from_index).collect(), 1);
        heavy.access(
            all,
            Member::All,
            Words::Range { lo: 0, hi: 1 },
            AccessKind::Read,
        );
        heavy.access(
            all,
            Member::Each,
            Words::Range { lo: 0, hi: 1 },
            AccessKind::Write,
        );
        let h = interpret(&heavy);
        match static_verdict(&h, &at(ConflictPolicy::Raw)) {
            StaticVerdict::ProvedUnsound(Verdict::OutOfMemory { words, budget }) => {
                assert_eq!(words, 100);
                assert_eq!(budget, 64);
            }
            other => panic!("expected o.o.m., got {other:?}"),
        }
        // Write-only tracking stays within budget but the RAW/WAR edges
        // block a safe proof: unknown.
        assert_eq!(
            static_verdict(&h, &at(ConflictPolicy::Waw)),
            StaticVerdict::Unknown
        );
    }

    #[test]
    fn toy_spec_cross_validates_against_a_matching_replay() {
        use alter_heap::{Heap, ObjData};
        use alter_runtime::{summarize_dependences, RangeSpace};
        let mut heap = Heap::new();
        let rows: Vec<ObjId> = (0..8).map(|_| heap.alloc(ObjData::zeros_i64(4))).collect();
        let extra = heap.alloc(ObjData::zeros_i64(2)); // pad to watermark 9
        let acc = heap.alloc(ObjData::scalar_i64(0));
        let _ = extra;
        let dynamic = summarize_dependences(&mut heap, &mut RangeSpace::new(0, 8), |ctx, i| {
            let v = ctx.tx.read_i64(rows[i as usize], 0);
            ctx.tx.write_i64(rows[i as usize], 3, v + 1);
            let a = ctx.tx.read_i64(acc, 0);
            ctx.tx.write_i64(acc, 0, a + 1);
        });

        let mut s = LoopSpec::new(8, heap.high_water());
        let r = s.region("rows", rows.clone(), 4);
        let a = s.region("acc", vec![acc], 1);
        s.access(
            r,
            Member::Each,
            Words::Range { lo: 0, hi: 4 },
            AccessKind::Update,
        );
        s.access(
            a,
            Member::At(0),
            Words::Range { lo: 0, hi: 1 },
            AccessKind::Update,
        );
        let sum = interpret(&s);
        assert_eq!(cross_validate(&s, &sum, &dynamic), Vec::<String>::new());

        // Under-declaring the accumulator must be caught (drop its spec).
        let mut bad = LoopSpec::new(8, heap.high_water());
        let r = bad.region("rows", rows, 4);
        bad.access(
            r,
            Member::Each,
            Words::Range { lo: 0, hi: 4 },
            AccessKind::Update,
        );
        let bad_sum = interpret(&bad);
        let violations = cross_validate(&bad, &bad_sum, &dynamic);
        assert!(
            violations.iter().any(|v| v.contains("not covered")),
            "{violations:?}"
        );
    }
}
