//! The bias-free global history register (BF-GHR) built from segmented
//! recency stacks — §V-B1, Figure 7 of the paper.
//!
//! A monolithic recency stack covering 2048 branches is impractical to
//! search associatively, so BF-TAGE divides the raw history into
//! non-overlapping segments whose sizes form a geometric-style series;
//! each segment owns a small (8-entry) recency stack holding the most
//! recent occurrence of each non-biased branch currently inside the
//! segment. The concatenation of the newest 16 *unfiltered* entries (the
//! paper keeps them unfiltered to limit detection perturbation, §VI-C)
//! with every segment stack, in increasing depth order, is the BF-GHR:
//! up to 2048 branches of raw history compressed into ≈144 entries.
//!
//! # Layout
//!
//! The paper budgets this as small hardware (Table I): eight 16-bit
//! entries per segment, searched in parallel. The model keeps that shape
//! in fixed-size state:
//!
//! * The raw history is a power-of-two ring of packed `u32` slots indexed
//!   by commit time; the entry at depth `d` is the slot written `d`
//!   commits ago.
//! * A segment's stack is eight `u16` lanes in one `u128`, newest entry
//!   in lane 0: the 14-bit key, a live bit, and the outcome bit (the
//!   outcome bitmask). A second `u128` holds each entry's birth — the
//!   commit time at which it crossed into the segment — as its low 16
//!   bits; an entry lives less than one segment length, far fewer than
//!   2^16 commits. A key search is one SWAR compare over all lanes, and
//!   moving an entry to the top is one masked lane shift.
//! * Each segment keeps the prefix XORs of its entries' hash words
//!   (`pxor[k]` = XOR of the words in lanes `0..=k`); a word is the XOR of
//!   two neighbouring prefixes. One more prefix-XOR array covers the
//!   concatenated word stream of all segments.
//!
//! A commit loads the slot at each segment's start depth — one ring load
//! per segment — into a bitmask of the segments a non-biased instance
//! crosses into, and visits only its set bits. The most common crossing,
//! the top entry recurring with an unchanged outcome, only rewrites a
//! birth. Expiry runs only once the clock reaches a lower bound on the
//! earliest bottom-entry deadline, and the stream's prefix XORs are
//! rewritten only from the first segment whose words changed, so
//! [`BfGhr::fold_mixed`] is the positional prefix's hash mixes plus one
//! stream lookup per requested length.

use bfbp_predictors::history::mix64;
use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};

/// The paper's segment boundaries (§VI-C): "History segmentation divides
/// the long global history into following non-overlapping segments such
/// as {16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024,
/// 1280, 1536, 2048}".
pub const SEGMENT_BOUNDARIES: [usize; 17] = [
    16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048,
];

/// The paper's per-segment recency-stack size (§VI-C).
pub const SEGMENT_RS_SIZE: usize = 8;

/// Lanes per segment stack: the largest supported stack size.
const LANES: usize = 8;

/// Keys are 14-bit hashed branch addresses (Table I).
const KEY_MASK: u16 = (1 << 14) - 1;

/// Stack lane layout: key in the low 14 bits, live bit, outcome bit.
/// Unused lanes are 0, so the live bit keeps key 0 from matching them.
const LANE_LIVE: u16 = 1 << 14;
const LANE_TAKEN: u16 = 1 << 15;

/// `x` in each of the eight `u16` lanes of a `u128`.
const fn splat(x: u16) -> u128 {
    x as u128 * 0x0001_0001_0001_0001_0001_0001_0001_0001
}

/// `LOW_LANES[n]` selects lanes `0..n`.
const LOW_LANES: [u128; LANES + 1] = {
    let mut masks = [0u128; LANES + 1];
    let mut n = 1;
    while n <= LANES {
        masks[n] = (masks[n - 1] << 16) | 0xFFFF;
        n += 1;
    }
    masks
};

/// One raw-history entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhrEntry {
    /// 14-bit hashed branch address (Table I).
    pub key: u16,
    /// Resolved direction.
    pub taken: bool,
    /// Bias status recorded at commit time (Table I's "1 bit bias
    /// status").
    pub non_biased: bool,
}

/// Raw-history ring slot layout: hashed key in the low 16 bits, taken
/// at bit 16, bias status at bit 17.
const RING_TAKEN: u32 = 1 << 16;
const RING_NON_BIASED: u32 = 1 << 17;

/// The pre-mixed hash word for one segment-stack entry: salted with the
/// segment index (order-insensitive within the segment) but not the
/// stack position, so a word survives the entry moving around the stack.
#[inline]
fn seg_word(key: u64, outcome: bool, seg_id: usize) -> u64 {
    mix64((key << 20) ^ (u64::from(outcome) << 17) ^ ((seg_id as u64 + 1) << 8))
}

/// The stack lane for a raw-history ring slot.
#[inline]
fn lane_of(slot: u32) -> u16 {
    (slot as u16 & KEY_MASK)
        | LANE_LIVE
        | if slot & RING_TAKEN != 0 {
            LANE_TAKEN
        } else {
            0
        }
}

/// One segment's recency stack, newest entry in lane 0.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Entry lanes: key | [`LANE_LIVE`] | outcome ([`LANE_TAKEN`]).
    lanes: u128,
    /// Low 16 bits of each entry's birth.
    births: u128,
    /// `pxor[k]`: XOR of the words in lanes `0..=k`, for `k < len`.
    pxor: [u64; LANES],
    /// Segment length: an instance leaves `span` commits after entering.
    span: u64,
    /// Lower bound on the commit time at which the bottom entry expires
    /// (`u64::MAX` when empty).
    expires: u64,
    /// Index of this segment's first word in the concatenated stream.
    offset: usize,
    /// Live entries.
    len: usize,
}

impl Segment {
    #[inline]
    fn lane(&self, k: usize) -> u16 {
        (self.lanes >> (16 * k)) as u16
    }

    #[inline]
    fn birth16(&self, k: usize) -> u16 {
        (self.births >> (16 * k)) as u16
    }

    #[inline]
    fn word(&self, k: usize) -> u64 {
        self.pxor[k] ^ if k == 0 { 0 } else { self.pxor[k - 1] }
    }

    /// Bit 15 of each lane holding `key`: one compare over all lanes.
    #[inline]
    fn hits(&self, key: u16) -> u128 {
        let diff = (self.lanes & splat(KEY_MASK | LANE_LIVE)) ^ splat(key | LANE_LIVE);
        // Every lane of `diff` is below 2^15, so adding 0x7FFF sets a
        // lane's top bit exactly when the lane is non-zero, with no carry
        // into the next lane.
        !(diff + splat(0x7FFF)) & splat(0x8000)
    }
}

/// The segmented bias-free history register (see the module docs for
/// the layout).
#[derive(Debug, Clone)]
pub struct BfGhr {
    ring: Vec<u32>,
    segments: Vec<Segment>,
    /// Each segment's start depth, packed for the per-commit crossing
    /// scan.
    starts: Vec<usize>,
    /// Prefix XORs of the concatenated segment word stream: `stream[j]`
    /// is the XOR of the first `j` words, for `j <= stream_len`. Sized
    /// with `LANES` spare entries so a segment always writes all lanes.
    stream: Vec<u64>,
    stream_len: usize,
    /// First segment whose `stream` entries are out of date;
    /// `segments.len()` when none is, as always between commits.
    stale_from: usize,
    /// Lower bound on the commit time at which the next entry expires:
    /// the smallest segment `expires`.
    next_expiry: u64,
    rs_size: usize,
    recent: usize,
    max_depth: usize,
    now: u64,
    commits: u64,
    non_biased_commits: u64,
}

impl BfGhr {
    /// Creates a BF-GHR with the paper's boundaries, 16 recent unfiltered
    /// entries, and 8-entry segment stacks.
    pub fn new() -> Self {
        Self::with_segments(&SEGMENT_BOUNDARIES, SEGMENT_RS_SIZE)
    }

    /// Creates a BF-GHR with custom boundaries. `boundaries[0]` is the
    /// unfiltered prefix length; each consecutive pair forms a segment.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two boundaries are given, they are not
    /// strictly increasing, there are more than 64 segments or one is
    /// longer than 65535 branches, or `rs_size` is zero or above 8.
    pub fn with_segments(boundaries: &[usize], rs_size: usize) -> Self {
        assert!(boundaries.len() >= 2, "need at least two boundaries");
        assert!(rs_size > 0, "segment stack size must be non-zero");
        assert!(rs_size <= LANES, "segment stacks hold at most 8 entries");
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        assert!(boundaries.len() <= 65, "at most 64 segments");
        assert!(
            boundaries
                .windows(2)
                .all(|w| w[1] - w[0] <= usize::from(u16::MAX)),
            "segments span at most 65535 branches"
        );
        let segments: Vec<Segment> = boundaries
            .windows(2)
            .map(|w| Segment {
                lanes: 0,
                births: 0,
                pxor: [0; LANES],
                span: (w[1] - w[0]) as u64,
                expires: u64::MAX,
                offset: 0,
                len: 0,
            })
            .collect();
        let max_depth = boundaries[boundaries.len() - 1];
        let ring_len = max_depth.next_power_of_two();
        Self {
            ring: vec![0; ring_len],
            starts: boundaries[..boundaries.len() - 1].to_vec(),
            stream: vec![0; segments.len() * rs_size + 1 + LANES],
            stream_len: 0,
            stale_from: segments.len(),
            next_expiry: u64::MAX,
            segments,
            rs_size,
            recent: boundaries[0],
            max_depth,
            now: 0,
            commits: 0,
            non_biased_commits: 0,
        }
    }

    /// Live raw-history length: commits so far, saturating at the
    /// maximum depth.
    #[inline]
    fn raw_len(&self) -> usize {
        self.max_depth.min(self.now as usize)
    }

    /// The raw-history entry at `depth` (0 = newest). Callers must keep
    /// `depth < self.raw_len()`.
    #[inline]
    fn raw_at(&self, depth: usize) -> GhrEntry {
        let slot = self.slot(self.now - depth as u64);
        GhrEntry {
            key: slot as u16,
            taken: slot & RING_TAKEN != 0,
            non_biased: slot & RING_NON_BIASED != 0,
        }
    }

    /// The ring slot written at commit time `at`.
    #[inline]
    fn slot(&self, at: u64) -> u32 {
        // The ring length is a power of two; masking with `len - 1` also
        // lets the compiler drop the bounds check.
        self.ring[at as usize & (self.ring.len() - 1)]
    }

    /// The hash word of the unfiltered entry at `pos`, salted with its
    /// exact position.
    #[inline]
    fn prefix_word(&self, pos: usize) -> u64 {
        let e = self.raw_at(pos);
        mix64((u64::from(e.key) << 20) ^ (u64::from(e.taken) << 17) ^ (pos as u64))
    }

    /// Number of unfiltered prefix entries exposed.
    pub fn recent_len(&self) -> usize {
        self.recent
    }

    /// Maximum raw-history depth covered.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Current compressed length: unfiltered prefix + live segment-stack
    /// entries.
    pub fn compressed_len(&self) -> usize {
        self.recent.min(self.raw_len()) + self.stream_len
    }

    /// Upper bound on the compressed length (Table I's "RS 142 entries"
    /// class of figure).
    pub fn compressed_capacity(&self) -> usize {
        self.recent + self.segments.len() * self.rs_size
    }

    /// Commits a branch into the raw history and propagates segment
    /// crossings (§V-B4: "When B reaches a depth of Lm …, if it is
    /// non-biased, its hashed address is inserted into the RSy …; later
    /// when B reaches a depth of Ln, it falls out of RSy").
    ///
    /// `key` is the branch's 14-bit hashed address; higher bits are
    /// dropped.
    pub fn commit(&mut self, key: u16, taken: bool, non_biased: bool) {
        debug_assert!(key <= KEY_MASK, "BF-GHR keys are 14-bit hashed addresses");
        self.commits += 1;
        self.non_biased_commits += u64::from(non_biased);
        self.now += 1;
        let now = self.now;
        let packed = u32::from(key & KEY_MASK)
            | if taken { RING_TAKEN } else { 0 }
            | if non_biased { RING_NON_BIASED } else { 0 };
        let wrap = self.ring.len() - 1;
        self.ring[now as usize & wrap] = packed;
        if now >= self.next_expiry {
            self.expire();
        }
        // The entry previously at depth start-1 of each segment is now at
        // depth start: bit s is set when it is non-biased, so it crosses
        // into segment s. Slots not yet written are 0 (biased), so before
        // the history reaches a segment its start slot never crosses.
        let mut crossing = 0u64;
        for (s, &start) in self.starts.iter().enumerate() {
            let slot = self.ring[(now as usize).wrapping_sub(start) & wrap];
            crossing |= u64::from((slot & RING_NON_BIASED) >> 17) << s;
        }
        while crossing != 0 {
            let s = crossing.trailing_zeros() as usize;
            crossing &= crossing - 1;
            self.cross(s);
        }
        if self.stale_from < self.segments.len() {
            self.rebuild_stream();
        }
    }

    /// Records the instance now at segment `s`'s start depth in its stack
    /// (the Figure 3 recency-stack update).
    #[inline]
    fn cross(&mut self, s: usize) {
        let now = self.now;
        let rs_size = self.rs_size;
        let lane = lane_of(self.slot(now - self.starts[s] as u64));
        let seg = &mut self.segments[s];
        if seg.lane(0) == lane {
            // The top entry recurs with the same outcome: only its birth
            // moves.
            seg.births = (seg.births & !LOW_LANES[1]) | u128::from(now as u16);
            return;
        }
        // Vacate lane `top` by shifting lanes 0..top down one: on a hit
        // that is the entry's old lane, otherwise the first free lane or
        // (when full) the bottom entry, which is evicted. The choices
        // below are written as selects: which case applies depends on the
        // branch stream, so a branch on it would often be mispredicted.
        let key = lane & KEY_MASK;
        let len = seg.len;
        let hits = seg.hits(key);
        let found = hits != 0;
        let top = if found {
            hits.trailing_zeros() as usize / 16
        } else {
            len.min(rs_size - 1)
        };
        let new_len = len + usize::from(!found & (len < rs_size));
        let old = seg.word(top);
        let same_words = found & (seg.lane(top) == lane);
        let fresh = seg_word(u64::from(key), lane & LANE_TAKEN != 0, s);
        let word = if same_words { old } else { fresh };
        // Entries below a hit keep their lanes, but their prefixes swap
        // the hit's old word for `word`.
        let delta = if found { old ^ word } else { 0 };
        let moved = LOW_LANES[top + 1];
        seg.lanes = (seg.lanes & !moved) | ((seg.lanes << 16) & moved) | u128::from(lane);
        seg.births = (seg.births & !moved) | ((seg.births << 16) & moved) | u128::from(now as u16);
        let mut prev = 0;
        for k in 0..LANES {
            let cur = seg.pxor[k];
            seg.pxor[k] = if k <= top { word ^ prev } else { cur ^ delta };
            prev = cur;
        }
        seg.len = new_len;
        if len == 0 {
            seg.expires = now + seg.span;
        }
        self.next_expiry = self.next_expiry.min(seg.expires);
        // Same words in a new order keep the segment's total, so its own
        // stream prefixes are all that move; any other change makes the
        // stream stale from here on, and the rebuild overwrites these.
        if !same_words {
            self.stale_from = self.stale_from.min(s);
        }
        let base = self.stream[seg.offset];
        let own = &mut self.stream[seg.offset + 1..=seg.offset + LANES];
        for (k, o) in own.iter_mut().enumerate() {
            *o = if k <= top { base ^ seg.pxor[k] } else { *o };
        }
    }

    /// Drops every entry that has travelled its segment's full length
    /// from the segments whose expiry bound has been reached, tightening
    /// their bounds to the new bottom entries' exact expiry times.
    fn expire(&mut self) {
        let now = self.now;
        let mut next = u64::MAX;
        for (s, seg) in self.segments.iter_mut().enumerate() {
            if seg.expires <= now {
                seg.expires = u64::MAX;
                // Births fall from top to bottom, so expired entries form
                // a suffix.
                while seg.len > 0 {
                    let bottom = seg.len - 1;
                    let age = u64::from((now as u16).wrapping_sub(seg.birth16(bottom)));
                    if age < seg.span {
                        seg.expires = now + seg.span - age;
                        break;
                    }
                    let lane = LOW_LANES[seg.len] ^ LOW_LANES[bottom];
                    seg.lanes &= !lane;
                    seg.births &= !lane;
                    seg.len = bottom;
                    self.stale_from = self.stale_from.min(s);
                }
            }
            next = next.min(seg.expires);
        }
        self.next_expiry = next;
    }

    /// Rewrites the stream prefix XORs from the first stale segment on.
    fn rebuild_stream(&mut self) {
        let first = self.stale_from;
        let mut offset = self.segments[first].offset;
        let mut acc = self.stream[offset];
        for seg in &mut self.segments[first..] {
            seg.offset = offset;
            // All lanes, live or not: a fixed-width store needs no
            // per-segment branch, and the next segment overwrites the
            // surplus.
            let out = &mut self.stream[offset + 1..=offset + LANES];
            for (o, &p) in out.iter_mut().zip(&seg.pxor) {
                *o = acc ^ p;
            }
            if seg.len > 0 {
                acc ^= seg.pxor[seg.len - 1];
            }
            offset += seg.len;
        }
        self.stream_len = offset;
        self.stale_from = self.segments.len();
    }

    /// Collects the BF-GHR into `out` as `(key, outcome)` pairs,
    /// shallowest first: the unfiltered prefix, then each segment's
    /// stack in increasing depth.
    ///
    /// Within a segment, entries are emitted in a canonical (key-sorted)
    /// order rather than recency order: two executions of a branch whose
    /// segment holds the same *set* of tracked branches then hash to the
    /// same table index even if arrival order differed — the compressed
    /// analogue of a history register's positional stability.
    pub fn collect(&self, out: &mut Vec<(u16, bool)>) {
        out.clear();
        for depth in 0..self.recent.min(self.raw_len()) {
            let e = self.raw_at(depth);
            out.push((e.key, e.taken));
        }
        for seg in &self.segments {
            let mut entries = [(0u16, false); LANES];
            for (k, entry) in entries[..seg.len].iter_mut().enumerate() {
                let lane = seg.lane(k);
                *entry = (lane & KEY_MASK, lane & LANE_TAKEN != 0);
            }
            let entries = &mut entries[..seg.len];
            entries.sort_unstable_by_key(|&(k, _)| k);
            out.extend_from_slice(entries);
        }
    }

    /// Collects the BF-GHR as pre-mixed per-entry hash words, shallowest
    /// first, for table index computation.
    ///
    /// Entries in the unfiltered prefix are salted with their exact
    /// position (a real history register is positional); segment-stack
    /// entries are salted with their *segment index* only. A table over
    /// the first `L` words then combines them with XOR — an
    /// order-insensitive set hash — so the index depends on *which*
    /// branch outcomes each segment tracks but not on transient
    /// arrival-order or alignment shifts inside the compressed stream.
    /// This is the compressed analogue of folded-history stability: a
    /// recency stack's content is a set, and hashing it as a sequence
    /// would make every deeper table's index flutter whenever one entry
    /// enters or leaves an earlier segment.
    pub fn collect_mixed(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.mixed_words());
    }

    /// The [`BfGhr::collect_mixed`] word stream as a lazy iterator, so a
    /// consumer that folds the words can skip materializing them.
    ///
    /// The unfiltered prefix is positional, so its words shift on every
    /// commit and are mixed here; segment words come from the stream's
    /// prefix XORs, maintained by `commit`.
    pub fn mixed_words(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.recent.min(self.raw_len()))
            .map(|pos| self.prefix_word(pos))
            .chain((0..self.stream_len).map(|j| self.stream[j] ^ self.stream[j + 1]))
    }

    /// XOR-folds the mixed word stream (see [`BfGhr::mixed_words`]),
    /// pushing into `out` one snapshot of the running fold per requested
    /// length: `out[i]` is the XOR of the first `min(lengths[i], total)`
    /// words. `lengths` must be non-decreasing.
    ///
    /// This is the hot-path form of the fold: the positional prefix is
    /// mixed word by word (it changes every commit); every cut past it is
    /// one lookup in the segment stream's prefix XORs.
    pub fn fold_mixed(&self, lengths: &[usize], out: &mut Vec<u64>) {
        out.clear();
        let live = self.recent.min(self.raw_len());
        let mut h = 0u64;
        let mut mixed = 0usize;
        for &len in lengths {
            while mixed < len.min(live) {
                h ^= self.prefix_word(mixed);
                mixed += 1;
            }
            out.push(if len <= live {
                h
            } else {
                h ^ self.stream[(len - live).min(self.stream_len)]
            });
        }
    }

    /// Storage: the raw unfiltered history (Table I: 14-bit hashed PC +
    /// direction + bias status per entry) plus the segment stacks at 16
    /// bits per entry.
    pub fn storage_bits(&self) -> u64 {
        self.max_depth as u64 * 16 + (self.segments.len() * self.rs_size) as u64 * 16
    }

    /// Total branches committed into the history so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Commits flagged non-biased — the entries eligible for segment
    /// tracking.
    pub fn non_biased_commits(&self) -> u64 {
        self.non_biased_commits
    }

    /// Per-segment fill as `(live_entries, capacity)` pairs, shallowest
    /// segment first.
    pub fn segment_fill(&self) -> Vec<(usize, usize)> {
        self.segments
            .iter()
            .map(|s| (s.len, self.rs_size))
            .collect()
    }
}

impl Default for BfGhr {
    fn default() -> Self {
        Self::new()
    }
}

impl Restorable for BfGhr {
    fn save_state(&self, w: &mut StateWriter) {
        // Each segment is written as its stack (key, outcome and absolute
        // birth per entry, newest first), its hash words and their prefix
        // XORs. The words are derived state, but writing them lets
        // `load_state` check a snapshot against itself.
        w.u32_slice(&self.ring);
        w.u64(self.now);
        w.u64(self.commits);
        w.u64(self.non_biased_commits);
        w.usize(self.segments.len());
        for seg in &self.segments {
            w.usize(seg.len);
            let mut words = [0u64; LANES];
            let mut pxor = [0u64; LANES + 1];
            for k in 0..seg.len {
                let lane = seg.lane(k);
                let age = (self.now as u16).wrapping_sub(seg.birth16(k));
                w.u64(u64::from(lane & KEY_MASK));
                w.bool(lane & LANE_TAKEN != 0);
                w.u64(self.now - u64::from(age));
                words[k] = seg.word(k);
                pxor[k + 1] = seg.pxor[k];
            }
            w.u64_slice(&words[..seg.len]);
            w.u64_slice(&pxor[..=seg.len]);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let ring = r.u32_vec()?;
        if ring.len() != self.ring.len() {
            return Err(CodecError::Malformed("bf-ghr ring size mismatch"));
        }
        let slot_bits = u32::from(KEY_MASK) | RING_TAKEN | RING_NON_BIASED;
        if ring.iter().any(|&slot| slot & !slot_bits != 0) {
            return Err(CodecError::Malformed(
                "bf-ghr ring slot wider than its fields",
            ));
        }
        let now = r.u64()?;
        // No run commits 2^63 branches; the bound keeps the deadline
        // arithmetic below from overflowing.
        if now > u64::MAX / 2 {
            return Err(CodecError::Malformed("bf-ghr clock out of range"));
        }
        // Slots are written at indices 1..=now first: any other slot
        // must still be empty while the clock is below the ring length.
        if (now as usize) < ring.len()
            && (ring[0] != 0 || ring[now as usize + 1..].iter().any(|&slot| slot != 0))
        {
            return Err(CodecError::Malformed(
                "bf-ghr ring slot written ahead of the clock",
            ));
        }
        let commits = r.u64()?;
        let non_biased_commits = r.u64()?;
        if r.usize()? != self.segments.len() {
            return Err(CodecError::Malformed("bf-ghr segment count mismatch"));
        }
        let mut segments = self.segments.clone();
        for (s, seg) in segments.iter_mut().enumerate() {
            let count = r.usize()?;
            if count > self.rs_size {
                return Err(CodecError::Malformed("recency stack over capacity"));
            }
            seg.lanes = 0;
            seg.births = 0;
            seg.pxor = [0; LANES];
            seg.len = 0;
            // Makes the `expire` call below compute the exact bound.
            seg.expires = 0;
            let mut newer_birth = now + 1;
            for k in 0..count {
                let key = r.u64()?;
                let outcome = r.bool()?;
                let birth = r.u64()?;
                if key > u64::from(KEY_MASK) {
                    return Err(CodecError::Malformed("bf-ghr key wider than 14 bits"));
                }
                let key = key as u16;
                if seg.hits(key) != 0 {
                    return Err(CodecError::Malformed("bf-ghr duplicate key in a segment"));
                }
                // Births fall strictly from the top down and lie in
                // (now - span, now]: an older entry would have expired.
                if birth >= newer_birth || now - birth >= seg.span {
                    return Err(CodecError::Malformed("bf-ghr birth out of order or range"));
                }
                newer_birth = birth;
                let lane = key | LANE_LIVE | if outcome { LANE_TAKEN } else { 0 };
                seg.lanes |= u128::from(lane) << (16 * k);
                seg.births |= u128::from(birth as u16) << (16 * k);
                seg.len += 1;
            }
            let words = r.u64_vec()?;
            if words.len() != count {
                return Err(CodecError::Malformed("bf-ghr word cache mismatch"));
            }
            let mut acc = 0u64;
            for (k, &word) in words.iter().enumerate() {
                let lane = seg.lane(k);
                if word != seg_word(u64::from(lane & KEY_MASK), lane & LANE_TAKEN != 0, s) {
                    return Err(CodecError::Malformed(
                        "bf-ghr word does not match its entry",
                    ));
                }
                acc ^= word;
                seg.pxor[k] = acc;
            }
            let pxor = r.u64_vec()?;
            if pxor.len() != count + 1 || pxor[0] != 0 || pxor[1..] != seg.pxor[..count] {
                return Err(CodecError::Malformed(
                    "bf-ghr prefix XORs do not match the words",
                ));
            }
        }
        self.ring = ring;
        self.now = now;
        self.commits = commits;
        self.non_biased_commits = non_biased_commits;
        self.segments = segments;
        self.stale_from = 0;
        self.rebuild_stream();
        // Nothing has expired (births were checked above); this only
        // recomputes the next expiry time.
        self.expire();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BfGhr {
        // Prefix 2; segments [2,4), [4,8).
        BfGhr::with_segments(&[2, 4, 8], 2)
    }

    #[test]
    fn paper_geometry() {
        let g = BfGhr::new();
        assert_eq!(g.recent_len(), 16);
        assert_eq!(g.max_depth(), 2048);
        assert_eq!(g.compressed_capacity(), 16 + 16 * 8);
        assert!(g.compressed_capacity() >= 142);
        assert_eq!(g.storage_bits(), 2048 * 16 + 16 * 8 * 16);
    }

    #[test]
    fn capacity_and_storage_use_the_configured_stack_size() {
        let g = tiny();
        assert_eq!(g.compressed_capacity(), 2 + 2 * 2);
        assert_eq!(g.storage_bits(), 8 * 16 + 2 * 2 * 16);
        assert_eq!(g.segment_fill(), vec![(0, 2), (0, 2)]);
    }

    #[test]
    fn recent_prefix_is_unfiltered() {
        let mut g = tiny();
        // Biased branches still appear in the recent prefix.
        g.commit(0xA, true, false);
        g.commit(0xB, false, false);
        let mut out = Vec::new();
        g.collect(&mut out);
        assert_eq!(out, vec![(0xB, false), (0xA, true)]);
    }

    #[test]
    fn non_biased_branch_enters_segment_on_crossing() {
        let mut g = tiny();
        g.commit(0x1, true, true); // the tracked branch
                                   // Two more commits push it to depth 2 → crosses into segment
                                   // [2,4).
        g.commit(0x2, false, false);
        g.commit(0x3, false, false);
        let mut out = Vec::new();
        g.collect(&mut out);
        // Prefix: 0x3, 0x2; segment [2,4): 0x1.
        assert_eq!(out, vec![(0x3, false), (0x2, false), (0x1, true)]);
    }

    #[test]
    fn biased_branch_never_enters_segments() {
        let mut g = tiny();
        g.commit(0x1, true, false); // biased
        for k in 0..6 {
            g.commit(0x10 + k, false, false);
        }
        let mut out = Vec::new();
        g.collect(&mut out);
        assert_eq!(out.len(), 2, "only the prefix is populated: {out:?}");
    }

    #[test]
    fn instance_falls_out_after_segment_length() {
        let mut g = tiny();
        g.commit(0x1, true, true);
        // Depth 2 after two commits (enters [2,4)); falls out of [2,4)
        // after two more commits (depth 4) and immediately enters [4,8).
        for k in 0..2 {
            g.commit(0x20 + k, false, false);
        }
        assert_eq!(g.segment_fill(), vec![(1, 2), (0, 2)]);
        for k in 0..2 {
            g.commit(0x30 + k, false, false);
        }
        assert_eq!(
            g.segment_fill(),
            vec![(0, 2), (1, 2)],
            "moved from the first segment to the second"
        );
        // After 4 more commits (depth 8) it leaves the last segment too.
        for k in 0..4 {
            g.commit(0x40 + k, false, false);
        }
        assert_eq!(g.segment_fill(), vec![(0, 2), (0, 2)]);
    }

    #[test]
    fn repeated_occurrences_collapse_to_latest() {
        let mut g = tiny();
        // Same key committed twice, 2 commits apart: when the second
        // instance crosses into the segment, the entry is refreshed
        // rather than duplicated.
        g.commit(0x1, true, true);
        g.commit(0x9, false, false);
        g.commit(0x1, false, true); // newer occurrence, opposite outcome
        g.commit(0x9, false, false);
        g.commit(0x9, false, false);
        // Older instance (depth 4) left segment [2,4) and entered [4,8);
        // the newer instance (depth 2) is in [2,4) with its own outcome.
        assert_eq!(g.segment_fill(), vec![(1, 2), (1, 2)]);
        let mut out = Vec::new();
        g.collect(&mut out);
        assert_eq!(out[2..], [(0x1, false), (0x1, true)]);
    }

    #[test]
    fn segment_stack_capacity_is_bounded() {
        let mut g = tiny(); // segment stacks of 2
                            // Commit many distinct non-biased branches.
        for k in 0..20u16 {
            g.commit(0x100 + k, true, true);
        }
        assert!(g.segment_fill().iter().all(|&(live, cap)| live <= cap));
        assert_eq!(g.compressed_len(), g.compressed_capacity());
    }

    #[test]
    fn compressed_len_counts_all_parts() {
        let mut g = tiny();
        for k in 0..8u16 {
            g.commit(k, true, true);
        }
        let mut out = Vec::new();
        g.collect(&mut out);
        assert_eq!(out.len(), g.compressed_len());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_boundaries_panic() {
        BfGhr::with_segments(&[16, 8], 4);
    }

    #[test]
    #[should_panic(expected = "at most 8 entries")]
    fn oversized_stacks_panic() {
        BfGhr::with_segments(&[16, 32], 9);
    }

    #[test]
    fn lane_search_finds_every_key() {
        let mut seg = BfGhr::new().segments[0];
        for (k, key) in [0u16, KEY_MASK, 0x1234, 0x2000].into_iter().enumerate() {
            seg.lanes |= u128::from(key | LANE_LIVE | (LANE_TAKEN * (k as u16 & 1))) << (16 * k);
        }
        // Each live key marks bit 15 of exactly its own lane, whatever
        // its outcome bit.
        for (k, key) in [0u16, KEY_MASK, 0x1234, 0x2000].into_iter().enumerate() {
            assert_eq!(seg.hits(key), 0x8000 << (16 * k), "key {key:#x}");
        }
        assert_eq!(seg.hits(0x1235), 0);
        // Unused lanes are 0 and never match key 0 of a live entry.
        assert_eq!(BfGhr::new().segments[0].hits(0), 0);
    }

    #[test]
    fn fold_mixed_matches_word_stream_fold() {
        // The stream fold must agree with a naive fold of the full word
        // stream at every cut point, across history fills ranging from
        // empty to saturated.
        let mut g = BfGhr::new();
        let lengths = [0usize, 3, 8, 14, 26, 40, 54, 70, 94, 118, 142, 500];
        let mut folded = Vec::new();
        for i in 0..3000u64 {
            g.commit(
                (i.wrapping_mul(0x9E37) & 0x3FFF) as u16,
                i % 3 == 0,
                i % 7 < 3,
            );
            if i % 97 != 0 {
                continue;
            }
            let words: Vec<u64> = g.mixed_words().collect();
            g.fold_mixed(&lengths, &mut folded);
            assert_eq!(folded.len(), lengths.len());
            for (want, got) in lengths.iter().zip(&folded) {
                let naive = words.iter().take(*want).fold(0u64, |acc, w| acc ^ w);
                assert_eq!(naive, *got, "cut at {want} after {i} commits");
            }
        }
    }

    #[test]
    fn deep_correlation_stays_within_compressed_reach() {
        // A non-biased branch buried under 500 biased branches sits in a
        // deep segment but at a *small* compressed position — the whole
        // point of the BF-GHR.
        let mut g = BfGhr::new();
        g.commit(0x3777, true, true);
        for k in 0..500u64 {
            g.commit((0x1000 + k) as u16, true, false);
        }
        let mut out = Vec::new();
        g.collect(&mut out);
        let pos = out.iter().position(|&(k, _)| k == 0x3777);
        assert!(pos.is_some(), "tracked branch must still be visible");
        assert!(
            pos.unwrap() < 20,
            "compressed position {pos:?} should be shallow"
        );
    }
}
