//! Differential test of the bias-free history register against a
//! paper-literal reference.
//!
//! The reference keeps nothing but the raw history, up to 2048 entries
//! deep, with each entry's hashed address, direction and bias status
//! (§V-B4). On every query it rebuilds each segment's recency stack from
//! scratch (§III-B): among the non-biased instances at depths
//! `[start, end)` it keeps the (at most) `rs_size` most recent distinct
//! keys, ordered by their latest instance, each carrying that instance's
//! outcome and the commit time at which it crossed into the segment
//! (`commit time + start`). There is no ring, no cached hash word and no
//! prefix XOR, so it shares no state-keeping code with `BfGhr`.
//!
//! `BfGhr` must agree with it on `collect()`, `collect_mixed()` and
//! `fold_mixed(BIAS_FREE_LENGTHS_10)` after every conditional branch of
//! every suite trace, and on the entries its snapshot carries.

use std::collections::VecDeque;

use bfbp::core::bf_ghr::{BfGhr, SEGMENT_BOUNDARIES, SEGMENT_RS_SIZE};
use bfbp::core::bst::{BranchStatus, Bst};
use bfbp::predictors::history::mix64;
use bfbp::sim::ckpt::{Restorable, StateReader, StateWriter};
use bfbp::tage::BIAS_FREE_LENGTHS_10;
use bfbp::trace::rng::Xoshiro256;
use bfbp::trace::synth::suite;

/// Suite traces are run at this fraction of their default length: 6000
/// records for the long traces (past the 2048-deep history), 2000 for
/// the short ones.
const SMOKE_SCALE: f64 = 0.02;

/// One raw-history entry: hashed key, direction, non-biased at commit.
#[derive(Clone, Copy)]
struct Raw {
    key: u16,
    taken: bool,
    non_biased: bool,
}

/// One rebuilt segment-stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u16,
    outcome: bool,
    birth: u64,
}

/// The reference BF-GHR: raw history only, everything else recomputed.
struct Oracle {
    boundaries: Vec<usize>,
    rs_size: usize,
    /// Newest first; `raw[d]` is the entry at depth `d`.
    raw: VecDeque<Raw>,
    now: u64,
}

impl Oracle {
    fn new(boundaries: &[usize], rs_size: usize) -> Self {
        Self {
            boundaries: boundaries.to_vec(),
            rs_size,
            raw: VecDeque::new(),
            now: 0,
        }
    }

    fn commit(&mut self, key: u16, taken: bool, non_biased: bool) {
        self.now += 1;
        self.raw.push_front(Raw {
            key,
            taken,
            non_biased,
        });
        self.raw.truncate(*self.boundaries.last().unwrap());
    }

    /// Each segment's recency stack, newest entry first.
    fn stacks(&self) -> Vec<Vec<Entry>> {
        self.boundaries
            .windows(2)
            .map(|w| {
                let (start, end) = (w[0], w[1]);
                let mut stack: Vec<Entry> = Vec::new();
                for depth in start..end.min(self.raw.len()) {
                    if stack.len() == self.rs_size {
                        break;
                    }
                    let e = self.raw[depth];
                    if e.non_biased && stack.iter().all(|s| s.key != e.key) {
                        stack.push(Entry {
                            key: e.key,
                            outcome: e.taken,
                            birth: self.now - depth as u64 + start as u64,
                        });
                    }
                }
                stack
            })
            .collect()
    }

    fn prefix(&self) -> impl Iterator<Item = Raw> + '_ {
        self.raw.iter().copied().take(self.boundaries[0])
    }

    /// The unfiltered prefix, then each segment's keys in ascending order.
    fn collect(&self) -> Vec<(u16, bool)> {
        let mut out: Vec<(u16, bool)> = self.prefix().map(|e| (e.key, e.taken)).collect();
        for mut stack in self.stacks() {
            stack.sort_by_key(|e| e.key);
            out.extend(stack.iter().map(|e| (e.key, e.outcome)));
        }
        out
    }

    /// Prefix words salted with their position, then each segment's
    /// words in recency order salted with the segment index.
    fn collect_mixed(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .prefix()
            .enumerate()
            .map(|(pos, e)| {
                mix64((u64::from(e.key) << 20) ^ (u64::from(e.taken) << 17) ^ pos as u64)
            })
            .collect();
        for (seg, stack) in self.stacks().iter().enumerate() {
            out.extend(stack.iter().map(|e| {
                mix64(
                    (u64::from(e.key) << 20)
                        ^ (u64::from(e.outcome) << 17)
                        ^ ((seg as u64 + 1) << 8),
                )
            }));
        }
        out
    }
}

/// The segment entries a `BfGhr` snapshot carries, decoded from its
/// `bfbp-ckpt/1` layout.
fn snapshot_stacks(ghr: &BfGhr) -> Vec<Vec<Entry>> {
    let mut w = StateWriter::new();
    ghr.save_state(&mut w);
    let bytes = w.into_bytes();
    let mut r = StateReader::new(&bytes);
    r.u32_vec().unwrap(); // ring
    for _ in 0..3 {
        r.u64().unwrap(); // now, commits, non-biased commits
    }
    let segments = r.usize().unwrap();
    let stacks = (0..segments)
        .map(|_| {
            let n = r.usize().unwrap();
            let stack = (0..n)
                .map(|_| Entry {
                    key: u16::try_from(r.u64().unwrap()).unwrap(),
                    outcome: r.bool().unwrap(),
                    birth: r.u64().unwrap(),
                })
                .collect();
            r.u64_vec().unwrap(); // words
            r.u64_vec().unwrap(); // prefix XORs
            stack
        })
        .collect();
    r.finish().unwrap();
    stacks
}

/// Drives `BfGhr` and the oracle with the same commits and compares them
/// after each one.
struct Pair {
    ghr: BfGhr,
    oracle: Oracle,
    commits: u64,
    folded: Vec<u64>,
    pairs: Vec<(u16, bool)>,
    words: Vec<u64>,
}

impl Pair {
    fn new(boundaries: &[usize], rs_size: usize) -> Self {
        Self {
            ghr: BfGhr::with_segments(boundaries, rs_size),
            oracle: Oracle::new(boundaries, rs_size),
            commits: 0,
            folded: Vec::new(),
            pairs: Vec::new(),
            words: Vec::new(),
        }
    }

    fn commit_and_check(&mut self, key: u16, taken: bool, non_biased: bool, what: &str) {
        self.ghr.commit(key, taken, non_biased);
        self.oracle.commit(key, taken, non_biased);
        self.commits += 1;
        let at = self.commits;

        self.ghr.collect(&mut self.pairs);
        assert_eq!(
            self.pairs,
            self.oracle.collect(),
            "{what}: collect after commit {at}"
        );

        let want = self.oracle.collect_mixed();
        self.ghr.collect_mixed(&mut self.words);
        assert_eq!(self.words, want, "{what}: collect_mixed after commit {at}");

        self.ghr.fold_mixed(&BIAS_FREE_LENGTHS_10, &mut self.folded);
        let naive: Vec<u64> = BIAS_FREE_LENGTHS_10
            .iter()
            .map(|&len| want.iter().take(len).fold(0, |h, w| h ^ w))
            .collect();
        assert_eq!(self.folded, naive, "{what}: fold_mixed after commit {at}");

        assert_eq!(
            self.ghr.compressed_len(),
            want.len(),
            "{what}: compressed_len"
        );
        if at.is_multiple_of(16) {
            assert_eq!(
                snapshot_stacks(&self.ghr),
                self.oracle.stacks(),
                "{what}: snapshot entries after commit {at}"
            );
        }
    }
}

/// Replays a trace's conditional branches the way BF-TAGE commits them:
/// classified by the paper's 8192-entry BST, keyed by a 14-bit hash.
fn replay(trace: &bfbp::trace::record::Trace, pair: &mut Pair) {
    let mut bst = Bst::new(13);
    for r in trace.records() {
        if !r.kind.is_conditional() {
            continue;
        }
        let non_biased = bst.commit(r.pc, r.taken) == BranchStatus::NonBiased;
        let key = (mix64(r.pc >> 2) & 0x3FFF) as u16;
        pair.commit_and_check(key, r.taken, non_biased, trace.name());
    }
}

#[test]
fn bf_ghr_matches_the_oracle_on_every_suite_trace() {
    for spec in suite::suite() {
        let len = (spec.default_len() as f64 * SMOKE_SCALE) as usize;
        let trace = spec.generate_len(len);
        let mut pair = Pair::new(&SEGMENT_BOUNDARIES, SEGMENT_RS_SIZE);
        replay(&trace, &mut pair);
        assert!(pair.commits > 0, "{}: no conditional branches", spec.name());
    }
}

#[test]
fn tiny_geometry_matches_the_oracle() {
    // Prefix 2; segments [2,4) and [4,8) with two-entry stacks, so
    // eviction, refresh and expiry all happen within a few commits.
    for name in ["SPEC03", "MM5", "SERV3"] {
        let trace = suite::find(name).unwrap().generate_len(3_000);
        replay(&trace, &mut Pair::new(&[2, 4, 8], 2));
    }
    for seed in 0..8u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut pair = Pair::new(&[2, 4, 8], 2);
        for _ in 0..2_000 {
            let key = rng.below(5) as u16;
            pair.commit_and_check(key, rng.chance(0.5), rng.chance(0.7), "random");
        }
    }
}

#[test]
fn small_key_pools_match_the_oracle() {
    // Few distinct keys make almost every crossing a refresh, many make
    // most of them inserts and evictions; a low non-biased rate leaves
    // deep segments empty for long stretches.
    for (seed, pool, p_non_biased) in [
        (1u64, 3u64, 0.9),
        (2, 12, 0.6),
        (3, 300, 0.5),
        (4, 40, 0.05),
    ] {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let keys: Vec<u16> = (0..pool).map(|_| rng.below(1 << 14) as u16).collect();
        let mut pair = Pair::new(&SEGMENT_BOUNDARIES, SEGMENT_RS_SIZE);
        for _ in 0..5_000 {
            let key = keys[rng.below(pool) as usize];
            pair.commit_and_check(key, rng.chance(0.5), rng.chance(p_non_biased), "pool");
        }
    }
}

#[test]
fn snapshot_restore_continues_identically() {
    // A restored register must keep agreeing with the oracle: the
    // derived state (deadlines, prefix XORs) is rebuilt on load.
    let mut rng = Xoshiro256::seed_from_u64(9);
    let mut pair = Pair::new(&SEGMENT_BOUNDARIES, SEGMENT_RS_SIZE);
    for i in 0..6_000u32 {
        if i.is_multiple_of(997) {
            let mut w = StateWriter::new();
            pair.ghr.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut fresh = BfGhr::new();
            let mut r = StateReader::new(&bytes);
            fresh.load_state(&mut r).expect("load");
            r.finish().expect("no trailing bytes");
            pair.ghr = fresh;
        }
        let key = rng.below(60) as u16;
        pair.commit_and_check(key, rng.chance(0.5), rng.chance(0.5), "restore");
    }
}
