//! Differential test of BF-Neural against a plain transcription of
//! Algorithms 2 and 3.
//!
//! The reference computes every weight index the way the algorithms
//! state it: one hash per recent age (`Wm`) and one per deep-history
//! entry (`Wrs`), each built from the PC, the tracked address, the
//! positional history and the folded global history, with the fold
//! bucket chosen by distance for every term. Its recent history is a
//! list of outcomes read one bit at a time, its folds are recomputed
//! from those bits on every query, its recency stack is a list searched
//! front to back, and its loop predictor searches its ways on every
//! `predict` and again on every `update`. Only the Branch Status Table
//! is the predictor's own.
//!
//! `BfNeural` must agree with it on the prediction and provenance of
//! every conditional branch of every suite trace, and the snapshot the
//! reference encodes in the predictor's `bfbp-ckpt/1` layout must equal
//! the predictor's own, byte for byte, every 1000 commits. Every other
//! such snapshot is restored into a fresh predictor that carries on in
//! the original's place and must keep agreeing with the reference.
//! Recent-history lengths of 1 and of more than 64 outcomes, which take
//! the predictor's edge paths, are checked on every tenth suite trace.

use std::collections::VecDeque;

use bfbp::core::bf_neural::{BfNeuralConfig, HistoryMode};
use bfbp::core::bst::{BranchStatus, Bst, Classifier};
use bfbp::predictors::history::mix64;
use bfbp::sim::ckpt::{Restorable, StateReader, StateWriter};
use bfbp::sim::predictor::ConditionalPredictor;
use bfbp::sim::registry::PredictorSpec;
use bfbp::trace::record::Trace;
use bfbp::trace::synth::suite;
use bfbp::Provenance;

/// Suite traces are run at this fraction of their default length.
const SMOKE_SCALE: f64 = 0.02;

/// Snapshots are compared every this many conditional branches.
const SNAPSHOT_EVERY: u64 = 1000;

/// Bucket windows of the folded global history (§IV-A).
const BUCKETS: [usize; 4] = [8, 16, 32, 64];

/// The newest `keep` outcomes, read one bit at a time.
struct PlainHistory {
    /// Newest first.
    bits: VecDeque<bool>,
    keep: usize,
    pushes: u64,
}

impl PlainHistory {
    fn new(keep: usize) -> Self {
        Self {
            bits: VecDeque::new(),
            keep,
            pushes: 0,
        }
    }

    fn push(&mut self, taken: bool) {
        self.bits.push_front(taken);
        self.bits.truncate(self.keep);
        self.pushes += 1;
    }

    /// Outcome `age` pushes ago; never-pushed ages read as not taken.
    fn bit(&self, age: usize) -> bool {
        self.bits.get(age).copied().unwrap_or(false)
    }

    /// The newest `olen` outcomes folded into `clen` bits, oldest first.
    fn fold(&self, olen: usize, clen: usize) -> u64 {
        let mut comp = 0u64;
        for age in (0..olen).rev() {
            comp = (comp << 1) | u64::from(self.bit(age));
            comp ^= comp >> clen;
            comp &= (1u64 << clen) - 1;
        }
        comp
    }

    /// The largest bucket window that fits inside `distance` (the
    /// smallest bucket for anything shorter).
    fn fold_for(&self, distance: usize) -> u64 {
        let olen = BUCKETS
            .iter()
            .copied()
            .rfind(|&olen| olen <= distance)
            .unwrap_or(BUCKETS[0]);
        self.fold(olen, olen.min(16))
    }

    /// The ring layout the predictor checkpoints for a `slots`-outcome
    /// ring (a multiple of 64): its words, the next write slot, and the
    /// fill level.
    fn save(&self, w: &mut StateWriter, slots: usize) {
        let head = (self.pushes % slots as u64) as usize;
        let mut words = vec![0u64; slots / 64];
        for (age, &bit) in self.bits.iter().take(slots).enumerate() {
            let pos = (head + slots - 1 - age) % slots;
            words[pos / 64] |= u64::from(bit) << (pos % 64);
        }
        w.u64_slice(&words);
        w.usize(head);
        w.usize(self.bits.len().min(slots));
    }
}

/// Slots of the predictor's recent-outcome ring for `ht` outcomes: a
/// power-of-two number of 64-bit words.
fn ring_slots(ht: usize) -> usize {
    ht.div_ceil(64).next_power_of_two() * 64
}

/// One deep-history entry: hashed address, outcome, commit time.
#[derive(Clone, Copy)]
struct Deep {
    key: u64,
    outcome: bool,
    birth: u64,
}

/// One loop-predictor entry.
#[derive(Clone, Copy, Default)]
struct LoopEntry {
    tag: u16,
    valid: bool,
    dir: bool,
    past_iter: u32,
    current_iter: u32,
    conf: u8,
    age: u8,
}

/// The 64-entry, 4-way skewed loop predictor, searched on every call.
struct PlainLoop {
    entries: Vec<LoopEntry>,
}

impl PlainLoop {
    const SETS: usize = 16;

    fn new() -> Self {
        Self {
            entries: vec![LoopEntry::default(); 64],
        }
    }

    fn slot(pc: u64, way: usize) -> usize {
        let h = mix64((pc >> 2).wrapping_add((way as u64) << 48));
        way * Self::SETS + (h as usize & (Self::SETS - 1))
    }

    fn tag(pc: u64) -> u16 {
        (mix64(pc >> 2) >> 16) as u16 & 0x3FFF
    }

    fn find(&self, pc: u64) -> Option<usize> {
        let tag = Self::tag(pc);
        (0..4)
            .map(|way| Self::slot(pc, way))
            .find(|&i| self.entries[i].valid && self.entries[i].tag == tag)
    }

    /// `(direction, confident)` once the entry has learned a trip count.
    fn predict(&self, pc: u64) -> Option<(bool, bool)> {
        let e = self.entries[self.find(pc)?];
        if e.past_iter == 0 {
            return None;
        }
        let taken = if e.current_iter >= e.past_iter {
            !e.dir
        } else {
            e.dir
        };
        Some((taken, e.conf >= 3))
    }

    fn update(&mut self, pc: u64, taken: bool, allocate: bool) {
        if let Some(i) = self.find(pc) {
            let e = &mut self.entries[i];
            e.age = e.age.saturating_add(1);
            if taken == e.dir {
                e.current_iter += 1;
                if e.past_iter != 0 && e.current_iter > e.past_iter {
                    e.past_iter = 0;
                    e.conf = 0;
                }
                if e.current_iter > (1 << 14) - 1 {
                    e.past_iter = 0;
                    e.conf = 0;
                    e.current_iter = 0;
                }
            } else {
                if e.past_iter == e.current_iter && e.past_iter != 0 {
                    e.conf = (e.conf + 1).min(7);
                } else {
                    e.past_iter = e.current_iter;
                    e.conf = 0;
                }
                e.current_iter = 0;
            }
            return;
        }
        if !allocate {
            return;
        }
        let mut victim = Self::slot(pc, 0);
        let mut victim_score = u32::MAX;
        for way in 0..4 {
            let i = Self::slot(pc, way);
            let e = self.entries[i];
            if !e.valid {
                victim = i;
                break;
            }
            let score = (u32::from(e.conf) << 8) | u32::from(e.age);
            if score < victim_score {
                victim_score = score;
                victim = i;
            }
        }
        self.entries[victim] = LoopEntry {
            tag: Self::tag(pc),
            valid: true,
            dir: taken,
            past_iter: 0,
            current_iter: 1,
            conf: 0,
            age: 0,
        };
    }

    fn save(&self, w: &mut StateWriter) {
        w.usize(self.entries.len());
        for e in &self.entries {
            w.u16(e.tag);
            w.bool(e.valid);
            w.bool(e.dir);
            w.u32(e.past_iter);
            w.u32(e.current_iter);
            w.u8(e.conf);
            w.u8(e.age);
        }
    }
}

/// The reference BF-Neural of Algorithms 2 and 3.
struct Oracle {
    config: BfNeuralConfig,
    bst: Classifier,
    wb: Vec<i8>,
    wm: Vec<i8>,
    wrs: Vec<i8>,
    history: PlainHistory,
    /// Addresses of the `ht` newest branches, newest first.
    addrs: VecDeque<u64>,
    /// Newest first, at most `deep_depth` entries.
    deep: Vec<Deep>,
    now: u64,
    theta: i32,
    threshold_ctr: i32,
    loop_pred: Option<PlainLoop>,
    /// What the last `predict` decided: `(sum, used perceptron, base
    /// prediction, final prediction, loop override)`.
    last: (i32, bool, bool, bool, bool),
}

impl Oracle {
    fn new(config: BfNeuralConfig) -> Self {
        assert!(
            !config.probabilistic_bst,
            "the reference uses the 2-bit BST"
        );
        Self {
            config,
            bst: Classifier::TwoBit(Bst::new(config.log_bst)),
            wb: vec![0; 1 << 10],
            wm: vec![0; (1 << config.log_wm_rows) * config.recent_unfiltered],
            wrs: vec![0; 1 << config.log_wrs],
            history: PlainHistory::new(ring_slots(config.recent_unfiltered).max(64)),
            addrs: std::iter::repeat_n(0, config.recent_unfiltered).collect(),
            deep: Vec::new(),
            now: 0,
            theta: 40,
            threshold_ctr: 0,
            loop_pred: config.loop_predictor.then(PlainLoop::new),
            last: (0, false, false, false, false),
        }
    }

    fn key_of(pc: u64) -> u64 {
        mix64(pc >> 2) & 0x3FFF
    }

    fn wm_index(&self, pc: u64, age: usize) -> usize {
        let mut key = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (self.addrs[age] >> 2).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (age as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
        if self.config.folded_hist {
            key ^= self.history.fold_for(age + 1) << 20;
        }
        let row = (mix64(key) & ((1 << self.config.log_wm_rows) - 1)) as usize;
        row * self.config.recent_unfiltered + age
    }

    fn quantize_pos(pos: u64) -> u64 {
        match pos {
            0..=63 => pos,
            64..=255 => pos & !7,
            256..=1023 => pos & !31,
            _ => pos & !127,
        }
    }

    fn wrs_index(&self, pc: u64, entry: &Deep) -> usize {
        let pos = self.now - entry.birth;
        let mut key = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ entry.key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        if self.config.positional {
            key ^= Self::quantize_pos(pos).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        }
        if self.config.folded_hist {
            key ^= self.history.fold_for((pos as usize).min(16)) << 20;
        }
        (mix64(key) & ((1 << self.config.log_wrs) - 1)) as usize
    }

    /// The perceptron sum and the weight indices it read.
    fn compute(&self, pc: u64) -> (i32, Vec<usize>, Vec<(usize, bool)>) {
        let mut sum = i32::from(self.wb[((pc >> 2) & 0x3FF) as usize]);
        let mut wm_indices = Vec::new();
        for age in 0..self.config.recent_unfiltered {
            let idx = self.wm_index(pc, age);
            let w = i32::from(self.wm[idx]);
            sum += if self.history.bit(age) { w } else { -w };
            wm_indices.push(idx);
        }
        let mut wrs_terms = Vec::new();
        for entry in &self.deep {
            let idx = self.wrs_index(pc, entry);
            let w = i32::from(self.wrs[idx]);
            sum += if entry.outcome { w } else { -w } * 3;
            wrs_terms.push((idx, entry.outcome));
        }
        (sum, wm_indices, wrs_terms)
    }

    fn train(&mut self, pc: u64, taken: bool, wm_indices: &[usize], wrs_terms: &[(usize, bool)]) {
        let dir = if taken { 1 } else { -1 };
        let b = ((pc >> 2) & 0x3FF) as usize;
        self.wb[b] = (i32::from(self.wb[b]) + dir).clamp(-127, 127) as i8;
        for (age, &idx) in wm_indices.iter().enumerate() {
            let x = if self.history.bit(age) { 1 } else { -1 };
            self.wm[idx] = (i32::from(self.wm[idx]) + dir * x).clamp(-63, 63) as i8;
        }
        for &(idx, outcome) in wrs_terms {
            let x = if outcome { 1 } else { -1 };
            self.wrs[idx] = (i32::from(self.wrs[idx]) + dir * x).clamp(-15, 15) as i8;
        }
    }

    fn predict(&mut self, pc: u64) -> (bool, Provenance) {
        let (sum, used, base) = match self.bst.status(pc) {
            BranchStatus::NotFound | BranchStatus::NotTaken => (0, false, false),
            BranchStatus::Taken => (0, false, true),
            BranchStatus::NonBiased => {
                let sum = self.compute(pc).0;
                (sum, true, sum >= 0)
            }
        };
        let (pred, loop_used) = match self.loop_pred.as_ref().and_then(|lp| lp.predict(pc)) {
            Some((taken, true)) => (taken, true),
            _ => (base, false),
        };
        self.last = (sum, used, base, pred, loop_used);
        let provenance = if loop_used {
            Provenance {
                component: "loop",
                prediction: pred,
                alternate: Some(base),
                ..Default::default()
            }
        } else if used {
            Provenance {
                component: "perceptron",
                prediction: pred,
                margin: Some(i64::from(sum)),
                history_len: Some((self.config.recent_unfiltered + self.config.deep_depth) as u32),
                ..Default::default()
            }
        } else {
            Provenance::of("bst", pred)
        };
        (pred, provenance)
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let (sum, used, _, pred, _) = self.last;
        let before = self.bst.status(pc);
        let after = self.bst.commit(pc, taken);
        match before {
            BranchStatus::NotFound => {}
            BranchStatus::Taken | BranchStatus::NotTaken => {
                if after == BranchStatus::NonBiased {
                    let (_, wm, wrs) = self.compute(pc);
                    self.train(pc, taken, &wm, &wrs);
                }
            }
            BranchStatus::NonBiased => {
                if used {
                    let (_, wm, wrs) = self.compute(pc);
                    let wrong = (sum >= 0) != taken;
                    let below = sum.abs() <= self.theta;
                    if wrong || below {
                        self.train(pc, taken, &wm, &wrs);
                    }
                    if wrong {
                        self.threshold_ctr += 1;
                        if self.threshold_ctr >= 32 {
                            self.theta += 1;
                            self.threshold_ctr = 0;
                        }
                    } else if below {
                        self.threshold_ctr -= 1;
                        if self.threshold_ctr <= -32 {
                            self.theta = (self.theta - 1).max(6);
                            self.threshold_ctr = 0;
                        }
                    }
                }
            }
        }
        let entry = Deep {
            key: Self::key_of(pc),
            outcome: taken,
            birth: self.now,
        };
        let depth = self.config.deep_depth;
        match self.config.history_mode {
            HistoryMode::Unfiltered => {
                self.deep.insert(0, entry);
                self.deep.truncate(depth);
            }
            HistoryMode::BiasFiltered if after == BranchStatus::NonBiased => {
                self.deep.insert(0, entry);
                self.deep.truncate(depth);
            }
            HistoryMode::RecencyStack if after == BranchStatus::NonBiased => {
                if let Some(hit) = self.deep.iter().position(|e| e.key == entry.key) {
                    self.deep.remove(hit);
                }
                self.deep.insert(0, entry);
                self.deep.truncate(depth);
            }
            _ => {}
        }
        self.history.push(taken);
        self.addrs.push_front(pc);
        self.addrs.pop_back();
        self.now += 1;
        if let Some(lp) = self.loop_pred.as_mut() {
            lp.update(pc, taken, pred != taken);
        }
    }

    /// The snapshot in the predictor's checkpoint layout.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.bst.save_state(&mut w);
        w.i8_slice(&self.wb);
        w.i8_slice(&self.wm);
        w.i8_slice(&self.wrs);
        self.history
            .save(&mut w, ring_slots(self.config.recent_unfiltered));
        // The address ring: slot `head - 1 - age` holds age `age`.
        let ht = self.addrs.len();
        let head = (self.now % ht as u64) as usize;
        let mut ring = vec![0u64; ht];
        for (age, &pc) in self.addrs.iter().enumerate() {
            ring[(head + ht - 1 - age) % ht] = pc;
        }
        w.u64_slice(&ring);
        w.usize(head);
        // The bucketed folds: their own history, then each register.
        self.history.save(&mut w, 64);
        w.usize(BUCKETS.len());
        for olen in BUCKETS {
            w.u64(self.history.fold(olen, olen.min(16)));
        }
        w.u8(u8::from(
            self.config.history_mode == HistoryMode::RecencyStack,
        ));
        w.usize(self.deep.len());
        for e in &self.deep {
            w.u64(e.key);
            w.bool(e.outcome);
            w.u64(e.birth);
        }
        w.u64(self.now);
        w.i32(self.theta);
        w.i32(self.threshold_ctr);
        if let Some(lp) = &self.loop_pred {
            lp.save(&mut w);
        }
        w.into_bytes()
    }
}

fn snapshot(predictor: &mut dyn ConditionalPredictor) -> Vec<u8> {
    let mut w = StateWriter::new();
    predictor
        .checkpointing()
        .expect("bf-neural checkpoints")
        .save_state(&mut w);
    w.into_bytes()
}

/// Replays `trace`'s conditional branches through the predictor built
/// from `spec` and the reference built from `config`, comparing every
/// prediction and provenance, and the snapshots every
/// [`SNAPSHOT_EVERY`] commits. Every other compared snapshot is also
/// restored into a freshly built predictor that carries on in its place.
fn replay(spec: &str, config: BfNeuralConfig, trace: &Trace) -> u64 {
    let registry = bfbp::default_registry();
    let spec = PredictorSpec::parse(spec).expect("spec");
    let mut predictor = registry.build_spec(&spec).expect("build");
    let mut oracle = Oracle::new(config);
    let mut commits = 0u64;
    for r in trace.records() {
        if !r.kind.is_conditional() {
            continue;
        }
        let (want, provenance) = oracle.predict(r.pc);
        let got = predictor.predict(r.pc);
        let at = commits + 1;
        assert_eq!(got, want, "{}: prediction at commit {at}", trace.name());
        assert_eq!(
            predictor.last_provenance(),
            Some(provenance),
            "{}: provenance at commit {at}",
            trace.name()
        );
        predictor.update(r.pc, r.taken, r.target);
        oracle.update(r.pc, r.taken);
        commits += 1;
        if commits.is_multiple_of(SNAPSHOT_EVERY) {
            let bytes = snapshot(predictor.as_mut());
            assert!(
                bytes == oracle.snapshot(),
                "{}: snapshot bytes after commit {commits}",
                trace.name()
            );
            if commits.is_multiple_of(2 * SNAPSHOT_EVERY) {
                let mut fresh = registry.build_spec(&spec).expect("build");
                let mut r = StateReader::new(&bytes);
                fresh
                    .checkpointing()
                    .expect("bf-neural checkpoints")
                    .load_state(&mut r)
                    .expect("a snapshot the predictor wrote restores");
                r.finish().expect("no trailing bytes");
                predictor = fresh;
            }
        }
    }
    commits
}

fn every_suite_trace(spec: &str, config: BfNeuralConfig) {
    for trace_spec in suite::suite() {
        let len = (trace_spec.default_len() as f64 * SMOKE_SCALE) as usize;
        let trace = trace_spec.generate_len(len);
        let commits = replay(spec, config, &trace);
        assert!(commits > 0, "{}: no conditional branches", trace.name());
    }
}

#[test]
fn bf_neural_64kb_matches_the_reference_on_every_suite_trace() {
    every_suite_trace("bf-neural", BfNeuralConfig::budget_64kb());
}

#[test]
fn bf_neural_32kb_matches_the_reference_on_every_suite_trace() {
    every_suite_trace("bf-neural-32kb", BfNeuralConfig::budget_32kb());
}

#[test]
fn unfiltered_history_matches_the_reference_on_every_suite_trace() {
    every_suite_trace(
        "bf-neural:history-mode=unfiltered",
        BfNeuralConfig::ablation_fhist(),
    );
}

#[test]
fn bias_filtered_history_matches_the_reference_on_every_suite_trace() {
    every_suite_trace(
        "bf-neural:history-mode=bias-filtered",
        BfNeuralConfig::ablation_bias_free_ghist(),
    );
}

/// Replays every tenth suite trace: enough to cover each workload family
/// for the configurations that only exercise edge paths.
fn every_tenth_suite_trace(spec: &str, config: BfNeuralConfig) {
    for trace_spec in suite::suite().into_iter().step_by(10) {
        let len = (trace_spec.default_len() as f64 * SMOKE_SCALE) as usize;
        let trace = trace_spec.generate_len(len);
        let commits = replay(spec, config, &trace);
        assert!(commits > 0, "{}: no conditional branches", trace.name());
    }
}

#[test]
fn one_recent_outcome_matches_the_reference() {
    // A one-slot address ring, and a packed outcome word of one bit.
    every_tenth_suite_trace(
        "bf-neural:recent-unfiltered=1",
        BfNeuralConfig {
            recent_unfiltered: 1,
            ..BfNeuralConfig::budget_64kb()
        },
    );
}

#[test]
fn more_than_64_recent_outcomes_match_the_reference() {
    // Ages 64 and up fall outside the packed outcome word and are read
    // from a two-word ring.
    every_tenth_suite_trace(
        "bf-neural:recent-unfiltered=80",
        BfNeuralConfig {
            recent_unfiltered: 80,
            ..BfNeuralConfig::budget_64kb()
        },
    );
}
