//! Integration tests for crash-consistent mid-job checkpointing: the
//! snapshot/restore round-trip property for every registry predictor,
//! kill-resume byte-identity of the `bfbp-sweep/2` and `bfbp-metrics/1`
//! documents, torn/stale checkpoint quarantine, the `bfbp-journal/2`
//! checkpoint-reference interplay, cancellation-aware retry backoff,
//! and the consistency checks that reject corrupt BF-GHR and recency
//! stack snapshots.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bfbp::core::bf_ghr::{BfGhr, SEGMENT_BOUNDARIES};
use bfbp::predictors::history::mix64;
use bfbp::sim::ckpt::{CodecError, Restorable, SimCheckpoint, StateReader, StateWriter};
use bfbp::sim::engine::{sweep_inputs, JobStatus, SweepOptions, TraceInput};
use bfbp::sim::fault::FaultPlan;
use bfbp::sim::journal::Journal;
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::simulate::Simulation;
use bfbp::sim::RetryPolicy;
use bfbp::trace::record::Trace;
use bfbp::trace::rng::Xoshiro256;
use bfbp::trace::synth::suite;

/// A unique scratch path under the target temp dir.
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("bfbp-ckpt-tests-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{}-{name}", SEQ.fetch_add(1, Ordering::Relaxed)))
}

fn int1(n_records: usize) -> Trace {
    suite::find("INT1")
        .expect("INT1 in suite")
        .generate_len(n_records)
}

/// Deterministic pseudo-random index in `0..len`, keyed on `name` and
/// `salt` — snapshot boundaries vary per predictor without flaky tests.
fn pick(name: &str, salt: u64, len: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // One LCG step to decorrelate FNV's low bits before reducing.
    h = h
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((h >> 33) as usize) % len
}

/// Satellite (c): for EVERY registry predictor, a snapshot taken at a
/// mid-run record boundary, restored into a freshly built predictor,
/// must finish the trace with results and intervals identical to an
/// uninterrupted reference run — and taking the snapshots must not
/// perturb the run that produced them.
#[test]
fn snapshot_restore_roundtrip_matches_uninterrupted_run_for_every_predictor() {
    let registry = bfbp::default_registry();
    let trace = int1(4_000);
    for name in registry.names() {
        let spec = PredictorSpec::new(name);

        let mut reference_predictor = registry.build_spec(&spec).expect("build");
        let reference = Simulation::new(reference_predictor.as_mut())
            .intervals(1_000)
            .chunk_records(256)
            .run_trace(&trace)
            .expect("reference run");

        let mut snaps: Vec<SimCheckpoint> = Vec::new();
        {
            let mut predictor = registry.build_spec(&spec).expect("build");
            let mut sink = |c: SimCheckpoint| snaps.push(c);
            let checkpointed = Simulation::new(predictor.as_mut())
                .intervals(1_000)
                .chunk_records(256)
                .checkpoint_every(500, &mut sink)
                .run_trace(&trace)
                .expect("checkpointed run");
            assert_eq!(
                checkpointed, reference,
                "{name}: taking checkpoints must not alter results"
            );
        }
        assert!(
            !snaps.is_empty(),
            "{name}: every registry predictor must expose the checkpointing capability"
        );

        // A handful of pseudo-randomized boundaries per predictor: the
        // earliest snapshot, the latest, and two salted picks between.
        let mut indices = vec![0, snaps.len() - 1];
        indices.push(pick(name, 1, snaps.len()));
        indices.push(pick(name, 2, snaps.len()));
        indices.sort_unstable();
        indices.dedup();
        for i in indices {
            let snap = snaps[i].clone();
            let mut fresh = registry.build_spec(&spec).expect("build");
            let restorable = fresh
                .checkpointing()
                .expect("checkpointing capability present");
            let mut r = StateReader::new(&snap.predictor);
            restorable
                .load_state(&mut r)
                .unwrap_or_else(|e| panic!("{name}: load_state: {e}"));
            r.finish()
                .unwrap_or_else(|e| panic!("{name}: trailing state bytes: {e}"));
            let resumed = Simulation::new(fresh.as_mut())
                .intervals(1_000)
                .chunk_records(256)
                .resume_from(snap)
                .run_trace(&trace)
                .expect("resumed run");
            assert_eq!(
                resumed, reference,
                "{name}: resume from the snapshot at record boundary #{i} diverged"
            );
        }
    }
}

/// The tentpole invariant: kill a sweep job mid-trace, resume from the
/// on-disk checkpoint, and both the `bfbp-sweep/2` results document and
/// the `bfbp-metrics/1` metrics document must be byte-identical to an
/// uninterrupted run — for every registry predictor.
#[test]
fn kill_and_resume_is_byte_identical_for_every_predictor() {
    let registry = bfbp::default_registry();
    let trace = int1(10_000);
    for name in registry.names() {
        let specs = vec![PredictorSpec::new(name)];
        let inputs = [TraceInput::ready(trace.clone())];
        let clean = sweep_inputs(
            &registry,
            &specs,
            &inputs,
            &SweepOptions::serial().with_metrics(),
        )
        .expect("clean sweep");
        assert!(clean.is_fully_ok(), "{name}: clean run");

        let dir = scratch(&format!("ckpt-{name}"));
        fs::create_dir_all(&dir).expect("create checkpoint dir");
        // Chunk boundaries land every 4096 records, so the kill at 9000
        // fires at 10000 (end of trace) with checkpoints already written
        // at 4096 and 8192 — a genuine mid-trace snapshot.
        let killed = sweep_inputs(
            &registry,
            &specs,
            &inputs,
            &SweepOptions::serial()
                .with_metrics()
                .with_checkpoints(4_096, &dir)
                .with_fault_plan(FaultPlan::new().kill_at(0, 9_000)),
        )
        .expect("killed sweep");
        assert_eq!(killed.jobs()[0].status, JobStatus::Killed, "{name}");
        assert_eq!(killed.summary().killed, 1, "{name}");
        assert!(
            killed.results_json().contains("\"status\": \"killed\""),
            "{name}"
        );
        let ckpt_file = dir.join("job-0.ckpt");
        assert!(
            ckpt_file.exists(),
            "{name}: the killed job must leave its checkpoint on disk"
        );

        let events = scratch(&format!("resume-{name}.events.jsonl"));
        let resumed = sweep_inputs(
            &registry,
            &specs,
            &inputs,
            &SweepOptions::serial()
                .with_metrics()
                .with_checkpoints(4_096, &dir)
                .with_events(&events),
        )
        .expect("resumed sweep");
        assert!(resumed.is_fully_ok(), "{name}: resumed run");
        assert_eq!(
            resumed.results_json(),
            clean.results_json(),
            "{name}: bfbp-sweep/2 must be byte-identical after kill-resume"
        );
        assert_eq!(
            resumed.metrics_json(),
            clean.metrics_json(),
            "{name}: bfbp-metrics/1 must be byte-identical after kill-resume"
        );
        let journal = fs::read_to_string(&events).expect("event journal written");
        assert!(
            journal.contains("\"ev\": \"ckpt_restore\""),
            "{name}: the resume must restore from the checkpoint, not rerun from zero:\n{journal}"
        );
        assert!(
            !ckpt_file.exists(),
            "{name}: a completed job must remove its checkpoint"
        );
    }
}

/// A torn or corrupted checkpoint must never poison the run: the file
/// is quarantined, the job reruns from zero, and the results are still
/// byte-identical to an uninterrupted run.
#[test]
fn corrupt_checkpoint_is_quarantined_and_the_job_reruns_from_zero() {
    let registry = bfbp::default_registry();
    let trace = int1(10_000);
    let specs = vec![PredictorSpec::new("gshare")];
    let inputs = [TraceInput::ready(trace.clone())];
    let clean =
        sweep_inputs(&registry, &specs, &inputs, &SweepOptions::serial()).expect("clean sweep");

    let dir = scratch("corrupt-ckpt");
    fs::create_dir_all(&dir).expect("create checkpoint dir");
    sweep_inputs(
        &registry,
        &specs,
        &inputs,
        &SweepOptions::serial()
            .with_checkpoints(4_096, &dir)
            .with_fault_plan(FaultPlan::new().kill_at(0, 9_000)),
    )
    .expect("killed sweep");
    let ckpt_file = dir.join("job-0.ckpt");

    // Flip one payload byte: the trailer checksum must reject the file.
    let mut bytes = fs::read(&ckpt_file).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs::write(&ckpt_file, &bytes).expect("write corrupted checkpoint");

    let events = scratch("corrupt-ckpt.events.jsonl");
    let resumed = sweep_inputs(
        &registry,
        &specs,
        &inputs,
        &SweepOptions::serial()
            .with_checkpoints(4_096, &dir)
            .with_events(&events),
    )
    .expect("resumed sweep");
    assert!(resumed.is_fully_ok());
    assert_eq!(
        resumed.results_json(),
        clean.results_json(),
        "a corrupt checkpoint must degrade to a from-zero run, never wrong results"
    );
    let journal = fs::read_to_string(&events).expect("event journal written");
    assert!(
        journal.contains("\"ev\": \"ckpt_quarantined\""),
        "{journal}"
    );
    let quarantined = fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().ends_with(".quarantined"));
    assert!(quarantined, "the torn file must be kept for post-mortem");
    assert!(!ckpt_file.exists(), "the torn file must not be retried");
}

/// A `BfGhr` snapshot decoded field by field, so a test can break one
/// consistency rule and re-encode the rest unchanged.
#[derive(Clone)]
struct GhrSnapshot {
    ring: Vec<u32>,
    now: u64,
    counters: [u64; 2],
    segments: Vec<SegmentSnapshot>,
}

#[derive(Clone)]
struct SegmentSnapshot {
    /// `(key, outcome, birth)`, newest first.
    entries: Vec<(u64, bool, u64)>,
    words: Vec<u64>,
    pxor: Vec<u64>,
}

impl GhrSnapshot {
    fn of(ghr: &BfGhr) -> Self {
        let mut w = StateWriter::new();
        ghr.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let ring = r.u32_vec().unwrap();
        let now = r.u64().unwrap();
        let counters = [r.u64().unwrap(), r.u64().unwrap()];
        let segments = (0..r.usize().unwrap())
            .map(|_| {
                let entries = (0..r.usize().unwrap())
                    .map(|_| (r.u64().unwrap(), r.bool().unwrap(), r.u64().unwrap()))
                    .collect();
                SegmentSnapshot {
                    entries,
                    words: r.u64_vec().unwrap(),
                    pxor: r.u64_vec().unwrap(),
                }
            })
            .collect();
        r.finish().unwrap();
        Self {
            ring,
            now,
            counters,
            segments,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u32_slice(&self.ring);
        w.u64(self.now);
        w.u64(self.counters[0]);
        w.u64(self.counters[1]);
        w.usize(self.segments.len());
        for seg in &self.segments {
            w.usize(seg.entries.len());
            for &(key, outcome, birth) in &seg.entries {
                w.u64(key);
                w.bool(outcome);
                w.u64(birth);
            }
            w.u64_slice(&seg.words);
            w.u64_slice(&seg.pxor);
        }
        w.into_bytes()
    }

    /// Recomputes segment `s`'s words from its entries.
    fn rehash_words(&mut self, s: usize) {
        let seg = &mut self.segments[s];
        seg.words = seg
            .entries
            .iter()
            .map(|&(key, outcome, _)| {
                mix64((key << 20) ^ (u64::from(outcome) << 17) ^ ((s as u64 + 1) << 8))
            })
            .collect();
        self.rehash_pxor(s);
    }

    /// Recomputes segment `s`'s prefix XORs from its words.
    fn rehash_pxor(&mut self, s: usize) {
        let seg = &mut self.segments[s];
        seg.pxor = std::iter::once(0)
            .chain(seg.words.iter().scan(0, |acc, w| {
                *acc ^= w;
                Some(*acc)
            }))
            .collect();
    }

    /// The first segment holding at least two entries.
    fn busy_segment(&self) -> usize {
        self.segments
            .iter()
            .position(|seg| seg.entries.len() >= 2)
            .expect("a segment with two entries")
    }

    /// Restores the snapshot into a fresh paper-geometry register.
    fn load(&self) -> Result<(), CodecError> {
        let bytes = self.encode();
        let mut r = StateReader::new(&bytes);
        BfGhr::new().load_state(&mut r)?;
        r.finish()
    }
}

/// A register `commits` pseudo-random branches deep.
fn busy_ghr(commits: usize) -> GhrSnapshot {
    let mut rng = Xoshiro256::seed_from_u64(17);
    let mut ghr = BfGhr::new();
    for _ in 0..commits {
        ghr.commit(rng.below(40) as u16, rng.chance(0.5), rng.chance(0.5));
    }
    let snap = GhrSnapshot::of(&ghr);
    snap.load().expect("an intact snapshot restores");
    snap
}

fn assert_malformed(loaded: Result<(), CodecError>, rule: &str) {
    match loaded {
        Err(CodecError::Malformed(what)) => {
            assert!(
                what.contains(rule),
                "expected a {rule:?} rejection, got {what:?}"
            )
        }
        other => panic!("expected a {rule:?} rejection, got {other:?}"),
    }
}

#[test]
fn bf_ghr_snapshot_with_a_key_wider_than_14_bits_is_rejected() {
    let mut snap = busy_ghr(5_000);
    let s = snap.busy_segment();
    snap.segments[s].entries[0].0 |= 1 << 14;
    snap.rehash_words(s);
    assert_malformed(snap.load(), "wider than 14 bits");
}

#[test]
fn bf_ghr_snapshot_with_a_duplicate_key_is_rejected() {
    let mut snap = busy_ghr(5_000);
    let s = snap.busy_segment();
    snap.segments[s].entries[1].0 = snap.segments[s].entries[0].0;
    snap.rehash_words(s);
    assert_malformed(snap.load(), "duplicate key");
}

#[test]
fn bf_ghr_snapshot_with_a_bad_birth_is_rejected() {
    let good = busy_ghr(5_000);
    let s = good.busy_segment();
    // Out of order: the two newest entries swap births.
    let mut snap = good.clone();
    let entries = &mut snap.segments[s].entries;
    (entries[0].2, entries[1].2) = (entries[1].2, entries[0].2);
    assert_malformed(snap.load(), "birth");
    // In the future.
    let mut snap = good.clone();
    snap.segments[s].entries[0].2 = snap.now + 1;
    assert_malformed(snap.load(), "birth");
    // Old enough to have left the segment.
    let mut snap = good.clone();
    let span = (SEGMENT_BOUNDARIES[s + 1] - SEGMENT_BOUNDARIES[s]) as u64;
    let bottom = snap.segments[s].entries.len() - 1;
    snap.segments[s].entries[bottom].2 = snap.now - span;
    assert_malformed(snap.load(), "birth");
}

#[test]
fn bf_ghr_snapshot_with_a_word_that_does_not_match_its_entry_is_rejected() {
    let mut snap = busy_ghr(5_000);
    let s = snap.busy_segment();
    snap.segments[s].words[0] ^= 1;
    snap.rehash_pxor(s);
    assert_malformed(snap.load(), "word does not match");
}

#[test]
fn bf_ghr_snapshot_with_wrong_prefix_xors_is_rejected() {
    let mut snap = busy_ghr(5_000);
    let s = snap.busy_segment();
    snap.segments[s].pxor[1] ^= 1;
    assert_malformed(snap.load(), "prefix XORs");
}

#[test]
fn bf_ghr_snapshot_with_an_impossible_clock_is_rejected() {
    let mut snap = busy_ghr(5_000);
    snap.now = u64::MAX;
    assert_malformed(snap.load(), "clock out of range");
}

#[test]
fn bf_ghr_snapshot_with_a_bad_ring_slot_is_rejected() {
    // A slot carrying bits outside key, direction and bias status.
    let mut snap = busy_ghr(5_000);
    snap.ring[7] |= 1 << 20;
    assert_malformed(snap.load(), "wider than its fields");
    // A slot the clock has not reached yet.
    let mut snap = busy_ghr(100);
    snap.ring[200] = 1 << 17;
    assert_malformed(snap.load(), "ahead of the clock");
}

/// A `bf-neural` snapshot split around its recency stack, so a test can
/// break one of the stack's rules and re-encode the rest unchanged.
#[derive(Clone)]
struct NeuralSnapshot {
    /// Everything before the stack: BST, weights, recent history, folds
    /// and the deep-history mode tag.
    head: Vec<u8>,
    /// `(key, outcome, birth)`, newest first.
    stack: Vec<(u64, bool, u64)>,
    /// Everything after: the clock (first), threshold and loop table.
    tail: Vec<u8>,
}

impl NeuralSnapshot {
    fn of(predictor: &mut dyn bfbp::sim::predictor::ConditionalPredictor) -> Self {
        let mut w = StateWriter::new();
        predictor.checkpointing().unwrap().save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.u8().unwrap(); // classifier variant
        r.bytes().unwrap(); // BST entries
        r.u64().unwrap(); // BST commits
        r.u64().unwrap(); // BST known commits
        for _ in 0..3 {
            r.i8_vec().unwrap(); // Wb, Wm, Wrs
        }
        r.u64_vec().unwrap(); // recent outcomes
        r.usize().unwrap();
        r.usize().unwrap();
        r.u64_vec().unwrap(); // recent addresses
        r.usize().unwrap();
        r.u64_vec().unwrap(); // fold history
        r.usize().unwrap();
        r.usize().unwrap();
        let folds = r.usize().unwrap();
        for _ in 0..folds {
            r.u64().unwrap();
        }
        assert_eq!(r.u8().unwrap(), 1, "recency-stack mode");
        let head = bytes[..bytes.len() - r.remaining()].to_vec();
        let stack = (0..r.usize().unwrap())
            .map(|_| (r.u64().unwrap(), r.bool().unwrap(), r.u64().unwrap()))
            .collect();
        let tail = bytes[bytes.len() - r.remaining()..].to_vec();
        Self { head, stack, tail }
    }

    fn now(&self) -> u64 {
        u64::from_le_bytes(self.tail[..8].try_into().unwrap())
    }

    /// Restores the snapshot into a freshly built `bf-neural`.
    fn load(&self) -> Result<(), CodecError> {
        let mut w = StateWriter::new();
        w.usize(self.stack.len());
        for &(key, outcome, birth) in &self.stack {
            w.u64(key);
            w.bool(outcome);
            w.u64(birth);
        }
        let bytes = [self.head.as_slice(), &w.into_bytes(), &self.tail].concat();
        let mut predictor = bfbp::default_registry()
            .build_spec(&PredictorSpec::new("bf-neural"))
            .unwrap();
        let mut r = StateReader::new(&bytes);
        predictor.checkpointing().unwrap().load_state(&mut r)?;
        r.finish()
    }
}

/// A `bf-neural` after a prefix of INT1 long enough to fill its stack.
fn busy_neural() -> NeuralSnapshot {
    let mut predictor = bfbp::default_registry()
        .build_spec(&PredictorSpec::new("bf-neural"))
        .unwrap();
    Simulation::new(predictor.as_mut())
        .run_trace(&int1(20_000))
        .unwrap();
    let snap = NeuralSnapshot::of(predictor.as_mut());
    assert!(snap.stack.len() >= 2, "a stack with two entries");
    snap.load().expect("an intact snapshot restores");
    snap
}

#[test]
fn recency_stack_snapshot_with_a_duplicate_key_is_rejected() {
    let mut snap = busy_neural();
    snap.stack[1].0 = snap.stack[0].0;
    assert_malformed(snap.load(), "duplicate key");
}

#[test]
fn recency_stack_snapshot_with_a_key_wider_than_14_bits_is_rejected() {
    let mut snap = busy_neural();
    snap.stack[0].0 |= 1 << 14;
    assert_malformed(snap.load(), "wider than 14 bits");
}

#[test]
fn recency_stack_snapshot_with_births_out_of_order_is_rejected() {
    let good = busy_neural();
    // The two newest entries swap births.
    let mut snap = good.clone();
    (snap.stack[0].2, snap.stack[1].2) = (snap.stack[1].2, snap.stack[0].2);
    assert_malformed(snap.load(), "not strictly decreasing");
    // Two entries born at the same commit.
    let mut snap = good.clone();
    snap.stack[1].2 = snap.stack[0].2;
    assert_malformed(snap.load(), "not strictly decreasing");
}

#[test]
fn recency_stack_snapshot_with_a_birth_at_or_after_the_clock_is_rejected() {
    let good = busy_neural();
    for birth in [good.now(), good.now() + 5] {
        let mut snap = good.clone();
        snap.stack[0].2 = birth;
        assert_malformed(snap.load(), "at or after the clock");
    }
    // The idealized predictor restores its stack and clock the same way.
    let mut ideal = bfbp::default_registry()
        .build_spec(&PredictorSpec::parse("bf-neural-ideal:log-rows=10").unwrap())
        .unwrap();
    Simulation::new(ideal.as_mut())
        .run_trace(&int1(5_000))
        .unwrap();
    let mut w = StateWriter::new();
    ideal.checkpointing().unwrap().save_state(&mut w);
    let mut bytes = w.into_bytes();
    // The clock is the last field; wind it back to zero, before every
    // recorded birth.
    let at = bytes.len() - 8;
    bytes[at..].copy_from_slice(&0u64.to_le_bytes());
    let mut r = StateReader::new(&bytes);
    assert_malformed(
        ideal.checkpointing().unwrap().load_state(&mut r),
        "at or after the clock",
    );
}

/// A checkpoint recorded for one sweep matrix must never restore into
/// another: the stale file is quarantined and the job runs from zero.
#[test]
fn stale_checkpoint_from_a_different_matrix_is_quarantined() {
    let registry = bfbp::default_registry();
    let trace = int1(10_000);
    let dir = scratch("stale-ckpt");
    fs::create_dir_all(&dir).expect("create checkpoint dir");

    let gshare = vec![PredictorSpec::new("gshare")];
    let inputs = [TraceInput::ready(trace.clone())];
    sweep_inputs(
        &registry,
        &gshare,
        &inputs,
        &SweepOptions::serial()
            .with_checkpoints(4_096, &dir)
            .with_fault_plan(FaultPlan::new().kill_at(0, 9_000)),
    )
    .expect("killed sweep");
    assert!(dir.join("job-0.ckpt").exists());

    // A different matrix (bimodal, not gshare) over the same directory:
    // job 0 finds the stale file, rejects it, and runs from zero.
    let bimodal = vec![PredictorSpec::new("bimodal")];
    let clean =
        sweep_inputs(&registry, &bimodal, &inputs, &SweepOptions::serial()).expect("clean sweep");
    let crossed = sweep_inputs(
        &registry,
        &bimodal,
        &inputs,
        &SweepOptions::serial().with_checkpoints(4_096, &dir),
    )
    .expect("crossed sweep");
    assert!(crossed.is_fully_ok());
    assert_eq!(crossed.results_json(), clean.results_json());
    let quarantined = fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().ends_with(".quarantined"));
    assert!(
        quarantined,
        "the stale file must be quarantined, not deleted"
    );
}

/// Journal interplay: a killed job is never journaled as terminal (it
/// is still in flight, like a SIGKILLed process), its checkpoint IS
/// referenced from the `bfbp-journal/2` file, and a journal resume plus
/// checkpoint restore reproduces the uninterrupted document.
#[test]
fn killed_jobs_stay_out_of_the_journal_but_their_checkpoints_are_referenced() {
    let registry = bfbp::default_registry();
    let traces = [int1(10_000), {
        suite::find("MM2")
            .expect("MM2 in suite")
            .generate_len(10_000)
    }];
    let inputs = [
        TraceInput::ready(traces[0].clone()),
        TraceInput::ready(traces[1].clone()),
    ];
    let specs = vec![
        PredictorSpec::new("gshare").labeled("g"),
        PredictorSpec::new("bimodal").labeled("b"),
    ];
    let clean =
        sweep_inputs(&registry, &specs, &inputs, &SweepOptions::serial()).expect("clean sweep");

    let dir = scratch("journal-ckpt");
    fs::create_dir_all(&dir).expect("create checkpoint dir");
    let journal = scratch("killed.journal");
    // Kill job 2 (bimodal on INT1) after the 4096-record checkpoint.
    let killed = sweep_inputs(
        &registry,
        &specs,
        &inputs,
        &SweepOptions::serial()
            .with_journal(&journal)
            .with_checkpoints(4_096, &dir)
            .with_fault_plan(FaultPlan::new().kill_at(2, 5_000)),
    )
    .expect("killed sweep");
    assert_eq!(killed.jobs()[2].status, JobStatus::Killed);
    assert_eq!(killed.summary().ok, 3);

    let loaded = Journal::load(&journal, None).expect("journal loads");
    assert_eq!(
        loaded.entries.keys().copied().collect::<Vec<_>>(),
        vec![0, 1, 3],
        "the killed job must not be journaled as terminal"
    );
    let ckpt_ref = loaded
        .checkpoints
        .get(&2)
        .expect("the killed job's checkpoint must be referenced");
    assert_eq!(ckpt_ref.records, 4_096);
    assert_eq!(ckpt_ref.file, dir.join("job-2.ckpt"));
    assert!(ckpt_ref.file.exists());

    // Resume: jobs 0, 1, 3 restore from the journal; job 2 restores
    // mid-trace from its checkpoint and finishes.
    let resumed = sweep_inputs(
        &registry,
        &specs,
        &inputs,
        &SweepOptions::serial()
            .resuming(&journal)
            .with_checkpoints(4_096, &dir),
    )
    .expect("resumed sweep");
    assert!(resumed.is_fully_ok());
    assert_eq!(resumed.summary().resumed, 3);
    assert_eq!(
        resumed.results_json(),
        clean.results_json(),
        "journal restore + mid-trace checkpoint restore must reproduce the clean document"
    );
}

/// Satellite (a): the retry backoff sleep must be cancellation-aware.
/// A job with a large backoff and a small wall-clock budget must report
/// `timed_out` as soon as the watchdog fires — not after the backoff.
#[test]
fn retry_backoff_is_interrupted_by_the_watchdog() {
    let registry = bfbp::default_registry();
    let specs = vec![PredictorSpec::new("gshare")];
    let inputs = [TraceInput::ready(int1(2_000))];
    let options = SweepOptions::serial()
        .with_retry(RetryPolicy::retries(3, Duration::from_secs(60)))
        .with_timeout(Duration::from_millis(200))
        .with_fault_plan(FaultPlan::new().panic_at(0));
    let start = Instant::now();
    let report = sweep_inputs(&registry, &specs, &inputs, &options).expect("sweep");
    let elapsed = start.elapsed();
    assert_eq!(report.jobs()[0].status, JobStatus::TimedOut);
    assert_eq!(
        report.jobs()[0].attempts,
        1,
        "the watchdog fires inside the first backoff, before attempt 2"
    );
    assert!(
        elapsed < Duration::from_secs(20),
        "a 60 s backoff must not outlive a 200 ms budget (took {elapsed:?})"
    );
}
