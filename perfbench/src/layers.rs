//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions from this
//! file, fed with the workload's own input stream, and records spans
//! around them; the per-layer metric is the spans' self time over the
//! work they did. A workload that measures a layer itself (the sweep's
//! engine, the tuner's rungs, the server's sessions) sets that metric
//! first, and [`fill`] leaves it alone.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use bfbp_core::bf_ghr::BfGhr;
use bfbp_core::bst::{BranchStatus, Bst};
use bfbp_predictors::history::{mix64, PathHistory};
use bfbp_sim::ckpt::{write_ckpt_file, StateWriter};
use bfbp_sim::engine::{self, SweepOptions, TraceInput};
use bfbp_sim::obs::Metrics;
use bfbp_sim::predictor::ConditionalPredictor;
use bfbp_sim::registry::PredictorSpec;
use bfbp_sim::simulate::Simulation;
use bfbp_sim::tune::{rung_records, tune, SearchSpace, TuneOptions, TuneReport};
use bfbp_sim::wire::{
    decode_predict_batch_into, decode_predict_reply_into, encode_predict_reply, CondBatch,
    FrameReader,
};
use bfbp_tage::config::TageConfig;
use bfbp_tage::tage::TageCore;
use bfbp_trace::format::TraceReader;
use bfbp_trace::record::Trace;
use bfbp_trace::synth::suite::TraceSpec;

use crate::catalogue::{BARE_LOOPS, PER_LAYER};
use crate::common::{bare_loop, Ctx, SPAN_RECORDS};
use crate::gate::Counts;
use crate::stats;
use crate::wire_client::{FrameSet, WireClient};
use crate::workloads::serve::ServerProc;

/// What the probes are fed: the workload's own inputs.
#[derive(Debug, Default)]
pub struct ProbeInput {
    /// The probe stream: the workload's traces, each cut to a prefix so
    /// the whole stream stays near [`PROBE_RECORDS`].
    pub traces: Vec<Trace>,
    /// The workload's trace-cache files, for the decode probe.
    pub cache_files: Vec<PathBuf>,
    /// The workload's predictor specs (engine, checkpoint, service and
    /// registry probes).
    pub specs: Vec<PredictorSpec>,
    /// For workloads that run no tuner: the search space and traces of a
    /// single-candidate tune, sized to about [`PROBE_RECORDS`] records.
    pub tune: Option<(String, Vec<TraceSpec>, f64)>,
}

/// Approximate record count of the probe stream.
pub const PROBE_RECORDS: usize = 400_000;

/// Frames of the wire probe hold at most this many records, like the
/// serve workload's.
pub const FRAME_RECORDS: usize = 64;

/// Runs every probe whose metric the workload has not set itself.
pub fn fill(ctx: &mut Ctx, input: &ProbeInput) {
    let span = ctx.tracer.open("bench.layers");
    decode(ctx, &input.cache_files);
    let bf_tage_misses = record_loops(ctx, &input.traces);
    components(ctx, &input.traces, bf_tage_misses);
    checkpoints(ctx, &input.specs, &input.traces);
    if !ctx.layer.contains_key("sim.engine.idle_frac")
        || !ctx.layer.contains_key("sim.obs.metrics_overhead_frac")
    {
        engine_probe(ctx, &input.specs, &input.traces);
    }
    wire(ctx, &input.traces);
    if !ctx.layer.contains_key("sim.service.open_ms") {
        service(ctx, &input.specs);
    }
    if let Some((space, specs, scale)) = &input.tune {
        if !ctx.layer.contains_key("sim.tune.rung_s.0") {
            mini_tune(ctx, space, specs, *scale);
        }
    }
    ctx.tracer.close(span);
    ctx.layer_per_span("trace.cache.fetch_warm_ms", "trace.cache.fetch", 1e6);
    ctx.layer_per_span("sim.registry.build_us", "sim.registry.build_spec", 1e3);
    for def in PER_LAYER {
        assert!(
            ctx.layer.contains_key(def.name) || def.name == "bench.trace_overhead_frac",
            "per-layer metric {} was never measured",
            def.name
        );
    }
}

/// Cuts each trace of `traces` to an equal share of [`PROBE_RECORDS`].
pub fn probe_stream(traces: &[Trace]) -> Vec<Trace> {
    let share = PROBE_RECORDS.div_ceil(traces.len().max(1));
    traces
        .iter()
        .map(|t| crate::common::prefix(t, share))
        .collect()
}

/// `TraceReader` drained over every cache file.
fn decode(ctx: &mut Ctx, files: &[PathBuf]) {
    let mut records = 0u64;
    for path in files {
        let file = std::fs::File::open(path).expect("the workload's cache entry exists");
        ctx.tracer.span("trace.format.decode", |_| {
            let reader = TraceReader::new(file).expect("a cache entry has a valid header");
            for record in reader {
                record.expect("a cache entry decodes");
                records += 1;
            }
        });
    }
    ctx.layer_per(
        "trace.format.decode_ns_per_rec",
        "trace.format.decode",
        records as f64,
        1.0,
    );
}

/// Bare `predict`/`update`/`track_other` loops of every benchmarked
/// predictor, each checked against `Simulation::run_trace`, whose
/// static-taken runs time the record loop itself. Returns bf-tage's
/// mispredictions over the stream.
fn record_loops(ctx: &mut Ctx, traces: &[Trace]) -> u64 {
    let records: usize = traces.iter().map(Trace::len).sum();
    let mut introspected = Metrics::new();
    let mut bf_tage_misses = 0;
    for &(metric, name) in BARE_LOOPS {
        let spec = PredictorSpec::new(name);
        for trace in traces {
            let mut p = ctx.build(&spec);
            let bare = bare_loop(p.as_mut(), trace, &mut ctx.tracer, metric);
            if name == "bf-tage" {
                sum_counters(&mut introspected, p.as_ref());
                bf_tage_misses += bare.misses;
            }
            let mut q = ctx.build(&spec);
            let span = if name == "static-taken" {
                "sim.simulate.run_trace.static-taken"
            } else {
                "bench.check.run_trace"
            };
            let (result, _) = ctx.tracer.span(span, |_| {
                Simulation::new(q.as_mut())
                    .run_trace(trace)
                    .expect("an uncancelled replay completes")
            });
            let sim = Counts {
                conds: result.conditional_branches(),
                misses: result.mispredictions(),
            };
            let ok = ctx.gate.expect(
                &format!("run_trace vs bare loop, {name} {}", trace.name()),
                sim,
                bare,
            );
            ctx.gate.attempt(ok);
        }
        ctx.layer_per(metric, metric, records as f64, 1.0);
    }
    ctx.layer_per(
        "sim.simulate.loop_ns_per_rec",
        "sim.simulate.run_trace.static-taken",
        records as f64,
        1.0,
    );
    let counter = |m: &Metrics, k: &str| m.counter_value(k).unwrap_or(0) as f64;
    let commits = counter(&introspected, "bf_ghr.commits");
    let non_biased = counter(&introspected, "bf_ghr.non_biased_commits");
    ctx.layer
        .insert("core.bf_ghr.non_biased_frac", ratio(non_biased, commits));
    let failures = counter(&introspected, "tage.alloc_failures");
    let allocs: f64 = (1..=64)
        .map(|i| counter(&introspected, &format!("tage.table{i}.allocs")))
        .sum();
    ctx.layer.insert(
        "tage.core.alloc_fail_frac",
        ratio(failures, allocs + failures),
    );
    bf_tage_misses
}

/// Adds `p`'s introspection counters into `into`.
fn sum_counters(into: &mut Metrics, p: &dyn ConditionalPredictor) {
    let Some(hook) = p.introspection() else {
        return;
    };
    let mut m = Metrics::new();
    hook.introspect(&mut m);
    for key in [
        "bf_ghr.commits",
        "bf_ghr.non_biased_commits",
        "tage.alloc_failures",
    ]
    .into_iter()
    .map(str::to_owned)
    .chain((1..=64).map(|i| format!("tage.table{i}.allocs")))
    {
        if let Some(v) = m.counter_value(&key) {
            into.incr(&key, v);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// BF-TAGE's component sequence replayed on the probe stream through
/// the public `Bst::commit`, `BfGhr::commit`, `BfGhr::fold_mixed` and
/// `TageCore::predict`/`update`, one pass per component so each can be
/// timed alone: BST classification, BF-GHR commit, commit plus fold
/// (fold = the difference), then the TAGE core fed the indices the
/// folds produce. The indices are hashed the way `bf-tage` hashes them,
/// so the replay's mispredictions should equal `bf-tage`'s; a difference
/// is reported in the result document.
fn components(ctx: &mut Ctx, traces: &[Trace], bf_tage_misses: u64) {
    let config = TageConfig::bias_free(10).expect("10 tables is a bias-free preset");
    let lens: Vec<usize> = config.tables.iter().map(|t| t.history_len).collect();
    let mut conds_total = 0u64;
    let mut replay_misses = 0u64;
    let mut sink = 0u64;
    for trace in traces {
        // Conditional stream with the path history each prediction sees.
        let mut path = PathHistory::new(config.path_bits);
        let mut conds: Vec<(u64, bool, u64)> = Vec::new();
        for r in trace.records() {
            if r.kind.is_conditional() {
                conds.push((r.pc, r.taken, path.value() & 0xFFFF));
            }
            path.push(r.pc);
        }
        conds_total += conds.len() as u64;
        let key_of = |pc: u64| (mix64(pc >> 2) & 0x3FFF) as u16;

        let mut bst = Bst::new(13);
        let mut non_biased = Vec::with_capacity(conds.len());
        for chunk in conds.chunks(SPAN_RECORDS) {
            ctx.tracer.span("core.bst.commit", |_| {
                for &(pc, taken, _) in chunk {
                    non_biased.push(bst.commit(pc, taken) == BranchStatus::NonBiased);
                }
            });
        }
        let mut ghr = BfGhr::new();
        for (chunk, nb) in conds
            .chunks(SPAN_RECORDS)
            .zip(non_biased.chunks(SPAN_RECORDS))
        {
            ctx.tracer.span("core.bf_ghr.commit", |_| {
                for (&(pc, taken, _), &nb) in chunk.iter().zip(nb) {
                    ghr.commit(key_of(pc), taken, nb);
                }
            });
        }
        let mut ghr = BfGhr::new();
        let mut folded = Vec::with_capacity(lens.len());
        for (chunk, nb) in conds
            .chunks(SPAN_RECORDS)
            .zip(non_biased.chunks(SPAN_RECORDS))
        {
            ctx.tracer.span("core.bf_ghr.commit_fold", |_| {
                for (&(pc, taken, _), &nb) in chunk.iter().zip(nb) {
                    ghr.fold_mixed(&lens, &mut folded);
                    sink ^= folded[lens.len() - 1];
                    ghr.commit(key_of(pc), taken, nb);
                }
            });
        }
        // Indices and tags, computed untimed the way bf-tage computes
        // them from the folds.
        let mut core = TageCore::new(&config);
        let n_tables = lens.len();
        let mut idx = vec![0usize; conds.len() * n_tables];
        let mut tags = vec![0u16; conds.len() * n_tables];
        let mut ghr = BfGhr::new();
        for (i, (&(pc, taken, path16), &nb)) in conds.iter().zip(&non_biased).enumerate() {
            ghr.fold_mixed(&lens, &mut folded);
            let pch = pc >> 2;
            let (mut h_tag, mut prev) = (0u64, 0u64);
            for (table, t) in core.tables().iter().enumerate() {
                let h_idx = folded[table];
                let path_mix = mix64(path16.wrapping_mul(0xC2B2_AE3D + table as u64));
                let raw_idx = pch ^ (pch >> (t.log_size() + 1)) ^ h_idx ^ (path_mix >> 3);
                idx[i * n_tables + table] = t.mask_index(raw_idx);
                if table == 0 || h_idx != prev {
                    h_tag = mix64(h_idx ^ 0xA5A5_5A5A_DEAD_BEEF);
                }
                prev = h_idx;
                tags[i * n_tables + table] = t.mask_tag(pch ^ h_tag ^ (h_tag >> 13));
            }
            ghr.commit(key_of(pc), taken, nb);
        }
        for (c, chunk) in conds.chunks(SPAN_RECORDS).enumerate() {
            ctx.tracer.span("tage.core.predict_update", |_| {
                for (k, &(pc, taken, _)) in chunk.iter().enumerate() {
                    let i = c * SPAN_RECORDS + k;
                    let row = i * n_tables..(i + 1) * n_tables;
                    let guess = core.predict(pc, &idx[row.clone()], &tags[row]);
                    replay_misses += u64::from(guess != taken);
                    core.update(pc, taken);
                }
            });
        }
    }
    std::hint::black_box(sink);
    let n = conds_total as f64;
    ctx.layer_per("core.bst.commit_ns_per_cond", "core.bst.commit", n, 1.0);
    ctx.layer_per(
        "core.bf_ghr.commit_ns_per_cond",
        "core.bf_ghr.commit",
        n,
        1.0,
    );
    ctx.layer_per(
        "tage.core.predict_update_ns_per_cond",
        "tage.core.predict_update",
        n,
        1.0,
    );
    let summary = ctx.tracer.summary();
    let ns = |name: &str| summary.get(name).map_or(0.0, |t| t.self_ns as f64);
    let fold = (ns("core.bf_ghr.commit_fold") - ns("core.bf_ghr.commit")).max(0.0);
    ctx.layer
        .insert("core.bf_ghr.fold_ns_per_cond", ratio(fold, n));
    ctx.detail_num("components.replay_misses", replay_misses as f64);
    ctx.detail_num("components.bf_tage_misses", bf_tage_misses as f64);
    if replay_misses != bf_tage_misses {
        ctx.detail_str(
            "components.note",
            "the component replay's TAGE indices no longer match bf-tage's; its timings use different indices",
        );
    }
}

/// Drives each workload predictor through `Simulation::checkpoint_every`
/// with a sink owned here that writes every snapshot with
/// `write_ckpt_file`; `Restorable::save_state` is timed on the finished
/// predictor.
fn checkpoints(ctx: &mut Ctx, specs: &[PredictorSpec], traces: &[Trace]) {
    let Some(trace) = traces.iter().max_by_key(|t| t.len()) else {
        return;
    };
    let every = (trace.len() as u64 / 4).clamp(SPAN_RECORDS as u64, 50_000);
    let dir = ctx.work_path("ckpt-probe");
    std::fs::create_dir_all(&dir).expect("the work directory is writable");
    let path = dir.join("job.ckpt");
    let (mut snapshots, mut bytes) = (0u64, 0u64);
    for spec in specs {
        let mut p = ctx.build(spec);
        let tracer = &mut ctx.tracer;
        let mut sink = |ckpt: bfbp_sim::ckpt::SimCheckpoint| {
            let mut w = StateWriter::new();
            ckpt.encode_into(&mut w);
            let payload = w.into_bytes();
            tracer.span("sim.ckpt.write", |_| {
                write_ckpt_file(&path, &payload).expect("checkpoint write succeeds");
            });
            snapshots += 1;
            bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        };
        Simulation::new(p.as_mut())
            .checkpoint_every(every, &mut sink)
            .run_trace(trace)
            .expect("an uncancelled replay completes");
        if let Some(restorable) = p.checkpointing() {
            for _ in 0..5 {
                ctx.tracer.span("sim.ckpt.save_state", |_| {
                    let mut w = StateWriter::new();
                    restorable.save_state(&mut w);
                    std::hint::black_box(w.len());
                });
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    ctx.layer_per_span("sim.ckpt.save_us", "sim.ckpt.save_state", 1e3);
    ctx.layer_per_span("sim.ckpt.write_ms", "sim.ckpt.write", 1e6);
    ctx.layer
        .insert("sim.ckpt.bytes", ratio(bytes as f64, snapshots as f64));
    ctx.layer.insert("sim.ckpt.snapshots", snapshots as f64);
    ctx.detail_num("ckpt.every_records", every as f64);
}

/// The workload's predictors over the probe stream through
/// `engine::sweep_inputs`, twice without and twice with `with_metrics()`
/// (alternating), each result checked against a direct `run_trace`.
fn engine_probe(ctx: &mut Ctx, specs: &[PredictorSpec], traces: &[Trace]) {
    let inputs: Vec<TraceInput> = traces
        .iter()
        .map(|t| TraceInput::Ready(Arc::new(t.clone())))
        .collect();
    let mut direct = Vec::new();
    for spec in specs {
        for trace in traces {
            let mut p = ctx.build(spec);
            let (r, _) = Simulation::new(p.as_mut())
                .run_trace(trace)
                .expect("an uncancelled replay completes");
            direct.push(Counts {
                conds: r.conditional_branches(),
                misses: r.mispredictions(),
            });
        }
    }
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    let (mut idle, mut retries, mut failed) = (Vec::new(), 0u64, 0u64);
    for round in 0..4 {
        let metrics = round % 2 == 1;
        let mut options = SweepOptions::new().with_threads(ctx.cfg.threads);
        if metrics {
            options = options.with_metrics();
        }
        let registry = &ctx.registry;
        let start = Instant::now();
        let report = ctx.tracer.span("sim.engine.sweep", |_| {
            engine::sweep_inputs(registry, specs, &inputs, &options)
                .expect("the probe sweep starts")
        });
        let wall = start.elapsed().as_secs_f64();
        (if metrics { &mut observed } else { &mut plain }).push(wall);
        let threads = report.threads().max(1) as f64;
        idle.push(1.0 - report.cpu().as_secs_f64() / (threads * report.wall().as_secs_f64()));
        for (job, want) in report.jobs().iter().zip(&direct) {
            retries += u64::from(job.attempts.saturating_sub(1));
            let got = job.record().map(|r| Counts {
                conds: r.result.conditional_branches(),
                misses: r.result.mispredictions(),
            });
            failed += u64::from(got.is_none());
            let ok = ctx
                .gate
                .expect("engine vs run_trace (probe)", got, Some(*want));
            ctx.gate.attempt(ok);
        }
    }
    ctx.layer
        .entry("sim.engine.idle_frac")
        .or_insert(stats::median(&idle));
    ctx.layer
        .entry("sim.engine.retries")
        .or_insert(retries as f64);
    ctx.layer
        .entry("sim.engine.jobs_failed")
        .or_insert(failed as f64);
    ctx.layer.insert(
        "sim.obs.metrics_overhead_frac",
        stats::median(&observed) / stats::median(&plain) - 1.0,
    );
}

/// Frames cut from the probe stream, encoded and decoded through the
/// wire module: client-side `PREDICT_BATCH` encode, server-side read and
/// decode, and the reply's decode.
fn wire(ctx: &mut Ctx, traces: &[Trace]) {
    let sets: Vec<FrameSet> = traces
        .iter()
        .map(|t| FrameSet::cut(t, FRAME_RECORDS))
        .collect();
    let (mut frames, mut decisions, mut bytes) = (0u64, 0u64, 0u64);
    let mut requests = Vec::new();
    let mut replies = Vec::new();
    let mut out = Vec::new();
    for set in &sets {
        for run in set.runs.iter().filter(|r| r.conditional) {
            set.encode_predict(1, *run, &mut out);
            requests.extend_from_slice(&out);
            let miss: Vec<bool> = set.takens[run.start..run.end].iter().map(|t| !t).collect();
            encode_predict_reply(1, &miss, &mut out);
            replies.extend_from_slice(&out);
            frames += 1;
            decisions += (run.end - run.start) as u64;
        }
        for run in set.runs.iter().filter(|r| !r.conditional) {
            set.encode_outcome(1, *run, &mut out);
            bytes += out.len() as u64;
            bfbp_sim::wire::Frame::OutcomeAck { session: 1 }.encode_into(&mut out);
            bytes += out.len() as u64;
        }
    }
    bytes += (requests.len() + replies.len()) as u64;
    const PASSES: usize = 3;
    for _ in 0..PASSES {
        for set in &sets {
            for chunk in set.runs.chunks(SPAN_RECORDS / FRAME_RECORDS) {
                ctx.tracer.span("sim.wire.encode", |_| {
                    for run in chunk.iter().filter(|r| r.conditional) {
                        set.encode_predict(1, *run, &mut out);
                        std::hint::black_box(out.len());
                    }
                });
            }
        }
        let mut reader = FrameReader::new();
        let mut batch = CondBatch::default();
        let mut rd: &[u8] = &requests;
        ctx.tracer.span("sim.wire.decode_batch", |_| {
            while let Some((_, payload)) = reader
                .read_from(&mut rd)
                .expect("frames encoded here decode")
            {
                decode_predict_batch_into(payload, &mut batch).expect("a PREDICT_BATCH payload");
            }
        });
        let mut miss = Vec::new();
        let mut rd: &[u8] = &replies;
        ctx.tracer.span("sim.wire.decode_reply", |_| {
            while let Some((_, payload)) = reader
                .read_from(&mut rd)
                .expect("frames encoded here decode")
            {
                decode_predict_reply_into(payload, &mut miss).expect("a PREDICT_REPLY payload");
            }
        });
    }
    let n = (frames as usize * PASSES) as f64;
    ctx.layer_per("sim.wire.encode_ns_per_frame", "sim.wire.encode", n, 1.0);
    ctx.layer_per(
        "sim.wire.decode_batch_ns_per_frame",
        "sim.wire.decode_batch",
        n,
        1.0,
    );
    ctx.layer_per(
        "sim.wire.decode_reply_ns_per_frame",
        "sim.wire.decode_reply",
        n,
        1.0,
    );
    ctx.layer.insert(
        "sim.wire.bytes_per_decision",
        ratio(bytes as f64, decisions as f64),
    );
}

/// Session opens of the workload's predictors against a server running
/// on a thread of this process. No frames are sent, so nothing is shed.
fn service(ctx: &mut Ctx, specs: &[PredictorSpec]) {
    let mut server = ServerProc::start(None);
    for (i, spec) in specs.iter().enumerate() {
        let session = i as u64 + 1;
        let mut client = WireClient::connect(server.addr()).expect("the probe server accepts");
        let text = spec_text(spec);
        ctx.tracer.span("sim.service.open", |_| {
            client.open(session, &text).expect("a workload spec opens");
        });
        client.close(session).expect("an open session closes");
    }
    server.stop();
    ctx.layer_per_span("sim.service.open_ms", "sim.service.open", 1e6);
    ctx.layer.insert("sim.service.shed_frac", 0.0);
}

/// A predictor spec in the text grammar `OPEN` frames carry.
pub fn spec_text(spec: &PredictorSpec) -> String {
    let params: Vec<String> = spec
        .params()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if params.is_empty() {
        spec.predictor().to_owned()
    } else {
        format!("{}:{}", spec.predictor(), params.join(","))
    }
}

/// A single-candidate 3-rung tune of `space` over `specs` at `scale`,
/// for workloads that run no tuner themselves.
fn mini_tune(ctx: &mut Ctx, space: &str, specs: &[TraceSpec], scale: f64) {
    let space = SearchSpace::parse(space).expect("the probe space parses");
    let options = tune_options(ctx, scale, "mini-tune");
    warm_rungs(ctx, specs, &options);
    let events = options
        .sweep
        .events
        .clone()
        .expect("tune_options sets events");
    let report =
        tune(&ctx.registry, &space, u64::MAX, specs, &options).expect("the probe tune runs");
    let rungs = crate::workloads::tune::rung_spans(&events);
    record_tune_layers(ctx, &report, specs, &options, &rungs);
}

/// The tuner options every tune here uses: eta 2, 3 rungs, the run's
/// thread count, `bfbp-tune/1` state and a `bfbp-events/1` journal in
/// a fresh directory named `dir` under the work directory.
pub fn tune_options(ctx: &Ctx, scale: f64, dir: &str) -> TuneOptions {
    let dir = ctx.work_path(dir);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the work directory is writable");
    TuneOptions {
        eta: 2,
        rungs: 3,
        scale,
        state: Some(dir.join("tune.state")),
        sweep: SweepOptions::new()
            .with_threads(ctx.cfg.threads)
            .with_events(dir.join("events.jsonl")),
        ..TuneOptions::default()
    }
}

/// Fetches every rung-length prefix the tuner will ask the cache for, so
/// the tune itself only ever hits.
pub fn warm_rungs(ctx: &mut Ctx, specs: &[TraceSpec], options: &TuneOptions) {
    for spec in specs {
        let full = bfbp_sim::runner::scaled_len(spec, options.scale);
        for rung in 0..options.rungs {
            let divisor = (options.eta as u64).pow((options.rungs - 1 - rung) as u32);
            ctx.place(spec, rung_records(full, divisor));
        }
    }
}

/// Per-rung wall time (from the tuner's own rung spans) and the exact
/// share of simulated records that re-simulate a prefix an earlier rung
/// already ran.
pub fn record_tune_layers(
    ctx: &mut Ctx,
    report: &TuneReport,
    specs: &[TraceSpec],
    options: &TuneOptions,
    rungs: &[f64],
) {
    for (i, name) in [
        "sim.tune.rung_s.0",
        "sim.tune.rung_s.1",
        "sim.tune.rung_s.2",
    ]
    .into_iter()
    .enumerate()
    {
        ctx.layer.insert(name, rungs.get(i).copied().unwrap_or(0.0));
    }
    let lens = |rung: usize| -> u64 {
        let divisor = (options.eta as u64).pow((options.rungs - 1 - rung) as u32);
        specs
            .iter()
            .map(|s| rung_records(bfbp_sim::runner::scaled_len(s, options.scale), divisor) as u64)
            .sum()
    };
    let (mut total, mut again) = (0u64, 0u64);
    for outcome in report.outcomes() {
        let n = outcome.scores.len() as u64;
        total += n * lens(outcome.rung);
        if outcome.rung > 0 {
            again += n * lens(outcome.rung - 1);
        }
    }
    ctx.layer.insert(
        "sim.tune.resimulated_frac",
        ratio(again as f64, total as f64),
    );
}
