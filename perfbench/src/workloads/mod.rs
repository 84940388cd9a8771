//! The four workloads, and what they share: the BF replay probe and the
//! latency summary.

pub mod replay;
pub mod serve;
pub mod sweep;
pub mod tune;

use std::time::Instant;

use bfbp_sim::predictor::ConditionalPredictor;
use bfbp_sim::registry::PredictorSpec;
use bfbp_sim::simulate::{SimResult, Simulation};
use bfbp_trace::record::Trace;
use bfbp_trace::synth::suite::TraceSpec;

use crate::catalogue::BF_REPLAY;
use crate::common::{json_str, window_offset, Ctx, SPAN_RECORDS};
use crate::gate::Counts;
use crate::stats;

/// Records of the BF replay probe on workloads other than replay-bf.
pub const BF_PROBE_RECORDS: usize = 100_000;

/// `Simulation::run_trace` of `predictor` over `trace`, timed chunk by
/// chunk: the cancellation hook is polled at every record-chunk
/// boundary, so reading the clock there times each chunk. Returns the
/// result and every chunk's time in µs, in order (the last chunk may be
/// partial).
pub fn timed_replay(
    predictor: &mut dyn ConditionalPredictor,
    trace: &Trace,
) -> (SimResult, Vec<f64>) {
    let mut marks: Vec<Instant> = Vec::with_capacity(trace.len() / SPAN_RECORDS + 2);
    let mut mark = || {
        marks.push(Instant::now());
        false
    };
    let (result, _) = Simulation::new(predictor)
        .cancel(&mut mark)
        .run_trace(trace)
        .expect("an uncancelled replay completes");
    marks.push(Instant::now());
    // marks[0] follows the first chunk's fill; each later gap is one
    // chunk's simulation plus the next chunk's fill.
    let chunks = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect();
    (result, chunks)
}

/// Element-wise minimum of repeated chunk timings of identical work (the
/// same predictor, freshly built, over the same trace): every chunk's
/// fastest repetition (see [`FAST_QUANTILE`]). On this kind of host fast
/// phases last a few hundred milliseconds, so a whole job rarely runs
/// inside one, but every chunk does in some repetition.
#[derive(Debug, Default, Clone)]
pub struct ChunkMinima {
    us: Vec<f64>,
}

impl ChunkMinima {
    /// Folds in one repetition's chunk times.
    pub fn add(&mut self, chunks: &[f64]) {
        if self.us.is_empty() {
            self.us = chunks.to_vec();
        }
        for (best, &us) in self.us.iter_mut().zip(chunks) {
            *best = best.min(us);
        }
    }

    /// The job's time at every chunk's fastest repetition, seconds.
    pub fn total_s(&self) -> f64 {
        self.us.iter().sum::<f64>() / 1e6
    }

    /// The minima of the full chunks of a `len`-record trace (all of
    /// them when the trace is shorter than one chunk).
    pub fn full_chunks_us(&self, len: usize) -> Vec<f64> {
        self.us[..(len / SPAN_RECORDS).clamp(1, self.us.len())].to_vec()
    }
}

/// Single-thread `Simulation::run_trace` throughput of the three BF
/// predictors, for workloads whose own work runs none of them: each
/// round replays every BF predictor once over a prefix of the
/// workload's first trace; each rate comes from every chunk's fastest
/// round.
#[derive(Debug)]
pub struct BfProbe {
    trace: Trace,
    chunks: Vec<ChunkMinima>,
}

impl BfProbe {
    /// A probe over the first [`BF_PROBE_RECORDS`] records (fewer at a
    /// reduced `--scale`) of `spec`'s window at full length.
    pub fn new(ctx: &mut Ctx, spec: &TraceSpec) -> Self {
        let n = BF_PROBE_RECORDS.min(bfbp_sim::runner::scaled_len(spec, ctx.cfg.scale));
        ctx.place(spec, n);
        Self {
            trace: ctx.cache.fetch(spec, n).0,
            chunks: vec![ChunkMinima::default(); BF_REPLAY.len()],
        }
    }

    /// One round: every BF predictor once, each result checked against
    /// the first round's (and, for the default seed, the golden file).
    /// Workloads run one round after each repetition of their own work,
    /// so the rounds are spread over the whole window.
    pub fn round(&mut self, ctx: &mut Ctx) {
        for (i, &(_, name)) in BF_REPLAY.iter().enumerate() {
            let mut p = ctx.build(&PredictorSpec::new(name));
            let (result, chunks) = timed_replay(p.as_mut(), &self.trace);
            self.chunks[i].add(&chunks);
            let counts = Counts {
                conds: result.conditional_branches(),
                misses: result.mispredictions(),
            };
            let key = format!("probe {name} {}", self.trace.name());
            let ok = ctx.gate.observe(key, counts.render());
            ctx.gate.attempt(ok);
        }
    }

    /// Records every BF predictor's rate.
    pub fn finish(self, ctx: &mut Ctx) {
        for (i, &(metric, _)) in BF_REPLAY.iter().enumerate() {
            ctx.e2e
                .insert(metric, self.trace.len() as f64 / self.chunks[i].total_s());
        }
        ctx.detail_num("bf_probe.records", self.trace.len() as f64);
    }
}

/// Which repetition of identical work a timing figure comes from: the
/// 10th-percentile (fast-end) one.
///
/// Every timing figure of the benchmark comes from the fast end of a
/// run's repetitions. On a shared 2-vCPU host, execution speed flips
/// between states about 2x apart: the same 100k-record bf-tage replay
/// took 27.6 to 54.4 ms within one process, with the thread on the CPU
/// throughout (its scheduler run time grew with the wall time), in fast
/// phases of a few hundred milliseconds between slow stretches of
/// seconds. Interference only ever adds time, so the fast end estimates
/// the work's own cost, while a median moves with the share of slow
/// phases a run happens to catch. Where a repetition is longer than a
/// fast phase the benchmark times smaller units instead (chunks, jobs,
/// frames of a session).
pub const FAST_QUANTILE: f64 = 0.1;

/// Records `frame_rtt_p50_us` (median) and `frame_rtt_p99_us` (the
/// highest percentile up to 99 with at least ten samples beyond it) of
/// per-operation latencies in microseconds, with the sample count and
/// the percentile actually reported.
pub fn record_latency(ctx: &mut Ctx, what: &str, latencies_us: &[f64]) {
    ctx.e2e
        .insert("frame_rtt_p50_us", stats::median(latencies_us));
    let tail = stats::tail(latencies_us, 99);
    ctx.e2e
        .insert("frame_rtt_p99_us", tail.map_or(f64::NAN, |t| t.value));
    ctx.detail_str("frame_rtt.operation", what);
    ctx.detail_num("frame_rtt.samples", latencies_us.len() as f64);
    if let Some(t) = tail {
        ctx.detail_num("frame_rtt.tail_percentile", t.percentile);
        ctx.detail_num("frame_rtt.tail_beyond", t.beyond as f64);
    }
}

/// Records the workload's fingerprint: every trace (name, length, the
/// suite trace's content fingerprint over the stream up to the window's
/// end, and the window's start) and predictor spec.
pub fn fingerprint(ctx: &mut Ctx, traces: &[(TraceSpec, usize)], predictors: &[String]) {
    let seed = ctx.cfg.seed;
    let items: Vec<String> = traces
        .iter()
        .map(|(spec, n)| {
            let base_name = spec.name().split('~').next().unwrap_or_default();
            let base = bfbp_trace::synth::suite::find(base_name).unwrap_or_else(|| spec.clone());
            let offset = window_offset(&base, seed);
            format!(
                "{{\"name\": {}, \"records\": {n}, \"offset\": {offset}, \"fingerprint\": \"{:016x}\"}}",
                json_str(spec.name()),
                base.fingerprint(offset + *n)
            )
        })
        .collect();
    ctx.details
        .insert("workload.traces".into(), format!("[{}]", items.join(", ")));
    let specs: Vec<String> = predictors.iter().map(|p| json_str(p)).collect();
    ctx.details.insert(
        "workload.predictors".into(),
        format!("[{}]", specs.join(", ")),
    );
}

/// Median of `traced` over median of `plain`, minus one: the share by
/// which recording spans slowed the measured work.
pub fn trace_overhead(ctx: &mut Ctx, traced: &[f64], plain: &[f64]) {
    let value = if traced.is_empty() || plain.is_empty() {
        0.0
    } else {
        stats::median(traced) / stats::median(plain) - 1.0
    };
    ctx.layer.insert("bench.trace_overhead_frac", value);
}

/// Own peak resident set size, as `peak_rss_mb`.
pub fn record_own_rss(ctx: &mut Ctx) {
    let rss = crate::host::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    ctx.e2e.insert("peak_rss_mb", rss);
}
