//! `replay-bf`: single-thread `Simulation::run_trace` of `bf-tage`,
//! `bf-isl-tage` and `bf-neural` over in-memory traces chosen by stream
//! property. No decode, engine or I/O: BST classification, BF-GHR commit
//! and history folding dominate.

use std::time::Instant;

use bfbp_sim::registry::PredictorSpec;
use bfbp_trace::record::Trace;

use crate::catalogue::BF_REPLAY;
use crate::common::{bare_loop, repeat_for, seeded_find, Ctx};
use crate::gate::Counts;
use crate::layers::{self, ProbeInput};
use crate::stats;

/// The traces, chosen by property: few biased branches with deep
/// correlation, heavily biased, BF-hostile local patterns, and a large
/// footprint with phase flips.
pub const TRACES: [&str; 4] = ["SPEC03", "SPEC09", "MM5", "SERV3"];

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.cfg.seed;
    let specs: Vec<_> = TRACES.iter().map(|n| seeded_find(n, seed)).collect();
    let lens: Vec<usize> = specs.iter().map(|s| ctx.len_of(s, 1.0)).collect();
    for (spec, &n) in specs.iter().zip(&lens) {
        ctx.place(spec, n);
    }
    let preds: Vec<PredictorSpec> = BF_REPLAY
        .iter()
        .map(|(_, n)| PredictorSpec::new(n))
        .collect();
    let fp: Vec<_> = specs.iter().cloned().zip(lens.iter().copied()).collect();
    let names: Vec<String> = BF_REPLAY.iter().map(|(_, n)| (*n).to_owned()).collect();
    super::fingerprint(ctx, &fp, &names);

    let mut setup = |ctx: &mut Ctx| -> Vec<Trace> {
        let traces = specs
            .iter()
            .zip(&lens)
            .map(|(s, &n)| ctx.fetch(s, n))
            .collect();
        for p in &preds {
            drop(ctx.build(p));
        }
        traces
    };
    let traces = ctx.setup(&mut setup);

    // Independent path: the bare predict/update loop.
    let mut reference = Vec::new();
    for p in &preds {
        for t in &traces {
            let mut predictor = ctx.build(p);
            reference.push(bare_loop(
                predictor.as_mut(),
                t,
                &mut ctx.tracer,
                "bench.reference.bare_loop",
            ));
        }
    }

    // Every job is repeated once per pass; each figure comes from every
    // chunk's fastest repetition (see `super::ChunkMinima`).
    let conds: u64 = reference.iter().map(|c| c.conds).sum();
    let n_jobs = preds.len() * traces.len();
    let mut job_s = vec![Vec::new(); n_jobs];
    let mut job_chunks: Vec<super::ChunkMinima> =
        (0..n_jobs).map(|_| super::ChunkMinima::default()).collect();
    let mut mpki = Vec::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let tracing = ctx.cfg.trace;
    let seconds = ctx.cfg.seconds;
    let passes = repeat_for(seconds, 3, |rep| {
        ctx.setup_again(&mut setup);
        ctx.tracer.set_enabled(tracing && rep % 2 == 0);
        let pass_span = ctx.tracer.open("bench.replay.pass");
        let mut pass = 0.0;
        for (pi, p) in preds.iter().enumerate() {
            for (ti, t) in traces.iter().enumerate() {
                let mut predictor = ctx.build(p);
                let start = Instant::now();
                let (result, chunks) = ctx.tracer.span("sim.simulate.run_trace", |_| {
                    super::timed_replay(predictor.as_mut(), t)
                });
                let secs = start.elapsed().as_secs_f64();
                pass += secs;
                job_s[pi * traces.len() + ti].push(secs);
                job_chunks[pi * traces.len() + ti].add(&chunks);
                let got = Counts {
                    conds: result.conditional_branches(),
                    misses: result.mispredictions(),
                };
                let want = reference[pi * traces.len() + ti];
                let label = format!("{} {}", p.predictor(), t.name());
                let ok = ctx
                    .gate
                    .expect(&format!("run_trace vs bare loop, {label}"), got, want)
                    & ctx.gate.observe(label, got.render());
                ctx.gate.attempt(ok);
                if rep == 0 {
                    mpki.push(result.mpki());
                }
            }
        }
        ctx.tracer.close(pass_span);
        if tracing {
            (if rep % 2 == 0 {
                &mut traced
            } else {
                &mut plain
            })
            .push(pass);
        }
    });
    ctx.tracer.set_enabled(tracing);
    ctx.record_setup(&mut setup);

    let best_s: Vec<f64> = job_chunks.iter().map(super::ChunkMinima::total_s).collect();
    let records: usize = traces.iter().map(Trace::len).sum();
    for (pi, &(metric, _)) in BF_REPLAY.iter().enumerate() {
        let busy: f64 = best_s[pi * traces.len()..(pi + 1) * traces.len()]
            .iter()
            .sum();
        ctx.e2e.insert(metric, records as f64 / busy);
    }
    let pass: f64 = best_s.iter().sum();
    ctx.e2e.insert("sweep_wall_s", pass);
    ctx.e2e
        .insert("served_decisions_per_s", conds as f64 / pass);
    ctx.e2e
        .insert("tune_configs_per_s", preds.len() as f64 / pass);
    ctx.e2e
        .insert("mpki", mpki.iter().sum::<f64>() / mpki.len() as f64);
    ctx.detail_num("passes", passes as f64);
    let medians: f64 = job_s.iter().map(|s| stats::median(s)).sum();
    ctx.detail_num("sweep_wall_s.median_pass", medians);
    let chunks: Vec<f64> = job_chunks
        .iter()
        .zip(traces.iter().cycle())
        .flat_map(|(m, t)| m.full_chunks_us(t.len()))
        .collect();
    super::record_latency(
        ctx,
        "one 4096-record chunk of Simulation::run_trace, fastest repetition",
        &chunks,
    );
    super::record_own_rss(ctx);

    if tracing {
        super::trace_overhead(ctx, &traced, &plain);
        let cache_files = specs
            .iter()
            .zip(&lens)
            .filter_map(|(s, &n)| ctx.cache.entry_path(s, n))
            .collect();
        let total: usize = specs.iter().map(|s| s.default_len()).sum();
        let input = ProbeInput {
            traces: layers::probe_stream(&traces),
            cache_files,
            specs: preds.clone(),
            tune: Some((
                "bf-tage".to_owned(),
                specs.clone(),
                ctx.cfg.scale * (layers::PROBE_RECORDS as f64 / total as f64).min(1.0),
            )),
        };
        // The engine never runs here: its probe sweeps this workload's
        // predictors over the probe stream.
        layers::fill(ctx, &input);
    }
}
