//! `sweep-durable`: `engine::sweep_inputs` of five cheap-to-moderate
//! predictors over the 40-trace suite, streamed from trace-cache files,
//! with the job journal, mid-job checkpoints and the metrics document on.
//! Decode, record delivery, accounting and durable writes are a large
//! share of the wall time; BF-GHR does no work.

use std::time::Instant;

use bfbp_sim::engine::{self, StreamedTrace, SweepOptions, TraceInput};
use bfbp_sim::registry::PredictorSpec;
use bfbp_sim::simulate::Simulation;

use crate::common::{repeat_for, seeded_suite, Ctx};
use crate::gate::Counts;
use crate::layers::{self, ProbeInput};
use crate::stats;
use crate::workloads::{BfProbe, FAST_QUANTILE};

/// The swept predictors.
pub const PREDICTORS: [&str; 5] = ["static-taken", "bimodal", "gshare", "perceptron", "tage"];

/// Mid-job checkpoint cadence, in records. It does not shrink with the
/// traces: at the sweep's quarter lengths every long-trace job still
/// takes one `fsync`ed snapshot, and durable writes keep roughly the
/// share of the wall time they have at full length. (Scaling it would
/// take as many snapshots as a full-length sweep in a quarter of the
/// records, and shared-disk latency would then dominate every figure.)
pub const CKPT_EVERY: u64 = 50_000;

/// Trace-length scale of the sweep: a quarter of the suite's default
/// lengths, so one sweep takes about a second and a run repeats it
/// many times.
pub const SWEEP_SCALE: f64 = 0.25;

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let specs = seeded_suite(ctx.cfg.seed);
    let lens: Vec<usize> = specs.iter().map(|s| ctx.len_of(s, SWEEP_SCALE)).collect();
    let ckpt_every = ((CKPT_EVERY as f64 * ctx.cfg.scale) as u64).max(4096);
    ctx.detail_num("ckpt_every_records", ckpt_every as f64);
    for (spec, &n) in specs.iter().zip(&lens) {
        ctx.place(spec, n);
    }
    let preds: Vec<PredictorSpec> = PREDICTORS.iter().map(|n| PredictorSpec::new(n)).collect();
    let fp: Vec<_> = specs.iter().cloned().zip(lens.iter().copied()).collect();
    super::fingerprint(ctx, &fp, &PREDICTORS.map(str::to_owned));
    let inputs: Vec<TraceInput> = specs
        .iter()
        .zip(&lens)
        .map(|(s, &n)| {
            let file = ctx
                .cache
                .entry_path(s, n)
                .expect("the run's cache is enabled");
            TraceInput::Streamed(Box::new(StreamedTrace::new(s.clone(), n).with_file(file)))
        })
        .collect();

    let mut setup = |ctx: &mut Ctx| {
        for (s, &n) in specs.iter().zip(&lens) {
            drop(ctx.fetch(s, n));
        }
        for p in &preds {
            drop(ctx.build(p));
        }
    };
    ctx.setup(&mut setup);

    // Independent path for one job per trace (the predictor rotates with
    // the trace index): a direct `Simulation::run_trace`.
    let mut direct = Vec::new();
    for (t, (s, &n)) in specs.iter().zip(&lens).enumerate() {
        let trace = ctx.cache.fetch(s, n).0;
        let p = t % preds.len();
        let mut predictor = ctx.build(&preds[p]);
        let (r, _) = Simulation::new(predictor.as_mut())
            .run_trace(&trace)
            .expect("an uncancelled replay completes");
        direct.push((
            p * specs.len() + t,
            Counts {
                conds: r.conditional_branches(),
                misses: r.mispredictions(),
            },
        ));
    }
    let mut probe = BfProbe::new(ctx, &specs[0]);

    let (mut walls, mut conds_per_sweep, mut idle) = (Vec::new(), Vec::new(), Vec::new());
    let (mut retries, mut failed_jobs) = (0u64, 0u64);
    // Every job's fastest repetition, in job order.
    let mut job_us: Vec<f64> = Vec::new();
    let mut mpki = Vec::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let tracing = ctx.cfg.trace;
    let seconds = ctx.cfg.seconds;
    let threads = ctx.cfg.threads;
    repeat_for(seconds, 2, |rep| {
        ctx.tracer.set_enabled(tracing && rep % 2 == 0);
        let dir = ctx.work_path(&format!("sweep-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the work directory is writable");
        let options = SweepOptions::new()
            .with_threads(threads)
            .with_journal(dir.join("sweep.journal"))
            .with_checkpoints(ckpt_every, dir.join("ckpts"))
            .with_metrics();
        let registry = &ctx.registry;
        let start = Instant::now();
        let report = ctx.tracer.span("sim.engine.sweep", |t| {
            let report = engine::sweep_inputs(registry, &preds, &inputs, &options)
                .expect("the sweep matrix is valid");
            t.span("sim.obs.metrics_doc", |_| {
                let doc = report.metrics_json().expect("metrics are on");
                std::fs::write(dir.join("sweep.metrics.json"), doc)
                    .expect("the work directory is writable");
            });
            report
        });
        let wall = start.elapsed().as_secs_f64();
        let mut conds = 0u64;
        let mut jobs_us = Vec::with_capacity(report.jobs().len());
        for (j, job) in report.jobs().iter().enumerate() {
            retries += u64::from(job.attempts.saturating_sub(1));
            let label = format!(
                "{} {}",
                preds[j / specs.len()].label(),
                specs[j % specs.len()].name()
            );
            let Some(record) = job.record() else {
                failed_jobs += 1;
                ctx.gate
                    .note_failure(format!("{label}: job {}", job.status.name()));
                ctx.gate.attempt(false);
                continue;
            };
            let got = Counts {
                conds: record.result.conditional_branches(),
                misses: record.result.mispredictions(),
            };
            conds += got.conds;
            jobs_us.push(job.wall.as_secs_f64() * 1e6);
            let mut ok = ctx.gate.observe(label.clone(), got.render());
            if let Some((_, want)) = direct.iter().find(|(k, _)| *k == j) {
                ok &= ctx
                    .gate
                    .expect(&format!("engine vs run_trace, {label}"), got, *want);
            }
            ctx.gate.attempt(ok);
            if rep == 0 {
                mpki.push(record.result.mpki());
            }
        }
        walls.push(wall);
        conds_per_sweep.push(conds as f64);
        if job_us.is_empty() {
            job_us = jobs_us;
        } else {
            for (best, us) in job_us.iter_mut().zip(jobs_us) {
                *best = best.min(us);
            }
        }
        let busy = report.cpu().as_secs_f64();
        idle.push(1.0 - busy / (report.threads().max(1) as f64 * report.wall().as_secs_f64()));
        if tracing {
            (if rep % 2 == 0 {
                &mut traced
            } else {
                &mut plain
            })
            .push(wall);
        }
        let _ = std::fs::remove_dir_all(&dir);
        ctx.tracer.set_enabled(false);
        probe.round(ctx);
        ctx.setup_again(&mut setup);
    });
    ctx.tracer.set_enabled(tracing);
    ctx.record_setup(&mut setup);

    // Every sweep does the same work; the 10th-percentile wall is the
    // fast end of the run without resting on its single luckiest sweep.
    let wall = stats::quantile(&walls, FAST_QUANTILE);
    ctx.e2e.insert("sweep_wall_s", wall);
    ctx.e2e
        .insert("served_decisions_per_s", conds_per_sweep[0] / wall);
    ctx.e2e
        .insert("tune_configs_per_s", preds.len() as f64 / wall);
    ctx.e2e
        .insert("mpki", mpki.iter().sum::<f64>() / mpki.len().max(1) as f64);
    ctx.detail_num("sweeps", walls.len() as f64);
    ctx.detail_list("sweep_wall_s.samples", &walls);
    super::record_latency(
        ctx,
        "one sweep job (JobOutcome::wall), fastest repetition",
        &job_us,
    );
    probe.finish(ctx);
    super::record_own_rss(ctx);

    if tracing {
        super::trace_overhead(ctx, &traced, &plain);
        ctx.layer
            .insert("sim.engine.idle_frac", stats::median(&idle));
        ctx.layer.insert("sim.engine.retries", retries as f64);
        ctx.layer
            .insert("sim.engine.jobs_failed", failed_jobs as f64);
        let traces: Vec<_> = specs
            .iter()
            .zip(&lens)
            .map(|(s, &n)| {
                crate::common::prefix(
                    &ctx.cache.fetch(s, n).0,
                    layers::PROBE_RECORDS / specs.len(),
                )
            })
            .collect();
        let cache_files = specs
            .iter()
            .zip(&lens)
            .filter_map(|(s, &n)| ctx.cache.entry_path(s, n))
            .collect();
        let total: usize = specs.iter().map(|s| s.default_len()).sum();
        let input = ProbeInput {
            traces,
            cache_files,
            specs: preds.clone(),
            tune: Some((
                "tage".to_owned(),
                specs.clone(),
                ctx.cfg.scale * (layers::PROBE_RECORDS as f64 / total as f64).min(1.0),
            )),
        };
        layers::fill(ctx, &input);
    }
}
