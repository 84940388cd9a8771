//! `tune-halving`: successive-halving `tune` over `tage:tables=4..12`
//! (eta 2, 3 rungs, `bfbp-tune/1` state and the `bfbp-events/1` journal
//! on) over the 40-trace suite. The only workload that exercises the
//! tuner: candidate builds, rung scheduling, truncated-trace fetches,
//! state writes and re-simulation of survivors' prefixes.

use std::path::Path;
use std::time::Instant;

use bfbp_sim::registry::PredictorSpec;
use bfbp_sim::simulate::{mean_mpki, Simulation};
use bfbp_sim::tune::{rung_records, tune, SearchSpace};

use crate::common::{repeat_for, seeded_suite, Ctx};
use crate::layers::{self, ProbeInput};
use crate::stats;
use crate::workloads::{BfProbe, FAST_QUANTILE};

/// The search space.
pub const SPACE: &str = "tage:tables=4..12";

/// Trace-length scale of the tune (a tenth of the suite's default
/// lengths), so one tune takes under a second and a run repeats it many
/// times.
pub const TUNE_SCALE: f64 = 0.1;

/// Storage budget: large enough that every candidate is feasible.
pub const BUDGET_BITS: u64 = 1 << 40;

/// Events of one tune run, as read back from its `bfbp-events/1` journal.
#[derive(Debug, Default)]
pub struct TuneEvents {
    /// Wall time of every job in microseconds, keyed by (rung, job index
    /// within the rung's sweep).
    pub job_us: Vec<((usize, u64), f64)>,
    /// Jobs whose status was not `ok`.
    pub failed: u64,
    /// Extra attempts beyond the first, over all jobs.
    pub retries: u64,
    /// Wall time of every rung, in seconds, in rung order.
    pub rungs: Vec<f64>,
}

/// Reads the job and rung spans of a tune's events journal.
pub fn read_tune_events(path: &Path) -> TuneEvents {
    let events = bfbp::read_events(path).expect("the tuner wrote its events journal");
    let mut out = TuneEvents::default();
    let mut open = None;
    for e in &events {
        match e.ev.as_str() {
            "job_close" => {
                let num = |k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
                let key = (out.rungs.len(), e.job().unwrap_or(u64::MAX));
                out.job_us.push((key, num("wall_ms") * 1e3));
                out.retries += (num("attempts") as u64).saturating_sub(1);
                if e.get("status").and_then(|v| v.as_str()) != Some("ok") {
                    out.failed += 1;
                }
            }
            "tune_rung_open" => open = Some(e.t_us),
            "tune_rung_close" => {
                if let Some(t) = open.take() {
                    out.rungs.push(e.t_us.saturating_sub(t) as f64 / 1e6);
                }
            }
            _ => {}
        }
    }
    out
}

/// Wall time of every rung recorded in the journal at `path`, seconds.
pub fn rung_spans(path: &Path) -> Vec<f64> {
    read_tune_events(path).rungs
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let specs = seeded_suite(ctx.cfg.seed);
    let scale = TUNE_SCALE * ctx.cfg.scale;
    let space = SearchSpace::parse(SPACE).expect("the workload's space parses");
    let candidates: Vec<PredictorSpec> = space
        .grid()
        .iter()
        .map(|params| {
            params
                .iter()
                .fold(PredictorSpec::new(space.predictor()), |s, (k, v)| {
                    s.with(k, v.clone())
                })
        })
        .collect();
    let template = layers::tune_options(ctx, scale, "tune-warm");
    layers::warm_rungs(ctx, &specs, &template);
    let full: Vec<usize> = specs
        .iter()
        .map(|s| bfbp_sim::runner::scaled_len(s, scale))
        .collect();
    let rung_lens = |rung: usize| -> Vec<usize> {
        let divisor = (template.eta as u64).pow((template.rungs - 1 - rung) as u32);
        full.iter().map(|&n| rung_records(n, divisor)).collect()
    };
    let fp: Vec<_> = specs.iter().cloned().zip(full.iter().copied()).collect();
    let labels: Vec<String> = candidates.iter().map(layers::spec_text).collect();
    super::fingerprint(ctx, &fp, &labels);

    let mut setup = |ctx: &mut Ctx| {
        for rung in 0..template.rungs {
            for (s, n) in specs.iter().zip(rung_lens(rung)) {
                drop(ctx.fetch(s, n));
            }
        }
        for c in &candidates {
            drop(ctx.build(c));
        }
    };
    ctx.setup(&mut setup);

    // Conditional branches per rung input, for decisions per second.
    let rung_conds: Vec<u64> = (0..template.rungs)
        .map(|rung| {
            specs
                .iter()
                .zip(rung_lens(rung))
                .map(|(s, n)| ctx.cache.fetch(s, n).0.conditional_count())
                .sum()
        })
        .collect();
    let mut probe = BfProbe::new(ctx, &specs[0]);

    let (mut walls, mut idle) = (Vec::new(), Vec::new());
    // Every tune does the same work: conditional branches simulated.
    let mut tune_conds = 0u64;
    let (mut retries, mut failed_jobs) = (0u64, 0u64);
    // Every job's fastest repetition, keyed by (rung, job).
    let mut job_us: std::collections::BTreeMap<(usize, u64), f64> = Default::default();
    let mut rungs: Vec<Vec<f64>> = vec![Vec::new(); template.rungs];
    let mut final_mpki = Vec::new();
    let mut last_report = None;
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let tracing = ctx.cfg.trace;
    let seconds = ctx.cfg.seconds;
    let threads = ctx.cfg.threads as f64;
    repeat_for(seconds, 2, |rep| {
        ctx.tracer.set_enabled(tracing && rep % 2 == 0);
        let dir = format!("tune-{rep}");
        let options = layers::tune_options(ctx, scale, &dir);
        let registry = &ctx.registry;
        let start = Instant::now();
        let report = ctx.tracer.span("sim.tune.tune", |_| {
            tune(registry, &space, BUDGET_BITS, &specs, &options).expect("the tune runs")
        });
        let wall = start.elapsed().as_secs_f64();
        let events = read_tune_events(options.sweep.events.as_ref().expect("events are on"));
        let mut conds = 0u64;
        for outcome in report.outcomes() {
            conds += rung_conds[outcome.rung] * outcome.scores.len() as u64;
            for &(candidate, mpki) in &outcome.scores {
                let key = format!("rung{} c{candidate}", outcome.rung);
                let ok = ctx
                    .gate
                    .observe(key, format!("mpki={:016x}", mpki.to_bits()));
                ctx.gate.attempt(ok && mpki.is_finite());
            }
        }
        walls.push(wall);
        tune_conds = conds;
        let busy: f64 = events.job_us.iter().map(|(_, us)| us).sum::<f64>() / 1e6;
        idle.push(1.0 - busy / (threads * wall));
        for (key, us) in events.job_us {
            let best = job_us.entry(key).or_insert(f64::INFINITY);
            *best = best.min(us);
        }
        retries += events.retries;
        failed_jobs += events.failed;
        for (r, secs) in events.rungs.iter().enumerate() {
            if let Some(v) = rungs.get_mut(r) {
                v.push(*secs);
            }
        }
        if rep == 0 {
            if let Some(last) = report.outcomes().last() {
                final_mpki = last.scores.iter().map(|&(_, m)| m).collect();
            }
            last_report = Some(report);
        }
        if tracing {
            (if rep % 2 == 0 {
                &mut traced
            } else {
                &mut plain
            })
            .push(wall);
        }
        let _ = std::fs::remove_dir_all(ctx.work_path(&dir));
        ctx.tracer.set_enabled(false);
        probe.round(ctx);
        ctx.setup_again(&mut setup);
    });
    ctx.tracer.set_enabled(tracing);
    ctx.record_setup(&mut setup);

    // Independent path for the final rung: every survivor over every
    // full-length trace through a direct `Simulation::run_trace`, scored
    // as the tuner scores (mean MPKI over the suite).
    let report = last_report.expect("at least one tune ran");
    if let Some(last) = report.outcomes().last() {
        for &(candidate, score) in &last.scores {
            let spec = &candidates[candidate];
            let mut results = Vec::new();
            for (s, &n) in specs.iter().zip(&full) {
                let trace = ctx.cache.fetch(s, n).0;
                let mut p = ctx.build(spec);
                results.push(
                    Simulation::new(p.as_mut())
                        .run_trace(&trace)
                        .expect("an uncancelled replay completes")
                        .0,
                );
            }
            let direct = mean_mpki(&results);
            let ok = ctx.gate.expect(
                &format!("tune final rung vs run_trace, c{candidate}"),
                score.to_bits(),
                direct.to_bits(),
            );
            ctx.gate.attempt(ok);
        }
    }

    // The 10th-percentile tune: the fast end of the run without resting
    // on its single luckiest tune.
    let wall = stats::quantile(&walls, FAST_QUANTILE);
    ctx.e2e.insert("sweep_wall_s", wall);
    ctx.e2e.insert(
        "tune_configs_per_s",
        report.configs_evaluated() as f64 / wall,
    );
    ctx.e2e
        .insert("served_decisions_per_s", tune_conds as f64 / wall);
    ctx.detail_list("sweep_wall_s.samples", &walls);
    ctx.e2e.insert(
        "mpki",
        final_mpki.iter().sum::<f64>() / final_mpki.len().max(1) as f64,
    );
    ctx.detail_num("tunes", walls.len() as f64);
    ctx.detail_num("configs_per_tune", report.configs_evaluated() as f64);
    let jobs: Vec<f64> = job_us.into_values().collect();
    super::record_latency(
        ctx,
        "one tuner job (bfbp-events/1 job_close wall_ms), fastest repetition",
        &jobs,
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
        let medians: Vec<f64> = rungs.iter().map(|r| stats::median(r)).collect();
        layers::record_tune_layers(ctx, &report, &specs, &template, &medians);
        let traces: Vec<_> = specs
            .iter()
            .zip(&full)
            .map(|(s, &n)| {
                crate::common::prefix(
                    &ctx.cache.fetch(s, n).0,
                    layers::PROBE_RECORDS / specs.len(),
                )
            })
            .collect();
        let cache_files = specs
            .iter()
            .zip(&full)
            .filter_map(|(s, &n)| ctx.cache.entry_path(s, n))
            .collect();
        let input = ProbeInput {
            traces,
            cache_files,
            specs: vec![PredictorSpec::new("tage")],
            tune: None,
        };
        layers::fill(ctx, &input);
    }
}
