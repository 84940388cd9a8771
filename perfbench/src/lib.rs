//! The repository benchmark: four workloads over the simulator, each
//! reporting end-to-end host-time metrics (untraced run) or per-layer
//! metrics (traced run), with a correctness gate on every simulated
//! result. See README.md for the workloads, metrics and how to run it.

pub mod catalogue;
pub mod common;
pub mod gate;
pub mod host;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod wire_client;
pub mod workloads;

use std::collections::BTreeMap;

use catalogue::{MetricDef, END_TO_END, PER_LAYER};
use common::{json_num, json_str, Config, Ctx, Workload};

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The reported metrics (end-to-end, or per-layer when traced), in
    /// catalogue order, with units.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Fingerprints and other facts, JSON-valued.
    pub details: BTreeMap<String, String>,
    /// Every failed check.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The fingerprint line: host and workload identity plus the run's
    /// details and failed checks.
    pub fn details_line(&self) -> String {
        let mut fields: Vec<String> = self
            .details
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let mismatches: Vec<String> = self.mismatches.iter().map(|m| json_str(m)).collect();
        fields.push(format!("\"mismatches\": [{}]", mismatches.join(", ")));
        format!("{{{}}}", fields.join(", "))
    }
}

/// Runs one workload as `cfg` says and gathers its outcome.
pub fn run(cfg: Config) -> Outcome {
    let mut ctx = Ctx::new(cfg);
    record_fingerprint(&mut ctx);
    let dirs = [
        Some(ctx.cfg.work_dir.clone()),
        Some(ctx.cfg.cache_dir.clone()),
        ctx.cfg.results_dir.clone(),
    ];
    for dir in dirs.iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            let failure = format!("cannot create {}: {e}", dir.display());
            ctx.gate.note_failure(failure);
            return finish(ctx);
        }
    }
    if bfbp_trace::cache::TraceCache::from_env() != ctx.cache {
        // The tuner would generate its own traces elsewhere, bypassing the
        // seeded windows this run placed.
        ctx.gate.note_failure(format!(
            "BFBP_TRACE_CACHE must name the run's trace cache {}",
            ctx.cfg.cache_dir.display()
        ));
        return finish(ctx);
    }
    match ctx.cfg.workload {
        Workload::ReplayBf => workloads::replay::run(&mut ctx),
        Workload::SweepDurable => workloads::sweep::run(&mut ctx),
        Workload::ServeSmallFrames => workloads::serve::run(&mut ctx),
        Workload::TuneHalving => workloads::tune::run(&mut ctx),
    }
    check_golden(&mut ctx);
    finish(ctx)
}

fn record_fingerprint(ctx: &mut Ctx) {
    ctx.detail_str("workload", ctx.cfg.workload.name());
    ctx.detail_num("seed", ctx.cfg.seed as f64);
    ctx.detail_num("seconds", ctx.cfg.seconds);
    ctx.detail_num("scale", ctx.cfg.scale);
    ctx.detail_num("traced", f64::from(u8::from(ctx.cfg.trace)));
    ctx.detail_num("threads", ctx.cfg.threads as f64);
    ctx.detail_num("host.nproc", host::nproc() as f64);
    ctx.detail_str("host.cpu_model", &host::cpu_model());
    ctx.detail_str("host.rustc", &host::rustc_version());
    ctx.detail_num(
        "workload.generator_version",
        f64::from(bfbp_trace::synth::suite::GENERATOR_VERSION),
    );
}

/// For the default seed at full length: checks the observed results
/// against `golden/<workload>.txt`, or writes that file when asked.
fn check_golden(ctx: &mut Ctx) {
    if !ctx.cfg.golden_applies() {
        ctx.detail_str("golden", "not applicable off the default seed and length");
        return;
    }
    let Some(dir) = ctx.cfg.golden_dir.clone() else {
        ctx.detail_str("golden", "no golden directory given");
        return;
    };
    let path = dir.join(format!("{}.txt", ctx.cfg.workload.name()));
    if ctx.cfg.write_golden {
        let header = format!(
            "golden results of {} for the default seed at full length: key<TAB>value",
            ctx.cfg.workload.name()
        );
        gate::write_golden(&path, &header, ctx.gate.observed())
            .expect("the golden file is writable");
        ctx.detail_str("golden", "written");
        return;
    }
    match gate::read_golden(&path) {
        Ok(golden) => {
            let bad = ctx.gate.check_golden(&golden);
            ctx.detail_num("golden.keys", golden.len() as f64);
            ctx.detail_num("golden.mismatches", bad as f64);
        }
        Err(e) => ctx
            .gate
            .note_failure(format!("cannot read {}: {e}", path.display())),
    }
}

fn finish(mut ctx: Ctx) -> Outcome {
    let (defs, values): (&[MetricDef], &BTreeMap<&'static str, f64>) = if ctx.cfg.trace {
        (PER_LAYER, &ctx.layer)
    } else {
        (END_TO_END, &ctx.e2e)
    };
    let mut metrics = Vec::with_capacity(defs.len());
    let mut missing = Vec::new();
    for def in defs {
        let value = values.get(def.name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            missing.push(format!("metric {} was not measured", def.name));
        }
        metrics.push((def.name, value, def.unit));
    }
    for m in missing {
        ctx.gate.note_failure(m);
    }
    if ctx.cfg.trace {
        let summary: Vec<String> = ctx
            .tracer
            .summary()
            .iter()
            .map(|(name, t)| {
                format!(
                    "{}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    json_str(name),
                    t.count,
                    t.total_ns,
                    t.self_ns
                )
            })
            .collect();
        ctx.details
            .insert("spans".to_owned(), format!("{{{}}}", summary.join(", ")));
        if let Some(dir) = &ctx.cfg.results_dir {
            let path = dir.join(format!(
                "{}-seed{}.spans.jsonl",
                ctx.cfg.workload.name(),
                ctx.cfg.seed
            ));
            match ctx.tracer.write_jsonl(&path) {
                Ok(()) => ctx.detail_str("spans_file", &path.display().to_string()),
                Err(e) => ctx
                    .gate
                    .note_failure(format!("cannot write {}: {e}", path.display())),
            }
        }
    }
    Outcome {
        correct: ctx.gate.correct(),
        attempted: ctx.gate.attempted().max(1),
        failed: ctx.gate.failed(),
        metrics,
        details: std::mem::take(&mut ctx.details),
        mismatches: ctx.gate.mismatches().to_vec(),
    }
}
