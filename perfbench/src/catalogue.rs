//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! lists the same names (a test keeps the two in step).

/// A reported metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them; README.md says what each means on each
/// workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("mpki", "miss/kinst"),
    m("peak_rss_mb", "MiB"),
    m("bf_tage_rec_per_s", "rec/s"),
    m("bf_isl_tage_rec_per_s", "rec/s"),
    m("bf_neural_rec_per_s", "rec/s"),
    m("sweep_wall_s", "s"),
    m("served_decisions_per_s", "dec/s"),
    m("frame_rtt_p50_us", "us"),
    m("frame_rtt_p99_us", "us"),
    m("tune_configs_per_s", "configs/s"),
];

/// Per-layer metrics, measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("trace.cache.fetch_warm_ms", "ms"),
    m("trace.format.decode_ns_per_rec", "ns/rec"),
    m("sim.simulate.loop_ns_per_rec", "ns/rec"),
    m("core.bf_tage.ns_per_rec", "ns/rec"),
    m("core.bf_isl_tage.ns_per_rec", "ns/rec"),
    m("core.bf_neural.ns_per_rec", "ns/rec"),
    m("predictors.static-taken.ns_per_rec", "ns/rec"),
    m("predictors.bimodal.ns_per_rec", "ns/rec"),
    m("predictors.gshare.ns_per_rec", "ns/rec"),
    m("predictors.perceptron.ns_per_rec", "ns/rec"),
    m("tage.tage.ns_per_rec", "ns/rec"),
    m("core.bst.commit_ns_per_cond", "ns/cond"),
    m("core.bf_ghr.commit_ns_per_cond", "ns/cond"),
    m("core.bf_ghr.fold_ns_per_cond", "ns/cond"),
    m("tage.core.predict_update_ns_per_cond", "ns/cond"),
    m("core.bf_ghr.non_biased_frac", "frac"),
    m("tage.core.alloc_fail_frac", "frac"),
    m("sim.engine.idle_frac", "frac"),
    m("sim.engine.retries", "count"),
    m("sim.engine.jobs_failed", "count"),
    m("sim.ckpt.save_us", "us"),
    m("sim.ckpt.write_ms", "ms"),
    m("sim.ckpt.bytes", "bytes"),
    m("sim.ckpt.snapshots", "count"),
    m("sim.obs.metrics_overhead_frac", "frac"),
    m("sim.wire.encode_ns_per_frame", "ns/frame"),
    m("sim.wire.decode_batch_ns_per_frame", "ns/frame"),
    m("sim.wire.decode_reply_ns_per_frame", "ns/frame"),
    m("sim.wire.bytes_per_decision", "bytes/dec"),
    m("sim.service.open_ms", "ms"),
    m("sim.service.shed_frac", "frac"),
    m("sim.registry.build_us", "us"),
    m("sim.tune.rung_s.0", "s"),
    m("sim.tune.rung_s.1", "s"),
    m("sim.tune.rung_s.2", "s"),
    m("sim.tune.resimulated_frac", "frac"),
    m("bench.trace_overhead_frac", "frac"),
];

/// The bare `predict`/`update` loops the traced run times, as
/// (metric, registry predictor).
pub const BARE_LOOPS: &[(&str, &str)] = &[
    ("core.bf_tage.ns_per_rec", "bf-tage"),
    ("core.bf_isl_tage.ns_per_rec", "bf-isl-tage"),
    ("core.bf_neural.ns_per_rec", "bf-neural"),
    ("predictors.static-taken.ns_per_rec", "static-taken"),
    ("predictors.bimodal.ns_per_rec", "bimodal"),
    ("predictors.gshare.ns_per_rec", "gshare"),
    ("predictors.perceptron.ns_per_rec", "perceptron"),
    ("tage.tage.ns_per_rec", "tage"),
];

/// The BF predictors whose replay throughput every workload reports, as
/// (end-to-end metric, registry predictor).
pub const BF_REPLAY: &[(&str, &str)] = &[
    ("bf_tage_rec_per_s", "bf-tage"),
    ("bf_isl_tage_rec_per_s", "bf-isl-tage"),
    ("bf_neural_rec_per_s", "bf-neural"),
];
