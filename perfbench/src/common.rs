//! Run configuration, the per-run context every workload threads through,
//! and helpers shared by the workloads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use bfbp_sim::predictor::ConditionalPredictor;
use bfbp_sim::registry::{PredictorRegistry, PredictorSpec};
use bfbp_trace::cache::TraceCache;
use bfbp_trace::record::Trace;
use bfbp_trace::synth::suite::{self, TraceSpec};

use crate::gate::{Counts, Gate};
use crate::spans::Tracer;
use crate::stats;

/// The seed that selects the suite's own traces; golden counts exist
/// for it (at full length) only.
pub const DEFAULT_SEED: u64 = 0;

/// Set-up is timed at least this many times per run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 15;

/// Records wrapped by one span in record loops: a clock read costs about
/// as much as a cheap predictor's record, so single records are never
/// wrapped.
pub const SPAN_RECORDS: usize = 4096;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-thread `Simulation::run_trace` of the BF predictors over
    /// in-memory traces.
    ReplayBf,
    /// A durable 5-predictor × 40-trace engine sweep streamed from
    /// trace-cache files.
    SweepDurable,
    /// Closed-loop 64-record gshare frames against the `serve` process.
    ServeSmallFrames,
    /// Successive-halving `tune` over TAGE table counts.
    TuneHalving,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayBf,
        Workload::SweepDurable,
        Workload::ServeSmallFrames,
        Workload::TuneHalving,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order: the ones whose
    /// end-to-end figures stay within the bounds on a noisy shared host.
    /// `sweep-durable` and `tune-halving` run on demand; their two-thread
    /// walls spread by up to 0.29 of their median between runs there
    /// (the largest bound the gate allows is 0.25), and the traced runs
    /// of these two measure the engine, checkpoint and tuner layers.
    pub const BENCHMARKED: [Workload; 2] = [Workload::ReplayBf, Workload::ServeSmallFrames];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayBf => "replay-bf",
            Workload::SweepDurable => "sweep-durable",
            Workload::ServeSmallFrames => "serve-small-frames",
            Workload::TuneHalving => "tune-halving",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run is told.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed ([`DEFAULT_SEED`] = the suite's own traces).
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Trace-length scale (1.0 = the workload's defined lengths; tests
    /// use tiny scales).
    pub scale: f64,
    /// Private scratch directory of this run (removed at the end).
    pub work_dir: PathBuf,
    /// Trace-cache directory.
    pub cache_dir: PathBuf,
    /// The `serve` executable; `None` serves from a thread of this
    /// process instead (tests).
    pub serve_bin: Option<PathBuf>,
    /// Directory holding `<workload>.txt` golden files.
    pub golden_dir: Option<PathBuf>,
    /// Write the observed results as the golden file instead of
    /// checking them.
    pub write_golden: bool,
    /// Where the traced run writes its spans; `None` keeps them in
    /// memory only.
    pub results_dir: Option<PathBuf>,
    /// Worker threads / connections: `min(2, nproc)`.
    pub threads: usize,
}

impl Config {
    /// Whether golden values apply to this run.
    pub fn golden_applies(&self) -> bool {
        self.seed == DEFAULT_SEED && self.scale == 1.0
    }
}

/// Per-run state shared by the workloads.
pub struct Ctx {
    /// The run's configuration.
    pub cfg: Config,
    /// The full predictor registry.
    pub registry: PredictorRegistry,
    /// The run's trace cache.
    pub cache: TraceCache,
    /// Span recorder (enabled in the traced run only).
    pub tracer: Tracer,
    /// Operation accounting and correctness checks.
    pub gate: Gate,
    /// End-to-end metric values.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values.
    pub layer: BTreeMap<&'static str, f64>,
    /// Extra facts for the result document (values are JSON).
    pub details: BTreeMap<String, String>,
    /// Every timed set-up so far, seconds.
    setup_s: Vec<f64>,
}

impl Ctx {
    /// A fresh context for `cfg`.
    pub fn new(cfg: Config) -> Self {
        let cache = TraceCache::at(&cfg.cache_dir);
        let trace = cfg.trace;
        Self {
            cfg,
            registry: bfbp::default_registry(),
            cache,
            tracer: Tracer::new(trace),
            gate: Gate::new(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            details: BTreeMap::new(),
            setup_s: Vec::new(),
        }
    }

    /// Record count of `spec` at this run's scale (the suite's default
    /// length times `extra`, floored at 1000 like the suite runner).
    pub fn len_of(&self, spec: &TraceSpec, extra: f64) -> usize {
        bfbp_sim::runner::scaled_len(spec, self.cfg.scale * extra)
    }

    /// Makes sure the cache holds `spec` (an identity from [`seeded`]) at
    /// `n` records, before anything times a fetch of it.
    ///
    /// For the default seed this is the suite trace, generated by the
    /// cache itself. For any other seed it is a window of the suite
    /// trace's own record stream that starts [`window_offset`] records
    /// in, stored under the seed-mixed identity. Every count changes with
    /// the seed, while the program — static branches, knobs, phases —
    /// stays the suite's. Reseeding the program (a different stream of
    /// the same knobs) would change the workload itself: per-trace MPKI
    /// moves by up to 75% and bf-tage throughput by up to 60% between
    /// such streams, which would swamp every measurement.
    ///
    /// The tuner fetches its traces through `TraceCache::from_env`, so
    /// the run's cache must be the one `BFBP_TRACE_CACHE` names (see
    /// [`Ctx::new`]).
    pub fn place(&self, spec: &TraceSpec, n: usize) {
        if self.cfg.seed == DEFAULT_SEED {
            self.cache.fetch(spec, n);
            return;
        }
        let path = self
            .cache
            .entry_path(spec, n)
            .expect("the run's cache is enabled");
        if path.exists() {
            return;
        }
        let base_name = spec.name().split('~').next().unwrap_or_default();
        let base = suite::find(base_name).unwrap_or_else(|| panic!("{base_name} is a suite trace"));
        let offset = window_offset(&base, self.cfg.seed);
        let stream = base.generate_len(offset + n);
        let trace = Trace::new(spec.name(), stream.records()[offset..].to_vec());
        let tmp = path.with_extension("tmp");
        let written = std::fs::create_dir_all(path.parent().unwrap_or(&self.cfg.cache_dir))
            .and_then(|()| std::fs::File::create(&tmp))
            .map_err(|e| e.to_string())
            .and_then(|f| {
                bfbp_trace::format::write_trace(std::io::BufWriter::new(f), &trace)
                    .map_err(|e| e.to_string())
            })
            .and_then(|()| std::fs::rename(&tmp, &path).map_err(|e| e.to_string()));
        if let Err(e) = written {
            panic!("cannot place {} in the trace cache: {e}", spec.name());
        }
    }

    /// `TraceCache::fetch` inside a `trace.cache.fetch` span.
    pub fn fetch(&mut self, spec: &TraceSpec, n: usize) -> Trace {
        let cache = &self.cache;
        self.tracer
            .span("trace.cache.fetch", |_| cache.fetch(spec, n).0)
    }

    /// `PredictorRegistry::build_spec` inside a `sim.registry.build_spec`
    /// span. The workloads' specs are fixed and known to build.
    pub fn build(&mut self, spec: &PredictorSpec) -> Box<dyn ConditionalPredictor> {
        let registry = &self.registry;
        self.tracer.span("sim.registry.build_spec", |_| {
            registry
                .build_spec(spec)
                .unwrap_or_else(|e| panic!("workload spec {spec:?} must build: {e}"))
        })
    }

    /// Runs the workload's set-up `f` once, timed, and returns its
    /// product, which the measurement then uses.
    ///
    /// Workloads also call [`Ctx::setup_again`] between their own
    /// repetitions and [`Ctx::record_setup`] at the end, so the set-up is
    /// timed at least [`SETUP_REPS`] times spread over the whole run:
    /// host speed changes on a scale of seconds, and back-to-back set-ups
    /// would all land in the same phase.
    pub fn setup<T>(&mut self, f: &mut impl FnMut(&mut Ctx) -> T) -> T {
        let start = Instant::now();
        let span = self.tracer.open("bench.setup");
        let value = f(self);
        self.tracer.close(span);
        self.setup_s.push(start.elapsed().as_secs_f64());
        value
    }

    /// Times one more set-up and discards its product.
    pub fn setup_again<T>(&mut self, f: &mut impl FnMut(&mut Ctx) -> T) {
        drop(self.setup(f));
    }

    /// Tops the set-up samples up to [`SETUP_REPS`] and records their
    /// median as `setup_s`.
    pub fn record_setup<T>(&mut self, f: &mut impl FnMut(&mut Ctx) -> T) {
        while self.setup_s.len() < SETUP_REPS {
            self.setup_again(f);
        }
        let times = std::mem::take(&mut self.setup_s);
        self.e2e.insert("setup_s", stats::median(&times));
        self.detail_list("setup_s.quartiles", &stats::quartiles(&times));
        self.detail_num("setup_s.samples", times.len() as f64);
    }

    /// Sets a per-layer metric to the self time of span `name` divided by
    /// `per` units, scaled by `unit_ns` (e.g. `1e6` for ms). Work that
    /// never ran reports 0.
    pub fn layer_per(&mut self, metric: &'static str, span: &str, per: f64, unit_ns: f64) {
        let ns = self.tracer.self_ns(span) as f64;
        let value = if per > 0.0 { ns / per / unit_ns } else { 0.0 };
        self.layer.insert(metric, value);
    }

    /// Sets a per-layer metric to the mean self time of the spans called
    /// `span`, scaled by `unit_ns`.
    pub fn layer_per_span(&mut self, metric: &'static str, span: &str, unit_ns: f64) {
        let count = self.tracer.summary().get(span).map_or(0, |t| t.count);
        self.layer_per(metric, span, count as f64, unit_ns);
    }

    /// Records a numeric detail.
    pub fn detail_num(&mut self, key: &str, value: f64) {
        self.details.insert(key.to_owned(), json_num(value));
    }

    /// Records a string detail.
    pub fn detail_str(&mut self, key: &str, value: &str) {
        self.details.insert(key.to_owned(), json_str(value));
    }

    /// Records a list-of-numbers detail.
    pub fn detail_list(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
        self.details
            .insert(key.to_owned(), format!("[{}]", items.join(", ")));
    }

    /// Path of `name` inside the run's scratch directory.
    pub fn work_path(&self, name: &str) -> PathBuf {
        self.cfg.work_dir.join(name)
    }
}

/// The identity of suite trace `spec` under workload seed `seed`: the
/// same knobs under a seed-mixed name (`SPEC03~s5`), so cache addresses
/// and fingerprints differ per seed. Its records are placed by
/// [`Ctx::place`]. [`DEFAULT_SEED`] is the suite's own spec.
pub fn seeded(spec: &TraceSpec, seed: u64) -> TraceSpec {
    if seed == DEFAULT_SEED {
        return spec.clone();
    }
    TraceSpec::new(
        format!("{}~s{seed}", spec.name()),
        spec.category(),
        spec.is_long(),
        spec.knobs().clone(),
    )
}

/// Window offsets stay below this many records: small enough that the
/// shortest windows any workload uses (the tuner's 1000-record rungs)
/// keep the character of the suite trace.
pub const MAX_WINDOW_OFFSET: u64 = 1024;

/// Where the window of suite trace `base` starts under workload seed
/// `seed`: 0 for the default seed, otherwise a seed- and name-mixed
/// record offset in `1..=MAX_WINDOW_OFFSET`. The offset does not depend
/// on the window's length, so shorter windows (the tuner's rungs) are
/// prefixes of longer ones and a seed-mixed name always addresses one
/// content.
pub fn window_offset(base: &TraceSpec, seed: u64) -> usize {
    if seed == DEFAULT_SEED {
        return 0;
    }
    let h =
        bfbp_sim::ckpt::fnv1a(base.name().as_bytes()) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mixed = bfbp_trace::rng::SplitMix64::new(h).next_u64();
    1 + (mixed % MAX_WINDOW_OFFSET) as usize
}

/// The 40-trace suite under workload seed `seed`.
pub fn seeded_suite(seed: u64) -> Vec<TraceSpec> {
    suite::suite().iter().map(|s| seeded(s, seed)).collect()
}

/// One named suite trace under workload seed `seed`.
pub fn seeded_find(name: &str, seed: u64) -> TraceSpec {
    let spec = suite::find(name).unwrap_or_else(|| panic!("{name} is a suite trace"));
    seeded(&spec, seed)
}

/// The first `n` records of `trace` (the whole trace when shorter).
pub fn prefix(trace: &Trace, n: usize) -> Trace {
    let n = n.min(trace.len());
    Trace::new(trace.name(), trace.records()[..n].to_vec())
}

/// Drives `predictor` over `trace` with the bare per-record
/// `predict`/`update`/`track_other` loop, one `span` per
/// [`SPAN_RECORDS`] records.
pub fn bare_loop(
    predictor: &mut dyn ConditionalPredictor,
    trace: &Trace,
    tracer: &mut Tracer,
    span: &'static str,
) -> Counts {
    let mut counts = Counts::default();
    for chunk in trace.records().chunks(SPAN_RECORDS) {
        tracer.span(span, |_| {
            for r in chunk {
                if r.kind.is_conditional() {
                    let guess = predictor.predict(r.pc);
                    counts.conds += 1;
                    counts.misses += u64::from(guess != r.taken);
                    predictor.update(r.pc, r.taken, r.target);
                } else {
                    predictor.track_other(r);
                }
            }
        });
    }
    counts
}

/// Calls `rep(i)` for i = 0, 1, ... until `seconds` have passed (judged
/// so the last repetition ends near the deadline on average), at least
/// `min_reps` times. Returns the repetition count.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut last = 0.0f64;
    let mut reps = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if reps >= min_reps && elapsed + last / 2.0 >= seconds {
            return reps;
        }
        let t = Instant::now();
        rep(reps);
        last = t.elapsed().as_secs_f64();
        reps += 1;
    }
}

/// Renders a finite number for JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders a JSON string literal.
pub fn json_str(s: &str) -> String {
    bfbp_sim::engine::json_string(s)
}
