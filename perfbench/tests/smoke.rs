//! End-to-end checks of the benchmark itself: a tiny-length run of every
//! workload in both modes, the metric catalogue against
//! `BENCHMARK.json`, seeded windows, and golden files.

use std::path::PathBuf;
use std::sync::OnceLock;

use bfbp_perfbench::catalogue::{END_TO_END, PER_LAYER};
use bfbp_perfbench::common::{seeded_find, Config, Ctx, Workload};
use bfbp_perfbench::gate;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{name}-{}", std::process::id()))
}

/// The trace cache every test of this process shares: the tuner opens
/// its cache from `BFBP_TRACE_CACHE`, so the variable is set once,
/// before any test reads it.
fn shared_cache() -> PathBuf {
    static CACHE: OnceLock<PathBuf> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let dir = scratch("cache");
            std::env::set_var("BFBP_TRACE_CACHE", &dir);
            dir
        })
        .clone()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    let cache_dir = shared_cache();
    let dir = scratch(&format!("{}-{seed}-{}", workload.name(), u8::from(trace)));
    let _ = std::fs::remove_dir_all(&dir);
    Config {
        workload,
        seed,
        seconds: 0.3,
        trace,
        scale: 0.01,
        work_dir: dir.join("work"),
        cache_dir,
        serve_bin: None,
        golden_dir: None,
        write_golden: false,
        results_dir: Some(dir.join("results")),
        threads: 2,
    }
}

fn smoke(workload: Workload) {
    for (seed, trace) in [(0, false), (7, true)] {
        let cfg = tiny(workload, seed, trace);
        let root = cfg
            .work_dir
            .parent()
            .expect("work dir has a parent")
            .to_owned();
        let outcome = bfbp_perfbench::run(cfg);
        assert!(
            outcome.correct,
            "{}: {:?}",
            workload.name(),
            outcome.mismatches
        );
        assert!(outcome.attempted >= 1);
        assert_eq!(outcome.failed, 0);
        let defs = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(outcome.metrics.len(), defs.len());
        for (name, value, _) in &outcome.metrics {
            assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
        }
        let line = outcome.result_line();
        let parsed = bfbp::parse_json(&line).expect("the result line is JSON");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(parsed.get(key).is_some(), "result line lacks {key}");
        }
        bfbp::parse_json(&outcome.details_line()).expect("the fingerprint line is JSON");
        std::fs::remove_dir_all(root).expect("the smoke run's directory exists");
    }
}

#[test]
fn replay_bf_smoke() {
    smoke(Workload::ReplayBf);
}

#[test]
fn sweep_durable_smoke() {
    smoke(Workload::SweepDurable);
}

#[test]
fn serve_small_frames_smoke() {
    smoke(Workload::ServeSmallFrames);
}

#[test]
fn tune_halving_smoke() {
    smoke(Workload::TuneHalving);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    let doc = bfbp::parse_json(&text).expect("BENCHMARK.json is JSON");
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("name and unit")
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = defs
            .iter()
            .map(|d| (d.name.into(), d.unit.into()))
            .collect();
        assert_eq!(listed, ours, "{key} differs from the catalogue");
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|v| v.as_str())
                .expect("name")
                .to_owned()
        })
        .collect();
    let ours: Vec<String> = Workload::BENCHMARKED
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(workloads, ours);
}

#[test]
fn seeded_windows_are_deterministic_prefix_closed_and_seed_dependent() {
    let cfg = tiny(Workload::TuneHalving, 5, false);
    let root = cfg
        .work_dir
        .parent()
        .expect("work dir has a parent")
        .to_owned();
    let mut ctx = Ctx::new(cfg);
    let spec = seeded_find("SPEC03", 5);
    assert_eq!(spec.name(), "SPEC03~s5");
    ctx.place(&spec, 3000);
    ctx.place(&spec, 1500);
    let long = ctx.fetch(&spec, 3000);
    let short = ctx.fetch(&spec, 1500);
    assert_eq!(short.records(), &long.records()[..1500]);
    let suite = ctx.fetch(&seeded_find("SPEC03", 0), 3000);
    assert_ne!(suite.records(), long.records());
    // The window is the suite's own stream, shifted.
    let offset = bfbp_perfbench::common::window_offset(&seeded_find("SPEC03", 0), 5);
    assert!(offset >= 1);
    assert_eq!(&suite.records()[offset..], &long.records()[..3000 - offset]);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn golden_files_round_trip() {
    let dir = scratch("golden");
    std::fs::create_dir_all(&dir).expect("scratch is writable");
    let path = dir.join("g.txt");
    let golden: std::collections::BTreeMap<String, String> = [
        ("bf-tage SPEC03".to_owned(), "5 1".to_owned()),
        ("rung0 c1".to_owned(), "mpki=3ff0000000000000".to_owned()),
    ]
    .into_iter()
    .collect();
    gate::write_golden(&path, "test", &golden).expect("writes");
    assert_eq!(gate::read_golden(&path).expect("reads"), golden);
    std::fs::remove_dir_all(&dir).expect("the test's directory exists");
}
