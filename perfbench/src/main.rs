//! Command-line entry of the benchmark (normally started by `run.py`,
//! which builds it and the `serve` binary first).
//!
//! ```sh
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--work-dir DIR] [--cache-dir DIR] [--results-dir DIR]
//!           [--serve-bin PATH] [--golden-dir DIR] [--write-golden]
//! ```
//!
//! Prints a fingerprint line, then as its last line the result object;
//! exits 0 only when every correctness check passed.

use std::path::PathBuf;
use std::process::ExitCode;

use bfbp_perfbench::common::{Config, Workload};
use bfbp_perfbench::host;

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 [--work-dir DIR] [--cache-dir DIR] [--results-dir DIR] \
                 [--serve-bin PATH] [--golden-dir DIR] [--write-golden]"
            );
            return ExitCode::from(2);
        }
    };
    // The tuner opens its trace cache from the environment; point it at
    // the run's cache before any thread starts.
    std::env::set_var("BFBP_TRACE_CACHE", &cfg.cache_dir);
    let work_dir = cfg.work_dir.clone();
    let outcome = bfbp_perfbench::run(cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    for m in &outcome.mismatches {
        eprintln!("check failed: {m}");
    }
    println!("{}", outcome.details_line());
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut cache_dir = None;
    let mut results_dir = None;
    let mut serve_bin = None;
    let mut golden_dir = None;
    let mut write_golden = false;
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value()?)),
            "--results-dir" => results_dir = Some(PathBuf::from(value()?)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--golden-dir" => golden_dir = Some(PathBuf::from(value()?)),
            "--write-golden" => write_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let base =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()));
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: 1.0,
        work_dir: work_dir.unwrap_or_else(|| {
            base.join("perfbench-work")
                .join(format!("{}-{}", workload.name(), std::process::id()))
        }),
        cache_dir: cache_dir.unwrap_or_else(|| base.join("perfbench-cache")),
        serve_bin,
        golden_dir,
        write_golden,
        results_dir,
        threads: host::nproc().min(2),
    })
}
