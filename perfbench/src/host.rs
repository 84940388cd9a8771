//! Host and process facts: the fingerprint every result carries, and
//! peak resident memory.

use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc -V` of the toolchain on `PATH`, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB, read from
/// `/proc/<pid>/status`; `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    vm_hwm_kib(&Path::new("/proc").join(pid.to_string()).join("status")).map(|kib| kib / 1024.0)
}

fn vm_hwm_kib(status: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(status).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
