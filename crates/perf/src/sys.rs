//! What the benchmark reads from its process and host: resident memory,
//! core count, the allocation counter, and where scratch files go.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn status_kb(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in kB of this process, or of `pid`.
/// `None` off Linux and for a process that has already exited.
pub fn peak_rss_kb(pid: Option<u32>) -> Option<u64> {
    status_kb(pid, "VmHWM:")
}

/// Current resident set (`VmRSS`) of this process in kB: the kernel's
/// own kB figure, so no page size has to be assumed.
pub fn rss_kb() -> Option<u64> {
    status_kb(None, "VmRSS:")
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Allocation events so far, when built with the `alloc-count` feature.
pub fn alloc_count() -> Option<u64> {
    parflow_bench::alloc_probe::alloc_count()
}

/// Allocation events during `f`, when counted.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = alloc_count();
    let out = f();
    (out, alloc_count().zip(before).map(|(a, b)| a - b))
}

/// Cargo's target directory as seen from the working directory:
/// `CARGO_TARGET_DIR` when set, `target` otherwise. Build outputs, the
/// `repro` binary, scratch files and the trace all live under it, so a
/// run writes nothing that `.gitignore` does not already cover.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// A fresh scratch file path under `target_dir()/perf`: unique to this
/// process and to this call, so concurrent runs (and concurrent tests in
/// one process) never share a file.
pub fn scratch_file(name: &str) -> std::io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = target_dir().join("perf");
    std::fs::create_dir_all(&dir)?;
    let serial = NEXT.fetch_add(1, Ordering::Relaxed);
    Ok(dir.join(format!("{}-{serial}-{name}", std::process::id())))
}

/// `rustc --version`, or `"unknown"`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Whether `crossbeam-deque` and `parking_lot` are the offline stand-ins:
/// the repo-local cargo config patches them in, CI deletes that file. The
/// executor's numbers mean something different on either side, so every
/// report header says which it was.
pub fn deps_flavour() -> &'static str {
    match std::fs::read_to_string(".cargo/config.toml") {
        Ok(cfg) if cfg.contains("offline-stubs/crossbeam-deque") => "offline-stub",
        _ => "crates.io",
    }
}

/// One line describing the host and build, printed above every report.
pub fn header() -> String {
    format!(
        "nproc={} deps={} alloc-count={} {}",
        nproc(),
        deps_flavour(),
        if alloc_count().is_some() { "on" } else { "off" },
        rustc_version()
    )
}
