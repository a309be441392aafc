//! Host provenance and process memory, read from the OS.

use std::path::Path;
use std::process::Command;

/// Where and with what a run was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// SIMD flags the CPU advertises.
    pub simd_flags: Vec<String>,
    /// Compiler that built the benchmark (`rustc -V`).
    pub rustc: String,
    /// Commit of the measured tree, or `"unknown"` outside a git
    /// checkout.
    pub commit: String,
}

/// SIMD feature flags worth recording (prefix match on `/proc/cpuinfo`
/// names).
const SIMD_PREFIXES: &[&str] = &[
    "sse", "ssse3", "avx", "fma", "f16c", "amx", "asimd", "sve", "neon",
];

impl Provenance {
    /// Reads the stamp for the tree rooted at `repo_root`.
    pub fn collect(repo_root: &Path) -> Provenance {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        };
        let cpu_model = field("model name")
            .or_else(|| field("Model"))
            .unwrap_or_else(|| "unknown".to_string());
        let simd_flags = field("flags")
            .or_else(|| field("Features"))
            .unwrap_or_default()
            .split_whitespace()
            .filter(|f| SIMD_PREFIXES.iter().any(|p| f.starts_with(p)))
            .map(str::to_string)
            .collect();
        Provenance {
            nproc: nproc(),
            cpu_model,
            simd_flags,
            rustc: env!("E2EBENCH_RUSTC").to_string(),
            commit: commit(repo_root),
        }
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `HEAD` of the repository at `repo_root`; only that directory's own
/// `.git` is consulted, so a tree copied out of git reads `"unknown"`.
fn commit(repo_root: &Path) -> String {
    Command::new("git")
        .arg("--git-dir")
        .arg(repo_root.join(".git"))
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
