//! What the benchmark needs from the machine it runs on: a fingerprint for
//! every result, the process's peak memory, free disk space.

use std::path::Path;
use std::process::Command;

/// The host a result was taken on.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub build_profile: &'static str,
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// `run.sh` passes the compiler version and commit in the environment
    /// (the driver's checkout is not a git repository: "unknown" there).
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model,
            rustc: env_or_unknown("MVCOM_BENCH_RUSTC"),
            git_commit: env_or_unknown("MVCOM_BENCH_COMMIT"),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{:?},\"rustc\":{:?},\"git_commit\":{:?},\"build_profile\":{:?}}}",
            self.nproc, self.cpu_model, self.rustc, self.git_commit, self.build_profile
        )
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Free space on the filesystem holding `dir`, in MB, as `df -Pk` reports
/// it; `None` when `df` cannot be run or parsed.
pub fn free_disk_mb(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let available_kb: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(available_kb / 1024)
}
