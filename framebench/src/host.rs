//! Host and build fingerprint, and the process's peak resident set.

use crate::stats::Fnv;
use serde::Value;
use std::path::{Path, PathBuf};

/// The repository root: the parent of this package's directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> Vec<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| {
            s.split_whitespace()
                .take(3)
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_commit(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over every file under `crates/` (paths sorted): identifies the
/// measured source even where the checkout carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let crates = root.join("crates");
    let mut files = Vec::new();
    walk(&crates, &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        h.write(rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

/// The fixed part of the fingerprint, taken before the workload starts.
pub fn fingerprint(p: usize) -> Vec<(String, Value)> {
    let root = repo_root();
    let n = nproc();
    vec![
        ("nproc".into(), Value::U64(n as u64)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("rustc".into(), Value::Str(env!("FRAMEBENCH_RUSTC").into())),
        ("git_commit".into(), Value::Str(git_commit(&root))),
        ("source_digest".into(), Value::Str(source_digest(&root))),
        ("p".into(), Value::U64(p as u64)),
        ("oversubscription".into(), Value::F64(p as f64 / n as f64)),
    ]
}

/// Host-wide CPU time so far, in jiffies: `(steal, total)` from the
/// `cpu` line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() {
    // Best effort: a kernel without clear_refs leaves the process-lifetime
    // peak, which still bounds the workload's.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Socket descriptors this process holds open right now.
pub fn open_sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    std::fs::read_link(e.path())
                        .map(|t| t.to_string_lossy().starts_with("socket:"))
                        .unwrap_or(false)
                })
                .count()
        })
        .unwrap_or(0)
}
