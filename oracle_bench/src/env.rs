//! The environment block of every suite result: enough to tell whether two
//! result files may be compared at all.

use crate::json::Json;
use morpheus::CpuFeatures;
use std::process::Command;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(level, type, bytes)` of cpu0's caches, from sysfs.
pub fn caches() -> Vec<(u32, String, usize)> {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = read_trimmed(&format!("{dir}/level"))?.parse().ok()?;
            let kind = read_trimmed(&format!("{dir}/type"))?;
            let size = read_trimmed(&format!("{dir}/size"))?;
            let (digits, unit) =
                size.split_at(size.find(|c: char| !c.is_ascii_digit()).unwrap_or(size.len()));
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => 1,
            };
            Some((level, kind, digits.parse::<usize>().ok()? * scale))
        })
        .collect()
}

/// Size of the last-level cache in bytes (0 when sysfs does not say).
pub fn llc_bytes() -> usize {
    caches().iter().filter(|c| c.1 != "Instruction").max_by_key(|c| c.0).map_or(0, |c| c.2)
}

pub fn mem_available_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("MemAvailable:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<usize>().ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// First line of a command's output, `"unknown"` when it cannot run (the
/// driver's checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn block(seed: u64, seconds: f64) -> Json {
    let features = CpuFeatures::detect();
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "caches",
            Json::Arr(
                caches()
                    .into_iter()
                    .map(|(level, kind, bytes)| {
                        Json::obj(vec![
                            ("level", Json::Num(level as f64)),
                            ("type", Json::Str(kind)),
                            ("bytes", Json::Num(bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cpu_features",
            Json::obj(vec![("avx2", Json::Bool(features.avx2)), ("fma", Json::Bool(features.fma))]),
        ),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        ("git_commit", Json::Str(first_line("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_workload", Json::Num(seconds)),
    ])
}
