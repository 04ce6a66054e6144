//! Process-level measurements read from `/proc` (Linux).

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// User plus system CPU time of every thread of this process so far, in
/// seconds (10 ms resolution).
pub fn cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / USER_HZ
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The CPU model name, for the record of where a baseline was measured.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
