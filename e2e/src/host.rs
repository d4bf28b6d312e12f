//! What the harness reads from the host: CPU time, peak memory, core
//! count, the file system under the media directory and the git revision.
//! All of it comes from `/proc` (this tree has no libc dependency).

use std::path::Path;

/// Kernel clock ticks per second (`USER_HZ`), the unit of the CPU times in
/// `/proc/self/stat`. It is 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <superopts>"
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Short git revision of the tree the harness runs in, or `"unknown"`
/// (the benchmark driver's checkout is not a git repository).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
