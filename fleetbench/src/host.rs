//! Host facts for the run record: CPU steal and peak memory.

/// Aggregate CPU counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks. `None` where the file is missing.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let total = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// Share of CPU time the hypervisor stole between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
